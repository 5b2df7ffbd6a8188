"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py wraps drivesim functions by name from outside the
package; renaming one of them would stop the benchmark from starting. The
module is compiled from its source text, so the check writes nothing under
perfbench/.
"""

import types
from pathlib import Path

from drivesim import engine, geometry, metrics, scenario

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_restores():
    spans = _load_spans()
    originals = (geometry.CurvilinearFrame.project, scenario.StreetNetwork.nearest_lanelet,
                 metrics.select_frames, engine.predict_all)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert geometry.CurvilinearFrame.project is not originals[0]
        net = scenario.StreetNetwork([])
        assert net.localize((0.0, 0.0)) is None
        assert [s[0] for s in tracer.spans] == ["scenario.nearest_lanelet"]
    finally:
        undo()
    assert (geometry.CurvilinearFrame.project, scenario.StreetNetwork.nearest_lanelet,
            metrics.select_frames, engine.predict_all) == originals
