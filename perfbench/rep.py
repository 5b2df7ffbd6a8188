"""One repetition of one workload, in the interpreter it was started in.

    python3 perfbench/rep.py --workload NAME --trace 0|1

Sets the run up SETUP_REPS times, runs the simulation and evaluates it
once, checks the outputs, and prints one JSON object with the raw figures on
its last line. `run.py` starts every repetition as a fresh interpreter, so the
module-level caches of drivesim that are keyed by id() start empty each time.
With --trace 1 the public calls of every layer are wrapped and timed (see
spans.py), the run outputs are written as `drivesim run` writes them, and the
per-layer figures are added to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 15  # set-ups per repetition; setup_s is the median over a run


def import_drivesim():
    import drivesim

    src = (ROOT / "src").resolve()
    if src not in Path(drivesim.__file__).resolve().parents:
        raise SystemExit(f"drivesim imported from {drivesim.__file__}, not from {src}")


def repetition(name: str, trace: bool):
    """Figures of one repetition, and the objects the checks read."""
    import_drivesim()
    from drivesim import cli, engine, metrics

    workload = WORKLOADS[name]
    if trace:
        tracer = spans.Tracer()
        undo = spans.install(tracer)

    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        doc = cli.load_run_config(workload.config)
        scenario, bindings, sim_cfg, predictor, metric_cfg, scn_path = cli.build_run(doc)
        setup_s.append(time.perf_counter() - t0)

    t0, c0 = time.perf_counter(), time.process_time()
    result = engine.run(scenario, bindings, sim_cfg, predictor)
    run_s, run_cpu_s = time.perf_counter() - t0, time.process_time() - c0

    t0, c0 = time.perf_counter(), time.process_time()
    report = metrics.evaluate(result, scenario, metric_cfg)
    evaluate_s, evaluate_cpu_s = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plan_calls = sum(1 for log in result.step_logs
                     for e in log.agents.values() if e["planner_status"] is not None)
    statuses = {aid: st.value for aid, st in sorted(result.statuses.items())}
    figures = {
        "workload": name,
        "trace": int(trace),
        "setup_s": setup_s,
        "run_s": run_s,
        "evaluate_s": evaluate_s,
        "run_cpu_s": run_cpu_s,
        "evaluate_cpu_s": evaluate_cpu_s,
        "plan_calls": plan_calls,
        "step_total_s": [log.timings["total"] for log in result.step_logs],
        "steps": len(result.step_logs),
        "peak_rss_mb": peak_rss_mb,
        "statuses": statuses,
        "attempted": len(statuses),
        "failed": sum(st in ("collided", "infeasible") for st in statuses.values()),
    }

    if trace:
        run_dir = OUT / f"run-{name}"
        cli.write_run_outputs(run_dir, result, {"config_path": str(workload.config),
                                                "scenario_path": scn_path,
                                                "config_digest": cli.config_digest(doc)})
        undo()
        summary = spans.summarize(tracer)
        figures["layers"] = spans.layer_metrics(summary, [log.timings for log in result.step_logs])
        tracer.write(OUT / f"trace-{name}.json")
        table = {n: {k: v for k, v in e.items() if k != "durations"}
                 for n, e in sorted(summary["names"].items())}
        (OUT / f"layers-{name}.json").write_text(json.dumps(
            {"names": table, "layer_self_s": summary["layer_self_s"],
             "metrics": figures["layers"]}, indent=1))

    found = checks.run_checks(workload, result, scenario, report, metric_cfg)
    figures["headways_compared"] = found["headways_compared"]
    figures["problems"] = {k: v for k, v in found["problems"].items() if v}
    figures["checks"] = sorted(found["problems"])
    return figures, (workload, result, scenario, report, metric_cfg)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    figures, _ = repetition(args.workload, bool(args.trace))
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
