"""The benchmark's tooling against the package, and the package against
the benchmark's output checks.

perfbench/spans.py wraps drivesim functions by name from outside the
package; renaming one of them would stop the benchmark from starting.
perfbench/checks.py recomputes figures of a run with code of its own, so
it serves as an oracle for every workload of perfbench/workloads.py.
tools/make_fixtures.py rebuilds the bundled scenarios from the vehicle model,
and tools/expected_digests.md pins the outputs of the benchmark's workloads.
Each module is compiled from its source text, so no test writes anything
under perfbench/ or tools/.
"""

import hashlib
import types
from pathlib import Path

import numpy as np
import pytest

from drivesim import engine, geometry, metrics, scenario
from drivesim.cli import build_run, load_run_config, main

from conftest import run_bundled

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DATA = ROOT / "src" / "drivesim" / "data"


def _load(path: Path):
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_restores():
    spans = _load(PERFBENCH / "spans.py")
    originals = (geometry.CurvilinearFrame.project, scenario.StreetNetwork.nearest_lanelet,
                 metrics.select_frames, engine.predict_all)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert geometry.CurvilinearFrame.project is not originals[0]
        net = scenario.StreetNetwork([])
        assert net.locate([(0.0, 0.0, 0.0)])[0] == [None]
        assert [s[0] for s in tracer.spans] == ["scenario.nearest_lanelet"]
    finally:
        undo()
    assert (geometry.CurvilinearFrame.project, scenario.StreetNetwork.nearest_lanelet,
            metrics.select_frames, engine.predict_all) == originals


def test_tracer_times_route_to_goal_in_build_planner():
    """engine.build_planner looks route_to_goal up in planners when it
    builds a Frenet planner, so the tracer's wrapper records the call; an
    import at the top of engine would keep the unwrapped function, and
    planners.route_to_goal_s would read 0."""
    spans = _load(PERFBENCH / "spans.py")
    scn, bindings, *_ = build_run(load_run_config("merge_frenet"))
    problem = scn.planning_problems[0]
    assert bindings[problem.agent_id].kind == "frenet"
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        engine.build_planner(bindings[problem.agent_id], problem, scn)
    finally:
        undo()
    assert "planners.route_to_goal" in [s[0] for s in tracer.spans]


def test_tracer_records_the_metric_layers_of_evaluate(monkeypatch):
    """evaluate on intersection_frenet with the tracer installed records
    select_frames and distance_series once: one table of the pairs of every
    agent with an other vehicle whose centres come within the gating
    distance plus both circumradii at some step, and both agents have such
    a pair. distance_series has the steps of those pairs as its work. It
    records encroachment_times and CurvilinearFrame.project. Every vehicle is
    located by one StreetNetwork.locate call per evaluate over the poses of
    all vehicle logs, stacked, which projects rows of them; every other
    projection made in evaluate outside predict_all is of a vehicle's whole
    track or of a conflict area's vertices. The crossing TTC's predict_all
    calls, made inside select_frames only, project rows of one vehicle's
    track at a time, so nothing inside select_frames projects a single
    point."""
    spans = _load(PERFBENCH / "spans.py")
    result, scn, metric_cfg = run_bundled("intersection_frenet")
    projected, located, selecting, predicting, locating = [], [], [], [], []
    project = geometry.CurvilinearFrame.project
    locate = scenario.StreetNetwork.locate
    select_frames, predict_all = metrics.select_frames, metrics.predict_all

    def recorded_project(self, p):
        projected.append((np.asarray(p), bool(selecting), bool(predicting), bool(locating)))
        return project(self, p)

    def recorded_predict_all(*args):
        assert selecting
        predicting.append(True)
        try:
            return predict_all(*args)
        finally:
            predicting.pop()

    def recorded_locate(self, poses):
        located.append(np.asarray(poses))
        locating.append(True)
        try:
            return locate(self, poses)
        finally:
            locating.pop()

    def recorded_select_frames(*args):
        selecting.append(True)
        try:
            return select_frames(*args)
        finally:
            selecting.pop()

    monkeypatch.setattr(geometry.CurvilinearFrame, "project", recorded_project)
    monkeypatch.setattr(scenario.StreetNetwork, "locate", recorded_locate)
    monkeypatch.setattr(metrics, "select_frames", recorded_select_frames)
    monkeypatch.setattr(metrics, "predict_all", recorded_predict_all)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        metrics.evaluate(result, scn, metric_cfg)
    finally:
        undo()
    names = spans.summarize(tracer)["names"]
    n = len(result.step_logs) + 1
    tracks = {aid: np.array([(s.x, s.y) for s in traj.states])
              for aid, traj in result.trajectories.items()}
    tracks.update((o.id, o.track(np.arange(n))[:, :2]) for o in scn.dynamic_obstacles)
    tracks.update((o.id, np.tile((o.pose.x, o.pose.y), (n, 1))) for o in scn.static_obstacles)
    shapes = {p.agent_id: (p.params.length, p.params.width) for p in scn.planning_problems}
    shapes.update((o.id, (o.length, o.width))
                  for o in scn.dynamic_obstacles + scn.static_obstacles)
    radius = {vid: 0.5 * np.hypot(*shape) for vid, shape in shapes.items()}
    gated_in = {}   # agent -> steps of each of its pairs that may come within the gate
    for aid in result.trajectories:
        for oid in tracks.keys() - {aid}:
            steps = min(len(tracks[aid]), len(tracks[oid]))
            centres = np.linalg.norm(tracks[aid][:steps] - tracks[oid][:steps], axis=1)
            if np.any(centres - radius[aid] - radius[oid] < metric_cfg.gating_distance):
                gated_in.setdefault(aid, []).append(steps)
    assert len(gated_in) == 2 and names["metrics.select_frames"]["calls"] == 1
    assert names["metrics.distance_series"]["calls"] == 1
    assert names["metrics.distance_series"]["work"] == sum(map(sum, gated_in.values()))
    assert names["metrics.encroachment_times"]["calls"] == (
        len(result.trajectories) * len(scn.network.conflict_areas()))
    assert names["geometry.project"]["calls"] == len(projected) > 0
    (poses,) = located   # the logs in evaluate's order: agents, then obstacles
    assert np.array_equal(poses[:, :2], np.vstack(list(tracks.values())))
    areas = [area.vertices for _, area in scn.network.conflict_areas()]
    assert all(any(np.array_equal(p, whole) for whole in [*tracks.values(), *areas])
               for p, _, batched, in_locate in projected if not (batched or in_locate))
    rows = [{tuple(xy) for xy in track.tolist()} for track in tracks.values()]
    assert all(any(set(map(tuple, p.tolist())) <= track for track in rows)
               for p, _, batched, _ in projected if batched)
    stacked = set().union(*rows)
    assert all(set(map(tuple, p.tolist())) <= stacked
               for p, _, _, in_locate in projected if in_locate)
    assert any(batched for _, _, batched, _ in projected)
    assert any(in_locate for *_, in_locate in projected)
    assert any(inside for _, inside, *_ in projected)
    assert all(p.ndim == 2 for p, inside, *_ in projected if inside)


def test_evaluate_scores_each_agents_pairs_in_one_call():
    """On the twelve-agent highway run, evaluate calls select_frames and
    distance_series once each for the 116 pairs it scores, one table for
    all agents (12 calls when each agent's pairs were a table of their own,
    116 when each pair was). distance_series still works through the 464
    steps of those pairs (metrics.pair_steps)."""
    spans = _load(PERFBENCH / "spans.py")
    result, scn, metric_cfg = run_bundled(str(PERFBENCH / "configs" / "highway_frenet12.json"))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        report = metrics.evaluate(result, scn, metric_cfg)
    finally:
        undo()
    names = spans.summarize(tracer)["names"]
    assert len(result.trajectories) == 12
    assert names["metrics.select_frames"]["calls"] == 1
    assert names["metrics.distance_series"]["calls"] == 1
    assert names["metrics.distance_series"]["work"] == 464
    assert len(report.pair_series) == 116


def test_tracer_counts_every_vehicle_predicted():
    """On the traced twelve-agent highway run, prediction.vehicles_predicted
    (the work the tracer records for engine.predict_all, len of its poses)
    is the number of vehicles predicted over all steps: at each step every
    obstacle and every agent that plans."""
    spans = _load(PERFBENCH / "spans.py")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        result, scn, _ = run_bundled(str(PERFBENCH / "configs" / "highway_frenet12.json"))
    finally:
        undo()
    predicted = spans.summarize(tracer)["names"]["prediction.predict_all"]
    obstacles = len(scn.dynamic_obstacles) + len(scn.static_obstacles)
    planned = sum(entry["planner_status"] is not None
                  for log in result.step_logs for entry in log.agents.values())
    assert predicted["calls"] == len(result.step_logs)
    assert predicted["work"] == planned + obstacles * len(result.step_logs) > 0
    assert planned == 12 * len(result.step_logs)


def test_tracer_records_a_road_check_per_step():
    """A traced intersection_frenet run records one geometry.box_inside_region
    span per step that road-checks an agent (one running at the step and in
    no vehicle-pair collision), all of them timed, so the benchmark's
    geometry.box_inside_region_s figure reads the engine's road check."""
    spans = _load(PERFBENCH / "spans.py")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        result, _, _ = run_bundled("intersection_frenet")
    finally:
        undo()
    checked = sum(bool(set(log.agents) - {vid for event in log.collision_events
                                          if event["type"] == "vehicle_pair"
                                          for vid in event["ids"]})
                  for log in result.step_logs)
    road = spans.summarize(tracer)["names"]["geometry.box_inside_region"]
    assert road["calls"] == checked == len(result.step_logs) > 100
    assert road["total_s"] > 0 and min(road["durations"]) > 0


@pytest.mark.parametrize("name", ["highway_frenet12", "intersection_frenet"])
def test_benchmark_checks_pass(name):
    """Every output check of the benchmark passes on its workloads, and the
    highway headway check compares at least one finite headway."""
    checks = _load(PERFBENCH / "checks.py")
    workload = _load(PERFBENCH / "workloads.py").WORKLOADS[name]
    result, scn, metric_cfg = run_bundled(workload.config)
    report = metrics.evaluate(result, scn, metric_cfg)
    out = checks.run_checks(workload, result, scn, report, metric_cfg)
    assert not any(out["problems"].values()), out["problems"]
    if workload.straight_lanes:
        assert out["headways_compared"] > 0


def _expected_digests() -> dict:
    """config -> (steps.jsonl sha256, metrics.json sha256) from the table
    of tools/expected_digests.md."""
    rows = {}
    for line in (ROOT / "tools" / "expected_digests.md").read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and len(cells[1]) == 64:
            rows[cells[0]] = tuple(cells[1:])
    return rows


@pytest.mark.parametrize("name, config", [
    ("intersection_frenet", "intersection_frenet"),
    ("highway_frenet12", str(PERFBENCH / "configs" / "highway_frenet12.json"))])
def test_benchmark_workloads_keep_their_digests(tmp_path, name, config):
    """drivesim run and drivesim evaluate on each benchmark workload write
    steps.jsonl and metrics.json whose sha256 are the workload's row of
    tools/expected_digests.md, the table tools/digests.py checks."""
    expected = _expected_digests()
    assert len(expected) == 9
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out)]) == 0
    assert main(["evaluate", str(out)]) == 0
    assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("steps.jsonl", "metrics.json")) == expected[name]


def test_make_fixtures_regenerates_bundled_scenarios(tmp_path):
    fixtures = _load(ROOT / "tools" / "make_fixtures.py")
    fixtures.DATA_DIR = tmp_path
    for name in ("merge", "t_intersection", "highway"):
        getattr(fixtures, f"make_{name}")()
        assert (tmp_path / f"{name}.json").read_bytes() == (DATA / f"{name}.json").read_bytes()


def test_bench_pairs_summary_on_canned_figures():
    """tools/bench_pairs.py's summary of five canned pairs: each side's
    median and inclusive quartiles, wins counted in the metric's better
    direction with a tie no win, the relative change of the medians, and
    whether that change exceeds the parent's interquartile range."""
    bench_pairs = _load(ROOT / "tools" / "bench_pairs.py")
    parent_run = [1.0, 1.2, 0.9, 1.1, 1.0]
    change_run = [0.8, 1.2, 1.0, 0.7, 0.8]
    parent_rate = [10.0, 8.0, 11.0, 9.0, 10.0]
    change_rate = [12.0, 8.0, 10.0, 13.0, 12.0]
    pairs = [({"run_s": a, "agent_steps_per_s": b, "count": 3},
              {"run_s": c, "agent_steps_per_s": d, "count": 3})
             for a, b, c, d in zip(parent_run, parent_rate, change_run, change_rate)]
    summary = bench_pairs.summarize(pairs, {"run_s": "lower", "agent_steps_per_s": "higher"})
    run, rate, count = summary["run_s"], summary["agent_steps_per_s"], summary["count"]
    assert run["parent"] == pytest.approx({"median": 1.0, "q1": 1.0, "q3": 1.1})
    assert run["change"] == pytest.approx({"median": 0.8, "q1": 0.8, "q3": 1.0})
    assert (run["wins"], run["pairs"], run["resolved"]) == (3, 5, True)
    assert run["change_rel"] == pytest.approx(-0.2)
    assert rate["parent"] == pytest.approx({"median": 10.0, "q1": 9.0, "q3": 10.0})
    assert rate["change"]["median"] == 12.0
    assert (rate["wins"], rate["resolved"]) == (3, True)
    assert (count["wins"], count["change_rel"], count["resolved"]) == (0, 0.0, False)
    # a change within the parent's spread is not resolved; one pair has no spread
    close = bench_pairs.summarize([({"run_s": a}, {"run_s": a - 0.01}) for a in parent_run],
                                  {"run_s": "lower"})["run_s"]
    assert (close["wins"], close["resolved"]) == (5, False)
    one = bench_pairs.summarize(pairs[:1], {"run_s": "lower"})["run_s"]
    assert one["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0} and one["resolved"]
