"""Lockstep engine: statuses, invariants, determinism, benchmarking."""

import collections
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drivesim import engine, geometry, planners
from drivesim.cli import build_run, load_run_config, resolve_scenario_path
from drivesim.dynamics import AgentState
from drivesim.engine import (AgentStatus, PlannerBinding, SetupError,
                             SimulationConfig, benchmark, run)
from drivesim.geometry import Polygon, Polyline
from drivesim.scenario import (GoalRegion, Lanelet, PlanningProblem, Scenario,
                               StaticObstacle, StreetNetwork, load_scenario,
                               substitute_agents)

from conftest import run_bundled

HIGHWAY_FRENET12 = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "configs" / "highway_frenet12.json")


def _bundled(name):
    return load_scenario(resolve_scenario_path(name, Path(".")))


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(worker_count=0)


def test_missing_binding_rejected():
    scenario = substitute_agents(_bundled("merge"), ["green", "orange"])
    with pytest.raises(SetupError):
        run(scenario, {}, SimulationConfig(max_steps=5))


def test_all_agents_reach_terminal_status(merge_runs):
    result, _, _ = merge_runs["idm"]
    for aid, status in result.statuses.items():
        assert status is not AgentStatus.RUNNING
        assert result.terminal_steps[aid] is not None


def test_status_transitions_are_monotone(merge_runs):
    result, _, _ = merge_runs["replay"]
    for aid in result.statuses:
        seen_terminal = None
        for log in result.step_logs:
            status = log.agents[aid]["status"]
            if seen_terminal is not None:
                assert status == seen_terminal
            elif status != AgentStatus.RUNNING.value:
                seen_terminal = status
        assert seen_terminal is not None


def test_collided_agents_freeze(merge_runs):
    result, _, _ = merge_runs["replay"]
    collision_step = result.terminal_steps["green"]
    assert result.statuses["green"] is AgentStatus.COLLIDED
    # trajectory is truncated at the collision: no states recorded afterwards
    assert len(result.trajectories["green"].states) == collision_step + 1


def test_rerun_is_bit_identical():
    first, _, _ = run_bundled("intersection_replay")
    second, _, _ = run_bundled("intersection_replay")
    assert first.statuses == second.statuses
    for aid in first.trajectories:
        for a, b in zip(first.trajectories[aid].states, second.trajectories[aid].states):
            assert (a.x, a.y, a.v, a.theta) == (b.x, b.y, b.v, b.theta)


def test_step_logs_carry_timings(merge_runs):
    """Every step times its phases: prediction, collision check, view
    construction, each planning batch and applying the next states, each
    within the step's total."""
    result, _, _ = merge_runs["idm"]
    phases = ("prediction", "collision_check", "views", "apply")
    for log in result.step_logs:
        assert set(log.timings) == {*phases, "planning_batches", "total"}
        assert log.timings["total"] > 0
        spent = [log.timings[p] for p in phases] + log.timings["planning_batches"]
        assert all(t >= 0 for t in spent)
        assert sum(spent) <= log.timings["total"]


def _recorded_batches(monkeypatch, scenario, bindings, cfg, predictor=None):
    """Every batch handed to _plan_batch in a run, in order."""
    batches = []
    plan_batch = engine._plan_batch

    def recording_plan_batch(planners, batch):
        batches.append(batch)
        return plan_batch(planners, batch)

    monkeypatch.setattr(engine, "_plan_batch", recording_plan_batch)
    run(scenario, bindings, cfg, predictor)
    return batches


def test_visibility_radius_bounds_what_each_agent_sees(monkeypatch):
    """Two parked agents, m1 at x = 0 and m2 at x = 40, among parked
    vehicles on a straight road: each view's seen rows are those within the
    visibility radius, inclusive, its own row left out, in id order. Vehicle
    a is exactly 100 m from m1 and seen; z is 1e-6 m further than that
    behind m1 and not."""
    xs = np.linspace(-120.0, 320.0, 45)
    road = StreetNetwork([Lanelet("road", Polyline(np.column_stack([xs, np.full(45, 6.0)])),
                                  Polyline(np.column_stack([xs, np.full(45, -6.0)])))])
    where = {"m1": 0.0, "m2": 40.0, "a": 100.0, "b": 60.0, "y": -50.0, "z": -100.0 - 1e-6}
    parked = {vid: AgentState(x, 0.0, 0.0, 0.0) for vid, x in where.items()}
    goal = GoalRegion(Polygon([[300, -1], [310, -1], [310, 1], [300, 1]]), t_max=10.0)
    scenario = Scenario(road, [StaticObstacle(vid, 4.5, 2.0, parked[vid]) for vid in "abyz"], [],
                        [PlanningProblem(aid, parked[aid], goal) for aid in ("m1", "m2")], 0.1)
    bindings = {aid: PlannerBinding("replay", np.array([[where[aid], 0.0, 0.0, 0.0]] * 2))
                for aid in ("m1", "m2")}
    cfg = SimulationConfig(max_steps=1, visibility_radius=100.0)
    batch, = _recorded_batches(monkeypatch, scenario, bindings, cfg)
    at = {x: vid for vid, x in where.items()}
    seen = {}
    for aid, view, _ in batch:
        seen[aid] = [at[x] for x in view.poses[view.seen, 0, 0].tolist()]
        assert view.poses[:, 0, 0].tolist() == [where[vid] for vid in sorted(where)]
    assert seen == {"m1": ["a", "b", "m2", "y"], "m2": ["a", "b", "m1", "y"]}


def test_views_share_the_step_arrays(monkeypatch):
    """Every view of a step holds the same poses, v, length and boxes
    arrays, so a pickled batch of the twelve highway Frenet agents carries
    them once: it stays within the 54,415 bytes a batch took when each view
    held one object per vehicle it saw."""
    scenario, bindings, sim_cfg, predictor, _, _ = build_run(load_run_config(HIGHWAY_FRENET12))
    batches = _recorded_batches(monkeypatch, scenario, bindings, sim_cfg, predictor)
    assert len(batches) == sim_cfg.max_steps
    for batch in batches:
        assert len(batch) == 12
        first = batch[0][1]
        for _, view, _ in batch:
            for name in ("poses", "v", "length", "boxes"):
                assert getattr(view, name) is getattr(first, name)
        assert len(pickle.dumps(batch)) <= 54_415


def test_region_queries_per_step_on_intersection_frenet(monkeypatch):
    """One engine.run of intersection_frenet asks the street network's
    region index once per step for the road check (box_inside_region) and
    once per StreetNetwork.locate call, and once per route_to_goal call
    for the lanelets holding a goal vertex, and asks nothing else of it.
    route_to_goal asks the goal area's index once for the centre lines in
    it. Polygon.contains_points runs only for goal_satisfied, two calls; so
    no loop of containment tests over the lanelet polygons is left."""
    scenario, bindings, sim_cfg, predictor, _, _ = build_run(load_run_config("intersection_frenet"))
    inside, calls, asked = [], collections.Counter(), []
    holds = geometry.RegionIndex.holds

    def counted(owner, name):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "contains_points":
                calls["contains_points from " + sys._getframe(1).f_code.co_name] += 1
            inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, wrapper)

    def recorded_holds(region, *args, **kwargs):
        asked.append((region, inside[-1] if inside else None))
        return holds(region, *args, **kwargs)

    counted(engine, "box_inside_region")
    counted(StreetNetwork, "locate")
    counted(planners, "route_to_goal")
    counted(geometry.Polygon, "contains_points")
    monkeypatch.setattr(geometry.RegionIndex, "holds", recorded_holds)
    result = engine.run(scenario, bindings, sim_cfg, predictor)
    steps = len(result.step_logs)
    assert steps > 100 and calls["box_inside_region"] == steps
    assert calls["locate"] >= steps
    by_caller = collections.Counter((region is scenario.network.region, caller)
                                    for region, caller in asked)
    routes = calls["route_to_goal"]
    assert routes == len(scenario.planning_problems) == 2
    assert by_caller == {(True, "box_inside_region"): steps,
                         (True, "locate"): calls["locate"],
                         (True, "route_to_goal"): routes, (False, "route_to_goal"): routes,
                         (False, "contains_points"): 2}
    assert calls["contains_points"] == calls["contains_points from goal_satisfied"] == 2


def test_benchmark_rows():
    scenario = _bundled("highway")
    rows = benchmark(scenario, agent_counts=[2], worker_counts=[1], repetitions=1,
                     steps=5)
    assert len(rows) == 1
    row = rows[0]
    assert row["n_agents"] == 2 and row["workers"] == 1
    assert row["mean_step_time"] > 0
    assert row["q1_step_time"] <= row["q3_step_time"]


def test_benchmark_row_counts_removed_agents():
    rows = benchmark(_bundled("highway"), agent_counts=[2], worker_counts=[1],
                     repetitions=1, steps=1)
    assert rows[0]["agents_removed"] == 0


def test_benchmark_row_counts_every_outcome():
    """Each row counts the agents of every final status: reached (in time
    or late), missed (goal or time limit), collided and infeasible. Of 8
    highway Frenet agents over 10 steps, 4 collide and 4 miss their goal."""
    row, = benchmark(_bundled("highway"), agent_counts=[8], worker_counts=[1],
                     repetitions=1, steps=10)
    assert [row[k] for k in ("reached", "missed", "collided", "infeasible")] == [0, 4, 4, 0]
    assert row["agents_removed"] == row["collided"] + row["infeasible"]


def test_benchmark_row_without_planning(monkeypatch):
    """A row in which no agent ever plans (as when every agent is removed at
    step 0) reports nan batch times instead of failing on an empty mean."""
    real_run = engine.run

    def unplanned_run(*args):
        result = real_run(*args)
        for log in result.step_logs:
            log.timings["planning_batches"] = []
        return result

    monkeypatch.setattr(engine, "run", unplanned_run)
    row, = benchmark(_bundled("highway"), agent_counts=[1], worker_counts=[1],
                     repetitions=1, steps=1)
    assert row["mean_step_time"] > 0
    assert all(math.isnan(row[f"{stat}_batch_planning_time"]) for stat in ("mean", "q1", "q3"))


def test_benchmark_rejects_oversized_agent_count():
    scenario = _bundled("merge")
    with pytest.raises(SetupError):
        benchmark(scenario, agent_counts=[99], worker_counts=[1], repetitions=1)


_KILL_A_WORKER = """
import os, sys
from conftest import run_bundled
from drivesim import planners

parent = os.getpid()


def die(self, view, memory):
    if os.getpid() != parent:
        os._exit(3)
    raise AssertionError("planned in the parent process")


planners.FrenetPlanner.plan = die
try:
    run_bundled("merge_frenet", worker_count=2)
except RuntimeError as exc:
    print(exc)
    sys.exit(0)
sys.exit("the run finished although its workers died")
"""


def test_dead_worker_fails_the_run():
    """A planning worker that dies ends the run with an error naming the
    step. The run happens in a child interpreter with a timeout, so that a
    parent left waiting for the dead worker's batch fails the test instead
    of hanging it."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", _KILL_A_WORKER], env=env, cwd=tests.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("step 0: a planning worker died"), proc.stdout
