"""Lockstep engine: statuses, invariants, determinism, benchmarking."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drivesim import engine
from drivesim.cli import resolve_scenario_path
from drivesim.engine import (AgentStatus, PlannerBinding, SetupError,
                             SimulationConfig, benchmark, run)
from drivesim.scenario import load_scenario, substitute_agents

from conftest import run_bundled


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
    result, _, _ = merge_runs["idm"]
    log = result.step_logs[0]
    assert {"prediction", "collision_check", "planning_batches", "total"} <= set(log.timings)
    assert log.timings["total"] > 0


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
