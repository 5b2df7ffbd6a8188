"""Lockstep engine: statuses, invariants, determinism, benchmarking."""

import dataclasses
from pathlib import Path

import pytest

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


def test_benchmark_rejects_oversized_agent_count():
    scenario = _bundled("merge")
    with pytest.raises(SetupError):
        benchmark(scenario, agent_counts=[99], worker_counts=[1], repetitions=1)
