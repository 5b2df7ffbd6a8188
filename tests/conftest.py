"""Shared fixtures: cached runs of the bundled regime configurations."""

import dataclasses

import pytest

from drivesim import engine
from drivesim.cli import build_run, load_run_config
from drivesim.dynamics import AgentState, ControlInput, Trajectory


def run_bundled(name: str, worker_count: int | None = None, max_steps: int | None = None):
    """Simulate one bundled run configuration (or the config at path name);
    returns (result, scenario, metric_cfg)."""
    doc = load_run_config(name)
    scenario, bindings, sim_cfg, predictor, metric_cfg, _ = build_run(doc)
    if worker_count is not None:
        sim_cfg = dataclasses.replace(sim_cfg, worker_count=worker_count)
    if max_steps is not None:
        sim_cfg = dataclasses.replace(sim_cfg, max_steps=max_steps)
    result = engine.run(scenario, bindings, sim_cfg, predictor)
    return result, scenario, metric_cfg


def candidate_trajectory(table, h: int, r: int, ego: AgentState, dt: float) -> Trajectory:
    """Candidate (h, r) of a Frenet plan's table (FrenetPlanner.candidates)
    as objects over its own K + 1 states, the first of which is ego."""
    K = int(table.steps[h])
    states = zip(*(a[h, r, 1:K + 1].tolist() for a in (table.x, table.y, table.v, table.theta)))
    inputs = zip(table.accel[h, r, :K].tolist(), table.kappa[h, r, :K].tolist())
    return Trajectory([ego] + [AgentState(*st) for st in states],
                      [ControlInput(*u) for u in inputs], dt)


@pytest.fixture(scope="session")
def merge_runs():
    import time

    t0 = time.perf_counter()
    runs = {regime: run_bundled(f"merge_{regime}")
            for regime in ("replay", "idm", "frenet")}
    runs["elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def intersection_runs():
    return {regime: run_bundled(f"intersection_{regime}")
            for regime in ("replay", "idm", "frenet")}
