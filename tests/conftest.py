"""Shared fixtures: cached runs of the bundled regime configurations."""

import dataclasses

import numpy as np
import pytest

from drivesim import engine
from drivesim.cli import build_run, load_run_config
from drivesim.dynamics import AgentState, ControlInput, Trajectory, normalize_angle
from drivesim.planners import LocalView
from drivesim.prediction import PredictorConfig, predicted_boxes
from drivesim.scenario import LOCALIZE_RADIUS


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


def reference_locate(network, x, y, theta):
    """(lanelet, turns) of one pose by the rule of StreetNetwork.locate,
    one lanelet at a time: turns maps each lanelet whose polygon holds the
    pose to |heading - the lanelet's tangent at the pose's arc length|,
    wrapped; the lanelet is the one of least turn, the smaller id among
    equals, else the nearest centre line within LOCALIZE_RADIUS, else None."""
    turns = {}
    for lid in sorted(network.lanelets):
        if network.lanelets[lid].polygon.contains_points(np.array([[x, y]]))[0]:
            frame = network.chain_frame((lid,))
            tangent = frame.tangent_angle_at(frame.project((x, y))[0])
            turns[lid] = abs(normalize_angle(theta - tangent))
    if turns:
        return min(turns, key=lambda lid: (turns[lid], lid)), turns
    lid, dist = network.nearest_lanelet((x, y))
    return (lid if dist <= LOCALIZE_RADIUS else None), turns


def local_view(ego: AgentState, step: int = 0, vehicles=()) -> LocalView:
    """The view of agent "ego" in state ego at step that sees each vehicle of
    vehicles, given as (poses (n+1, 3), v, length, width), in that order.
    Their boxes are grown as the engine grows them with the default
    predictor at dt 0.1."""
    poses = (np.array([p for p, *_ in vehicles], dtype=float) if vehicles
             else np.empty((0, 1, 3)))
    v, length, width = (np.array([veh[i] for veh in vehicles], dtype=float) for i in (1, 2, 3))
    boxes = predicted_boxes(poses, length, width, PredictorConfig(), 0.1)
    return LocalView("ego", ego, step, np.arange(len(vehicles)), poses, v, length, boxes)


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
