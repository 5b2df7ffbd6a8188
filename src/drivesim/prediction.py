"""Constant-speed lane-following motion prediction with growing uncertainty.

Replaces learned prediction: every vehicle is propagated along its current
lanelet centerline (and the best-aligned successor chain) at constant speed,
keeping its lateral offset; off-road vehicles continue straight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AgentState, normalize_angle
from .geometry import CurvilinearFrame
from .scenario import StreetNetwork


@dataclass(frozen=True)
class PredictorConfig:
    horizon: float = 3.0       # s
    growth_rate: float = 0.5   # m of positional stddev per s of horizon

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("prediction horizon must be > 0")

    def n_steps(self, dt: float) -> int:
        n = self.horizon / dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError("horizon must be a multiple of dt")
        return int(round(n))


@dataclass(frozen=True)
class PredictedPath:
    vehicle_id: str
    states: tuple[AgentState, ...]
    pos_stddev: tuple[float, ...]

    def __post_init__(self):
        if len(self.states) != len(self.pos_stddev):
            raise ValueError("states and pos_stddev must have equal length")


def _best_successor(network: StreetNetwork, lanelet_id: str, heading: float) -> str | None:
    """Successor whose initial tangent best matches heading; ties by smallest id."""
    best, best_score = None, -math.inf
    for sid in sorted(network.lanelets[lanelet_id].successors):
        angle = network.lanelets[sid].start_tangent_angle()
        score = math.cos(normalize_angle(angle - heading))
        if score > best_score + 1e-12:
            best, best_score = sid, score
    return best


def lane_chain(network: StreetNetwork, start_lanelet: str, heading: float,
               needed_length: float) -> tuple[str, ...]:
    """Lanelet chain from start covering at least needed_length (if possible)."""
    chain = [start_lanelet]
    total = network.lanelets[start_lanelet].centerline.length
    seen = {start_lanelet}
    while total < needed_length:
        nxt = _best_successor(network, chain[-1], heading)
        if nxt is None or nxt in seen:
            break
        chain.append(nxt)
        seen.add(nxt)
        total += network.lanelets[nxt].centerline.length
    return tuple(chain)


def _straight_prediction(vid: str, state: AgentState, n: int, dt: float,
                         growth_rate: float) -> PredictedPath:
    states = [state]
    cos_t, sin_t = math.cos(state.theta), math.sin(state.theta)
    for k in range(1, n + 1):
        states.append(AgentState(
            state.x + state.v * k * dt * cos_t,
            state.y + state.v * k * dt * sin_t,
            state.v, state.theta,
        ))
    stddev = tuple(growth_rate * k * dt for k in range(n + 1))
    return PredictedPath(vid, tuple(states), stddev)


def _lane_prediction(vid: str, state: AgentState, frame: CurvilinearFrame,
                     n: int, dt: float, growth_rate: float) -> PredictedPath:
    s0, d0, _ = frame.project((state.x, state.y))
    states = [state]
    for k in range(1, n + 1):
        s = s0 + state.v * k * dt
        if s <= frame.length:
            try:
                p = frame.to_cartesian(s, d0)
            except Exception:
                return _straight_prediction(vid, state, n, dt, growth_rate)
            theta = frame.tangent_angle_at(s)
        else:
            # past the chain end: continue straight along the final tangent
            theta = frame.tangent_angle_at(frame.length)
            try:
                end = frame.to_cartesian(frame.length, d0)
            except Exception:
                return _straight_prediction(vid, state, n, dt, growth_rate)
            over = s - frame.length
            p = end + over * np.array([math.cos(theta), math.sin(theta)])
        states.append(AgentState(float(p[0]), float(p[1]), state.v, theta))
    stddev = tuple(growth_rate * k * dt for k in range(n + 1))
    return PredictedPath(vid, tuple(states), stddev)


def predict_all(states: dict[str, AgentState], network: StreetNetwork,
                cfg: PredictorConfig, dt: float) -> dict[str, PredictedPath]:
    """Predict every vehicle over the horizon; deterministic in its inputs."""
    n = cfg.n_steps(dt)
    out = {}
    for vid in sorted(states):
        state = states[vid]
        lid = network.localize((state.x, state.y))
        if lid is None:
            out[vid] = _straight_prediction(vid, state, n, dt, cfg.growth_rate)
            continue
        first_len = network.lanelets[lid].centerline.length
        needed = first_len + state.v * cfg.horizon + 10.0
        frame = network.chain_frame(lane_chain(network, lid, state.theta, needed))
        out[vid] = _lane_prediction(vid, state, frame, n, dt, cfg.growth_rate)
    return out
