"""Constant-speed lane-following motion prediction with growing uncertainty.

Replaces learned prediction: every vehicle is propagated along its current
lanelet centerline (and the best-aligned successor chain) at constant speed,
keeping its lateral offset; off-road vehicles continue straight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AgentState, normalize_angle, normalize_angles
from .geometry import CurvilinearFrame, GeometryError
from .scenario import StreetNetwork


@dataclass(frozen=True)
class PredictorConfig:
    horizon: float = 3.0       # s
    growth_rate: float = 0.5   # m of positional stddev per s of horizon

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon={self.horizon} must be > 0")
        if not self.growth_rate >= 0:
            raise ValueError(f"growth_rate={self.growth_rate} must be >= 0")

    def n_steps(self, dt: float) -> int:
        n = self.horizon / dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError(f"horizon {self.horizon} s is not a multiple of dt={dt} s")
        return int(round(n))


@dataclass(frozen=True)
class PredictedPath:
    """Predicted motion at steps 0..n: poses (n+1, 3) of (x, y, theta), row 0
    the time-t pose and theta wrapped as AgentState wraps it; v, the constant
    speed; pos_stddev (n+1,), the positional stddev at each step."""

    poses: np.ndarray
    v: float
    pos_stddev: np.ndarray

    def __post_init__(self):
        if len(self.poses) != len(self.pos_stddev):
            raise ValueError("poses and pos_stddev must have equal length")


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


def _path(state: AgentState, x, y, theta, dt: float, growth_rate: float):
    """The prediction through poses (x, y, theta) at steps 1..n after state."""
    poses = np.column_stack([np.append(state.x, x), np.append(state.y, y),
                             normalize_angles(np.append(state.theta, theta))])
    return PredictedPath(poses, state.v, growth_rate * np.arange(len(poses)) * dt)


def ahead(x, y, theta: float, dist):
    """Points dist ahead of (x, y) along heading theta."""
    return x + dist * math.cos(theta), y + dist * math.sin(theta)


def _straight_prediction(state: AgentState, n: int, dt: float,
                         growth_rate: float) -> PredictedPath:
    x, y = ahead(state.x, state.y, state.theta, state.v * np.arange(1, n + 1) * dt)
    return _path(state, x, y, np.full(n, state.theta), dt, growth_rate)


def _lane_prediction(state: AgentState, frame: CurvilinearFrame, n: int, dt: float,
                     growth_rate: float) -> PredictedPath:
    """Constant speed along the frame at the current lateral offset; past
    the chain end, straight on along the final tangent from the clamped end.
    Straight from the state when the offset folds over anywhere on the way."""
    s0, d0, _ = frame.project((state.x, state.y))
    s = s0 + state.v * np.arange(1, n + 1) * dt
    on_frame = np.minimum(s, frame.length)
    try:
        p = frame.to_cartesian(on_frame, d0)
    except GeometryError:
        return _straight_prediction(state, n, dt, growth_rate)
    past = s > frame.length
    x, y = ahead(p[:, 0], p[:, 1], frame.tangent_angle_at(frame.length), s - frame.length)
    x, y = np.where(past, x, p[:, 0]), np.where(past, y, p[:, 1])
    return _path(state, x, y, frame.tangent_angle_at(on_frame), dt, growth_rate)


def predict_all(states: dict[str, AgentState], network: StreetNetwork,
                cfg: PredictorConfig, dt: float) -> dict[str, PredictedPath]:
    """Predict every vehicle over the horizon; deterministic in its inputs."""
    n = cfg.n_steps(dt)
    vids = sorted(states)
    points = np.array([(states[vid].x, states[vid].y) for vid in vids]).reshape(-1, 2)
    out = {}
    for vid, lid in zip(vids, network.localize(points)):
        state = states[vid]
        if lid is None:
            out[vid] = _straight_prediction(state, n, dt, cfg.growth_rate)
            continue
        first_len = network.lanelets[lid].centerline.length
        needed = first_len + state.v * cfg.horizon + 10.0
        frame = network.chain_frame(lane_chain(network, lid, state.theta, needed))
        out[vid] = _lane_prediction(state, frame, n, dt, cfg.growth_rate)
    return out
