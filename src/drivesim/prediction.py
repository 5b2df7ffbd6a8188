"""Constant-speed lane-following motion prediction with growing uncertainty.

Replaces learned prediction: every vehicle is propagated along its current
lanelet centerline (and the best-aligned successor chain) at constant speed,
keeping its lateral offset; off-road vehicles continue straight. extrapolate
is the only motion model of the package: the metrics' crossing TTC sweeps
vehicles with it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AgentState, normalize_angle, normalize_angles
from .geometry import GeometryError
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


def predicted_chain(network: StreetNetwork, lanelet_id: str, theta: float, v: float,
                    horizon: float) -> tuple[str, ...]:
    """The lane chain a vehicle in lanelet_id heading theta at speed v is
    extrapolated along for horizon s: its lanelet, v * horizon and 10 m."""
    needed = network.lanelets[lanelet_id].centerline.length + v * horizon + 10.0
    return lane_chain(network, lanelet_id, theta, needed)


def extrapolate(x: float, y: float, v: float, theta: float, along, n: int,
                dt: float) -> np.ndarray:
    """Poses (n+1, 3) of (x, y, theta) at steps 0..n of a vehicle at (x, y)
    heading theta that keeps speed v, row 0 its current pose and theta
    wrapped as AgentState wraps it. along is (frame, s0, d0), the vehicle's
    lane chain frame and its arc length and lateral offset there, or None.
    The vehicle follows the frame at offset d0 and, past the chain end, goes
    straight on along the final tangent from the end; with no frame, or when
    the offset folds over anywhere on the way, it goes straight on from
    (x, y) along theta."""
    dist = v * np.arange(1, n + 1) * dt
    if along is None:
        px, py, pth = x + dist * math.cos(theta), y + dist * math.sin(theta), np.full(n, theta)
    else:
        frame, s0, d0 = along
        s = s0 + dist
        on_frame = np.minimum(s, frame.length)
        try:
            p = frame.to_cartesian(on_frame, d0)
        except GeometryError:  # the offset folds over
            return extrapolate(x, y, v, theta, None, n, dt)
        end = frame.tangent_angle_at(frame.length)
        past = s > frame.length
        px = np.where(past, p[:, 0] + (s - frame.length) * math.cos(end), p[:, 0])
        py = np.where(past, p[:, 1] + (s - frame.length) * math.sin(end), p[:, 1])
        pth = frame.tangent_angle_at(on_frame)
    return np.column_stack([np.append(x, px), np.append(y, py),
                            normalize_angles(np.append(theta, pth))])


def predict_all(states: dict[str, AgentState], network: StreetNetwork,
                cfg: PredictorConfig, dt: float) -> dict[str, PredictedPath]:
    """Predict every vehicle over the horizon; deterministic in its inputs."""
    n = cfg.n_steps(dt)
    vids = sorted(states)
    points = np.array([(states[vid].x, states[vid].y) for vid in vids]).reshape(-1, 2)
    stddev = cfg.growth_rate * np.arange(n + 1) * dt
    out = {}
    for vid, lid in zip(vids, network.localize(points)):
        st = states[vid]
        along = None
        if lid is not None:
            frame = network.chain_frame(predicted_chain(network, lid, st.theta, st.v, cfg.horizon))
            along = (frame, *frame.project((st.x, st.y))[:2])
        out[vid] = PredictedPath(extrapolate(st.x, st.y, st.v, st.theta, along, n, dt),
                                 st.v, stddev)
    return out
