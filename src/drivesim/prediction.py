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

from .dynamics import normalize_angle, normalize_angles
from .geometry import GeometryError, occupancy
from .scenario import StreetNetwork


@dataclass(frozen=True)
class PredictorConfig:
    horizon: float = 3.0       # s
    growth_rate: float = 0.5   # m of positional stddev per s of horizon

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon={self.horizon} must be finite and > 0")
        if not (math.isfinite(self.growth_rate) and self.growth_rate >= 0):
            raise ValueError(f"growth_rate={self.growth_rate} must be finite and >= 0")

    def n_steps(self, dt: float) -> int:
        n = self.horizon / dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError(f"horizon {self.horizon} s is not a multiple of dt={dt} s")
        return int(round(n))


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
    poses = np.empty((n + 1, 3))
    poses[0] = x, y, theta
    ahead = poses[1:]
    if along is None:
        ahead[:, 0], ahead[:, 1], ahead[:, 2] = (x + dist * math.cos(theta),
                                                 y + dist * math.sin(theta), theta)
    else:
        frame, s0, d0 = along
        s = s0 + dist
        on_frame = np.minimum(s, frame.length)
        try:
            ahead[:, :2] = frame.to_cartesian(on_frame, d0)
        except GeometryError:  # the offset folds over
            return extrapolate(x, y, v, theta, None, n, dt)
        ahead[:, 2] = frame.tangent_angle_at(on_frame)
        past = s > frame.length
        if past.any():
            # the poses past the end lie on the end's tangent, which the
            # last pose, the farthest past it, holds
            end, beyond = ahead[-1, 2], s[past] - frame.length
            ahead[past, 0] += beyond * math.cos(end)
            ahead[past, 1] += beyond * math.sin(end)
    poses[:, 2] = normalize_angles(poses[:, 2])
    return poses


def predict_all(states: np.ndarray, network: StreetNetwork, cfg: PredictorConfig,
                dt: float) -> np.ndarray:
    """Poses (V, n+1, 3) over the horizon's n steps of each vehicle of states
    (V, 4) of (x, y, v, theta), row for row (extrapolate along its predicted
    chain); deterministic in its inputs."""
    n = cfg.n_steps(dt)
    poses = np.empty((len(states), n + 1, 3))
    lanelets = network.localize(states[:, :2])
    for row, (x, y, v, theta), lid in zip(poses, states.tolist(), lanelets):
        along = None
        if lid is not None:
            frame = network.chain_frame(predicted_chain(network, lid, theta, v, cfg.horizon))
            along = (frame, *frame.project((x, y))[:2])
        row[:] = extrapolate(x, y, v, theta, along, n, dt)
    return poses


def predicted_boxes(poses: np.ndarray, length, width, cfg: PredictorConfig,
                    dt: float) -> np.ndarray:
    """Boxes (V, n+1, 5) of the poses (V, n+1, 3) of vehicles of length and
    width (V,), with length and width grown by twice the positional stddev
    at each step k, growth_rate * k * dt, so every side moves out by it."""
    grown = 2.0 * (cfg.growth_rate * np.arange(poses.shape[1]) * dt)
    return occupancy(poses, np.asarray(length)[:, None] + grown,
                     np.asarray(width)[:, None] + grown)
