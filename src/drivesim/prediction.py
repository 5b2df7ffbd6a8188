"""Constant-speed lane-following motion prediction with growing uncertainty.

Replaces learned prediction: every vehicle is propagated along its current
lanelet centerline (and the best-aligned successor chain) at constant speed,
keeping its lateral offset; off-road vehicles continue straight. predict_all
is the only motion model of the package: the engine predicts every vehicle
of a step with it, and the metrics' crossing TTC predicts a vehicle pair
over its crossing steps with it, at a longer horizon. It makes one
projection and one extrapolate call per distinct lane chain of its rows.
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
        angle = network.chain_frame((sid,)).tangent_angle_at(0.0)
        score = math.cos(normalize_angle(angle - heading))
        if score > best_score + 1e-12:
            best, best_score = sid, score
    return best


def lane_chain(network: StreetNetwork, start_lanelet: str, heading: float,
               needed_length: float) -> tuple[str, ...]:
    """Lanelet chain from start covering at least needed_length (if possible)."""
    chain = [start_lanelet]
    total = network.lanelets[start_lanelet].centerline.length
    while total < needed_length:
        nxt = _best_successor(network, chain[-1], heading)
        if nxt is None or nxt in chain:
            break
        chain.append(nxt)
        total += network.lanelets[nxt].centerline.length
    return tuple(chain)


def _unit(angles: np.ndarray) -> np.ndarray:
    """(cos, sin) rows (R, 2) of angles (R,) by math.cos and math.sin, which
    np.cos and np.sin may miss in the last bit."""
    return np.array([(math.cos(a), math.sin(a)) for a in angles.tolist()]).reshape(-1, 2)


def extrapolate(states: np.ndarray, along, n: int, dt: float) -> np.ndarray:
    """Poses (R, n+1, 3) of (x, y, theta) at steps 0..n of each vehicle of
    states (R, 4) of (x, y, v, theta) that keeps its speed v, step 0 its
    current pose and theta wrapped as AgentState wraps it. along is (frame,
    s0, d0), one lane chain frame that every row follows and each row's arc
    length and lateral offset (R,) there, or None. A vehicle follows the
    frame at offset d0 and, past the chain end, goes straight on along the
    final tangent from the end; with no frame, or when its offset folds over
    anywhere on the way, it goes straight on from (x, y) along theta. Every
    row's poses are bitwise those it gets alone."""
    v, theta = states[:, 2], states[:, 3]
    dist = v[:, None] * np.arange(1, n + 1) * dt
    poses = np.empty((len(states), n + 1, 3))
    poses[:, 0] = states[:, [0, 1, 3]]
    ahead = poses[:, 1:]
    if along is None:
        ahead[..., :2] = states[:, None, :2] + dist[..., None] * _unit(theta)[:, None]
        ahead[..., 2] = theta[:, None]
    else:
        frame, s0, d0 = along
        s = s0[:, None] + dist
        on_frame = np.minimum(s, frame.length)
        try:
            ahead[..., :2] = frame.to_cartesian(on_frame, d0[:, None])
        except GeometryError:  # some offsets fold over: those rows go straight on
            folds = frame.folds(on_frame, d0[:, None]).any(axis=1)
            poses[folds] = extrapolate(states[folds], None, n, dt)
            poses[~folds] = extrapolate(states[~folds], (frame, s0[~folds], d0[~folds]), n, dt)
            return poses
        ahead[..., 2] = frame.tangent_angle_at(on_frame)
        past = s > frame.length
        if past.any():
            # the poses past the end lie on the end's tangent, which each
            # row's last pose, the farthest past it, holds
            end = _unit(ahead[:, -1, 2])
            ahead[past, :2] += ((s - frame.length)[..., None] * end[:, None])[past]
    poses[..., 2] = normalize_angles(poses[..., 2])
    return poses


def predict_all(states: np.ndarray, lanelets: list, network: StreetNetwork,
                cfg: PredictorConfig, dt: float) -> np.ndarray:
    """Poses (V, n+1, 3) over the horizon's n steps of each vehicle of states
    (V, 4) of (x, y, v, theta), row for row; deterministic in its inputs.
    lanelets holds each row's located lanelet (network.locate) or None.
    A vehicle with a lanelet is extrapolated along the lane chain from it
    that covers the lanelet, v * horizon and 10 m (lane_chain), any other
    straight on. The rows are grouped by chain: one projection and one
    extrapolate call per distinct chain, and one for the rows without a
    lanelet. Every row's poses are bitwise those it gets alone."""
    n = cfg.n_steps(dt)
    groups: dict[tuple | None, list[int]] = {}
    located = zip(states[:, 2:].tolist(), lanelets)
    for row, ((v, theta), lid) in enumerate(located):
        chain = None if lid is None else lane_chain(
            network, lid, theta, network.lanelets[lid].centerline.length + v * cfg.horizon + 10.0)
        groups.setdefault(chain, []).append(row)
    poses = np.empty((len(states), n + 1, 3))
    for chain, rows in groups.items():
        frame = None if chain is None else network.chain_frame(chain)
        along = None if frame is None else (frame, *frame.project(states[rows, :2])[:2])
        poses[rows] = extrapolate(states[rows], along, n, dt)
    return poses


def predicted_boxes(poses: np.ndarray, length, width, cfg: PredictorConfig,
                    dt: float) -> np.ndarray:
    """Boxes (V, n+1, 5) of the poses (V, n+1, 3) of vehicles of length and
    width (V,), with length and width grown by twice the positional stddev
    at each step k, growth_rate * k * dt, so every side moves out by it."""
    grown = 2.0 * (cfg.growth_rate * np.arange(poses.shape[1]) * dt)
    return occupancy(poses, np.asarray(length)[:, None] + grown,
                     np.asarray(width)[:, None] + grown)
