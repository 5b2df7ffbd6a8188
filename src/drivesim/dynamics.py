"""Vehicle state, control inputs, the kinematic rollout, and limits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    theta = math.fmod(theta, TWO_PI)
    if theta > math.pi:
        theta -= TWO_PI
    elif theta <= -math.pi:
        theta += TWO_PI
    return theta


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """normalize_angle elementwise over an array."""
    theta = np.fmod(theta, TWO_PI)
    theta = np.where(theta > math.pi, theta - TWO_PI, theta)
    return np.where(theta <= -math.pi, theta + TWO_PI, theta)


@dataclass(frozen=True)
class AgentState:
    x: float
    y: float
    v: float
    theta: float

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("velocity must be >= 0")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class ControlInput:
    accel: float          # m/s^2
    curvature_cmd: float  # 1/m, path curvature tracked this step


@dataclass(frozen=True)
class VehicleParams:
    length: float = 4.5
    width: float = 2.0
    a_long_max: float = 8.0
    a_lat_max: float = 8.0
    v_max: float = 50.0
    kappa_max: float = 0.2

    def __post_init__(self):
        for name in ("length", "width", "a_long_max", "a_lat_max", "v_max", "kappa_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"VehicleParams.{name} must be positive")


def _settled_prefix(start, increments: np.ndarray, stays, settle) -> np.ndarray:
    """Columns (..., K+1): start, then settle(previous column + increment),
    as prefix sums (np.add.accumulate); the rows with a sum that stays
    rejects, NaN rows among them, are stepped instead (see rollout_arrays)."""
    out = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
    out[..., 0], out[..., 1:] = start, increments
    np.add.accumulate(out, axis=-1, out=out)
    redo = ~np.all(stays(out[..., 1:]), axis=-1)
    if redo.any():
        # a boolean mask, not indices: it also selects the row of a 0-d start
        rows, inc = out[redo], increments[redo]
        for k in range(inc.shape[-1]):
            rows[:, k + 1] = settle(rows[:, k] + inc[:, k])
        out[redo] = rows
    return out


def rollout_arrays(x, y, v, theta, accel: np.ndarray, kappa: np.ndarray, dt: float):
    """States (..., K+1) of every trajectory that starts at (x, y, v, theta)
    (scalars or arrays (...)) and follows inputs accel, kappa (..., K).

    The kinematic model: each step clamps the speed at 0, advances along an
    arc of the commanded curvature at the mean of old and new speed, and
    turns the heading by v * kappa * dt at the old speed, wrapped to
    (-pi, pi]. Speed and heading are prefix sums of their increments, the
    same left-to-right additions as stepping. The clamp leaves a speed > 0
    unchanged, and normalize_angles a heading in (-pi, pi] (fmod is exact),
    so a row whose sums all pass those tests is bitwise the stepped row;
    the rows that clamp or wrap are stepped one step at a time
    (_settled_prefix). The arc increments of x and y are whole (..., K)
    arrays and the positions their prefix sums. A state never depends on
    later inputs, so padding the inputs leaves the leading states bitwise
    unchanged. Where np.sin, np.cos and np.fmod round as the math module
    does, as the tests check, a state gets bitwise what scalar arithmetic
    stepping one state at a time would give it.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    vs = _settled_prefix(v, accel * dt, lambda a: a > 0.0, lambda a: np.where(a > 0.0, a, 0.0))
    thetas = _settled_prefix(theta, vs[..., :-1] * kappa * dt,
                             lambda a: (a > -math.pi) & (a <= math.pi), normalize_angles)
    heading = thetas[..., :-1]
    ds = 0.5 * (vs[..., :-1] + vs[..., 1:]) * dt
    straight = (np.abs(kappa) < 1e-12) | (ds < 1e-15)
    k = np.where(straight, 1.0, kappa)
    sin0, cos0 = np.sin(heading), np.cos(heading)
    theta_end = heading + k * ds
    xs, ys = np.empty(vs.shape), np.empty(vs.shape)
    xs[..., 0], ys[..., 0] = x, y
    xs[..., 1:] = np.where(straight, ds * cos0, (np.sin(theta_end) - sin0) / k)
    ys[..., 1:] = np.where(straight, ds * sin0, (cos0 - np.cos(theta_end)) / k)
    return np.cumsum(xs, axis=-1, out=xs), np.cumsum(ys, axis=-1, out=ys), vs, thetas


def step(state: AgentState, u: ControlInput, dt: float) -> AgentState:
    """The state one step of rollout_arrays after state under input u."""
    x, y, v, theta = (float(a[1]) for a in rollout_arrays(
        state.x, state.y, state.v, state.theta,
        np.array([u.accel], dtype=float), np.array([u.curvature_cmd], dtype=float), dt))
    return AgentState(x, y, v, theta)


class Trajectory:
    """States at fixed dt plus the inputs connecting them (one fewer)."""

    def __init__(self, states, inputs, dt: float, validate: bool = False):
        states = list(states)
        inputs = list(inputs)
        if len(states) < 1:
            raise ValueError("Trajectory needs at least one state")
        if len(inputs) != len(states) - 1:
            raise ValueError("need exactly one input per transition")
        if validate and inputs:
            # every state one step on from its predecessor, in one rollout
            start = np.array([(s.x, s.y, s.v, s.theta) for s in states[:-1]]).T
            accel = np.array([[u.accel] for u in inputs], dtype=float)
            kappa = np.array([[u.curvature_cmd] for u in inputs], dtype=float)
            x, y, v, _ = (a[:, 1] for a in rollout_arrays(*start, accel, kappa, dt))
            given = np.array([(s.x, s.y, s.v) for s in states[1:]])
            err = np.maximum(np.hypot(x - given[:, 0], y - given[:, 1]), np.abs(v - given[:, 2]))
            bad = np.flatnonzero(err > 1e-6)
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"state {i + 1} inconsistent with the kinematic model "
                                 f"({err[i]:.2e})")
        self.states = states
        self.inputs = inputs
        self.dt = dt

    def __len__(self) -> int:
        return len(self.states)

    @property
    def duration(self) -> float:
        return (len(self.states) - 1) * self.dt

    @classmethod
    def from_arrays(cls, initial: AgentState, x, y, v, theta, accel, kappa,
                    dt: float) -> "Trajectory":
        """The objects of a trajectory given as arrays: states (K+1,), the
        first of which is initial itself, and inputs (K,)."""
        states = [initial] + [AgentState(*st) for st in zip(
            x[1:].tolist(), y[1:].tolist(), v[1:].tolist(), theta[1:].tolist())]
        inputs = [ControlInput(a, k) for a, k in zip(accel.tolist(), kappa.tolist())]
        return cls(states, inputs, dt)

    @classmethod
    def rollout(cls, initial: AgentState, inputs, dt: float) -> "Trajectory":
        inputs = list(inputs)
        accel = np.array([u.accel for u in inputs], dtype=float)
        kappa = np.array([u.curvature_cmd for u in inputs], dtype=float)
        states = rollout_arrays(initial.x, initial.y, initial.v, initial.theta, accel, kappa, dt)
        return cls.from_arrays(initial, *states, accel, kappa, dt)


class Violation(NamedTuple):
    index: int
    bound: str
    value: float


class FeasibilityResult(NamedTuple):
    ok: bool
    violation: Violation | None

    def __bool__(self) -> bool:
        return self.ok


BOUNDS = ("a_long_max", "v_max", "kappa_max", "a_lat_max")


def bound_violations(v: np.ndarray, accel: np.ndarray, kappa: np.ndarray,
                     params: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
    """The value each bound of BOUNDS checks at each step of trajectories
    with speeds v (..., K+1) and inputs (..., K), and whether it breaks the
    bound: two arrays (..., K+1, 4).

    Step i checks its inputs and the speed at its start; the last row checks
    only the final speed against v_max. A small slack absorbs float noise at
    the exact bound.
    """
    eps = 1e-9
    v_start = v[..., :-1]
    values = np.zeros(v.shape + (len(BOUNDS),))
    values[..., :-1, 0] = accel
    values[..., 1] = v
    values[..., :-1, 2] = kappa
    values[..., :-1, 3] = v_start * np.abs(v_start * kappa)
    limits = np.array([params.a_long_max, params.v_max, params.kappa_max, params.a_lat_max])
    return values, np.abs(values) > limits + eps


def feasible(traj: Trajectory, params: VehicleParams) -> FeasibilityResult:
    """Check acceleration, lateral acceleration, speed, and curvature limits
    (bound_violations) and report the first violating step."""
    values, violated = bound_violations(
        np.array([s.v for s in traj.states]),
        np.array([u.accel for u in traj.inputs], dtype=float),
        np.array([u.curvature_cmd for u in traj.inputs], dtype=float), params)
    if not violated.any():
        return FeasibilityResult(True, None)
    i, b = np.unravel_index(np.argmax(violated), violated.shape)
    return FeasibilityResult(False, Violation(int(i), BOUNDS[b], float(values[i, b])))
