"""Vehicle state, control inputs, kinematic transition model, and limits."""

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


def transition(x, y, v, theta, accel, kappa, dt: float):
    """Kinematic update, elementwise over arrays of states (x, y, v, theta)
    and inputs (accel, kappa): clamp speed at 0, advance along an arc of the
    commanded curvature at the mean of old and new speed, and turn the
    heading by v * kappa * dt at the old speed. Returns the new (x, y, v,
    theta).

    Where np.sin, np.cos and np.fmod round as the math module does, as the
    tests check, a state gets bitwise what scalar arithmetic would give it.
    """
    v_new = v + accel * dt
    v_new = np.where(v_new > 0.0, v_new, 0.0)
    ds = 0.5 * (v + v_new) * dt
    straight = (np.abs(kappa) < 1e-12) | (ds < 1e-15)
    k = np.where(straight, 1.0, kappa)
    theta_end = theta + k * ds
    x_new = np.where(straight, x + ds * np.cos(theta),
                     x + (np.sin(theta_end) - np.sin(theta)) / k)
    y_new = np.where(straight, y + ds * np.sin(theta),
                     y + (np.cos(theta) - np.cos(theta_end)) / k)
    return x_new, y_new, v_new, normalize_angles(theta + v * kappa * dt)


def rollout_arrays(x, y, v, theta, accel: np.ndarray, kappa: np.ndarray, dt: float):
    """States (..., K+1) of every trajectory that starts at (x, y, v, theta)
    (scalars or arrays (...)) and follows inputs accel, kappa (..., K)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    shape = accel.shape[:-1] + (accel.shape[-1] + 1,)
    states = tuple(np.empty(shape) for _ in range(4))
    for out, start in zip(states, (x, y, v, theta)):
        out[..., 0] = start
    xs, ys, vs, thetas = states
    for k in range(accel.shape[-1]):
        (xs[..., k + 1], ys[..., k + 1], vs[..., k + 1], thetas[..., k + 1]) = transition(
            xs[..., k], ys[..., k], vs[..., k], thetas[..., k], accel[..., k], kappa[..., k], dt)
    return states


def step(state: AgentState, u: ControlInput, dt: float) -> AgentState:
    """One transition of a single state; see transition."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    x, y, v, theta = transition(state.x, state.y, state.v, state.theta,
                                u.accel, u.curvature_cmd, dt)
    return AgentState(float(x), float(y), float(v), float(theta))


class Trajectory:
    """States at fixed dt plus the inputs connecting them (one fewer)."""

    def __init__(self, states, inputs, dt: float, validate: bool = False):
        states = list(states)
        inputs = list(inputs)
        if len(states) < 1:
            raise ValueError("Trajectory needs at least one state")
        if len(inputs) != len(states) - 1:
            raise ValueError("need exactly one input per transition")
        if validate:
            for i, (s, u) in enumerate(zip(states[:-1], inputs)):
                nxt = step(s, u, dt)
                err = math.hypot(nxt.x - states[i + 1].x, nxt.y - states[i + 1].y)
                err = max(err, abs(nxt.v - states[i + 1].v))
                if err > 1e-6:
                    raise ValueError(f"state {i + 1} inconsistent with transition model ({err:.2e})")
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
