"""Per-agent planners: deterministic replay, velocity-adjusting path follower
(IDM), and the fully interactive Frenet sampling planner, plus goal routing.

Every planner is a deterministic function of its inputs. Mutable per-agent
planner memory travels as a plain dict owned by the engine, so planning can
run on any worker without hidden state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import AgentState, ControlInput, VehicleParams, normalize_angle
from .geometry import (BoxTable, CurvilinearFrame, boxes_intersect, clamp, gate_tolerance,
                       group_intersects)
from .scenario import GoalRegion, StreetNetwork


class PlannerError(RuntimeError):
    pass


class RouteError(RuntimeError):
    pass


@dataclass(frozen=True)
class LocalView:
    """What an agent observes at one step: its own time-t state and the
    step's predictions, arrays shared by every view of the step with one
    row per vehicle in id order. poses (V, n+1, 3) holds a vehicle's
    predicted (x, y, theta) at steps 0..n, row 0 its time-t pose; v (V,) its
    constant speed; length (V,) its length; boxes (V, n+1, 5) its predicted
    occupancy with length and width grown by twice the positional stddev
    at each step. seen lists, in id order, the rows of the vehicles within the
    visibility radius, the ego left out. What stays fixed for the run (route
    or path, vehicle parameters, dt) a planner gets when it is built."""

    ego_id: str
    ego: AgentState
    step: int
    seen: np.ndarray
    poses: np.ndarray
    v: np.ndarray
    length: np.ndarray
    boxes: np.ndarray


@dataclass(frozen=True)
class PlanResult:
    """The one step of a plan that the engine applies: the input from time
    t and the state it leads to at t + dt."""

    next_state: AgentState
    next_input: ControlInput
    status: str  # "ok" | "infeasible"


# ---------------------------------------------------------------------------
# Replay


class ReplayPlanner:
    """Follows a recording (n, 4) of (x, y, v, theta), ignoring all neighbors."""

    def __init__(self, recording: np.ndarray, dt: float):
        self.recording = recording
        self.dt = dt

    def plan(self, view: LocalView, memory: dict) -> PlanResult:
        idx = view.step
        ego = view.ego
        if idx + 1 < len(self.recording):
            nxt = AgentState(*self.recording[idx + 1].tolist())
            accel = (nxt.v - ego.v) / self.dt
            if ego.v > 1e-9:
                kappa = normalize_angle(nxt.theta - ego.theta) / (ego.v * self.dt)
            else:
                kappa = 0.0
            return PlanResult(nxt, ControlInput(accel, kappa), "ok")
        # recording exhausted: hold the final pose at rest
        u = ControlInput(-ego.v / self.dt, 0.0)
        return PlanResult(dynamics.step(ego, u, self.dt), u, "ok")


# ---------------------------------------------------------------------------
# IDM path follower


@dataclass(frozen=True)
class IdmParams:
    accel: float = 1.5      # a_idm, m/s^2
    decel: float = 2.0      # comfortable braking b, m/s^2
    headway: float = 1.5    # desired time gap T, s
    min_gap: float = 2.0    # standstill gap s0, m
    exponent: float = 4.0
    corridor_halfwidth: float = 2.0  # lateral band counting as "on the path"

    def __post_init__(self):
        for name in ("accel", "decel", "exponent", "corridor_halfwidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}={getattr(self, name)} must be > 0")
        for name in ("headway", "min_gap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 0")


def _track_path(frame: CurvilinearFrame, s: float, d: float, theta: float,
                d_target: float, params: VehicleParams) -> float:
    """Curvature command steering toward lateral offset d_target on frame,
    with gains 0.4 1/m^2 on the offset error and 1.2 1/m on the heading
    error."""
    kappa_ref = frame.curvature_at(s)
    dtheta = normalize_angle(frame.tangent_angle_at(s) - theta)
    kappa = kappa_ref + 0.4 * (d_target - d) + 1.2 * dtheta
    return max(-params.kappa_max, min(params.kappa_max, kappa))


def _corridor_box(path: CurvilinearFrame, half: float):
    """Bounds (lo, hi) of a box that holds every point path.project places in
    its domain with |d| <= half, or None where the path turns too sharply at
    a vertex to bound them usefully.

    project measures d across the direction u of the segment holding the
    point's closest reference point c. Where c lies inside that segment,
    p - c is normal to u, so |p - c| = |d|. Otherwise c is an inner vertex
    (a clamped end vertex is out of domain), and no point of its other
    segment, of direction w away from c, is closer, so (p - c)·w <= 0. With
    the path turning by phi at c, that bounds the part of p - c along u by
    |d| tan(phi), so |p - c| <= |d| / cos(phi). Either way p lies within
    half / cos(phi_max) of the reference, hence within its points' bounding
    box grown by that much; the slack covers rounding in the closest-point
    search and in d.
    """
    pts = path.reference.points
    u = np.diff(pts, axis=0)
    u /= np.hypot(u[:, 0], u[:, 1])[:, None]
    cos_turn = np.min(np.sum(u[:-1] * u[1:], axis=1), initial=1.0)
    if cos_turn < 0.5:
        return None
    reach = half / cos_turn * (1.0 + 1e-6) + 1e-6
    return pts.min(axis=0) - reach, pts.max(axis=0) + reach


class IdmPlanner:
    """Longitudinal IDM on a fixed path; lateral motion locked to the path."""

    def __init__(self, path: CurvilinearFrame, v0_profile, idm: IdmParams,
                 params: VehicleParams, dt: float):
        self.path = path
        self.v0_profile = list(v0_profile)
        self.idm = idm
        self.params = params
        self.dt = dt
        self._corridor = _corridor_box(path, idm.corridor_halfwidth)

    def _lead(self, view: LocalView, s_ego: float):
        """Nearest corridor entry point ahead among the seen vehicles'
        predicted paths. A vehicle none of whose points lies in the
        corridor's bounding box (_corridor_box) has no entry and is not
        projected."""
        best = None  # (s_lead, v_lead)
        half = self.idm.corridor_halfwidth
        for j in view.seen.tolist():
            points = view.poses[j, :, :2]
            if self._corridor is not None:
                lo, hi = self._corridor
                if not np.any(np.all((points >= lo) & (points <= hi), axis=-1)):
                    continue
            s_n, d_n, in_dom = self.path.project(points)
            entries = in_dom & (np.abs(d_n) <= half) & (s_n > s_ego)
            if not entries.any():
                continue
            # the first corridor entry of this neighbor is the relevant one
            k = int(np.argmax(entries))
            s_k, heading = float(s_n[k]), float(view.poses[j, k, 2])
            along = float(view.v[j]) * math.cos(
                normalize_angle(heading - self.path.tangent_angle_at(s_k)))
            s_lead = s_k - (float(view.length[j]) / 2.0)
            if best is None or s_lead < best[0]:
                best = (s_lead, max(0.0, along))
        return best

    def plan(self, view: LocalView, memory: dict) -> PlanResult:
        ego = view.ego
        s, d, in_dom = self.path.project((ego.x, ego.y))
        if not in_dom or abs(d) > 5.0:
            raise PlannerError(f"agent {view.ego_id}: ego not on the fixed path (d={d:.2f})")
        idx = min(view.step, len(self.v0_profile) - 1)
        v0 = max(self.v0_profile[idx], 0.1)
        v = ego.v
        a_free = self.idm.accel * (1.0 - (v / v0) ** self.idm.exponent)
        lead = self._lead(view, s + self.params.length / 2.0)
        if lead is None:
            a = a_free
        else:
            s_lead, v_lead = lead
            gap = s_lead - (s + self.params.length / 2.0)
            if gap <= 0.1:
                a = -self.params.a_long_max
            else:
                dv = v - v_lead
                s_star = (self.idm.min_gap + v * self.idm.headway
                          + v * dv / (2.0 * math.sqrt(self.idm.accel * self.idm.decel)))
                a = self.idm.accel * (1.0 - (v / v0) ** self.idm.exponent
                                      - (max(s_star, 0.0) / gap) ** 2)
        a = max(-self.params.a_long_max, min(self.params.a_long_max, a))
        kappa = _track_path(self.path, s, d, ego.theta, 0.0, self.params)
        u = ControlInput(a, kappa)
        return PlanResult(dynamics.step(ego, u, self.dt), u, "ok")


# ---------------------------------------------------------------------------
# Frenet sampling planner


@dataclass(frozen=True)
class FrenetPlannerConfig:
    t_end_samples: tuple[float, ...] = (2.0, 3.0)
    d_end_samples: tuple[float, ...] = (-3.0, -1.5, 0.0, 1.5, 3.0)
    v_frac_samples: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2)
    w_jerk: float = 0.05
    w_lat: float = 1.0
    w_speed: float = 0.2
    w_risk: float = 5.0
    risk_radius: float = 8.0

    def __post_init__(self):
        if not (self.t_end_samples and self.d_end_samples and self.v_frac_samples):
            raise ValueError("sample sets must be non-empty")
        for T in self.t_end_samples:
            if not (math.isfinite(T) and T > 0):
                raise ValueError(f"horizon t_end={T} s must be positive and finite")
        for name in ("d_end_samples", "v_frac_samples"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name}={list(getattr(self, name))} must be finite")
        for name in ("w_jerk", "w_lat", "w_speed", "w_risk"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name}={getattr(self, name)} must be finite and >= 0")
        if not (math.isfinite(self.risk_radius) and self.risk_radius > 0):
            raise ValueError(f"risk_radius={self.risk_radius} must be finite and > 0")


def _quintics(x0, dx0, ddx0, x1, T):
    """Quintic coefficients (..., 6), in closed form, from value x0, velocity
    dx0 and acceleration ddx0 at 0 to value x1 with zero velocity and
    acceleration at T; T[k] is T ** k, broadcast against x1. The table is
    filled column by column."""
    h = x1 - x0
    out = np.empty(np.broadcast_shapes(np.shape(h), np.shape(T[1])) + (6,))
    out[..., 0], out[..., 1], out[..., 2] = x0, dx0, ddx0 / 2.0
    out[..., 3] = (20 * h - 12 * dx0 * T[1] - 3 * ddx0 * T[2]) / (2 * T[3])
    out[..., 4] = (-30 * h + 16 * dx0 * T[1] + 3 * ddx0 * T[2]) / (2 * T[4])
    out[..., 5] = (12 * h - 6 * dx0 * T[1] - ddx0 * T[2]) / (2 * T[5])
    return out


def _quartic_speed(s0, ds0, a0, v_end, T):
    """Quartic coefficients (..., 5): s, s-dot and s-ddot now, speed v_end and
    zero acceleration at T; T[k] is T ** k, broadcast against v_end. The
    table is filled column by column."""
    A = v_end - ds0 - a0 * T[1]
    B = -a0
    det = 3 * T[2] * 12 * T[2] - 4 * T[3] * 6 * T[1]
    out = np.empty(np.broadcast_shapes(np.shape(A), np.shape(det)) + (5,))
    out[..., 0], out[..., 1], out[..., 2] = s0, ds0, a0 / 2.0
    out[..., 3] = (A * 12 * T[2] - 4 * T[3] * B) / det
    out[..., 4] = (3 * T[2] * B - A * 6 * T[1]) / det
    return out


def _vander(tau, size):
    """The read-only Vandermonde matrix (1, len(tau), size) that _poly_eval
    evaluates polynomials of size coefficients at tau with."""
    v = np.vander(tau, size, increasing=True)[None]
    v.setflags(write=False)
    return v


def _poly_eval(coeffs, vander):
    """Polynomials (rows, m), coefficients in increasing order, evaluated
    at the points whose Vandermonde matrix (1, points, m) vander is
    (_vander): (rows, points).

    np.matvec with the Vandermonde matrix rounds each row exactly as
    `np.vander(tau, m, increasing=True) @ c` does for that row alone; V @ C.T,
    np.vecdot and elementwise Horner sums differ in the last bit on 30-50% of
    values, which would change the digests of tools/digests.py.
    """
    return np.matvec(vander, coeffs)


# the factor k of the k-th coefficient in a polynomial's derivative
_RISING = np.arange(1, 6)
_RISING.setflags(write=False)


def _poly_derivative(coeffs):
    return coeffs[..., 1:] * _RISING[:coeffs.shape[-1] - 1]


REJECTIONS = ("route_end", "fold_over") + dynamics.BOUNDS + ("collision",)


@dataclass(frozen=True)
class Candidates:
    """Every candidate of one plan as arrays with a leading horizon axis.
    Row r of horizon h is the (d_end, v_frac) sample r in sampling order
    (d_end major) over that horizon's steps[h] = K steps; lat_acc_next
    (H, R) is the lateral acceleration after the first step. The inputs (H, R, n) and the states
    (H, R, n+1) they roll out to are padded to the longest horizon's n steps
    with zero inputs, which leave each candidate's first K + 1 states as
    they are. Per reason in REJECTIONS, rejected[reason] (H, R) marks the
    candidates it rejects; collision is tested only on candidates no other
    reason rejects. ok (H, R) marks those no reason rejects, cost (H, R) is
    inf elsewhere, and best is the (h, r) the plan follows, or None."""

    steps: np.ndarray
    lat_acc_next: np.ndarray
    accel: np.ndarray
    kappa: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    rejected: dict
    ok: np.ndarray
    cost: np.ndarray
    best: tuple[int, int] | None


def _first_minimum(hz: np.ndarray, row: np.ndarray, cost: np.ndarray) -> tuple[int, int] | None:
    """(h, r) of the ok candidate of least cost, given the ok candidates'
    (hz, row) in sampling order (horizon major) and their costs, replacing
    the one held only when a cost is lower by more than 1e-12, so near ties
    keep the earlier candidate; None if no candidate is ok."""
    best = None  # (cost, h, r)
    for h, r, c in zip(hz.tolist(), row.tolist(), cost.tolist()):
        if best is None or c < best[0] - 1e-12:
            best = (c, h, r)
    return None if best is None else best[1:]


def _within_reach(x, y, theta, alive, radius: float, others: BoxTable) -> np.ndarray:
    """Broad phase of the collision filter: a mask (steps, neighbours) that
    is False where the neighbour's box at step k lies apart from every alive
    ego box at step k. The ego poses x, y, theta (H, R, n) count where alive
    (H, R, n), radius is the ego's circumradius, and others holds the
    neighbours' boxes (n, neighbours).

    An ego box's axis-aligned bounding box reaches no farther from its
    centre than the circumradius (its half extents are
    0.5 (|cos| length + |sin| width) <= 0.5 hypot(length, width)), so every
    alive ego box at step k lies in the bounds of the alive centres grown by
    radius. A neighbour whose bounding box leaves a gap of more than
    gate_tolerance to those bounds, in x or y, leaves at least that gap to
    each ego box, up to rounding far below the tolerance's absolute term, so
    each of its pairs at that step is apart as gate_pairs argues, and
    dropping them changes no result. A step with no alive box keeps no
    neighbour; a NaN centre, or a heading that is not finite and so leaves
    its box without extent, keeps every neighbour of its step. No sine or
    cosine of the ego is taken, so a plan with no neighbour in reach builds
    no ego BoxTable."""
    ox, oy, half_x, half_y, _ = others.bounds.reshape(5, x.shape[-1], -1)
    gap, size = [], 0.0
    for c, oc, half in ((x, ox, half_x), (y, oy, half_y)):
        lo = np.where(alive, c, np.inf).min(axis=(0, 1))[:, None] - radius
        hi = np.where(alive, c, -np.inf).max(axis=(0, 1))[:, None] + radius
        gap.append(np.maximum(lo - (oc + half), (oc - half) - hi))
        size = max(size, float(np.fmax.reduce(np.abs(c).ravel(), initial=0.0)) + radius)
    unbounded = (alive & ~np.isfinite(theta)).any(axis=(0, 1))[:, None]
    return ~(np.maximum(*gap) > gate_tolerance(others.magnitude, size)) | unbounded


class FrenetPlanner:
    """Samples lateral quintics x longitudinal quartic speed profiles along a
    route, filters infeasible and colliding candidates, and picks the
    minimum-cost survivor. The candidates of every horizon form one table
    (Candidates), built as one array program; only the step the engine
    applies becomes objects.

    What a plan reads that does not depend on the view (the time grid's
    Vandermonde matrices, the sample rows and the horizon masks) is built
    once, when the planner is built, as read-only arrays, with the
    expressions a plan would use, so a plan only computes what depends on
    the ego's Frenet start and on the view, and changes no planner state."""

    def __init__(self, route: CurvilinearFrame, cfg: FrenetPlannerConfig,
                 params: VehicleParams, v_ref: float, dt: float):
        if route.length <= 0:
            raise PlannerError("empty route")
        self.route = route
        self.cfg = cfg
        self.params = params
        self.v_ref = v_ref
        self.dt = dt
        self.steps = tuple(int(round(T / dt)) for T in cfg.t_end_samples)
        for T, K in zip(cfg.t_end_samples, self.steps):
            if K < 1:
                raise PlannerError(f"horizon t_end={T} s rounds to 0 steps of dt={dt} s")
        # T ** k (horizons, 1) for k = 0..5 through Python's pow: numpy's array
        # power rounds some of them differently from scalar arithmetic
        self._powers = np.array([[[T**k] for T in cfg.t_end_samples] for k in range(6)], float)
        K = self._steps = np.array(self.steps)
        n = int(K.max())
        tau = np.arange(n + 1) * dt
        nd, nv = len(cfg.d_end_samples), len(cfg.v_frac_samples)
        # every horizon's candidates on the longest horizon's grid of n steps
        self._shape = (len(K), nd * nv, n + 1)
        # the end values of the lateral (horizon, d_end) and longitudinal
        # (horizon, v_frac) rows; each candidate's two rows, d_end major, and
        # its end values
        self._d_ends = np.array(cfg.d_end_samples, float)
        self._targets = np.array([max(0.0, frac * v_ref) for frac in cfg.v_frac_samples])
        lateral_row, longitudinal_row = np.repeat(np.arange(nd), nv), np.tile(np.arange(nv), nd)
        self._lateral_row = lateral_row
        self._d_end, self._v_target = self._d_ends[lateral_row], self._targets[longitudinal_row]
        # the grid's Vandermonde matrices by coefficient count: 6 and 5 for
        # the quintics and their derivatives, 5 and 4 for the quartics and
        # theirs; and 4 at tau[1], for the lateral acceleration after the
        # first step
        self._grid = {m: _vander(tau, m) for m in (4, 5, 6)}
        self._first_step = _vander(tau[1:2], 4)
        # the steps each horizon keeps its inputs over and tests for
        # collisions (H, 1, n); the columns fold_over reads (H, 1, 1, n+1);
        # the index of each candidate's column K in s (H, v_frac, n+1), read
        # as (H, candidates); and the prediction steps 1..n
        self._live = np.arange(n) < K[:, None, None]
        self._fold_columns = np.arange(n + 1) <= K[:, None, None, None]
        self._route_end = (np.arange(len(K))[:, None], longitudinal_row, K[:, None])
        self._ahead = np.arange(1, n + 1)
        for a in (self._powers, K, self._d_ends, self._targets, lateral_row, longitudinal_row,
                  self._d_end, self._v_target, self._live, self._fold_columns,
                  *self._route_end[::2], self._ahead):
            a.setflags(write=False)

    def _samples(self, ego: AgentState, start):
        """Every (d_end, v_frac) sample of every horizon from the Frenet start
        (s0, d0, ds0, dd0, dd0_acc, a0): d_end and v_target (rows,), and per
        horizon the lateral acceleration after the first step, the inputs
        accel and kappa (rows, n) that track each row, zero past the
        horizon's K steps, and the route_end and fold_over rejections.

        Every horizon is evaluated on the longest horizon's grid of n steps.
        Each operation is elementwise, a prefix along the steps
        (np.maximum.accumulate) or a per-column matvec, so a horizon's first
        K + 1 columns are bitwise those of its own grid; route_end reads
        column K and fold_over the columns up to K."""
        s0, d0, ds0, dd0, dd0_acc, a0 = start
        grid, dt, kappa_max = self._grid, self.dt, self.params.kappa_max
        # lateral (horizon, d_end) and longitudinal (horizon, v_frac) rows
        lateral = _quintics(d0, dd0, dd0_acc, self._d_ends, self._powers)
        longitudinal = _quartic_speed(s0, ds0, a0, self._targets, self._powers)
        d = _poly_eval(lateral, grid[6])[:, :, None]
        dd = _poly_eval(_poly_derivative(lateral), grid[5])[:, :, None]
        # no reversing: freeze s where the speed profile would go negative
        s = np.maximum.accumulate(_poly_eval(longitudinal, grid[5]), axis=-1)
        ds = np.maximum(_poly_eval(_poly_derivative(longitudinal), grid[4]), 0.0)[:, None]
        kappa_ref = self.route.curvature_at(s)[:, None]
        offset = d * kappa_ref
        along = ds * (1.0 - offset)
        speed = np.hypot(along, dd)
        heading = (self.route.tangent_angle_smooth(s)[:, None]
                   + np.arctan2(dd, np.maximum(along, 1e-9)))
        heading[..., 0] = ego.theta
        speed, heading = speed.reshape(self._shape), heading.reshape(self._shape)

        accel = np.where(self._live, (speed[..., 1:] - speed[..., :-1]) / dt, 0.0)
        dtheta = dynamics.normalize_angles(heading[..., 1:] - heading[..., :-1])
        # kappa is 0 past the horizon and where the row stands
        moving = self._live & (speed[..., :-1] > 0.05)
        kappa = np.where(moving, dtheta / (np.maximum(speed[..., :-1], 0.05) * dt), 0.0)
        kappa = clamp(kappa, -kappa_max, kappa_max)
        folds = (np.abs(offset) >= 0.98) & self._fold_columns
        rejected = {"route_end": s[self._route_end] > self.route.length,
                    "fold_over": folds.any(axis=-1).reshape(self._shape[:2])}
        lat_acc_next = _poly_eval(_poly_derivative(_poly_derivative(lateral)), self._first_step)
        return (self._d_end, self._v_target, lat_acc_next[:, self._lateral_row, 0],
                accel, kappa, rejected)

    def _cost(self, accel, kappa, v, x, y, d_end, v_target, steps, predicted) -> np.ndarray:
        """Jerk, lateral-offset, speed and risk cost per row of inputs
        (rows, n) and states (rows, n+1), each row padded past its own
        steps (rows,) = K, one array program. The jerk sums a row's own K - 1
        terms, one slice per distinct K: the padding adds a difference at K,
        and np.sum's pairwise blocking rounds a longer row differently even
        where the added terms are zeros. The risk term sums exp(-dist^2 / r^2)
        to each neighbour's predicted centre (predicted (n, neighbours, 5))
        over neighbours, then steps, left to right in that order (np.cumsum,
        not np.sum's pairwise sum); its terms past K are exact zeros, which
        leave every partial sum as it is. Squares are products, which round
        as x * x does."""
        cfg, dt = self.cfg, self.dt
        lat_acc = v[:, :-1] * v[:, :-1] * kappa
        terms = (accel[:, 1:] - accel[:, :-1]) ** 2 + (lat_acc[:, 1:] - lat_acc[:, :-1]) ** 2
        jerk = np.zeros(len(x))
        for K in set(steps.tolist()):
            rows = steps == K
            jerk[rows] = terms[rows, :K - 1].sum(axis=-1)
        dx = x[:, None, 1:] - predicted[:, :, 0].T
        dy = y[:, None, 1:] - predicted[:, :, 1].T
        live = (np.arange(len(predicted)) < steps[:, None])[:, None]
        terms = np.where(live, np.exp(-(dx * dx + dy * dy) / cfg.risk_radius**2), 0.0)
        risk = (terms.reshape(len(x), -1).cumsum(axis=-1)[:, -1] if terms.size
                else np.zeros(len(x)))
        dv = v_target - self.v_ref
        return (cfg.w_jerk * (jerk / dt) + cfg.w_lat * (d_end * d_end)
                + cfg.w_speed * (dv * dv) + cfg.w_risk * risk)

    def _fallback(self, view: LocalView, s: float, d: float, memory: dict) -> PlanResult:
        """Maximal comfortable braking along the current path offset."""
        ego = view.ego
        a = -0.6 * self.params.a_long_max
        if ego.v < 1e-9:
            a = 0.0
        kappa = _track_path(self.route, s, d, ego.theta, d, self.params)
        u = ControlInput(a, kappa)
        memory["accel"] = a if ego.v > 0 else 0.0
        memory["d_accel"] = 0.0
        return PlanResult(dynamics.step(ego, u, self.dt), u, "infeasible")

    def _collisions(self, x, y, theta, pairs, predicted) -> np.ndarray:
        """The collision mask (H, R): the candidates whose ego box at some
        (horizon, row, step) that pairs (H, R, n) marks touches a
        neighbour's box predicted (n, neighbours, 5) at that step; x, y and
        theta (H, R, n+1) are the candidates' states from step 0. The broad
        phase (_within_reach) drops whole (step, neighbour) pairs. If any
        pair is left, one BoxTable holds the ego box of every state of steps
        1..n, and group_intersects decides each candidate from the box pairs
        left, by index into it and the neighbours' table, in at most two
        boxes_intersect calls."""
        params = self.params
        n, seen = predicted.shape[:2]
        others = BoxTable(predicted)
        reach = _within_reach(x[..., 1:], y[..., 1:], theta[..., 1:], pairs,
                              0.5 * math.hypot(params.length, params.width), others)
        # one flat index per (candidate, step, neighbour) pair left to test:
        # over the neighbours its quotient is the ego box's row, and that
        # row's quotient over the steps is the candidate
        pair = np.flatnonzero(pairs[..., None] & reach)
        if not pair.size:
            return np.zeros(pairs.shape[:2], dtype=bool)
        grid = np.empty(pairs.shape + (5,))
        grid[..., 0], grid[..., 1], grid[..., 2] = x[..., 1:], y[..., 1:], theta[..., 1:]
        grid[..., 3], grid[..., 4] = params.length, params.width
        at_ego = pair // seen
        at_other = at_ego % n * seen + pair % seen
        # boxes_intersect through this module, where a caller may replace it
        hit = group_intersects(BoxTable(grid), at_ego, others, at_other, at_ego // n,
                               pairs.shape[0] * pairs.shape[1], boxes_intersect)
        return hit.reshape(pairs.shape[:2])

    def candidates(self, view: LocalView, memory: dict):
        """The ego's Frenet start (s0, d0) and the table (Candidates) of
        every candidate of the view.

        Every horizon's inputs are padded with zeros to the longest horizon,
        and the table takes one call each to rollout_arrays,
        bound_violations and _cost, and at most two to boxes_intersect. The
        padding breaks no bound: past its K steps a candidate's accel, kappa
        and lateral acceleration are 0 and its speed stays the speed at K,
        which column K checks already. The collision filter (_collisions)
        tests the alive (horizon, row, step) triples, each against the
        neighbours' predicted boxes at its own step."""
        ego = view.ego
        s0, d0, in_dom = self.route.project((ego.x, ego.y))
        if not in_dom or abs(d0) > 10.0:
            raise PlannerError(f"agent {view.ego_id}: ego not projectable onto route")
        theta_ref = self.route.tangent_angle_at(s0)
        dtheta = normalize_angle(ego.theta - theta_ref)
        start = (s0, d0, ego.v * math.cos(dtheta), ego.v * math.sin(dtheta),
                 float(memory.get("d_accel", 0.0)), float(memory.get("accel", 0.0)))
        params, steps = self.params, self._steps
        d_end, v_target, lat_acc_next, accel, kappa, rejected = self._samples(ego, start)
        x, y, v, theta = dynamics.rollout_arrays(ego.x, ego.y, ego.v, ego.theta,
                                                 accel, kappa, self.dt)
        violated = dynamics.bound_violations(v, accel, kappa, params)[1].any(axis=-2)
        rejected.update({bound: violated[..., b] for b, bound in enumerate(dynamics.BOUNDS)})
        alive = ~(rejected["route_end"] | rejected["fold_over"] | violated.any(axis=-1))

        pairs = alive[:, :, None] & self._live
        # (n, neighbours, 5): each seen vehicle's grown box at steps 1..n,
        # its last past its horizon
        last = view.boxes.shape[1] - 1
        predicted = view.boxes[view.seen, np.minimum(self._ahead, last)[:, None]]
        rejected["collision"] = self._collisions(x, y, theta, pairs, predicted)
        ok = alive & ~rejected["collision"]

        # the ok candidates in sampling order, gathered once for _cost
        hz, row = ok.nonzero()
        costs = self._cost(accel[hz, row], kappa[hz, row], v[hz, row], x[hz, row], y[hz, row],
                           d_end[row], v_target[row], steps[hz], predicted)
        cost = np.full(ok.shape, math.inf)
        cost[hz, row] = costs
        return s0, d0, Candidates(steps, lat_acc_next, accel, kappa, x, y, v, theta,
                                  rejected, ok, cost, _first_minimum(hz, row, costs))

    def plan(self, view: LocalView, memory: dict) -> PlanResult:
        s0, d0, table = self.candidates(view, memory)
        if table.best is None:
            return self._fallback(view, s0, d0, memory)
        h, r = table.best
        u = ControlInput(float(table.accel[h, r, 0]), float(table.kappa[h, r, 0]))
        nxt = AgentState(*(float(a[h, r, 1]) for a in (table.x, table.y, table.v, table.theta)))
        # carried across replans so consecutive plans stay consistent
        memory["accel"] = u.accel
        memory["d_accel"] = float(table.lat_acc_next[h, r])
        return PlanResult(nxt, u, "ok")


# ---------------------------------------------------------------------------
# Routing


def _overlaps_goal(lane, goal: GoalRegion) -> bool:
    """Whether a point of the lanelet's centre line lies in the goal area or
    a vertex of the goal area in the lanelet. Each test is skipped where the
    bounds of its points do not reach its polygon (Polygon.reaches), since
    contains_points would find no point inside there."""
    area, centre = goal.area, lane.centerline.points
    lo, hi = centre.min(axis=0), centre.max(axis=0)
    if area.reaches((lo[0], lo[1], hi[0], hi[1])) and np.any(area.contains_points(centre)):
        return True
    return (lane.polygon.reaches(area.bounds())
            and bool(np.any(lane.polygon.contains_points(area.vertices))))


def route_to_goal(network: StreetNetwork, start: AgentState, goal: GoalRegion) -> CurvilinearFrame:
    """Shortest successor path (by centerline length) from the start lanelet to
    any lanelet overlapping the goal area, as a curvilinear frame. The start
    lanelet is the one the start state drives in (StreetNetwork.locate)."""
    (start_id,), _ = network.locate([(start.x, start.y, start.theta)])
    if start_id is None:
        raise RouteError("start state not localizable on the network")
    goal_ids = {lid for lid, lane in network.lanelets.items() if _overlaps_goal(lane, goal)}
    if not goal_ids:
        raise RouteError("goal area does not overlap the street network")
    dist = {start_id: 0.0}
    prev: dict[str, str] = {}
    heap = [(0.0, start_id)]
    target = None
    while heap:
        d, lid = heapq.heappop(heap)
        if d > dist.get(lid, math.inf):
            continue
        if lid in goal_ids:
            target = lid
            break
        for nxt in sorted(network.lanelets[lid].successors):
            nd = d + network.lanelets[nxt].centerline.length
            if nd < dist.get(nxt, math.inf) - 1e-12:
                dist[nxt] = nd
                prev[nxt] = lid
                heapq.heappush(heap, (nd, nxt))
    if target is None:
        raise RouteError(f"no lanelet path from {start_id} to the goal area")
    chain = [target]
    while chain[-1] != start_id:
        chain.append(prev[chain[-1]])
    return network.chain_frame(tuple(reversed(chain)))
