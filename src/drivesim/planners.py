"""Per-agent planners: deterministic replay, velocity-adjusting path follower
(IDM), and the fully interactive Frenet sampling planner, plus goal routing.

Every planner is a deterministic function of its inputs. Mutable per-agent
planner memory travels as a plain dict owned by the engine, so planning can
run on any worker without hidden state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .dynamics import AgentState, ControlInput, Trajectory, VehicleParams, normalize_angle
from .geometry import CurvilinearFrame, boxes_intersect, occupancy
from .prediction import PredictedPath
from .scenario import GoalRegion, StreetNetwork


class PlannerError(RuntimeError):
    pass


class RouteError(RuntimeError):
    pass


@dataclass(frozen=True)
class Neighbor:
    """A vehicle the ego sees: its shape, its predicted path (pose 0 is its
    time-t pose) and boxes (n+1, 5), the path's occupancy grown on every side
    by the stddev at each step; the engine builds one per vehicle and step."""

    length: float
    width: float
    prediction: PredictedPath
    boxes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grown = 2.0 * self.prediction.pos_stddev
        boxes = occupancy(self.prediction.poses, self.length + grown, self.width + grown)
        object.__setattr__(self, "boxes", boxes)


@dataclass(frozen=True)
class LocalView:
    """What an agent observes at one step: its own time-t state and, by id,
    every vehicle within the visibility radius. What stays fixed for the run
    (route or path, vehicle parameters, dt) a planner gets when it is built."""

    ego_id: str
    ego: AgentState
    step: int
    neighbors: dict[str, Neighbor]


@dataclass(frozen=True)
class PlanResult:
    next_state: AgentState
    next_input: ControlInput
    intended_trajectory: Trajectory
    status: str  # "ok" | "infeasible"


def _two_state_trajectory(ego: AgentState, u: ControlInput, dt: float) -> tuple[AgentState, Trajectory]:
    nxt = dynamics.step(ego, u, dt)
    return nxt, Trajectory([ego, nxt], [u], dt)


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
            u = ControlInput(accel, kappa)
            return PlanResult(nxt, u, Trajectory([ego, nxt], [u], self.dt), "ok")
        # recording exhausted: hold the final pose at rest
        u = ControlInput(-ego.v / self.dt, 0.0)
        nxt, traj = _two_state_trajectory(ego, u, self.dt)
        return PlanResult(nxt, u, traj, "ok")


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
                d_target: float, params: VehicleParams,
                kp: float = 0.4, kh: float = 1.2) -> float:
    """Curvature command steering toward lateral offset d_target on frame."""
    kappa_ref = frame.curvature_at(s)
    dtheta = normalize_angle(frame.tangent_angle_at(s) - theta)
    kappa = kappa_ref + kp * (d_target - d) + kh * dtheta
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
        """Nearest corridor entry point ahead among predicted neighbor paths.
        A neighbour none of whose points lies in the corridor's bounding box
        (_corridor_box) has no entry and is not projected."""
        best = None  # (s_lead, v_lead)
        half = self.idm.corridor_halfwidth
        for _, nb in sorted(view.neighbors.items()):
            pred = nb.prediction
            points = pred.poses[:, :2]
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
            s_k, heading = float(s_n[k]), float(pred.poses[k, 2])
            along = pred.v * math.cos(normalize_angle(heading - self.path.tangent_angle_at(s_k)))
            s_lead = s_k - (nb.length / 2.0)
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
        nxt, traj = _two_state_trajectory(ego, u, self.dt)
        return PlanResult(nxt, u, traj, "ok")


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
        for w in (self.w_jerk, self.w_lat, self.w_speed, self.w_risk):
            if w < 0:
                raise ValueError("cost weights must be >= 0")


def _quintic(x0, dx0, ddx0, x1, dx1, ddx1, T):
    """Quintic coefficients matching value/velocity/acceleration boundaries."""
    a0, a1, a2 = x0, dx0, ddx0 / 2.0
    A = np.array([
        [T**3, T**4, T**5],
        [3 * T**2, 4 * T**3, 5 * T**4],
        [6 * T, 12 * T**2, 20 * T**3],
    ])
    b = np.array([
        x1 - a0 - a1 * T - a2 * T**2,
        dx1 - a1 - 2 * a2 * T,
        ddx1 - 2 * a2,
    ])
    a3, a4, a5 = np.linalg.solve(A, b)
    return np.array([a0, a1, a2, a3, a4, a5])


def _quartic_speed(s0, ds0, a0, v_end, T):
    """Quartic coefficients matching s, s-dot and s-ddot now, speed v_end and
    zero acceleration at T."""
    A = v_end - ds0 - a0 * T
    B = -a0
    det = 3 * T**2 * 12 * T**2 - 4 * T**3 * 6 * T
    c3 = (A * 12 * T**2 - 4 * T**3 * B) / det
    c4 = (3 * T**2 * B - A * 6 * T) / det
    return np.array([s0, ds0, a0 / 2.0, c3, c4])


def _poly_eval(coeffs, tau):
    """Polynomials (rows, n), coefficients in increasing order, at each of
    tau: (rows, len(tau)).

    np.matvec with the Vandermonde matrix rounds each row exactly as
    `np.vander(tau, n, increasing=True) @ c` does for that row alone; V @ C.T,
    np.vecdot and elementwise Horner sums differ in the last bit on 30-50% of
    values, which would change the digests of tools/digests.py.
    """
    return np.matvec(np.vander(tau, coeffs.shape[-1], increasing=True)[None], coeffs)


def _poly_derivative(coeffs):
    return coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])


def _pow2(x):
    """x ** 2 rounded as Python floats round it: through libm pow, which
    differs from x * x in the last bit on about 0.1% of values."""
    return np.float_power(x, 2.0)


REJECTIONS = ("route_end", "fold_over") + dynamics.BOUNDS + ("collision",)


@dataclass
class Candidates:
    """The candidates of one horizon T as arrays, one row per (d_end,
    v_frac) sample in sampling order (d_end major): the Frenet samples, the
    inputs (rows, K) derived from them, the states (rows, K+1) they roll out
    to, and per reason in REJECTIONS which rows it rejects. Collision is
    tested only on rows no other reason rejects. cost is inf on rejected rows.

    The inputs and states are views into the plan's one rollout of every
    horizon, cut to this horizon's K steps; the zero inputs that pad it to
    the longest horizon never reach them."""

    d_end: np.ndarray
    v_target: np.ndarray
    lat_acc_next: np.ndarray  # lateral acceleration after the first step
    accel: np.ndarray
    kappa: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    rejected: dict
    cost: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        """Rows that no reason rejects."""
        return ~np.any(list(self.rejected.values()), axis=0)

    def trajectory(self, row: int, ego: AgentState, dt: float) -> Trajectory:
        """The objects of one row, starting at ego itself."""
        return Trajectory.from_arrays(ego, self.x[row], self.y[row], self.v[row],
                                      self.theta[row], self.accel[row], self.kappa[row], dt)


def _within_reach(x, y, alive, predicted, params: VehicleParams) -> np.ndarray:
    """Broad phase of the collision filter: a mask (steps, neighbours) that
    is False where the neighbour's box predicted[k, j] cannot touch any ego
    box at step k. The ego centres x, y (..., steps) count where alive.

    Every alive ego centre at step k lies in the bounding box of them all,
    so its distance to the neighbour's centre is at least the box's. Where
    that exceeds the sum of the two circumradii by a relative and absolute
    margin far above the rounding of either computation, boxes_intersect's
    circumradius test rejects every pair of that neighbour and step, and
    dropping them changes no result. A step with no alive centre has an
    empty box and keeps no neighbour; a NaN centre, which no box test
    passes, is left out of the box."""
    x_lo, y_lo = (np.fmin.reduce(np.where(alive, c, np.inf), axis=(0, 1))[:, None]
                  for c in (x, y))
    x_hi, y_hi = (np.fmax.reduce(np.where(alive, c, -np.inf), axis=(0, 1))[:, None]
                  for c in (x, y))
    cx, cy = predicted[..., 0], predicted[..., 1]
    gap = np.hypot(np.maximum(np.maximum(x_lo - cx, cx - x_hi), 0.0),
                   np.maximum(np.maximum(y_lo - cy, cy - y_hi), 0.0))
    reach = 0.5 * (math.hypot(params.length, params.width)
                   + np.hypot(predicted[..., 3], predicted[..., 4]))
    return gap <= reach * (1.0 + 1e-9) + 1e-9


class FrenetPlanner:
    """Samples lateral quintics x longitudinal quartic speed profiles along a
    route, filters infeasible and colliding candidates, and picks the
    minimum-cost survivor. The candidates of every horizon are rolled out
    together and filtered as one array program; only the chosen plan becomes
    objects."""

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

    def _samples(self, T: float, K: int, ego: AgentState, start):
        """Every (d_end, v_frac) sample of horizon T (K steps) from the Frenet
        start (s0, d0, ds0, dd0, dd0_acc, a0): d_end, v_target, its lateral
        acceleration after the first step, the inputs accel and kappa
        (rows, K) that track it, and the route_end and fold_over rejections."""
        s0, d0, ds0, dd0, dd0_acc, a0 = start
        cfg, params, dt = self.cfg, self.params, self.dt
        tau = np.arange(K + 1) * dt
        targets = [max(0.0, frac * self.v_ref) for frac in cfg.v_frac_samples]
        nd, nv = len(cfg.d_end_samples), len(targets)
        d_end, v_target = np.repeat(cfg.d_end_samples, nv), np.tile(targets, nd)
        # lateral rows vary with d_end, longitudinal ones with v_frac
        lateral = np.stack([_quintic(d0, dd0, dd0_acc, d, 0.0, 0.0, T)
                            for d in cfg.d_end_samples])
        longitudinal = np.stack([_quartic_speed(s0, ds0, a0, v, T) for v in targets])
        d = _poly_eval(lateral, tau)[:, None]
        dd = _poly_eval(_poly_derivative(lateral), tau)[:, None]
        # no reversing: freeze s where the speed profile would go negative
        s = np.maximum.accumulate(_poly_eval(longitudinal, tau), axis=-1)
        ds = np.maximum(_poly_eval(_poly_derivative(longitudinal), tau), 0.0)
        kappa_ref = self.route.curvature_at(s)
        along = ds * (1.0 - d * kappa_ref)
        speed = np.hypot(along, dd)
        heading = self.route.tangent_angle_smooth(s) + np.arctan2(dd, np.maximum(along, 1e-9))
        heading[..., 0] = ego.theta
        rows = nd * nv
        speed, heading = speed.reshape(rows, K + 1), heading.reshape(rows, K + 1)

        accel = np.diff(speed, axis=-1) / dt
        dtheta = dynamics.normalize_angles(np.diff(heading, axis=-1))
        moving = speed[:, :-1] > 0.05
        kappa = np.where(moving, dtheta / (np.maximum(speed[:, :-1], 0.05) * dt), 0.0)
        kappa = np.clip(kappa, -params.kappa_max, params.kappa_max)
        rejected = {"route_end": np.tile(s[:, -1] > self.route.length, nd),
                    "fold_over": np.any(np.abs(d * kappa_ref) >= 0.98, axis=-1).ravel()}
        lat_acc_next = _poly_eval(_poly_derivative(_poly_derivative(lateral)), tau[1:2])
        return d_end, v_target, np.repeat(lat_acc_next[:, 0], nv), accel, kappa, rejected

    def _cost(self, accel, kappa, v, x, y, d_end, v_target, predicted) -> np.ndarray:
        """Jerk, lateral-offset, speed and risk cost per row. The risk term
        sums exp(-dist^2 / r^2) to each neighbour's predicted centre over
        neighbours, then steps, one at a time in that order; math.exp,
        because numpy's vectorised exp differs from it in the last bit."""
        cfg, dt = self.cfg, self.dt
        lat_acc = _pow2(v[:, :-1]) * kappa
        jerk = np.sum(np.diff(accel, axis=-1) ** 2 + np.diff(lat_acc, axis=-1) ** 2, axis=-1) / dt
        dist2 = (_pow2(x[:, None, 1:] - predicted[:, :, 0].T)
                 + _pow2(y[:, None, 1:] - predicted[:, :, 1].T))
        exponent = -dist2 / cfg.risk_radius**2
        terms = np.array([math.exp(e) for e in exponent.ravel().tolist()]).reshape(len(x), -1)
        risk = np.cumsum(terms, axis=-1)[:, -1] if terms.size else np.zeros(len(x))
        return (cfg.w_jerk * jerk + cfg.w_lat * _pow2(d_end)
                + cfg.w_speed * _pow2(v_target - self.v_ref) + cfg.w_risk * risk)

    def _fallback(self, view: LocalView, s: float, d: float, memory: dict) -> PlanResult:
        """Maximal comfortable braking along the current path offset."""
        ego = view.ego
        a = -0.6 * self.params.a_long_max
        if ego.v < 1e-9:
            a = 0.0
        kappa = _track_path(self.route, s, d, ego.theta, d, self.params)
        u = ControlInput(a, kappa)
        nxt, traj = _two_state_trajectory(ego, u, self.dt)
        memory["accel"] = a if ego.v > 0 else 0.0
        memory["d_accel"] = 0.0
        return PlanResult(nxt, u, traj, "infeasible")

    def candidates(self, view: LocalView, memory: dict):
        """The ego's Frenet start (s0, d0) and every candidate of the view,
        one Candidates per horizon in sampling order.

        Every horizon's inputs are padded with zeros to the longest horizon
        and rolled out in one call; the collision filter then tests the
        alive (row, step) pairs of all horizons in one call, each pair
        against the neighbours' predicted boxes at its own step that the
        broad phase (_within_reach) leaves."""
        ego = view.ego
        s0, d0, in_dom = self.route.project((ego.x, ego.y))
        if not in_dom or abs(d0) > 10.0:
            raise PlannerError(f"agent {view.ego_id}: ego not projectable onto route")
        theta_ref = self.route.tangent_angle_at(s0)
        dtheta = normalize_angle(ego.theta - theta_ref)
        start = (s0, d0, ego.v * math.cos(dtheta), ego.v * math.sin(dtheta),
                 float(memory.get("d_accel", 0.0)), float(memory.get("accel", 0.0)))
        params, steps = self.params, self.steps
        samples = [self._samples(T, K, ego, start) for T, K in zip(self.cfg.t_end_samples, steps)]
        n = max(steps)
        accel, kappa = np.zeros((2, len(steps), len(samples[0][0]), n))
        for h, (K, sample) in enumerate(zip(steps, samples)):
            accel[h, :, :K], kappa[h, :, :K] = sample[3], sample[4]
        x, y, v, theta = dynamics.rollout_arrays(ego.x, ego.y, ego.v, ego.theta,
                                                 accel, kappa, self.dt)

        horizons = []
        for h, (K, (d_end, v_target, lat_acc_next, _, _, rejected)) in enumerate(
                zip(steps, samples)):
            inputs = accel[h, :, :K], kappa[h, :, :K]
            states = [a[h, :, :K + 1] for a in (x, y, v, theta)]
            violated = dynamics.bound_violations(states[2], *inputs, params)[1].any(axis=-2)
            rejected.update({bound: violated[:, b] for b, bound in enumerate(dynamics.BOUNDS)})
            horizons.append(Candidates(d_end, v_target, lat_acc_next, *inputs, *states,
                                       rejected, np.full(len(d_end), math.inf)))

        alive = np.stack([cands.ok for cands in horizons])
        pairs = alive[:, :, None] & (np.arange(n) < np.array(steps)[:, None])[:, None, :]
        # (n, neighbours, 5): each neighbour's grown box at steps 1..n, its
        # last past its horizon, neighbours in id order
        boxes = [view.neighbors[nid].boxes for nid in sorted(view.neighbors)]
        predicted = (np.stack([b[np.minimum(np.arange(1, n + 1), len(b) - 1)] for b in boxes], 1)
                     if boxes else np.empty((n, 0, 5)))
        # (horizon, row, step) of each alive pair, and the neighbours within
        # reach of it: one index pair per box pair left to test
        hz, row, k = np.nonzero(pairs)
        pair, nb = np.nonzero(_within_reach(x[..., 1:], y[..., 1:], pairs, predicted,
                                            params)[k])
        hz, row, k = hz[pair], row[pair], k[pair] + 1
        ego_boxes = np.stack([x[hz, row, k], y[hz, row, k], theta[hz, row, k],
                              np.full(len(k), params.length), np.full(len(k), params.width)],
                             axis=-1)
        hit = boxes_intersect(ego_boxes, predicted[k - 1, nb])
        colliding = np.zeros(alive.shape, dtype=bool)
        colliding[hz[hit], row[hit]] = True
        for h, (K, cands) in enumerate(zip(steps, horizons)):
            cands.rejected["collision"] = colliding[h]
            ok = cands.ok
            if ok.any():
                cands.cost[ok] = self._cost(cands.accel[ok], cands.kappa[ok], cands.v[ok],
                                            cands.x[ok], cands.y[ok], cands.d_end[ok],
                                            cands.v_target[ok], predicted[:K])
        return s0, d0, horizons

    def plan(self, view: LocalView, memory: dict) -> PlanResult:
        s0, d0, horizons = self.candidates(view, memory)
        best = None  # (cost, candidates, row); ties keep the earlier candidate
        for cands in horizons:
            for row in np.flatnonzero(cands.ok).tolist():
                cost = float(cands.cost[row])
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, cands, row)
        if best is None:
            return self._fallback(view, s0, d0, memory)
        _, cands, row = best
        traj = cands.trajectory(row, view.ego, self.dt)
        # carried across replans so consecutive plans stay consistent
        memory["accel"] = traj.inputs[0].accel
        memory["d_accel"] = float(cands.lat_acc_next[row])
        return PlanResult(traj.states[1], traj.inputs[0], traj, "ok")


# ---------------------------------------------------------------------------
# Routing


def _overlaps_goal(lane, goal: GoalRegion) -> bool:
    if np.any(goal.area.contains_points(lane.centerline.points)):
        return True
    return bool(np.any(lane.polygon.contains_points(goal.area.vertices)))


def _start_lanelet(network: StreetNetwork, start: AgentState) -> str:
    p = np.array([start.x, start.y])
    containing = network.containing_lanelets(p)
    if containing:
        # prefer the lanelet best aligned with the current heading
        def misalign(lid):
            lane = network.lanelets[lid]
            frame_angle = lane.start_tangent_angle()
            return (abs(normalize_angle(frame_angle - start.theta)), lid)
        return min(containing, key=misalign)
    lid = network.localize(p)
    if lid is None:
        raise RouteError("start state not localizable on the network")
    return lid


def route_to_goal(network: StreetNetwork, start: AgentState, goal: GoalRegion) -> CurvilinearFrame:
    """Shortest successor path (by centerline length) from the start lanelet to
    any lanelet overlapping the goal area, as a curvilinear frame."""
    start_id = _start_lanelet(network, start)
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
