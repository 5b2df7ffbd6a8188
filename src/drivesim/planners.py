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
    state: AgentState
    length: float
    width: float


@dataclass(frozen=True)
class LocalView:
    """Radius-limited slice of the scenario an agent observes at one step."""

    ego_id: str
    ego: AgentState
    ego_length: float
    ego_width: float
    neighbors: dict[str, Neighbor]
    predictions: dict[str, PredictedPath]
    network: StreetNetwork
    visibility_radius: float
    step: int
    dt: float

    @property
    def time(self) -> float:
        return self.step * self.dt


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
    """Follows a recorded trajectory, ignoring all neighbors."""

    def __init__(self, recorded_states, dt: float):
        self.recorded = list(recorded_states)
        self.dt = dt

    def plan(self, view: LocalView, memory: dict) -> PlanResult:
        idx = view.step
        ego = view.ego
        if idx + 1 < len(self.recorded):
            nxt = self.recorded[idx + 1]
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


def _track_path(frame: CurvilinearFrame, s: float, d: float, theta: float,
                d_target: float, params: VehicleParams,
                kp: float = 0.4, kh: float = 1.2) -> float:
    """Curvature command steering toward lateral offset d_target on frame."""
    kappa_ref = frame.curvature_at(s)
    dtheta = normalize_angle(frame.tangent_angle_at(s) - theta)
    kappa = kappa_ref + kp * (d_target - d) + kh * dtheta
    return max(-params.kappa_max, min(params.kappa_max, kappa))


class IdmPlanner:
    """Longitudinal IDM on a fixed path; lateral motion locked to the path."""

    def __init__(self, path: CurvilinearFrame, v0_profile, idm: IdmParams,
                 params: VehicleParams, dt: float):
        self.path = path
        self.v0_profile = list(v0_profile)
        self.idm = idm
        self.params = params
        self.dt = dt

    def _lead(self, view: LocalView, s_ego: float):
        """Nearest corridor entry point ahead among predicted neighbor paths."""
        best = None  # (s_lead, v_lead)
        half = self.idm.corridor_halfwidth
        for nid in sorted(view.neighbors):
            nb = view.neighbors[nid]
            pred = view.predictions.get(nid)
            states = pred.states if pred is not None else (nb.state,)
            for st in states:
                s_n, d_n, in_dom = self.path.project((st.x, st.y))
                if not in_dom or abs(d_n) > half:
                    continue
                if s_n <= s_ego:
                    continue
                along = st.v * math.cos(normalize_angle(st.theta - self.path.tangent_angle_at(s_n)))
                s_lead = s_n - (nb.length / 2.0)
                if best is None or s_lead < best[0]:
                    best = (s_lead, max(0.0, along))
                break  # first corridor entry of this neighbor is the relevant one
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


def _poly_eval(coeffs, tau):
    powers = np.vander(tau, len(coeffs), increasing=True)
    return powers @ coeffs


def _poly_derivative(coeffs):
    n = np.arange(1, len(coeffs))
    return coeffs[1:] * n


class FrenetPlanner:
    """Samples lateral quintics x longitudinal quartic speed profiles along a
    route, filters infeasible and colliding candidates, and picks the
    minimum-cost survivor."""

    def __init__(self, route: CurvilinearFrame, cfg: FrenetPlannerConfig,
                 params: VehicleParams, v_ref: float, dt: float):
        if route.length <= 0:
            raise PlannerError("empty route")
        self.route = route
        self.cfg = cfg
        self.params = params
        self.v_ref = v_ref
        self.dt = dt

    def _candidate_inputs(self, ego: AgentState, s0, d0, ds0, dd0, dd0_acc, a0,
                          T: float, d_end: float, v_target: float):
        """Sampled (accel, curvature) inputs realizing one (T, d_end, v_end)
        candidate, derived from the Frenet polynomials. Also returns the
        lateral acceleration after the first step, carried across replans so
        consecutive plans stay consistent."""
        K = int(round(T / self.dt))
        tau = np.arange(K + 1) * self.dt
        lat = _quintic(d0, dd0, dd0_acc, d_end, 0.0, 0.0, T)
        d_vals = _poly_eval(lat, tau)
        dd_vals = _poly_eval(_poly_derivative(lat), tau)
        lat_acc_next = float(_poly_eval(_poly_derivative(_poly_derivative(lat)),
                                        tau[1:2])[0])
        # longitudinal quartic: match s, s-dot, s-ddot now; v and 0 accel at T
        A = v_target - ds0 - a0 * T
        B = -a0
        det = 3 * T**2 * 12 * T**2 - 4 * T**3 * 6 * T
        c3 = (A * 12 * T**2 - 4 * T**3 * B) / det
        c4 = (3 * T**2 * B - A * 6 * T) / det
        lon = np.array([s0, ds0, a0 / 2.0, c3, c4])
        s_vals = _poly_eval(lon, tau)
        ds_vals = _poly_eval(_poly_derivative(lon), tau)
        # no reversing: freeze s where the speed profile would go negative
        ds_vals = np.maximum(ds_vals, 0.0)
        s_vals = np.maximum.accumulate(s_vals)
        if s_vals[-1] > self.route.length:
            return None
        # Cartesian samples and derived headings/speeds
        kappas = np.array([self.route.curvature_at(float(s)) for s in s_vals])
        if np.any(np.abs(d_vals * kappas) >= 0.98):
            return None
        theta_ref = np.array([self.route.tangent_angle_smooth(float(s)) for s in s_vals])
        v_vals = np.hypot(ds_vals * (1.0 - d_vals * kappas), dd_vals)
        headings = theta_ref + np.arctan2(dd_vals, np.maximum(ds_vals * (1.0 - d_vals * kappas), 1e-9))
        headings[0] = ego.theta
        accels = np.diff(v_vals) / self.dt
        dtheta = np.array([normalize_angle(headings[k + 1] - headings[k]) for k in range(K)])
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = np.where(v_vals[:-1] > 0.05, dtheta / (np.maximum(v_vals[:-1], 0.05) * self.dt), 0.0)
        curv = np.clip(curv, -self.params.kappa_max, self.params.kappa_max)
        inputs = [ControlInput(float(a), float(k)) for a, k in zip(accels, curv)]
        return inputs, lat_acc_next

    def _colliding(self, trajs: list, view: LocalView) -> np.ndarray:
        """Per trajectory: does the ego box at any step k >= 1 overlap a
        neighbour's predicted box at step k (its last one past the horizon),
        grown on every side by the prediction's positional stddev?"""
        lengths = [len(traj.states) - 1 for traj in trajs]
        steps = np.concatenate([np.arange(n) for n in lengths])
        predicted = []
        for nid in sorted(view.neighbors):
            pred = view.predictions.get(nid)
            if pred is None:
                continue
            nb = view.neighbors[nid]
            kp = np.minimum(np.arange(1, max(lengths) + 1), len(pred.states) - 1)
            margin = np.asarray(pred.pos_stddev)[kp]
            predicted.append(occupancy([pred.states[k] for k in kp],
                                       nb.length + 2.0 * margin, nb.width + 2.0 * margin))
        predicted = np.stack(predicted, axis=1) if predicted else np.empty((max(lengths), 0, 5))
        ego = occupancy([st for traj in trajs for st in traj.states[1:]],
                        self.params.length, self.params.width)
        hits = boxes_intersect(ego[:, None, :], predicted[steps]).any(axis=1)
        return np.logical_or.reduceat(hits, np.cumsum(lengths) - lengths)

    def _risk(self, traj: Trajectory, view: LocalView) -> float:
        r2 = self.cfg.risk_radius**2
        total = 0.0
        for nid in sorted(view.neighbors):
            pred = view.predictions.get(nid)
            if pred is None:
                continue
            last = len(pred.states) - 1
            for k in range(1, len(traj.states)):
                ps = pred.states[min(k, last)]
                st = traj.states[k]
                dist2 = (st.x - ps.x) ** 2 + (st.y - ps.y) ** 2
                total += math.exp(-dist2 / r2)
        return total

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

    def plan(self, view: LocalView, memory: dict) -> PlanResult:
        ego = view.ego
        s0, d0, in_dom = self.route.project((ego.x, ego.y))
        if not in_dom or abs(d0) > 10.0:
            raise PlannerError(f"agent {view.ego_id}: ego not projectable onto route")
        theta_ref = self.route.tangent_angle_at(s0)
        dtheta = normalize_angle(ego.theta - theta_ref)
        ds0 = ego.v * math.cos(dtheta)
        dd0 = ego.v * math.sin(dtheta)
        a0 = float(memory.get("accel", 0.0))
        dd0_acc = float(memory.get("d_accel", 0.0))

        candidates = []  # feasible (trajectory, d_end, v_target, next lateral accel)
        for T in self.cfg.t_end_samples:
            for d_end in self.cfg.d_end_samples:
                for frac in self.cfg.v_frac_samples:
                    v_target = max(0.0, frac * self.v_ref)
                    candidate = self._candidate_inputs(ego, s0, d0, ds0, dd0,
                                                       dd0_acc, a0, T, d_end, v_target)
                    if candidate is None:
                        continue
                    inputs, lat_acc_next = candidate
                    traj = Trajectory.rollout(ego, inputs, self.dt)
                    if dynamics.feasible(traj, self.params):
                        candidates.append((traj, d_end, v_target, lat_acc_next))
        best = None  # (cost, trajectory, lateral accel after first step)
        colliding = self._colliding([c[0] for c in candidates], view) if candidates else ()
        for (traj, d_end, v_target, lat_acc_next), collides in zip(candidates, colliding):
            if collides:
                continue
            accels = np.array([u.accel for u in traj.inputs])
            lat_acc = np.array([st.v**2 * u.curvature_cmd
                                for st, u in zip(traj.states[:-1], traj.inputs)])
            jerk = 0.0
            if len(accels) > 1:
                jerk = float(np.sum(np.diff(accels) ** 2 + np.diff(lat_acc) ** 2) / self.dt)
            cost = (self.cfg.w_jerk * jerk
                    + self.cfg.w_lat * d_end**2
                    + self.cfg.w_speed * (v_target - self.v_ref) ** 2
                    + self.cfg.w_risk * self._risk(traj, view))
            if best is None or cost < best[0] - 1e-12:
                best = (cost, traj, lat_acc_next)
        if best is None:
            return self._fallback(view, s0, d0, memory)
        traj = best[1]
        memory["accel"] = traj.inputs[0].accel
        memory["d_accel"] = best[2]
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
