"""Retrospective criticality metrics over realized trajectories.

All pairwise measures are computed in curvilinear frames spanned by the
agent's reachable lanelet paths; where several frames apply, the one with the
most critical TTC is retained. Oncoming traffic is ignored unless the agent
occupies the oncoming lane or the driving lanes cross. Undefined values are
represented as math.inf, never as sentinel numbers inside arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AgentState, VehicleParams, normalize_angle, normalize_angles
from .engine import AgentStatus, SimulationResult
from .geometry import (CurvilinearFrame, box_intersects_polygon, boxes_intersect,
                       min_distance, occupancy)
from .prediction import ahead, lane_chain
from .scenario import Scenario

INF = math.inf

CORRIDOR_HALFWIDTH = 2.0   # lateral band counting as "in the agent's path"
PATH_LOOKAHEAD = 120.0     # m of lanelet paths enumerated per frame candidate
MAX_PATHS = 16


@dataclass(frozen=True)
class MetricConfig:
    ttc_threshold: float = 2.0   # s
    gating_distance: float = 50.0  # m, Cartesian proximity gate

    def __post_init__(self):
        if not (self.ttc_threshold > 0 and self.gating_distance > 0):
            raise ValueError(f"ttc_threshold={self.ttc_threshold} and "
                             f"gating_distance={self.gating_distance} must be > 0")


@dataclass
class VehicleLog:
    id: str
    states: list
    length: float
    width: float
    is_agent: bool
    params: VehicleParams | None = None

    def __post_init__(self):
        self.v = np.array([s.v for s in self.states])
        # acceleration by central finite differences of the logged speeds
        if len(self.v) >= 2:
            self.a = np.gradient(self.v)  # scaled by dt by the caller
        else:
            self.a = np.zeros_like(self.v)
        self.boxes = occupancy(self.states, self.length, self.width)


@dataclass
class PairContext:
    agent_id: str
    other_id: str
    relation: str              # lead-follow | crossing | oncoming-relevant | ignored
    frame: CurvilinearFrame | None = None
    s_a: float = INF
    d_a: float = INF
    s_o: float = INF
    d_o: float = INF
    v_a_along: float = 0.0
    v_o_along: float = 0.0
    hw: float = INF
    ttc: float = INF


# ---------------------------------------------------------------------------
# Frame enumeration


def _candidate_chains(network, log, step: int, chain_cache: dict):
    """All lanelet paths (successor chains) the vehicle can reach from its
    position at one logged step, used as candidate reference frames; they
    start at its localized lanelet when no lanelet containing it is aligned
    with it. Computed once per evaluation and step."""
    if (log.id, step) in chain_cache:
        return chain_cache[(log.id, step)]
    state = log.states[step]
    p = np.array([state.x, state.y])
    starts = []
    for lid in network.containing_lanelets(p):
        lane = network.lanelets[lid]
        if abs(normalize_angle(lane.start_tangent_angle() - state.theta)) <= math.pi / 2:
            starts.append(lid)
    lanelet = _lanelets(network, log, chain_cache)[step]
    if not starts and lanelet is not None:
        starts = [lanelet]
    chains = []
    for start in sorted(starts):
        stack = [((start,), network.lanelets[start].centerline.length)]
        while stack and len(chains) < MAX_PATHS:
            chain, length = stack.pop()
            succ = sorted(network.lanelets[chain[-1]].successors)
            succ = [s for s in succ if s not in chain]
            if length >= PATH_LOOKAHEAD or not succ:
                chains.append(chain)
                continue
            for s in succ:
                stack.append((chain + (s,), length + network.lanelets[s].centerline.length))
    chain_cache[(log.id, step)] = chains
    return chains


def _lanelets(network, log, chain_cache: dict) -> list:
    """The localized lanelet (or None) at each logged state, found in one
    call per evaluation and kept in chain_cache under the log's id."""
    if log.id not in chain_cache:
        chain_cache[log.id] = network.localize([(s.x, s.y) for s in log.states])
    return chain_cache[log.id]


# ---------------------------------------------------------------------------
# Elementary measures


def ttc_closed_form(hw: float, dv: float, da: float) -> float:
    """Smallest positive root of hw + dv*t + 0.5*da*t^2 = 0, inf if none.

    dv is lead-minus-ego relative velocity, da the relative acceleration.
    """
    if not math.isfinite(hw):
        return INF
    if hw <= 0:
        return 0.0
    roots = []
    if abs(da) < 1e-9:
        if dv < -1e-12:
            roots.append(-hw / dv)
    else:
        disc = dv * dv - 2.0 * da * hw
        if disc >= 0:
            sq = math.sqrt(disc)
            for r in ((-dv - sq) / da, (-dv + sq) / da):
                if r > 0:
                    roots.append(r)
    return min(roots) if roots else INF


def tet(ttc_series, tau: float, dt: float, total_duration: float) -> float:
    """Fraction of the scenario duration with TTC <= tau."""
    if total_duration <= 0:
        return 0.0
    count = sum(1 for v in ttc_series if v <= tau)
    return (dt / total_duration) * count


def tit(ttc_series, tau: float, dt: float, total_duration: float) -> float:
    """Duration-normalized integral of (tau - TTC) where TTC <= tau."""
    if total_duration <= 0:
        return 0.0
    acc = sum(tau - v for v in ttc_series if v <= tau)
    return (dt / total_duration) * acc


def distance_series(log_a: VehicleLog, log_o: VehicleLog) -> np.ndarray:
    n = min(len(log_a.states), len(log_o.states))
    return min_distance(log_a.boxes[:n], log_o.boxes[:n])


def ttce_dce(dist_series: np.ndarray, step: int, dt: float) -> tuple[float, float]:
    """Time to and distance of the closest future encounter from step onward."""
    future = dist_series[step:]
    if len(future) == 0:
        return INF, INF
    arg = int(np.argmin(future))
    return arg * dt, float(future[arg])


def braking_threat(hw: float, v_ego_along: float, v_lead_along: float,
                   a_long_max: float) -> float:
    """Required stop-before-contact deceleration over available deceleration."""
    if not math.isfinite(hw) or hw <= 0:
        return 0.0
    closing = max(0.0, v_ego_along - v_lead_along)
    return (closing * closing / (2.0 * hw)) / a_long_max


def steering_threat(d_a: float, d_o: float, width_a: float, width_o: float,
                    ttc: float, a_lat_max: float) -> float:
    """Required lateral clearing acceleration over available lateral accel."""
    if not math.isfinite(ttc) or ttc <= 0:
        return 0.0
    d_clear = max(0.0, 0.5 * (width_a + width_o) - abs(d_a - d_o))
    return (2.0 * d_clear / (ttc * ttc)) / a_lat_max


def minimum_stopping_distance(v: float, a_long_max: float) -> float:
    return v * v / (2.0 * a_long_max)


def proportion_stopping_distance(distance_to_area: float, msd: float) -> float:
    if msd <= 0:
        return INF
    return distance_to_area / msd


# ---------------------------------------------------------------------------
# Frame selection


def select_frames(network, log_a: VehicleLog, log_o: VehicleLog, step: int,
                  dt: float, cfg: MetricConfig, conflict_pairs: set,
                  chain_cache: dict) -> PairContext:
    """Classify the pair at one step and pick the most critical frame."""
    sa, so = log_a.states[step], log_o.states[step]
    if math.hypot(sa.x - so.x, sa.y - so.y) > cfg.gating_distance:
        return PairContext(log_a.id, log_o.id, "ignored")

    chains = _candidate_chains(network, log_a, step, chain_cache)
    if not chains:
        return PairContext(log_a.id, log_o.id, "ignored")

    other_lanelet = _lanelets(network, log_o, chain_cache)[step]

    best: PairContext | None = None
    for chain in chains:
        frame = network.chain_frame(chain)
        s, d, in_dom = frame.project([(sa.x, sa.y), (so.x, so.y)])
        if not in_dom.all():
            continue
        (s_a, s_o), (d_a, d_o) = s.tolist(), d.tolist()
        tang_a, tang_o = frame.tangent_angle_at(s).tolist()
        same_dir = abs(normalize_angle(so.theta - tang_o)) <= math.pi / 2
        lanes_cross = (
            other_lanelet is not None
            and any(tuple(sorted((lid, other_lanelet))) in conflict_pairs for lid in chain)
        )
        if not same_dir:
            on_oncoming_lane = abs(normalize_angle(sa.theta - tang_a)) > math.pi / 2
            # the agent's own chains align with its heading, so check the
            # containing lanelets directly
            on_oncoming_lane = on_oncoming_lane or _occupies_oncoming(network, sa)
            if not (on_oncoming_lane or lanes_cross):
                continue
            relation = "oncoming-relevant"
        elif lanes_cross:
            relation = "crossing"
        else:
            relation = "lead-follow"

        v_a_along = sa.v * math.cos(normalize_angle(sa.theta - tang_a))
        v_o_along = so.v * math.cos(normalize_angle(so.theta - tang_o))
        hw = INF
        if s_o - log_o.length / 2.0 > s_a + log_a.length / 2.0 and abs(d_o) <= CORRIDOR_HALFWIDTH:
            hw = (s_o - log_o.length / 2.0) - (s_a + log_a.length / 2.0)
        a_a = log_a.a[step] / dt
        a_o = log_o.a[step] / dt
        if relation == "crossing" and hw == INF:
            ttc = _crossing_ttc(network, log_a, log_o, step, dt, chain_cache)
        else:
            ttc = ttc_closed_form(hw, v_o_along - v_a_along, a_o - a_a)
        ctx = PairContext(log_a.id, log_o.id, relation, frame,
                          s_a, d_a, s_o, d_o, v_a_along, v_o_along, hw, ttc)
        if best is None or (ctx.ttc, ctx.hw) < (best.ttc, best.hw):
            best = ctx
    if best is None:
        return PairContext(log_a.id, log_o.id, "ignored")
    return best


def _occupies_oncoming(network, state: AgentState) -> bool:
    p = np.array([state.x, state.y])
    for lid in network.containing_lanelets(p):
        lane = network.lanelets[lid]
        if abs(normalize_angle(lane.start_tangent_angle() - state.theta)) > math.pi / 2:
            return True
    return False


def _crossing_ttc(network, log_a: VehicleLog, log_o: VehicleLog, step: int,
                  dt: float, chain_cache: dict, horizon: float = 15.0) -> float:
    """Time until occupancy overlap when both continue along their own paths
    at their logged speeds: along the lane chain ahead at the current offset,
    held at its end, or straight on off the network. The search gives up at
    the first step at which either offset folds over its chain."""
    k = np.arange(1, int(round(horizon / dt)) + 1)
    tracks = []  # (state, frame, arc lengths at steps k, offset) per vehicle
    folds = np.zeros(len(k), dtype=bool)
    for log in (log_a, log_o):
        st, lid = log.states[step], _lanelets(network, log, chain_cache)[step]
        frame = s = d0 = None
        if lid is not None:
            needed = network.lanelets[lid].centerline.length + (st.v * horizon + 20.0)
            frame = network.chain_frame(lane_chain(network, lid, st.theta, needed))
            s0, d0, _ = frame.project((st.x, st.y))
            s = np.minimum(s0 + st.v * k * dt, frame.length)
            folds |= frame.folds(s, d0)
        tracks.append((st, frame, s, d0))
    n = int(np.argmax(np.append(folds, True)))
    boxes = []
    for (st, frame, s, d0), log in zip(tracks, (log_a, log_o)):
        if frame is None:
            x, y = ahead(st.x, st.y, st.theta, st.v * k[:n] * dt)
            theta = np.full(n, st.theta)
        else:
            x, y = frame.to_cartesian(s[:n], d0).T
            theta = normalize_angles(frame.tangent_angle_at(s[:n]))
        poses = [np.append(st.x, x), np.append(st.y, y), np.append(st.theta, theta)]
        boxes.append(np.column_stack(poses + [np.full(n + 1, v) for v in (log.length, log.width)]))
    hits = np.flatnonzero(boxes_intersect(boxes[0], boxes[1]))
    return int(hits[0]) * dt if len(hits) else INF


# ---------------------------------------------------------------------------
# Conflict-area events


def encroachment_times(flags_a: np.ndarray, flags_others: dict, dt: float):
    """(entry, exit, ET, PET, other) of the vehicle whose boxes overlap a
    conflict area at the steps flagged in flags_a. PET runs from its exit to
    the earliest entry of any other vehicle (flags_others: id -> flags) at or
    after it, and other names that vehicle; when none follows, PET is inf and
    other is the first other by id. Resolved at dt."""
    if not flags_a.any():
        return INF, INF, INF, INF, None
    entry = int(np.argmax(flags_a))
    exit_ = entry + int(np.argmin(np.append(flags_a[entry:], False)))
    pet, other = INF, min(flags_others, default=None)
    for oid in sorted(flags_others):
        follows = np.flatnonzero(flags_others[oid][exit_:])
        if len(follows) and int(follows[0]) * dt < pet:
            pet, other = int(follows[0]) * dt, oid
    return entry * dt, exit_ * dt, (exit_ - entry) * dt, pet, other


# ---------------------------------------------------------------------------
# Report


@dataclass
class MetricReport:
    dt: float
    pair_series: dict = field(default_factory=dict)    # (a, o) -> {name: list}
    agent_series: dict = field(default_factory=dict)   # a -> {name: list}
    conflict_events: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)     # a -> {name: value}

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            if isinstance(v, (np.floating, np.integer)):
                return clean(float(v))
            if isinstance(v, dict):
                return {str(k): clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple, np.ndarray)):
                return [clean(x) for x in v]
            return v

        return {
            "dt": self.dt,
            "pair_series": {f"{a}|{o}": clean(series)
                            for (a, o), series in sorted(self.pair_series.items())},
            "agent_series": clean(self.agent_series),
            "conflict_events": clean(self.conflict_events),
            "aggregates": clean(self.aggregates),
        }


def _finite_min(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return min(finite) if finite else INF


def evaluate(result: SimulationResult, scenario: Scenario,
             cfg: MetricConfig | None = None) -> MetricReport:
    """Full deterministic criticality report over a finished simulation."""
    cfg = cfg or MetricConfig()
    dt = result.dt
    n_steps = len(result.step_logs)
    network = scenario.network

    logs: dict[str, VehicleLog] = {}
    problems = {p.agent_id: p for p in scenario.planning_problems}
    for aid, traj in result.trajectories.items():
        params = problems[aid].params if aid in problems else VehicleParams()
        logs[aid] = VehicleLog(aid, list(traj.states), params.length, params.width,
                               True, params)
    for obs in scenario.dynamic_obstacles:
        states = [obs.state_at(k) for k in range(n_steps + 1)]
        logs[obs.id] = VehicleLog(obs.id, states, obs.length, obs.width, False)
    for obs in scenario.static_obstacles:
        states = [obs.pose] * (n_steps + 1)
        logs[obs.id] = VehicleLog(obs.id, states, obs.length, obs.width, False)

    conflict_areas = network.conflict_areas()
    conflict_pairs = {tuple(sorted(pair)) for pair, _ in conflict_areas}
    area_flags = [{vid: box_intersects_polygon(log.boxes, area) for vid, log in logs.items()}
                  for _, area in conflict_areas]
    chain_cache: dict = {}  # chains per (vehicle, step), lanelets per vehicle

    report = MetricReport(dt=dt)
    agent_ids = sorted(aid for aid, log in logs.items() if log.is_agent)

    for aid in agent_ids:
        log_a = logs[aid]
        params = log_a.params or VehicleParams()
        per_pair_ttc = []
        for oid in sorted(logs):
            if oid == aid:
                continue
            log_o = logs[oid]
            n = min(len(log_a.states), len(log_o.states))
            dists = distance_series(log_a, log_o)
            series = {k: [] for k in ("hw", "thw", "ttc", "ttce", "dce",
                                      "btn", "stn", "relation")}
            any_reported = False
            for t in range(n):
                ctx = select_frames(network, log_a, log_o, t, dt, cfg,
                                    conflict_pairs, chain_cache)
                series["relation"].append(ctx.relation)
                if ctx.relation == "ignored":
                    series["hw"].append(INF)
                    series["thw"].append(INF)
                    series["ttc"].append(INF)
                    series["btn"].append(0.0)
                    series["stn"].append(0.0)
                else:
                    any_reported = True
                    series["hw"].append(ctx.hw)
                    v = log_a.states[t].v
                    series["thw"].append(ctx.hw / v if (math.isfinite(ctx.hw) and v > 0) else INF)
                    series["ttc"].append(ctx.ttc)
                    series["btn"].append(braking_threat(ctx.hw, ctx.v_a_along,
                                                        ctx.v_o_along, params.a_long_max))
                    series["stn"].append(steering_threat(ctx.d_a, ctx.d_o,
                                                         log_a.width, log_o.width,
                                                         ctx.ttc, params.a_lat_max))
                ttce_v, dce_v = ttce_dce(dists, t, dt)
                series["ttce"].append(ttce_v)
                series["dce"].append(dce_v)
            if any_reported or np.any(dists < cfg.gating_distance):
                report.pair_series[(aid, oid)] = series
                per_pair_ttc.append(series["ttc"])

        # conflict-area events
        for idx, (pair, area) in enumerate(conflict_areas):
            others = {oid: flags for oid, flags in area_flags[idx].items() if oid != aid}
            entry, exit_, et, pet, other = encroachment_times(area_flags[idx][aid], others, dt)
            if math.isfinite(et):
                report.conflict_events.append({
                    "agent": aid, "other": other, "area_index": idx,
                    "lanelets": list(pair), "entry": entry, "exit": exit_,
                    "et": et, "pet": pet,
                })

        # per-agent series: most critical TTC across pairs, MSD, PSD
        ttc_min = []
        for t in range(len(log_a.states)):
            vals = [s[t] for s in per_pair_ttc if t < len(s)]
            ttc_min.append(min(vals) if vals else INF)
        msd_series, psd_series = [], []
        for t, st in enumerate(log_a.states):
            msd = minimum_stopping_distance(st.v, params.a_long_max)
            msd_series.append(msd)
            dist_area = _distance_to_next_conflict_area(network, log_a, t, conflict_areas,
                                                        chain_cache)
            psd_series.append(proportion_stopping_distance(dist_area, msd)
                              if math.isfinite(dist_area) else INF)
        report.agent_series[aid] = {"ttc": ttc_min, "msd": msd_series, "psd": psd_series}

        duration = (len(log_a.states) - 1) * dt
        pair_mins = {
            "min_ttc": _finite_min(ttc_min),
            "min_dce": _finite_min(
                v for (a, o), s in report.pair_series.items() if a == aid for v in s["dce"]),
            "max_btn": max((v for (a, o), s in report.pair_series.items()
                            if a == aid for v in s["btn"]), default=0.0),
            "max_stn": max((v for (a, o), s in report.pair_series.items()
                            if a == aid for v in s["stn"]), default=0.0),
        }
        ets = [e["et"] for e in report.conflict_events if e["agent"] == aid]
        pets = [e["pet"] for e in report.conflict_events if e["agent"] == aid]
        report.aggregates[aid] = {
            **pair_mins,
            "tet": tet(ttc_min, cfg.ttc_threshold, dt, duration),
            "tit": tit(ttc_min, cfg.ttc_threshold, dt, duration),
            "et": _finite_min(ets) if ets else INF,
            "pet": _finite_min(pets) if pets else INF,
            "status": result.statuses[aid].value,
            "collided": result.statuses[aid] is AgentStatus.COLLIDED,
        }
    return report


def _distance_to_next_conflict_area(network, log: VehicleLog, step: int, conflict_areas,
                                    chain_cache) -> float:
    state = log.states[step]
    best = INF
    for chain in _candidate_chains(network, log, step, chain_cache):
        frame = network.chain_frame(chain)
        s_a, _, in_a = frame.project((state.x, state.y))
        if not in_a:
            continue
        chain_set = set(chain)
        for pair, area in conflict_areas:
            if not chain_set.intersection(pair):
                continue
            s_v, d_v, in_v = frame.project(area.vertices)
            entries = in_v & (np.abs(d_v) <= CORRIDOR_HALFWIDTH + 2.0)
            if not entries.any():
                continue
            dist = float(s_v[entries].min()) - (s_a + log.length / 2.0)
            if 0.0 < dist < best:
                best = dist
    return best
