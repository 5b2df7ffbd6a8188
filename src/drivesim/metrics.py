"""Retrospective criticality metrics over realized trajectories.

All pairwise measures are computed in curvilinear frames spanned by the
agent's reachable lanelet paths; where several frames apply, the one with the
most critical TTC is retained. Each vehicle's log projects its whole track
once per lane chain it is read on (VehicleLog.on_chain), and every measure
reads that. Crossing TTC sweeps each vehicle with the predictor's motion
model, once per vehicle and step (VehicleLog.sweep). Oncoming traffic is
ignored unless the agent occupies the oncoming lane or the driving lanes
cross. Undefined values are represented as math.inf, never as sentinel
numbers inside arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import VehicleParams, normalize_angle
from .engine import AgentStatus, SimulationResult
from .geometry import (CurvilinearFrame, box_intersects_polygon, boxes_intersect,
                       min_distance, occupancy)
from .prediction import extrapolate, predicted_chain
from .scenario import Scenario

INF = math.inf

CORRIDOR_HALFWIDTH = 2.0   # lateral band counting as "in the agent's path"
PATH_LOOKAHEAD = 120.0     # m of lanelet paths enumerated per frame candidate
MAX_PATHS = 16
CROSSING_HORIZON = 15.0    # s of constant-speed sweep behind crossing TTC


@dataclass(frozen=True)
class MetricConfig:
    ttc_threshold: float = 2.0   # s
    gating_distance: float = 50.0  # m, Cartesian proximity gate

    def __post_init__(self):
        if not (self.ttc_threshold > 0 and self.gating_distance > 0):
            raise ValueError(f"ttc_threshold={self.ttc_threshold} and "
                             f"gating_distance={self.gating_distance} must be > 0")


class ChainTrack(NamedTuple):
    """A vehicle's whole track in one lane chain's frame, per logged step."""
    frame: CurvilinearFrame
    s: list          # arc length
    d: list          # lateral offset
    inside: list     # whether the frame's domain holds the vehicle
    tangent: list    # the frame's tangent angle at s


@dataclass
class VehicleLog:
    """A vehicle's motion over the run: track (n, 4) holds its (x, y, v,
    theta) at each step. lanelets, its localized lanelet (or None) at each
    step, is set by evaluate from one network.localize call."""

    id: str
    track: np.ndarray
    length: float
    width: float
    is_agent: bool
    params: VehicleParams | None = None
    lanelets: list = field(init=False, repr=False)

    def __post_init__(self):
        self.v = self.track[:, 2]
        # speed change per step by central differences; the caller divides by dt
        self.a = np.gradient(self.v) if len(self.v) >= 2 else np.zeros_like(self.v)
        self.boxes = occupancy(self.track[:, [0, 1, 3]], self.length, self.width)
        self._on_chain: dict[tuple, ChainTrack] = {}
        self._sweeps: dict[int, np.ndarray] = {}

    def on_chain(self, network, chain: tuple) -> ChainTrack:
        """The whole track in chain's frame, projected on first use."""
        located = self._on_chain.get(chain)
        if located is None:
            frame = network.chain_frame(chain)
            s, d, inside = frame.project(self.track[:, :2])
            located = self._on_chain[chain] = ChainTrack(
                frame, s.tolist(), d.tolist(), inside.tolist(), frame.tangent_angle_at(s).tolist())
        return located

    def sweep(self, network, step: int, dt: float) -> np.ndarray:
        """Boxes (n+1, 5) at steps 0..n of CROSSING_HORIZON of the vehicle
        extrapolated from step at its logged speed by the predictor's motion
        model, along its predicted lane chain from where on_chain locates it;
        made on first use."""
        if step not in self._sweeps:
            x, y, v, theta = self.track[step].tolist()
            lid, along = self.lanelets[step], None
            if lid is not None:
                chain = predicted_chain(network, lid, theta, v, CROSSING_HORIZON)
                on = self.on_chain(network, chain)
                along = (on.frame, on.s[step], on.d[step])
            poses = extrapolate(x, y, v, theta, along, int(round(CROSSING_HORIZON / dt)), dt)
            self._sweeps[step] = occupancy(poses, self.length, self.width)
        return self._sweeps[step]


@dataclass
class PairContext:
    relation: str              # lead-follow | crossing | oncoming-relevant | ignored
    d_a: float = INF
    d_o: float = INF
    v_a_along: float = 0.0
    v_o_along: float = 0.0
    hw: float = INF
    ttc: float = INF


# ---------------------------------------------------------------------------
# Frame enumeration


class AgentFrame(NamedTuple):
    """Where an agent is in one of its candidate frames at one step."""
    chain: tuple
    s: float
    d: float
    v_along: float   # speed along the frame's tangent
    oncoming: bool   # heading against the frame, or inside a lanelet it drives against


def frame_table(network, log: VehicleLog) -> list[list[AgentFrame]]:
    """Per logged step of an agent, its candidate frames whose domain holds
    it. The candidates are the lanelet paths (successor chains) it can reach
    from the lanelets containing it that are aligned with its heading, or
    from its localized lanelet when none is. The containing lanelets of the
    whole track are found in one call."""
    table = []
    rows = zip(log.track.tolist(), log.lanelets, network.containing_lanelets(log.track[:, :2]))
    for t, ((x, y, v, theta), lanelet, containing) in enumerate(rows):
        turns = {lid: abs(normalize_angle(network.lanelets[lid].start_tangent_angle() - theta))
                 for lid in containing}
        starts = [lid for lid, turn in turns.items() if turn <= math.pi / 2]
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
        against = any(turn > math.pi / 2 for turn in turns.values())
        row = []
        for chain in chains:
            on = log.on_chain(network, chain)
            if on.inside[t]:
                turn = normalize_angle(theta - on.tangent[t])
                row.append(AgentFrame(chain, on.s[t], on.d[t], v * math.cos(turn),
                                      against or abs(turn) > math.pi / 2))
        table.append(row)
    return table


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
    n = min(len(log_a.track), len(log_o.track))
    return min_distance(log_a.boxes[:n], log_o.boxes[:n])


def ttce_dce(dist_series: np.ndarray, dt: float) -> tuple[list, list]:
    """Time to and distance of the closest future encounter from each step
    onward: the first minimum of the distances at or after the step, found
    in one backward scan."""
    dists = dist_series.tolist()
    ttce, dce, first = [], [], len(dists) - 1
    for t in range(len(dists) - 1, -1, -1):
        if dists[t] <= dists[first]:
            first = t
        ttce.append((first - t) * dt)
        dce.append(dists[first])
    return ttce[::-1], dce[::-1]


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
                  frames: list[AgentFrame]) -> PairContext:
    """Classify the pair at one step and pick the most critical of frames,
    the agent's row of its frame_table at step."""
    xa, ya = log_a.track[step, :2].tolist()
    xo, yo, vo, tho = log_o.track[step].tolist()
    if math.hypot(xa - xo, ya - yo) > cfg.gating_distance:
        return PairContext("ignored")

    other_lanelet = log_o.lanelets[step]
    best: PairContext | None = None
    crossing = None  # the frame-independent crossing TTC, made on first need
    for agent in frames:
        on = log_o.on_chain(network, agent.chain)
        if not on.inside[step]:
            continue
        s_o, d_o, tang_o = on.s[step], on.d[step], on.tangent[step]
        same_dir = abs(normalize_angle(tho - tang_o)) <= math.pi / 2
        lanes_cross = other_lanelet is not None and any(
            tuple(sorted((lid, other_lanelet))) in conflict_pairs for lid in agent.chain)
        if not same_dir:
            if not (agent.oncoming or lanes_cross):
                continue
            relation = "oncoming-relevant"
        elif lanes_cross:
            relation = "crossing"
        else:
            relation = "lead-follow"

        v_o_along = vo * math.cos(normalize_angle(tho - tang_o))
        hw = INF
        if s_o - log_o.length / 2.0 > agent.s + log_a.length / 2.0 and abs(d_o) <= CORRIDOR_HALFWIDTH:
            hw = (s_o - log_o.length / 2.0) - (agent.s + log_a.length / 2.0)
        a_a = log_a.a[step] / dt
        a_o = log_o.a[step] / dt
        if relation == "crossing" and hw == INF:
            if crossing is None:
                crossing = _crossing_ttc(network, log_a, log_o, step, dt)
            ttc = crossing
        else:
            ttc = ttc_closed_form(hw, v_o_along - agent.v_along, a_o - a_a)
        ctx = PairContext(relation, agent.d, d_o, agent.v_along, v_o_along, hw, ttc)
        if best is None or (ctx.ttc, ctx.hw) < (best.ttc, best.hw):
            best = ctx
    return best or PairContext("ignored")


def _crossing_ttc(network, log_a: VehicleLog, log_o: VehicleLog, step: int,
                  dt: float) -> float:
    """Time until occupancy overlap when both vehicles are extrapolated from
    step by their VehicleLog.sweep; inf if their boxes never meet within it."""
    hits = np.flatnonzero(boxes_intersect(log_a.sweep(network, step, dt),
                                          log_o.sweep(network, step, dt)))
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
        track = np.array([(s.x, s.y, s.v, s.theta) for s in traj.states])
        logs[aid] = VehicleLog(aid, track, params.length, params.width, True, params)
    obstacles = [(o, o.track(np.arange(n_steps + 1))) for o in scenario.dynamic_obstacles] + [
        (o, np.tile((o.pose.x, o.pose.y, o.pose.v, o.pose.theta), (n_steps + 1, 1)))
        for o in scenario.static_obstacles]
    for obs, track in obstacles:
        logs[obs.id] = VehicleLog(obs.id, track, obs.length, obs.width, False)
    for log in logs.values():
        log.lanelets = network.localize(log.track[:, :2])

    conflict_areas = network.conflict_areas()
    conflict_pairs = {tuple(sorted(pair)) for pair, _ in conflict_areas}
    area_flags = [{vid: box_intersects_polygon(log.boxes, area) for vid, log in logs.items()}
                  for _, area in conflict_areas]
    # chain -> per conflict area of a lanelet on it, the least arc length of
    # the area's in-domain vertices within the widened corridor
    entries = {}

    report = MetricReport(dt=dt)
    agent_ids = sorted(aid for aid, log in logs.items() if log.is_agent)

    for aid in agent_ids:
        log_a = logs[aid]
        params = log_a.params or VehicleParams()
        table = frame_table(network, log_a)
        v_a = log_a.v.tolist()
        kept = []  # the agent's series in report.pair_series
        for oid in sorted(logs):
            if oid == aid:
                continue
            log_o = logs[oid]
            dists = distance_series(log_a, log_o)
            series = {k: [] for k in ("hw", "thw", "ttc", "ttce", "dce",
                                      "btn", "stn", "relation")}
            series["ttce"], series["dce"] = ttce_dce(dists, dt)
            for t in range(len(dists)):
                ctx = select_frames(network, log_a, log_o, t, dt, cfg,
                                    conflict_pairs, table[t])
                series["relation"].append(ctx.relation)
                series["hw"].append(ctx.hw)
                v = v_a[t]
                series["thw"].append(ctx.hw / v if (math.isfinite(ctx.hw) and v > 0) else INF)
                series["ttc"].append(ctx.ttc)
                series["btn"].append(braking_threat(ctx.hw, ctx.v_a_along,
                                                    ctx.v_o_along, params.a_long_max))
                series["stn"].append(steering_threat(ctx.d_a, ctx.d_o,
                                                     log_a.width, log_o.width,
                                                     ctx.ttc, params.a_lat_max))
            if (any(r != "ignored" for r in series["relation"])
                    or np.any(dists < cfg.gating_distance)):
                report.pair_series[(aid, oid)] = series
                kept.append(series)

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
        ttc_min = [min((s["ttc"][t] for s in kept if t < len(s["ttc"])), default=INF)
                   for t in range(len(v_a))]
        msd_series = [minimum_stopping_distance(v, params.a_long_max) for v in v_a]
        for chain in {agent.chain for row in table for agent in row} - entries.keys():
            frame, entries[chain] = network.chain_frame(chain), []
            for pair, area in conflict_areas:
                if set(chain).intersection(pair):
                    s_v, d_v, in_v = frame.project(area.vertices)
                    hits = in_v & (np.abs(d_v) <= CORRIDOR_HALFWIDTH + 2.0)
                    if hits.any():
                        entries[chain].append(float(s_v[hits].min()))
        psd_series = [proportion_stopping_distance(min(
            (gap for agent in row for e in entries[agent.chain]
             if (gap := e - (agent.s + log_a.length / 2.0)) > 0.0), default=INF), msd)
            for row, msd in zip(table, msd_series)]
        report.agent_series[aid] = {"ttc": ttc_min, "msd": msd_series, "psd": psd_series}

        duration = (len(v_a) - 1) * dt
        ets = [e["et"] for e in report.conflict_events if e["agent"] == aid]
        pets = [e["pet"] for e in report.conflict_events if e["agent"] == aid]
        report.aggregates[aid] = {
            "min_ttc": _finite_min(ttc_min),
            "min_dce": _finite_min(v for s in kept for v in s["dce"]),
            "max_btn": max((v for s in kept for v in s["btn"]), default=0.0),
            "max_stn": max((v for s in kept for v in s["stn"]), default=0.0),
            "tet": tet(ttc_min, cfg.ttc_threshold, dt, duration),
            "tit": tit(ttc_min, cfg.ttc_threshold, dt, duration),
            "et": _finite_min(ets),
            "pet": _finite_min(pets),
            "status": result.statuses[aid].value,
            "collided": result.statuses[aid] is AgentStatus.COLLIDED,
        }
    return report

