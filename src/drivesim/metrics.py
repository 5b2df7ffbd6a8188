"""Retrospective criticality metrics over realized trajectories.

All pairwise measures are computed in curvilinear frames spanned by the
agent's reachable lanelet paths; where several frames apply, the one with the
most critical TTC is retained. Each vehicle's log projects its whole track
once per lane chain it is read on (VehicleLog.on_chain), and all of an
agent's vehicle pairs are scored in one table whose rows are (other vehicle,
step), each row bitwise what its pair gets alone. Crossing TTC predicts both
vehicles of a pair with the predictor's predict_all, all the steps a frame
newly asks for in one call. Oncoming traffic is ignored unless the agent
occupies the oncoming lane or the driving lanes cross. Undefined values are
represented as math.inf, never as sentinel numbers inside arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import VehicleParams, normalize_angles
from .engine import AgentStatus, SimulationResult
from .geometry import (CurvilinearFrame, _shaped, box_intersects_polygon, boxes_intersect,
                       min_distance, occupancy)
from .prediction import PredictorConfig, predict_all
from .scenario import Scenario

INF = math.inf

CORRIDOR_HALFWIDTH = 2.0   # lateral band counting as "in the agent's path"
PATH_LOOKAHEAD = 120.0     # m of lanelet paths enumerated per frame candidate
MAX_PATHS = 16
CROSSING_HORIZON = 15.0    # s of constant-speed prediction behind crossing TTC


def _crossing_predictor(dt: float) -> PredictorConfig:
    """The predictor behind crossing TTC: CROSSING_HORIZON, rounded to
    whole steps of dt (one at least) where it is no whole number of them."""
    cfg = PredictorConfig(horizon=CROSSING_HORIZON)
    try:
        cfg.n_steps(dt)
    except ValueError:
        cfg = PredictorConfig(horizon=max(1, round(CROSSING_HORIZON / dt)) * dt)
    return cfg


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
    s: np.ndarray        # arc length
    d: np.ndarray        # lateral offset
    inside: np.ndarray   # whether the frame's domain holds the vehicle
    tangent: np.ndarray  # the frame's tangent angle at s


@dataclass
class VehicleLog:
    """A vehicle's motion over the run: track (n, 4) holds its (x, y, v,
    theta) at each step. lanelets, the lanelet it drives in (or None) at
    each step, and turns (n, L), its heading turns against every lanelet
    (NaN where the lanelet does not hold it), are set by locate_logs."""

    id: str
    track: np.ndarray
    length: float
    width: float
    is_agent: bool
    params: VehicleParams | None = None
    lanelets: list = field(init=False, repr=False)
    turns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.v = self.track[:, 2]
        # speed change per step by central differences; the caller divides by dt
        self.a = np.gradient(self.v) if len(self.v) >= 2 else np.zeros_like(self.v)
        self.boxes = occupancy(self.track[:, [0, 1, 3]], self.length, self.width)
        self._on_chain: dict[tuple, ChainTrack] = {}
        self._crossing: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def on_chain(self, network, chain: tuple) -> ChainTrack:
        """The whole track in chain's frame, projected on first use."""
        on = self._on_chain.get(chain)
        if on is None:
            frame = network.chain_frame(chain)
            s, d, inside = frame.project(self.track[:, :2])
            on = self._on_chain[chain] = ChainTrack(frame, s, d, inside, frame.tangent_angle_at(s))
        return on

    def crossing_boxes(self, network, steps: np.ndarray, dt: float) -> np.ndarray:
        """Boxes (len(steps), n+1, 5) of the vehicle extrapolated from each
        logged step of steps by predict_all over the n steps of
        _crossing_predictor. One predict_all over the steps no earlier call
        asked for; the rows of the asked steps are kept for later calls, and
        each row is bitwise what it gets alone."""
        cfg = _crossing_predictor(dt)
        row, boxes = self._crossing.get(dt) or (np.full(len(self.track), -1),
                                                np.empty((0, cfg.n_steps(dt) + 1, 5)))
        # a mask, not np.unique, whose first call imports numpy.ma (about 8 ms)
        asked = np.zeros(len(row), bool)
        asked[steps] = True
        new = np.flatnonzero(asked & (row < 0))
        if len(new):
            poses = predict_all(self.track[new], [self.lanelets[k] for k in new.tolist()],
                                network, cfg, dt)
            row[new] = len(boxes) + np.arange(len(new))
            made = occupancy(poses, self.length, self.width)
            boxes = np.concatenate([boxes, made]) if len(boxes) else made
            self._crossing[dt] = row, boxes
        return boxes[row[steps]]


def locate_logs(network, logs) -> None:
    """Set each log's lanelets and turns from one StreetNetwork.locate over all of them."""
    logs = list(logs)
    located, turns = network.locate(np.vstack([log.track[:, [0, 1, 3]] for log in logs]))
    ends = np.cumsum([len(log.track) for log in logs]).tolist()
    for log, lo, hi in zip(logs, [0, *ends], ends):
        log.lanelets, log.turns = located[lo:hi], turns[lo:hi]


def _against(turn):
    """Whether a heading turned by turn (wrapped) from a direction drives against it."""
    return abs(turn) > math.pi / 2


# ---------------------------------------------------------------------------
# Frame enumeration


class AgentFrame(NamedTuple):
    """An agent's whole log in one of its candidate frames."""
    chain: tuple
    track: ChainTrack     # the agent on the chain
    member: np.ndarray    # steps at which the frame is a candidate that holds the agent
    v_along: np.ndarray   # speed along the frame's tangent
    oncoming: np.ndarray  # heading against the frame, or inside a lanelet it drives against


def frame_table(network, log: VehicleLog) -> list[AgentFrame]:
    """An agent's candidate frames over its whole log. At each step the
    candidates are the first MAX_PATHS lanelet paths from the lanelets
    holding it that it does not drive against (log.turns), by sorted start,
    or from its located lanelet when there is none; member marks the steps
    at which a frame is a candidate whose domain holds the agent. Frames are
    ordered by (start, depth-first rank), the order in which every step
    lists its candidates: the search from a start is the same at every step,
    and MAX_PATHS only cuts its tail."""
    ids, against = sorted(network.lanelets), _against(log.turns).any(axis=1)
    aligned = (np.abs(log.turns) <= math.pi / 2).tolist()   # NaN where a lanelet does not hold it
    listed = {}   # chain -> ((start, rank), steps)
    for t, (row, lanelet) in enumerate(zip(aligned, log.lanelets)):
        starts = [lid for lid, ok in zip(ids, row) if ok]
        if not starts and lanelet is not None:
            starts = [lanelet]
        ranked = [((start, rank), chain) for start in starts for rank, chain
                  in enumerate(network.lane_paths(start, PATH_LOOKAHEAD, MAX_PATHS))]
        for key, chain in ranked[:MAX_PATHS]:
            listed.setdefault(chain, (key, []))[1].append(t)

    frames = []
    for chain, (_, steps) in sorted(listed.items(), key=lambda item: item[1][0]):
        on = log.on_chain(network, chain)
        member = np.zeros(len(against), bool)
        member[steps] = on.inside[steps]
        if member.any():
            turn = normalize_angles(log.track[:, 3] - on.tangent)
            frames.append(AgentFrame(chain, on, member, log.v * np.cos(turn),
                                     against | _against(turn)))
    return frames


# ---------------------------------------------------------------------------
# Elementary measures, elementwise over arrays; numbers give a float


def ttc_closed_form(hw, dv, da):
    """Smallest positive root of hw + dv*t + 0.5*da*t^2 = 0, inf if none;
    dv is lead-minus-ego relative velocity, da the relative acceleration."""
    hw, dv, da = np.broadcast_arrays(np.asarray(hw, float), dv, da)
    with np.errstate(divide="ignore", invalid="ignore"):
        linear = np.where(dv < -1e-12, -hw / dv, INF)
        sq = np.sqrt(dv * dv - 2.0 * da * hw)   # nan where no real root
        roots = [np.where(r > 0, r, INF) for r in ((-dv - sq) / da, (-dv + sq) / da)]
        ttc = np.where(np.abs(da) < 1e-9, linear, np.minimum(*roots))
    return _shaped(np.where(np.isfinite(hw), np.where(hw <= 0, 0.0, ttc), INF))


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


def _rows(log_a: VehicleLog, others: list[VehicleLog]) -> tuple[list, np.ndarray]:
    """Each other's row count n and each row's step in the table of an agent
    and others (one at least): a row per other and step both logs hold."""
    ns = [min(len(log_a.track), len(log_o.track)) for log_o in others]
    return ns, np.concatenate([np.arange(n) for n in ns])


def _stack(arrays, ns: list) -> np.ndarray:
    """The first n rows of each of arrays, concatenated."""
    return np.concatenate([x[:n] for x, n in zip(arrays, ns)])


def distance_series(log_a: VehicleLog, others: list[VehicleLog]) -> np.ndarray:
    """Box distance between the agent and the others over the table's rows."""
    ns, steps = _rows(log_a, others)
    return min_distance(log_a.boxes[steps], _stack([log_o.boxes for log_o in others], ns))


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


def braking_threat(hw, v_ego_along, v_lead_along, a_long_max: float):
    """Required stop-before-contact deceleration over available deceleration."""
    closing = np.maximum(0.0, np.subtract(v_ego_along, v_lead_along))
    with np.errstate(divide="ignore", invalid="ignore"):
        btn = (closing * closing / (2.0 * hw)) / a_long_max
    return _shaped(np.where(np.isfinite(hw) & (hw > 0), btn, 0.0))


def steering_threat(d_a, d_o, width_a: float, width_o: float, ttc, a_lat_max: float):
    """Required lateral clearing acceleration over available lateral accel."""
    # inf - inf where no frame holds the pair, and 1/0 at contact
    with np.errstate(divide="ignore", invalid="ignore"):
        d_clear = np.maximum(0.0, 0.5 * (width_a + width_o) - np.abs(np.subtract(d_a, d_o)))
        stn = (2.0 * d_clear / (ttc * ttc)) / a_lat_max
    return _shaped(np.where(np.isfinite(ttc) & (ttc > 0), stn, 0.0))


def minimum_stopping_distance(v, a_long_max: float):
    return v * v / (2.0 * a_long_max)


def proportion_stopping_distance(distance_to_area, msd):
    msd = np.asarray(msd, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        psd = distance_to_area / msd
    return _shaped(np.where(msd <= 0, INF, psd))


# ---------------------------------------------------------------------------
# Frame selection


def select_frames(network, log_a: VehicleLog, others: list[VehicleLog], dt: float,
                  cfg: MetricConfig, conflict_pairs: set, frames: list[AgentFrame]) -> dict:
    """Per row of the agent's table with others (_rows), the pair's relation,
    d_a, d_o, v_a, v_o (speeds along the frame), hw and ttc in the most
    critical of the agent's frames (its frame_table): the least (ttc, hw),
    the first among equals. A pair is "ignored" where no frame holds the other
    as relevant or its centres are farther apart than the gating distance."""
    ns, steps = _rows(log_a, others)
    owner, track_o = np.repeat(np.arange(len(others)), ns), _stack([o.track for o in others], ns)
    vo, tho = track_o[:, 2:].T
    # math.hypot: np.hypot differs from it in the last bit on some inputs
    near = np.array([math.hypot(dx, dy) <= cfg.gating_distance for dx, dy
                     in (log_a.track[steps, :2] - track_o[:, :2]).tolist()])
    da = _stack([o.a for o in others], ns) / dt - log_a.a[steps] / dt
    length_o = np.repeat([o.length for o in others], ns)
    lanelets_o = [lid for o, n in zip(others, ns) for lid in o.lanelets[:n]]
    zero = np.zeros(len(log_a.track))   # the others a frame holds at no row skip its projection
    idle = ChainTrack(None, zero, zero, zero.astype(bool), zero)

    relation = np.full(len(steps), "ignored", dtype=object)
    d_a, d_o, hw, ttc = (np.full(len(steps), INF) for _ in range(4))
    v_a, v_o, found = np.zeros(len(steps)), np.zeros(len(steps)), np.zeros(len(steps), bool)
    crossing = np.full(len(steps), np.nan)   # the frame-independent crossing TTC, NaN until asked
    for agent in frames:
        holds = near & agent.member[steps]
        if not holds.any():
            continue
        held = set(owner[holds].tolist())
        ons = [o.on_chain(network, agent.chain) if k in held else idle
               for k, o in enumerate(others)]
        s_o, d_of, inside, tangent = (_stack(field, ns) for field in list(zip(*ons))[1:])
        turn = normalize_angles(tho - tangent)
        against = _against(turn)
        crossers = {b for p in conflict_pairs for a, b in (p, p[::-1]) if a in agent.chain}
        lanes_cross = np.array([lid in crossers for lid in lanelets_o], bool)
        holds &= inside & (~against | agent.oncoming[steps] | lanes_cross)
        rel = np.where(against, "oncoming-relevant",
                       np.where(lanes_cross, "crossing", "lead-follow"))

        v_o_along = vo * np.cos(turn)
        rear_o, front_a = s_o - length_o / 2.0, agent.track.s[steps] + log_a.length / 2.0
        hw_f = np.where((rear_o > front_a) & (np.abs(d_of) <= CORRIDOR_HALFWIDTH),
                        rear_o - front_a, INF)
        ttc_f = ttc_closed_form(hw_f, v_o_along - agent.v_along[steps], da)
        asks = holds & (rel == "crossing") & (hw_f == INF)
        new = asks & np.isnan(crossing)
        for k in sorted(set(owner[new].tolist())):   # one call per pair
            mine = new & (owner == k)
            crossing[mine] = _crossing_ttc(network, log_a, others[k], steps[mine], dt)
        ttc_f[asks] = crossing[asks]

        wins = holds & (~found | (ttc_f < ttc) | ((ttc_f == ttc) & (hw_f < hw)))
        for best, this in ((relation, rel), (d_a, agent.track.d[steps]), (d_o, d_of), (hw, hw_f),
                           (v_a, agent.v_along[steps]), (v_o, v_o_along), (ttc, ttc_f)):
            best[wins] = this[wins]
        found |= holds
    return {"relation": relation.astype(str), "d_a": d_a, "d_o": d_o,
            "v_a": v_a, "v_o": v_o, "hw": hw, "ttc": ttc}


def _crossing_ttc(network, log_a: VehicleLog, log_o: VehicleLog, steps: np.ndarray,
                  dt: float) -> np.ndarray:
    """Per step of steps, the time until the boxes of both vehicles,
    extrapolated from it (VehicleLog.crossing_boxes), first overlap; inf
    if they never do."""
    hits = boxes_intersect(log_a.crossing_boxes(network, steps, dt),
                           log_o.crossing_boxes(network, steps, dt))
    return np.where(hits.any(axis=1), hits.argmax(axis=1) * dt, INF)


def _may_come_within(log_a: VehicleLog, others: list[VehicleLog], gate: float) -> np.ndarray:
    """Per other, whether it may come within gate of the agent at a step both
    logs hold. A box lies in its circumcircle, so the box distance is at
    least the centre distance less both circumradii. Where that exceeds gate
    at every step by a relative and absolute margin far above the rounding
    of np.hypot and min_distance, every box and centre distance is past the
    gate, so select_frames ignores the pair throughout and evaluate drops it."""
    ns, steps = _rows(log_a, others)
    centres = np.hypot(*(log_a.track[steps, :2] - _stack([o.track[:, :2] for o in others], ns)).T)
    reach = np.repeat([gate + 0.5 * (math.hypot(log_a.length, log_a.width)
                                     + math.hypot(o.length, o.width)) for o in others], ns)
    close = centres <= reach * (1.0 + 1e-9) + 1e-9
    return np.logical_or.reduceat(close, np.cumsum([0, *ns[:-1]]))


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
    dt, network = result.dt, scenario.network

    logs: dict[str, VehicleLog] = {}
    problems = {p.agent_id: p for p in scenario.planning_problems}
    for aid, traj in result.trajectories.items():
        params = problems[aid].params if aid in problems else VehicleParams()
        track = np.array([(s.x, s.y, s.v, s.theta) for s in traj.states])
        logs[aid] = VehicleLog(aid, track, params.length, params.width, True, params)
    obstacles = scenario.dynamic_obstacles + scenario.static_obstacles
    for obs, track in zip(obstacles, scenario.obstacle_tracks(len(result.step_logs) + 1)):
        logs[obs.id] = VehicleLog(obs.id, track, obs.length, obs.width, False)
    locate_logs(network, logs.values())

    conflict_areas = network.conflict_areas()
    conflict_pairs = {tuple(sorted(pair)) for pair, _ in conflict_areas}
    area_flags = [{vid: box_intersects_polygon(log.boxes, area) for vid, log in logs.items()}
                  for _, area in conflict_areas]
    # chain -> per conflict area of a lanelet on it, the least arc length of
    # the area's in-domain vertices within the widened corridor
    entries = {}

    report = MetricReport(dt=dt)
    for aid in sorted(aid for aid, log in logs.items() if log.is_agent):
        log_a = logs[aid]
        params = log_a.params or VehicleParams()
        frames = frame_table(network, log_a)
        others = [logs[oid] for oid in sorted(logs) if oid != aid]
        gated = _may_come_within(log_a, others, cfg.gating_distance) if others else []
        others = [log_o for log_o, within in zip(others, gated) if within]
        if others:   # one table for all the agent's gated pairs, split back per pair
            ns, steps = _rows(log_a, others)
            dists = distance_series(log_a, others)
            table = select_frames(network, log_a, others, dt, cfg, conflict_pairs, frames)
            hw, ttc, v = table["hw"], table["ttc"], log_a.v[steps]
            thw = np.divide(hw, v, out=np.full(len(hw), INF), where=np.isfinite(hw) & (v > 0))
            rows = {"hw": hw, "thw": thw, "ttc": ttc, "relation": table["relation"],
                    "btn": braking_threat(hw, table["v_a"], table["v_o"], params.a_long_max),
                    "stn": steering_threat(table["d_a"], table["d_o"], log_a.width,
                                           np.repeat([o.width for o in others], ns), ttc,
                                           params.a_lat_max)}
            rows = {name: x.tolist() for name, x in rows.items()}
            scored = (table["relation"] != "ignored") | (dists < cfg.gating_distance)
            ends = np.cumsum(ns).tolist()
            for log_o, lo, hi in zip(others, [0, *ends], ends):
                if scored[lo:hi].any():
                    series = {name: x[lo:hi] for name, x in rows.items()}
                    series["ttce"], series["dce"] = ttce_dce(dists[lo:hi], dt)
                    report.pair_series[(aid, log_o.id)] = series
        kept = [series for (a, _), series in report.pair_series.items() if a == aid]

        # conflict-area events
        for idx, (pair, area) in enumerate(conflict_areas):
            others = {oid: flags for oid, flags in area_flags[idx].items() if oid != aid}
            entry, exit_, et, pet, other = encroachment_times(area_flags[idx][aid], others, dt)
            if math.isfinite(et):
                report.conflict_events.append({
                    "agent": aid, "other": other, "area_index": idx, "lanelets": list(pair),
                    "entry": entry, "exit": exit_, "et": et, "pet": pet})

        # per-agent series: most critical TTC across pairs, MSD, PSD
        ttc_min, gap_min = np.full(len(log_a.v), INF), np.full(len(log_a.v), INF)
        for ttc in (series["ttc"] for series in kept):
            ttc_min[:len(ttc)] = np.minimum(ttc_min[:len(ttc)], ttc)
        for agent in frames:
            if agent.chain not in entries:
                frame, entries[agent.chain] = network.chain_frame(agent.chain), []
                for pair, area in conflict_areas:
                    if set(agent.chain).intersection(pair):
                        s_v, d_v, in_v = frame.project(area.vertices)
                        hits = in_v & (np.abs(d_v) <= CORRIDOR_HALFWIDTH + 2.0)
                        if hits.any():
                            entries[agent.chain].append(float(s_v[hits].min()))
            for e in entries[agent.chain]:
                gap = e - (agent.track.s + log_a.length / 2.0)
                gap_min = np.where(agent.member & (gap > 0.0), np.minimum(gap_min, gap), gap_min)
        msd, ttc_min = minimum_stopping_distance(log_a.v, params.a_long_max), ttc_min.tolist()
        report.agent_series[aid] = {"ttc": ttc_min, "msd": msd.tolist(),
                                    "psd": proportion_stopping_distance(gap_min, msd).tolist()}

        duration = (len(log_a.v) - 1) * dt
        events = [e for e in report.conflict_events if e["agent"] == aid]
        report.aggregates[aid] = {
            "min_ttc": _finite_min(ttc_min),
            "min_dce": _finite_min(v for s in kept for v in s["dce"]),
            "max_btn": max((v for s in kept for v in s["btn"]), default=0.0),
            "max_stn": max((v for s in kept for v in s["stn"]), default=0.0),
            "tet": tet(ttc_min, cfg.ttc_threshold, dt, duration),
            "tit": tit(ttc_min, cfg.ttc_threshold, dt, duration),
            "et": _finite_min(e["et"] for e in events),
            "pet": _finite_min(e["pet"] for e in events),
            "status": result.statuses[aid].value,
            "collided": result.statuses[aid] is AgentStatus.COLLIDED,
        }
    return report

