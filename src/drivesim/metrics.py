"""Retrospective criticality metrics over realized trajectories.

All pairwise measures are computed in curvilinear frames spanned by the
agent's reachable lanelet paths; where several frames apply, the one with the
most critical TTC is retained. Each vehicle's log projects its whole track
once per lane chain it is read on (VehicleLog.on_chain), and every agent's
vehicle pairs are scored in one table whose rows are (agent, other vehicle,
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
    key: tuple            # (start, depth-first rank) of the chain, which orders frames
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
    ordered by their key (start, depth-first rank), the order in which every
    step lists its candidates: the search from a start is the same at every
    step, and MAX_PATHS only cuts its tail, so the key depends on the chain
    alone."""
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
    for chain, (key, steps) in sorted(listed.items(), key=lambda item: item[1][0]):
        on = log.on_chain(network, chain)
        member = np.zeros(len(against), bool)
        member[steps] = on.inside[steps]
        if member.any():
            turn = normalize_angles(log.track[:, 3] - on.tangent)
            frames.append(AgentFrame(chain, key, on, member, log.v * np.cos(turn),
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


def _rows(blocks) -> tuple[list, list, np.ndarray]:
    """The table of blocks, each an agent's log and the logs of others it
    is scored with (one pair at least in all): its pairs (agent log, other
    log), each pair's row count n and each row's step. Per agent in turn,
    and per other in turn, a row per step both logs hold."""
    pairs = [(log_a, log_o) for log_a, others in blocks for log_o in others]
    ns = [min(len(log_a.track), len(log_o.track)) for log_a, log_o in pairs]
    return pairs, ns, np.arange(sum(ns)) - np.repeat(np.cumsum([0, *ns[:-1]]), ns)


def _stack(arrays, ns: list) -> np.ndarray:
    """The first n rows of each of arrays, concatenated."""
    return np.concatenate([x[:n] for x, n in zip(arrays, ns)])


def distance_series(blocks) -> np.ndarray:
    """Box distance between agent and other over the rows of the table of
    blocks (_rows)."""
    pairs, ns, _ = _rows(blocks)
    return min_distance(*(_stack([log.boxes for log in side], ns) for side in zip(*pairs)))


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


def select_frames(network, blocks, dt: float, cfg: MetricConfig, conflict_pairs: set,
                  frames: dict) -> dict:
    """Per row of the table of blocks (_rows), the pair's relation, d_a, d_o,
    v_a, v_o (speeds along the frame), hw and ttc in the most critical of
    its agent's frames (frames[agent id], its frame_table): the least (ttc,
    hw), the first among equals. A pair is "ignored" where no frame holds
    the other as relevant or its centres are farther apart than the gating
    distance. One pass per lane chain of any agent's frames, in the order of
    their keys, runs over the rows of the agents that hold it. A key depends
    on the chain alone, so each agent meets its frames in its own order, and
    every row is bitwise what its pair gets alone."""
    pairs, ns, steps = _rows(blocks)
    owner = np.repeat(np.arange(len(pairs)), ns)
    block = np.repeat(np.repeat(np.arange(len(blocks)), [len(others) for _, others in blocks]), ns)
    vehicles = list({log_o.id: log_o for _, log_o in pairs}.values())   # the others, once each
    index = {log.id: k for k, log in enumerate(vehicles)}
    vehicle = np.repeat([index[log_o.id] for _, log_o in pairs], ns)
    track_a, track_o = (_stack([log.track for log in side], ns) for side in zip(*pairs))
    vo, tho = track_o[:, 2:].T
    # math.hypot: np.hypot differs from it in the last bit on some inputs
    near = np.array([math.hypot(dx, dy) <= cfg.gating_distance for dx, dy
                     in (track_a[:, :2] - track_o[:, :2]).tolist()])
    a_a, a_o = (_stack([log.a for log in side], ns) for side in zip(*pairs))
    da = a_o / dt - a_a / dt
    length_a, length_o = (np.repeat([log.length for log in side], ns) for side in zip(*pairs))
    code = {lid: k for k, lid in enumerate(sorted(network.lanelets))}   # None: len(code)
    lane_o = np.array([code.get(lid, len(code)) for (_, log_o), n in zip(pairs, ns)
                       for lid in log_o.lanelets[:n]])
    width = max(len(log.track) for log in [*vehicles, *(log_a for log_a, _ in blocks)])
    passes = {}   # chain -> (key, [(block, the agent's frame on it)])
    for b, (log_a, _) in enumerate(blocks):
        for frame in frames[log_a.id]:
            passes.setdefault(frame.chain, (frame.key, []))[1].append((b, frame))

    relation = np.full(len(steps), "ignored", dtype=object)
    d_a, d_o, hw, ttc = (np.full(len(steps), INF) for _ in range(4))
    v_a, v_o, found = np.zeros(len(steps)), np.zeros(len(steps)), np.zeros(len(steps), bool)
    crossing = np.full(len(steps), np.nan)   # the frame-independent crossing TTC, NaN until asked
    for chain, (_, holders) in sorted(passes.items(), key=lambda item: item[1][0]):
        taking, agent = np.zeros(len(blocks), bool), np.zeros((5, len(blocks), width))
        for b, frame in holders:
            taking[b] = True
            agent[:, b, :len(frame.member)] = (frame.member, frame.track.s, frame.track.d,
                                               frame.v_along, frame.oncoming)
        rows = np.flatnonzero(taking[block])
        t = steps[rows]
        member, s_a, d_af, v_af, oncoming = agent[:, block[rows], t]
        holds = near[rows] & (member != 0)
        if not holds.any():
            continue
        # the others held at no row read zeros and skip their projection
        held = sorted(set(vehicle[rows[holds]].tolist()))
        slot, other = np.zeros(len(vehicles), int), np.zeros((4, len(held) + 1, width))
        for j, k in enumerate(held, 1):
            slot[k] = j
            other[:, j, :len(vehicles[k].track)] = vehicles[k].on_chain(network, chain)[1:]
        s_o, d_of, inside, tangent = other[:, slot[vehicle[rows]], t]
        turn = normalize_angles(tho[rows] - tangent)
        against = _against(turn)
        crossers = {lid for p in conflict_pairs for a, lid in (p, p[::-1]) if a in chain}
        crosses = np.zeros(len(code) + 1, bool)
        crosses[[code[lid] for lid in crossers]] = True
        lanes_cross = crosses[lane_o[rows]]
        holds &= (inside != 0) & (~against | (oncoming != 0) | lanes_cross)
        rel = np.where(against, "oncoming-relevant",
                       np.where(lanes_cross, "crossing", "lead-follow"))

        v_o_along = vo[rows] * np.cos(turn)
        rear_o, front_a = s_o - length_o[rows] / 2.0, s_a + length_a[rows] / 2.0
        hw_f = np.where((rear_o > front_a) & (np.abs(d_of) <= CORRIDOR_HALFWIDTH),
                        rear_o - front_a, INF)
        ttc_f = ttc_closed_form(hw_f, v_o_along - v_af, da[rows])
        asks = holds & (rel == "crossing") & (hw_f == INF)
        new = rows[asks & np.isnan(crossing[rows])]
        for k in sorted(set(owner[new].tolist())):   # one call per pair
            mine = new[owner[new] == k]
            crossing[mine] = _crossing_ttc(network, *pairs[k], steps[mine], dt)
        ttc_f[asks] = crossing[rows[asks]]

        wins = holds & (~found[rows] | (ttc_f < ttc[rows])
                        | ((ttc_f == ttc[rows]) & (hw_f < hw[rows])))
        for best, this in ((relation, rel), (d_a, d_af), (d_o, d_of), (hw, hw_f),
                           (v_a, v_af), (v_o, v_o_along), (ttc, ttc_f)):
            best[rows[wins]] = this[wins]
        found[rows] |= holds
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


def _may_come_within(blocks, gate: float) -> np.ndarray:
    """Per pair of the table of blocks (_rows), whether the other may come
    within gate of the agent at a step both logs hold. A box lies in its
    circumcircle, so the box distance is at least the centre distance less
    both circumradii. Where that exceeds gate at every step by a relative
    and absolute margin far above the rounding of np.hypot and min_distance,
    every box and centre distance is past the gate, so select_frames ignores
    the pair throughout and evaluate drops it."""
    pairs, ns, _ = _rows(blocks)
    xy_a, xy_o = (_stack([log.track[:, :2] for log in side], ns) for side in zip(*pairs))
    centres = np.hypot(*(xy_a - xy_o).T)
    reach = np.repeat([gate + 0.5 * (math.hypot(log_a.length, log_a.width)
                                     + math.hypot(log_o.length, log_o.width))
                       for log_a, log_o in pairs], ns)
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
    agents = sorted(aid for aid, log in logs.items() if log.is_agent)
    frames = {aid: frame_table(network, logs[aid]) for aid in agents}
    # one table of every agent's gated pairs, split back per agent and pair
    blocks = [(logs[aid], [logs[oid] for oid in sorted(logs) if oid != aid]) for aid in agents]
    if len(logs) > 1:
        within = iter(_may_come_within(blocks, cfg.gating_distance).tolist())
        blocks = [(log_a, [log_o for log_o in others if next(within)])
                  for log_a, others in blocks]
    blocks = [(log_a, others) for log_a, others in blocks if others]
    if blocks:
        _, ns, steps = _rows(blocks)
        dists = distance_series(blocks)
        table = select_frames(network, blocks, dt, cfg, conflict_pairs, frames)
        bounds, first = [0, *np.cumsum(ns).tolist()], 0   # each pair's first row, and the end
        for log_a, others in blocks:   # the agent's rows of the table
            last = first + len(others)
            mine = slice(bounds[first], bounds[last])
            block, block_dists = {name: x[mine] for name, x in table.items()}, dists[mine]
            params = log_a.params or VehicleParams()
            hw, ttc, v = block["hw"], block["ttc"], log_a.v[steps[mine]]
            thw = np.divide(hw, v, out=np.full(len(hw), INF), where=np.isfinite(hw) & (v > 0))
            rows = {"hw": hw, "thw": thw, "ttc": ttc, "relation": block["relation"],
                    "btn": braking_threat(hw, block["v_a"], block["v_o"], params.a_long_max),
                    "stn": steering_threat(block["d_a"], block["d_o"], log_a.width,
                                           np.repeat([o.width for o in others], ns[first:last]),
                                           ttc, params.a_lat_max)}
            rows = {name: x.tolist() for name, x in rows.items()}
            scored = (block["relation"] != "ignored") | (block_dists < cfg.gating_distance)
            ends = [end - bounds[first] for end in bounds[first + 1:last + 1]]
            for log_o, lo, hi in zip(others, [0, *ends], ends):
                if scored[lo:hi].any():
                    series = {name: x[lo:hi] for name, x in rows.items()}
                    series["ttce"], series["dce"] = ttce_dce(block_dists[lo:hi], dt)
                    report.pair_series[(log_a.id, log_o.id)] = series
            first = last

    for aid in agents:
        log_a = logs[aid]
        params = log_a.params or VehicleParams()
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
        for agent in frames[aid]:
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

