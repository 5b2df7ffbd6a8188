"""Criticality measures: elementary formulas, frame selection, reports."""

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from drivesim import engine, metrics, prediction, scenario as scenario_module
from drivesim.cli import (build_run, load_run_config, read_run_outputs, resolve_scenario_path,
                          write_run_outputs)
from drivesim.dynamics import (AgentState, ControlInput, Trajectory, VehicleParams,
                               normalize_angle)
from drivesim.geometry import (Polygon, Polyline, box_intersects_polygon, boxes_intersect,
                               occupancy)
from drivesim.metrics import (CORRIDOR_HALFWIDTH, MAX_PATHS, PATH_LOOKAHEAD, MetricConfig,
                              VehicleLog, braking_threat, distance_series,
                              encroachment_times, evaluate, frame_table, locate_logs,
                              minimum_stopping_distance,
                              proportion_stopping_distance, select_frames,
                              steering_threat, ttc_closed_form, ttce_dce)
from drivesim.scenario import (Lanelet, Scenario, StaticObstacle, StreetNetwork,
                               load_scenario, substitute_agents)

from conftest import reference_locate, run_bundled

DT = 0.1
INF = math.inf
HIGHWAY_FRENET12 = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "configs" / "highway_frenet12.json")


def straight_network():
    xs = np.linspace(-50.0, 200.0, 26)
    own = Lanelet("own", Polyline(np.column_stack([xs, np.full(26, 2.0)])),
                  Polyline(np.column_stack([xs, np.full(26, -2.0)])))
    onc = Lanelet("onc", Polyline(np.column_stack([xs[::-1], np.full(26, 2.0)])),
                  Polyline(np.column_stack([xs[::-1], np.full(26, 6.0)])))
    return StreetNetwork([own, onc])


def const_log(vid, x0, y0, v, theta=0.0, n=50, is_agent=True):
    k = np.arange(n)
    track = np.column_stack([x0 + v * k * DT * math.cos(theta),
                             y0 + v * k * DT * math.sin(theta),
                             np.full(n, v), np.full(n, theta)])
    return VehicleLog(vid, track, 4.0, 2.0, is_agent)


class TestElementary:
    def test_ttc_constant_speeds(self):
        assert ttc_closed_form(20.0, -10.0, 0.0) == pytest.approx(2.0)

    def test_ttc_opening_gap(self):
        assert ttc_closed_form(20.0, 5.0, 0.0) == INF
        assert ttc_closed_form(20.0, 0.0, 1.0) == INF

    def test_ttc_contact(self):
        assert ttc_closed_form(0.0, -5.0, 0.0) == 0.0
        assert ttc_closed_form(-1.0, -5.0, 0.0) == 0.0

    def test_ttc_with_acceleration(self):
        # gap 10, dv 0, lead braking at -2: 10 = t^2 -> t = sqrt(10)
        assert ttc_closed_form(10.0, 0.0, -2.0) == pytest.approx(math.sqrt(10.0))

    def test_braking_threat(self):
        assert braking_threat(20.0, 20.0, 10.0, 8.0) == pytest.approx(0.3125)
        assert braking_threat(INF, 20.0, 10.0, 8.0) == 0.0
        assert braking_threat(20.0, 5.0, 10.0, 8.0) == 0.0  # opening

    def test_steering_threat(self):
        # full overlap (same lateral position), 2 m to clear, ttc 2 s
        stn = steering_threat(0.0, 0.0, 2.0, 2.0, 2.0, 8.0)
        assert stn == pytest.approx(2 * 2.0 / 4.0 / 8.0)
        assert steering_threat(0.0, 0.0, 2.0, 2.0, INF, 8.0) == 0.0

    def test_ttce_dce_is_the_first_minimum_of_the_future(self):
        """At each step, TTCE and DCE are the time to and the value of the
        first minimum of the distances at or after it (np.argmin of the
        future), through ties and plateaus: a stopped pair at a constant
        distance has TTCE 0 at every step."""
        rng = np.random.default_rng(5)
        for dists in (np.full(6, 3.0), np.array([5.0, 2.0, 4.0, 2.0, 1.0, 1.0, 3.0]),
                      np.array([2.0, 2.0, 3.0, 1.0, 1.0]), np.array([4.0]), np.empty(0),
                      rng.integers(0, 4, 300).astype(float)):
            first = [int(np.argmin(dists[t:])) for t in range(len(dists))]
            assert ttce_dce(dists, DT) == ([k * DT for k in first],
                                           [dists[t + k] for t, k in enumerate(first)])
        assert ttce_dce(np.full(6, 3.0), DT) == ([0.0] * 6, [3.0] * 6)

    def test_msd_psd(self):
        assert minimum_stopping_distance(20.0, 8.0) == pytest.approx(25.0)
        assert proportion_stopping_distance(50.0, 25.0) == pytest.approx(2.0)
        assert proportion_stopping_distance(50.0, 0.0) == INF

    def test_arrays_give_each_element_as_numbers_do(self):
        """Each elementary measure called with arrays gives, bitwise, what it
        gives each element called with numbers, and numbers give a float."""
        rng = np.random.default_rng(7)
        n = 4000

        def mixed(values, *specials):
            """values with a tenth of its elements replaced by each of specials"""
            for special in specials:
                values = np.where(rng.random(n) < 0.1, special, values)
            return values

        hw = mixed(rng.normal(10.0, 20.0, n), INF, 0.0)
        ttc = mixed(3.0 * rng.random(n), INF, 0.0)
        v, msd = 20.0 * rng.random(n), mixed(30.0 * rng.random(n), 0.0)
        dv, da = rng.normal(0.0, 5.0, n), mixed(rng.normal(0.0, 2.0, n), 0.0)
        cases = [(ttc_closed_form, (hw, dv, da)),
                 (braking_threat, (hw, v, 20.0 * rng.random(n), 8.0)),
                 (steering_threat, (mixed(rng.normal(0.0, 1.5, n), INF), rng.normal(0.0, 1.5, n),
                                    2.0, 1.8, ttc, 4.0)),
                 (minimum_stopping_distance, (v, 8.0)),
                 (proportion_stopping_distance, (mixed(60.0 * rng.random(n), INF), msd))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, args in cases:
                whole = fn(*args)
                each = [fn(*(a[i].item() if isinstance(a, np.ndarray) else a for a in args))
                        for i in range(n)]
                assert all(type(x) is float for x in each), fn.__name__
                assert whole.tobytes() == np.array(each).tobytes(), fn.__name__


class TestFrameSelection:
    def setup_method(self):
        self.net = straight_network()
        self.cfg = MetricConfig()

    def _ctx(self, log_a, log_o, step=0):
        """The pair's series from select_frames, each read at step."""
        locate_logs(self.net, [log_a, log_o])
        series = select_frames(self.net, [(log_a, [log_o])], DT, self.cfg, conflict_pairs=set(),
                               frames={log_a.id: frame_table(self.net, log_a)})
        return PairContext(**{name: values[step] for name, values in series.items()})

    def test_lead_follow_headway(self):
        ego = const_log("ego", 0.0, 0.0, 10.0)
        lead = const_log("lead", 30.0, 0.0, 8.0)
        ctx = self._ctx(ego, lead)
        assert ctx.relation == "lead-follow"
        # rear of lead minus front of ego: (30 - 2) - (0 + 2) = 26
        assert ctx.hw == pytest.approx(26.0, abs=1e-3)
        assert ctx.ttc == pytest.approx(13.0, abs=0.5)

    def test_no_lead_is_infinite(self):
        ego = const_log("ego", 0.0, 0.0, 10.0)
        behind = const_log("other", -30.0, 0.0, 8.0)
        ctx = self._ctx(ego, behind)
        assert ctx.hw == INF

    def test_oncoming_in_own_lane_ignored(self):
        ego = const_log("ego", 0.0, 0.0, 10.0)
        oncoming = const_log("onc", 40.0, 4.0, 10.0, theta=math.pi)
        ctx = self._ctx(ego, oncoming)
        assert ctx.relation == "ignored"

    def test_oncoming_relevant_during_overtake(self):
        # ego straddles the lane border into oncoming traffic, head-on other
        ego = const_log("ego", 0.0, 2.0, 10.0)
        oncoming = const_log("onc", 40.0, 2.0, 10.0, theta=math.pi)
        ctx = self._ctx(ego, oncoming)
        assert ctx.relation == "oncoming-relevant"
        assert math.isfinite(ctx.ttc)
        assert ctx.ttc == pytest.approx(36.0 / 20.0, abs=0.2)

    def test_gating(self):
        ego = const_log("ego", 0.0, 0.0, 10.0)
        far = const_log("far", 500.0, 0.0, 10.0)
        assert self._ctx(ego, far).relation == "ignored"

    def test_gate_skips_only_pairs_that_stay_past_it(self):
        """evaluate's gate keeps every pair whose boxes or centres come within
        the gating distance, and skips a pair whose centres stay farther
        apart than the gating distance plus both circumradii."""
        rng = np.random.default_rng(3)
        reach = self.cfg.gating_distance + math.hypot(4.0, 2.0)   # const_log's boxes are 4 x 2
        for _ in range(500):
            gap, bearing = rng.uniform(45.0, 60.0), rng.uniform(-math.pi, math.pi)
            ego = const_log("ego", 0.0, 0.0, 0.0, rng.uniform(-math.pi, math.pi), n=2)
            other = const_log("o", gap * math.cos(bearing), gap * math.sin(bearing), 0.0,
                              rng.uniform(-math.pi, math.pi), n=2)
            gate = self.cfg.gating_distance
            kept = metrics._may_come_within([(ego, [other])], gate).item()
            if gap <= gate or distance_series([(ego, [other])]).min() < gate:
                assert kept, gap
            if gap > reach + 1e-6:
                assert not kept, gap


def test_vehicle_along_a_curved_lanelet_is_not_oncoming():
    """On a lanelet that bends through 120 degrees on a 50 m radius, a
    vehicle driving along it turns more than 90 degrees from the lanelet's
    first segment by the end of the arc. Its turn against the lanelet is
    taken from the tangent where it is, so no step of its log is oncoming,
    and its lanelet's frame holds it at every step."""
    phi = np.radians(np.linspace(-90.0, 30.0, 41))
    def arc(r):
        return Polyline(np.column_stack([r * np.cos(phi), 50.0 + r * np.sin(phi)]))
    net = StreetNetwork([Lanelet("arc", arc(48.0), arc(52.0))])
    at = np.radians(np.linspace(-80.0, 25.0, 30))
    track = np.column_stack([50.0 * np.cos(at), 50.0 + 50.0 * np.sin(at), np.full(30, 10.0),
                             at + math.pi / 2])
    log = VehicleLog("ego", track, 4.0, 2.0, True)
    locate_logs(net, [log])
    assert log.lanelets == ["arc"] * 30
    assert np.all(np.abs(log.turns) < 0.1)
    (frame,) = frame_table(net, log)
    assert frame.chain == ("arc",) and frame.member.all()
    assert not frame.oncoming.any()
    first = np.diff(net.lanelets["arc"].centerline.points[:2], axis=0)[0]
    assert abs(normalize_angle(track[-1, 3] - math.atan2(first[1], first[0]))) > math.pi / 2


# ---------------------------------------------------------------------------
# Reference: frame selection one step at a time, as evaluate did it before
# each pair was scored over all of its steps at once. It reads the same
# VehicleLog projections, and its arithmetic is that of Python floats.


@dataclass
class PairContext:
    relation: str   # lead-follow | crossing | oncoming-relevant | ignored
    d_a: float = INF
    d_o: float = INF
    v_a: float = 0.0
    v_o: float = 0.0
    hw: float = INF
    ttc: float = INF


def reference_ttc(hw, dv, da):
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
            roots += [r for r in ((-dv - sq) / da, (-dv + sq) / da) if r > 0]
    return min(roots) if roots else INF


def _on(log, network, chain, t):
    """(s, d, inside, tangent) of log at step t on chain, as Python values."""
    return tuple(a[t].item() for a in log.on_chain(network, chain)[1:])


def reference_frame_rows(network, log):
    """Per logged step of an agent, (chain, s, d, v_along, oncoming) of each
    candidate frame whose domain holds it, in the order the step lists them."""
    table = []
    for t, (x, y, v, theta) in enumerate(log.track.tolist()):
        lanelet, turns = reference_locate(network, x, y, theta)
        assert log.lanelets[t] == lanelet, (log.id, t)
        starts = [lid for lid, turn in turns.items() if turn <= math.pi / 2]
        if not starts and lanelet is not None:
            starts = [lanelet]
        chains = []
        for start in sorted(starts):
            stack = [((start,), network.lanelets[start].centerline.length)]
            while stack and len(chains) < MAX_PATHS:
                chain, length = stack.pop()
                succ = [s for s in sorted(network.lanelets[chain[-1]].successors)
                        if s not in chain]
                if length >= PATH_LOOKAHEAD or not succ:
                    chains.append(chain)
                    continue
                for s in succ:
                    stack.append((chain + (s,), length + network.lanelets[s].centerline.length))
        against = any(turn > math.pi / 2 for turn in turns.values())
        row = []
        for chain in chains:
            s, d, inside, tangent = _on(log, network, chain, t)
            if inside:
                turn = normalize_angle(theta - tangent)
                row.append((chain, s, d, v * math.cos(turn), against or abs(turn) > math.pi / 2))
        table.append(row)
    return table


def reference_select_frames(network, log_a, log_o, step, dt, cfg, conflict_pairs, row):
    """The pair at one step in the most critical frame of row, the agent's
    reference_frame_rows at step."""
    xa, ya = log_a.track[step, :2].tolist()
    xo, yo, vo, tho = log_o.track[step].tolist()
    if math.hypot(xa - xo, ya - yo) > cfg.gating_distance:
        return PairContext("ignored")
    other_lanelet = reference_locate(network, xo, yo, tho)[0]
    best, crossing = None, None
    for chain, s_a, d_a, v_a, oncoming in row:
        s_o, d_o, inside, tang_o = _on(log_o, network, chain, step)
        if not inside:
            continue
        same_dir = abs(normalize_angle(tho - tang_o)) <= math.pi / 2
        lanes_cross = other_lanelet is not None and any(
            tuple(sorted((lid, other_lanelet))) in conflict_pairs for lid in chain)
        if not same_dir:
            if not (oncoming or lanes_cross):
                continue
            relation = "oncoming-relevant"
        elif lanes_cross:
            relation = "crossing"
        else:
            relation = "lead-follow"
        v_o = vo * math.cos(normalize_angle(tho - tang_o))
        hw = INF
        if s_o - log_o.length / 2.0 > s_a + log_a.length / 2.0 and abs(d_o) <= CORRIDOR_HALFWIDTH:
            hw = (s_o - log_o.length / 2.0) - (s_a + log_a.length / 2.0)
        a_a, a_o = log_a.a[step].item() / dt, log_o.a[step].item() / dt
        if relation == "crossing" and hw == INF:
            if crossing is None:
                crossing = metrics._crossing_ttc(network, log_a, log_o, np.array([step]), dt)[0]
            ttc = crossing
        else:
            ttc = reference_ttc(hw, v_o - v_a, a_o - a_a)
        ctx = PairContext(relation, d_a, d_o, v_a, v_o, hw, ttc)
        if best is None or (ctx.ttc, ctx.hw) < (best.ttc, best.hw):
            best = ctx
    return best or PairContext("ignored")


def table_pairs(blocks):
    """The pairs (agent log, other log) of the table of blocks, each an
    agent's log and the logs of the others it is scored with, in row order."""
    return [(log_a, log_o) for log_a, others in blocks for log_o in others]


def pair_rows(blocks):
    """Per pair, the slice of its rows in the table of blocks: per agent in
    turn and per other in turn, one row per step both logs hold."""
    ends = np.cumsum([min(len(log_a.track), len(log_o.track))
                      for log_a, log_o in table_pairs(blocks)])
    return [slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends)]


@pytest.mark.parametrize("config", [*(f"{m}_{r}" for m in ("intersection", "merge")
                                      for r in ("frenet", "idm", "replay")),
                                    str(HIGHWAY_FRENET12)],
                         ids=lambda c: Path(c).stem)
def test_select_frames_matches_the_per_step_reference(config, merge_runs, intersection_runs,
                                                       monkeypatch):
    """For every pair evaluate scores, the pair's rows of the one
    select_frames table give bitwise the per-step reference's relation, hw,
    ttc, d_a, d_o, v_a and v_o at every step. One gate call is asked about
    every (agent, other vehicle) pair, and one select_frames call gets
    exactly the pairs it lets through. For every pair the gate skips, the
    reference ignores the pair at every step and no exact box distance is
    below the gating distance. evaluate raises no warning."""
    if config.startswith(("merge", "intersection")):
        runs = merge_runs if config.startswith("merge") else intersection_runs
        result, scenario, cfg = runs[config.split("_")[1]]
    else:
        result, scenario, cfg = run_bundled(config)
    gated, selected, calls = {}, {}, []
    may_come_within, select = metrics._may_come_within, metrics.select_frames

    def recorded_gate(blocks, gate):
        calls.append("gate")
        within = may_come_within(blocks, gate)
        assert within.shape == (len(table_pairs(blocks)),)
        for (log_a, log_o), w in zip(table_pairs(blocks), within.tolist()):
            assert (log_a.id, log_o.id) not in gated
            gated[(log_a.id, log_o.id)] = (log_a, log_o, w)
        return within

    def recorded_select(network, blocks, *args):
        calls.append("select")
        table = select(network, blocks, *args)
        for (log_a, log_o), rows in zip(table_pairs(blocks), pair_rows(blocks)):
            assert (log_a.id, log_o.id) not in selected
            selected[(log_a.id, log_o.id)] = {name: x[rows] for name, x in table.items()}
        return table

    monkeypatch.setattr(metrics, "_may_come_within", recorded_gate)
    monkeypatch.setattr(metrics, "select_frames", recorded_select)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(result, scenario, cfg)

    network = scenario.network
    conflict_pairs = {tuple(sorted(pair)) for pair, _ in network.conflict_areas()}
    n_vehicles = len(result.trajectories) + len(scenario.dynamic_obstacles
                                                 + scenario.static_obstacles)
    assert calls == ["gate", "select"]
    assert len(gated) == len(result.trajectories) * (n_vehicles - 1)
    assert selected.keys() == {pair for pair, (*_, within) in gated.items() if within}
    rows = {}
    for pair, (log_a, log_o, within) in gated.items():
        if log_a.id not in rows:
            rows[log_a.id] = reference_frame_rows(network, log_a)
        ref = [reference_select_frames(network, log_a, log_o, t, result.dt, cfg,
                                       conflict_pairs, row)
               for t, row in enumerate(rows[log_a.id][:min(len(log_a.track), len(log_o.track))])]
        if not within:
            assert {ctx.relation for ctx in ref} == {"ignored"}, pair
            assert np.all(distance_series([(log_a, [log_o])]) >= cfg.gating_distance), pair
            continue
        series = selected[pair]
        assert series["relation"].tolist() == [ctx.relation for ctx in ref], pair
        for name in ("hw", "ttc", "d_a", "d_o", "v_a", "v_o"):
            assert series[name].tobytes() == np.array(
                [getattr(ctx, name) for ctx in ref]).tobytes(), (pair, name)
    if config == str(HIGHWAY_FRENET12):
        assert 0 < len(selected) < len(gated)


def ragged_highway_run():
    """Eight highway Frenet agents over 10 steps, as drivesim benchmark runs
    them; four collide at step 8, so an agent's pairs hold 9 or 11 steps."""
    scenario = load_scenario(resolve_scenario_path("highway", Path(".")))
    chosen = sorted(o.id for o in scenario.dynamic_obstacles)[:8]
    sub = substitute_agents(scenario, chosen)
    bindings = {oid: engine.PlannerBinding("frenet", scenario.dynamic_obstacle(oid).recording)
                for oid in chosen}
    return engine.run(sub, bindings, engine.SimulationConfig(max_steps=10)), sub


def assert_rows_as_alone(network, blocks, table, dists, *args):
    """Each pair's rows of the select_frames table and distance series of
    blocks are bitwise what select_frames and distance_series give the pair
    alone."""
    for (log_a, log_o), rows in zip(table_pairs(blocks), pair_rows(blocks)):
        pair, ids = [(log_a, [log_o])], (log_a.id, log_o.id)
        alone = select_frames(network, pair, *args)
        assert table["relation"][rows].tolist() == alone["relation"].tolist(), ids
        for name in ("hw", "ttc", "d_a", "d_o", "v_a", "v_o"):
            assert table[name][rows].tobytes() == alone[name].tobytes(), (ids, name)
        assert dists[rows].tobytes() == distance_series(pair).tobytes(), ids


def recorded_tables(monkeypatch):
    """Two lists that gather, per select_frames and per distance_series
    call made while monkeypatch holds, (network, blocks, table, the other
    arguments) and the distances."""
    tables, dists = [], []
    select, distances = metrics.select_frames, metrics.distance_series

    def recorded_select(network, blocks, *args):
        tables.append((network, blocks, select(network, blocks, *args), args))
        return tables[-1][2]

    def recorded_distances(blocks):
        dists.append(distances(blocks))
        return dists[-1]

    monkeypatch.setattr(metrics, "select_frames", recorded_select)
    monkeypatch.setattr(metrics, "distance_series", recorded_distances)
    return tables, dists


def test_stacked_rows_equal_per_pair_calls_on_ragged_pairs(monkeypatch):
    """On a run whose agents end at different steps, every row of the one
    select_frames table and distance series that evaluate builds for all
    its agents is bitwise what the pair gets from a call of its own."""
    result, scenario = ragged_highway_run()
    assert {len(t.states) for t in result.trajectories.values()} == {9, 11}
    tables, dists = recorded_tables(monkeypatch)
    evaluate(result, scenario)
    monkeypatch.undo()
    assert len(tables) == len(dists) == 1
    ((network, blocks, table, args),), (series,) = tables, dists
    assert [log_a.id for log_a, _ in blocks] == sorted(result.trajectories)
    assert any(len({len(o.track) for o in others}) > 1 for _, others in blocks)
    assert len(series) == len(table["hw"]) == sum(
        min(len(log_a.track), len(o.track)) for log_a, o in table_pairs(blocks))
    assert_rows_as_alone(network, blocks, table, series, *args)


def test_stacked_rows_equal_per_pair_calls_across_magnitudes():
    """boxes_intersect takes its tolerance from the largest coordinate of
    the pairs it tests, so one table that mixes boxes near the origin with
    boxes 1e6 m out widens it for every row. A one-step other leaves an
    axis-aligned gap of 1.5e-6 m to the agent at the origin, between the
    tolerance of its own call (1e-6 m) and that of the table (2e-6 m), and
    random others of ragged lengths come within micrometres of the agent,
    or overlap it, at both scales. Every pair's rows equal its own call."""
    net, cfg, rng = straight_network(), MetricConfig(), np.random.default_rng(21)
    at = [(0.0, 0.0), (1e6, 5.0), (0.0, 0.0), (1e3, 1.0), (1e6, -3.0)]
    agent = VehicleLog("ego", np.array([(x, y, 5.0, 0.0) for x, y in at]), 4.0, 2.0, True)
    others = [VehicleLog("gap", np.array([(4.0 + 1.5e-6, 0.0, 5.0, 0.0)]), 4.0, 2.0, False)]
    for k in range(12):
        n = int(rng.integers(1, len(at) + 1))
        offset = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.integers(-6, 1, (n, 1))
        side = np.where(rng.random(n) < 0.5, 4.0, -4.0)
        track = np.column_stack([np.array(at[:n]) + offset + np.column_stack([side, 0 * side]),
                                 np.full(n, 3.0), rng.choice([0.0, 1e-9, 0.5], n)])
        others.append(VehicleLog(f"o{k}", track, 4.0, 2.0, False))
    locate_logs(net, [agent, *others])
    blocks = [(agent, others)]
    dists = distance_series(blocks)
    assert dists[0] == distance_series([(agent, others[:1])])[0] > 1e-6   # the 1.5e-6 gap
    x = np.concatenate([o.track[:, 0] for o in others])
    assert np.any(dists == 0.0) and np.any((dists < 1e-3) & (x > 1e5))
    assert len({len(o.track) for o in others}) > 1
    frames = {agent.id: frame_table(net, agent)}
    table = select_frames(net, blocks, DT, cfg, set(), frames)
    assert_rows_as_alone(net, blocks, table, dists, DT, cfg, set(), frames)


@pytest.mark.parametrize("config", [*(f"{m}_{r}" for m in ("intersection", "merge")
                                      for r in ("frenet", "idm", "replay")),
                                    str(HIGHWAY_FRENET12), "ragged"],
                         ids=lambda c: Path(c).stem)
def test_one_table_equals_per_agent_tables(config, merge_runs, intersection_runs, monkeypatch):
    """evaluate scores all agents' pairs in one select_frames and one
    distance_series call, and each agent's block of that table (its rows,
    one run of them) is bitwise what the two functions give the block
    alone: relation, hw, ttc, d_a, d_o, v_a, v_o and the box distances."""
    if config == "ragged":
        (result, scenario), cfg = ragged_highway_run(), MetricConfig()
    elif config.startswith(("merge", "intersection")):
        runs = merge_runs if config.startswith("merge") else intersection_runs
        result, scenario, cfg = runs[config.split("_")[1]]
    else:
        result, scenario, cfg = run_bundled(config)
    tables, dists = recorded_tables(monkeypatch)
    evaluate(result, scenario, cfg)
    monkeypatch.undo()
    ((network, blocks, table, args),), (series,) = tables, dists
    assert [log_a.id for log_a, _ in blocks] == sorted(result.trajectories)
    assert len(blocks) >= 2
    lo = 0
    for block in blocks:
        hi = lo + sum(min(len(block[0].track), len(o.track)) for o in block[1])
        alone = select_frames(network, [block], *args)
        assert table["relation"][lo:hi].tolist() == alone["relation"].tolist(), block[0].id
        for name in ("hw", "ttc", "d_a", "d_o", "v_a", "v_o"):
            assert table[name][lo:hi].tobytes() == alone[name].tobytes(), (block[0].id, name)
        assert series[lo:hi].tobytes() == distance_series([block]).tobytes(), block[0].id
        lo = hi
    assert lo == len(series) == len(table["hw"])


def finished_run(agents: dict, parked=()):
    """A finished run on straight_network whose agents (id -> their states
    as rows (x, y, v, theta)) ran as long as the longest of them, among the
    static obstacles parked."""
    steps = max(len(rows) for rows in agents.values()) - 1
    trajectories = {aid: Trajectory([AgentState(*row) for row in rows],
                                    [ControlInput(0.0, 0.0)] * (len(rows) - 1), DT)
                    for aid, rows in agents.items()}
    result = engine.SimulationResult([engine.StepLog(k, {}, [], {}) for k in range(steps)],
                                     dict.fromkeys(agents, engine.AgentStatus.RUNNING), {},
                                     trajectories, DT)
    return result, Scenario(straight_network(), list(parked), [], [], DT)


def test_one_table_keeps_each_row_across_agents_at_different_magnitudes(monkeypatch):
    """The one table of an evaluate whose agents drive near the origin and
    1e6 m out widens boxes_intersect's tolerance, taken from the largest
    coordinate of the pairs it tests, for the rows of every agent. Agent
    "near" has a vehicle parked 1.5e-6 m ahead, between the tolerance of its
    own call (1e-6 m) and that of the table (2e-6 m); agent "far" drives
    from touching one parked vehicle to 3e-6 m behind another. Every row of
    the one select_frames table and distance series equals its pair's own
    call, and the gap stays open."""
    near = [(0.0, 0.0, 0.0, 0.0)] * 5
    far = [(1e6 + 0.1 * k, 5.0, 1.0, 0.0) for k in range(5)]
    reach = VehicleParams().length / 2.0 + 2.0   # centre to centre, end to end: agent and 4 m box
    parked = [StaticObstacle("gap", 4.0, 2.0, AgentState(reach + 1.5e-6, 0.0, 0.0, 0.0)),
              StaticObstacle("touch", 4.0, 2.0, AgentState(1e6 - reach, 5.0, 0.0, 0.0)),
              StaticObstacle("close", 4.0, 2.0, AgentState(1e6 + 0.4 + reach + 3e-6, 5.0,
                                                           0.0, 0.0))]
    result, scenario = finished_run({"near": near, "far": far}, parked)
    tables, dists = recorded_tables(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(result, scenario)
    monkeypatch.undo()
    ((network, blocks, table, args),), (series,) = tables, dists
    assert [(log_a.id, [o.id for o in others]) for log_a, others in blocks] == [
        ("far", ["close", "touch"]), ("near", ["gap"])]
    rows = {(log_a.id, log_o.id): series[r]
            for (log_a, log_o), r in zip(table_pairs(blocks), pair_rows(blocks))}
    assert np.all(rows["near", "gap"] > 1e-6)
    assert rows["far", "touch"][0] == 0.0 < rows["far", "touch"][1]
    assert 0.0 < rows["far", "close"][-1] < 1e-5
    assert_rows_as_alone(network, blocks, table, series, *args)


def per_agent_tables(monkeypatch):
    """Score each agent's block of evaluate's table with select_frames and
    distance_series calls of its own, one per agent, and stack them."""
    select, distances = metrics.select_frames, metrics.distance_series

    def select_per_agent(network, blocks, *args):
        tables = [select(network, [block], *args) for block in blocks]
        return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}

    def distances_per_agent(blocks):
        return np.concatenate([distances([block]) for block in blocks])

    monkeypatch.setattr(metrics, "select_frames", select_per_agent)
    monkeypatch.setattr(metrics, "distance_series", distances_per_agent)


@pytest.mark.parametrize("agents, scored", [
    (("a", "b", "c", "d"), {(x, y) for x in "abd" for y in "abd" if x != y}),
    (("a", "c"), set())], ids=["one_agent_past_the_gate", "no_agent_gated"])
def test_agents_without_gated_others(agents, scored, monkeypatch):
    """An agent whose every other vehicle stays past the gate has no rows
    in the one table and no pair series, beside agents that have some; a
    run where no agent has a gated other builds no table, so neither
    select_frames nor distance_series is called. evaluate raises no numpy
    warning, and its report equals the one scored with a call per agent.
    a, b and d drive in line on one lane; c is over 150 m ahead of them."""
    tracks = {"a": [(-40.0 + k, 0.0, 10.0, 0.0) for k in range(6)],
              "b": [(-25.0 + 0.8 * k, 0.0, 8.0, 0.0) for k in range(6)],
              "c": [(150.0 + k, 0.0, 10.0, 0.0) for k in range(6)],
              "d": [(-10.0 + 0.6 * k, 0.0, 6.0, 0.0) for k in range(6)]}
    result, scenario = finished_run({aid: tracks[aid] for aid in agents})
    tables, dists = recorded_tables(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate(result, scenario)
    monkeypatch.undo()
    assert set(report.pair_series) == scored
    assert len(tables) == len(dists) == (1 if scored else 0)
    if scored:
        assert [log_a.id for log_a, _ in tables[0][1]] == ["a", "b", "d"]
    assert report.aggregates["c"]["min_dce"] == INF and report.aggregates["c"]["max_btn"] == 0.0
    assert report.agent_series["c"]["ttc"] == [INF] * 6
    per_agent_tables(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(result, scenario).to_dict() == report.to_dict()


def test_evaluate_localizes_every_log_in_one_call(monkeypatch):
    """evaluate locates the poses of all its vehicle logs with one
    StreetNetwork.locate call, and crossing TTC predicts with those
    lanelets: on intersection_frenet, whose crossing TTC is asked twice,
    the one locate call is the only lookup of a lane (6 nearest_lanelet
    calls when each log, and each crossing TTC's prediction, localized its
    own points). No pose of that run is off every lanelet, so locate never
    falls back to the nearest centre line."""
    result, scenario, metric_cfg = run_bundled("intersection_frenet")
    calls, nearest_calls, asked = [], [], []
    locate, nearest = StreetNetwork.locate, StreetNetwork.nearest_lanelet
    crossing_ttc = metrics._crossing_ttc

    def recorded_locate(self, poses):
        calls.append(np.shape(poses))
        return locate(self, poses)

    def recorded_nearest(self, points):
        nearest_calls.append(np.shape(points))
        return nearest(self, points)

    def recorded_ttc(*args):
        asked.append(args)
        return crossing_ttc(*args)

    monkeypatch.setattr(StreetNetwork, "locate", recorded_locate)
    monkeypatch.setattr(StreetNetwork, "nearest_lanelet", recorded_nearest)
    monkeypatch.setattr(metrics, "_crossing_ttc", recorded_ttc)
    evaluate(result, scenario, metric_cfg)
    assert len(asked) == 2
    assert calls == [(sum(len(t.states) for t in result.trajectories.values()), 3)]
    assert nearest_calls == []


@pytest.mark.parametrize("config", [str(HIGHWAY_FRENET12), "intersection_frenet"],
                         ids=["highway_frenet12", "intersection_frenet"])
def test_chain_tracks_equal_single_point_projections(config, monkeypatch):
    """Every (vehicle log, lane chain) that evaluate locates on the
    benchmark's workloads holds, at each logged step, bitwise the s, d,
    in-domain flag and tangent angle of projecting that one position onto
    the chain's frame."""
    result, scenario, metric_cfg = run_bundled(config)
    located = {}
    on_chain = VehicleLog.on_chain

    def recorded(log, network, chain):
        located[(log.id, chain)] = (log, on_chain(log, network, chain))
        return located[(log.id, chain)][1]

    monkeypatch.setattr(VehicleLog, "on_chain", recorded)
    evaluate(result, scenario, metric_cfg)
    assert len(located) > len(result.trajectories)
    for (vid, chain), (log, on) in located.items():
        frame = scenario.network.chain_frame(chain)
        assert on.frame is frame
        for t, xy in enumerate(log.track[:, :2].tolist()):
            s, d, inside = frame.project(xy)
            expect = (s, d, inside, frame.tangent_angle_at(s))
            got = (on.s[t], on.d[t], on.inside[t], on.tangent[t])
            assert [float(v).hex() for v in got] == [float(v).hex() for v in expect], \
                (vid, chain, t)


@pytest.mark.parametrize("config, starts", [("intersection_frenet", 2), ("merge_replay", 4)])
def test_lane_paths_are_searched_once_per_start(config, starts, monkeypatch):
    """frame_table lists the lane paths of each start at every step that
    starts there, but the network searches them once per start
    (StreetNetwork.lane_paths) and hands out the same tuples after; a second
    evaluate on the same network searches none and reports the same."""
    result, scenario, metric_cfg = run_bundled(config)
    searched, search = [], scenario_module._successor_paths

    def counted(lanelets, start, lookahead, limit):
        searched.append(start)
        return search(lanelets, start, lookahead, limit)

    monkeypatch.setattr(scenario_module, "_successor_paths", counted)
    first = evaluate(result, scenario, metric_cfg)
    assert len(searched) == len(set(searched)) == starts
    net = scenario.network
    for start in searched:
        paths = net.lane_paths(start, PATH_LOOKAHEAD, MAX_PATHS)
        assert paths is net.lane_paths(start, PATH_LOOKAHEAD, MAX_PATHS)
        assert isinstance(paths, tuple) and all(isinstance(p, tuple) for p in paths)
    again = evaluate(result, scenario, metric_cfg)
    assert len(searched) == starts
    assert again.to_dict() == first.to_dict()


# rows predict_all makes for crossing TTC in one evaluate, each (vehicle, step) once
CROSSING_ROWS = {"intersection_frenet": 150, "intersection_idm": 144, "intersection_replay": 94,
                 "merge_frenet": 112, "merge_idm": 44, "merge_replay": 44}


@pytest.mark.parametrize("config, asked, extrapolated",
                         [("intersection_frenet", 2, 2), ("merge_frenet", 4, 8),
                          ("intersection_idm", 2, 4), ("intersection_replay", 2, 4),
                          ("merge_idm", 2, 4), ("merge_replay", 2, 4)])
def test_crossing_ttc_asks_once_per_pair_frame_and_step(config, asked, extrapolated,
                                                          monkeypatch):
    """select_frames asks _crossing_ttc at most once per (pair, frame), for
    the steps that frame needs and no earlier frame of the pair asked for,
    so no step of a pair is asked twice. Each vehicle predicts the steps it
    has not predicted yet (VehicleLog.crossing_boxes) with one predict_all,
    which extrapolates once per distinct lane chain of its rows, plus once
    for rows without a lanelet, so each (vehicle, step) is predicted at most
    once per evaluate: CROSSING_ROWS rows in all. The frames of all agents
    are visited in the order of their chains' keys, so on
    intersection_frenet the pair (orange, green), on a chain from "ew",
    asks before (green, orange), on one from "ns". Its 75 steps hold the 61
    that green's pair asks for after, so each vehicle predicts once, one
    extrapolation each: 2, where green's pair asking first left 14 steps to
    predict in a second call per vehicle (4)."""
    result, scenario, metric_cfg = run_bundled(config)
    frames, calls, chains, predicting = {}, [], [], []
    table, crossing_ttc = metrics.frame_table, metrics._crossing_ttc
    crossing_boxes = VehicleLog.crossing_boxes
    predict_all, extrapolate = metrics.predict_all, prediction.extrapolate

    def recorded_table(network, log):
        frames[log.id] = table(network, log)
        return frames[log.id]

    def recorded_ttc(network, log_a, log_o, steps, dt):
        calls.append((log_a.id, log_o.id, steps.tolist()))
        return crossing_ttc(network, log_a, log_o, steps, dt)

    def recorded_boxes(log, network, steps, dt):
        predicting.append(log.id)
        return crossing_boxes(log, network, steps, dt)

    def recorded_predict_all(states, lanelets, network, cfg, dt):
        chains.append((predicting[-1], len(states), []))
        return predict_all(states, lanelets, network, cfg, dt)

    def counted(states, along, n, dt):
        chains[-1][2].append(None if along is None else along[0])
        return extrapolate(states, along, n, dt)

    monkeypatch.setattr(metrics, "frame_table", recorded_table)
    monkeypatch.setattr(metrics, "_crossing_ttc", recorded_ttc)
    monkeypatch.setattr(VehicleLog, "crossing_boxes", recorded_boxes)
    monkeypatch.setattr(metrics, "predict_all", recorded_predict_all)
    monkeypatch.setattr(prediction, "extrapolate", counted)
    evaluate(result, scenario, metric_cfg)
    assert len(calls) == asked and 0 < len(chains) <= 2 * asked
    for pair in {(a, o) for a, o, _ in calls}:
        steps = [s for a, o, asked_steps in calls if (a, o) == pair for s in asked_steps]
        assert steps and len(steps) == len(set(steps)), pair
        assert sum((a, o) == pair for a, o, _ in calls) <= len(frames[pair[0]]), pair
    # every asked step of a vehicle is predicted, so as many rows as there
    # are distinct asked steps means none is predicted twice
    for vid in {vid for a, o, _ in calls for vid in (a, o)}:
        needed = {s for a, o, steps in calls if vid in (a, o) for s in steps}
        assert sum(rows for v, rows, _ in chains if v == vid) == len(needed), vid
    assert sum(rows for _, rows, _ in chains) == CROSSING_ROWS[config]
    assert all(len(made) == len(set(made)) for *_, made in chains)
    assert sum(len(made) for *_, made in chains) == extrapolated


def reference_crossing_ttc(network, log_a, log_o, steps, dt):
    """_crossing_ttc as it was before each vehicle kept its predictions
    (VehicleLog.crossing_boxes): both vehicles predicted afresh at every
    call, over the steps asked."""
    cfg = prediction.PredictorConfig(horizon=metrics.CROSSING_HORIZON)
    try:
        cfg.n_steps(dt)
    except ValueError:  # 15 s is no whole number of steps of dt
        cfg = prediction.PredictorConfig(horizon=max(1, round(metrics.CROSSING_HORIZON / dt)) * dt)
    hits = boxes_intersect(*(occupancy(
        prediction.predict_all(log.track[steps], [log.lanelets[k] for k in steps.tolist()],
                               network, cfg, dt), log.length, log.width)
        for log in (log_a, log_o)))
    return np.where(hits.any(axis=1), hits.argmax(axis=1) * dt, INF)


def fresh_log(log):
    """A copy of log with the same located lanelets and no kept predictions."""
    copy = VehicleLog(log.id, log.track, log.length, log.width, log.is_agent, log.params)
    copy.lanelets, copy.turns = log.lanelets, log.turns
    return copy


@pytest.mark.parametrize("config, finite", [
    ("intersection_frenet", 0), ("intersection_idm", 20), ("intersection_replay", 14),
    ("merge_frenet", 34), ("merge_idm", 0), ("merge_replay", 0)])
def test_crossing_ttc_equals_the_per_pair_reference(config, finite, merge_runs,
                                                    intersection_runs, monkeypatch):
    """Every crossing TTC evaluate asks for equals bitwise what the pair
    gets when both vehicles are predicted afresh for it (finite of them
    finite); so does the pair asked in the reverse order, and its steps
    split over several calls, out of order and overlapping, on logs that
    have predicted nothing yet."""
    runs = intersection_runs if config.startswith("intersection") else merge_runs
    result, scenario, metric_cfg = runs[config.split("_")[1]]
    network, dt, calls = scenario.network, result.dt, []
    crossing_ttc = metrics._crossing_ttc

    def recorded(network, log_a, log_o, steps, dt):
        calls.append((log_a, log_o, steps, crossing_ttc(network, log_a, log_o, steps, dt)))
        return calls[-1][-1]

    monkeypatch.setattr(metrics, "_crossing_ttc", recorded)
    evaluate(result, scenario, metric_cfg)
    assert calls
    finite_found = 0
    for log_a, log_o, steps, got in calls:
        expect = reference_crossing_ttc(network, log_a, log_o, steps, dt)
        finite_found += int(np.isfinite(expect).sum())
        assert got.tobytes() == expect.tobytes(), (log_a.id, log_o.id)
        assert crossing_ttc(network, log_o, log_a, steps, dt).tobytes() == expect.tobytes()
        fresh_a, fresh_o = fresh_log(log_a), fresh_log(log_o)
        chunks = np.array_split(steps, 3)
        split = [crossing_ttc(network, fresh_o, fresh_a, chunk, dt) for chunk in chunks[::-1]]
        assert np.concatenate(split[::-1]).tobytes() == expect.tobytes()
        fresh_a, fresh_o = fresh_log(log_a), fresh_log(log_o)
        crossing_ttc(network, fresh_a, fresh_o, steps[::2], dt)
        crossing_ttc(network, fresh_o, fresh_a, steps[len(steps) // 2:], dt)
        assert crossing_ttc(network, fresh_a, fresh_o, steps, dt).tobytes() == expect.tobytes()
    assert finite_found == finite


@pytest.mark.parametrize("dt", [0.4, 0.08])
def test_crossing_ttc_rounds_its_horizon_to_whole_steps(dt, monkeypatch, tmp_path):
    """A run whose predictor horizon (2 s) is a whole number of steps while
    CROSSING_HORIZON (15 s) is not still evaluates: crossing TTC predicts
    over round(15 / dt) steps, 38 at dt 0.4 and 188 at dt 0.08. The run
    steps at its scenario's dt, so the test writes the scenario with it."""
    with pytest.raises(ValueError):
        prediction.PredictorConfig(horizon=metrics.CROSSING_HORIZON).n_steps(dt)
    doc = load_run_config("intersection_idm")
    source = resolve_scenario_path(str(doc["scenario"]), Path(doc["_base_dir"]))
    data = json.loads(source.read_text())
    data["dt"] = dt
    doc["scenario"] = str(tmp_path / "scenario.json")
    Path(doc["scenario"]).write_text(json.dumps(data))
    doc["simulation"]["max_steps"] = 60
    doc["predictor"]["horizon"] = 2.0
    scenario, bindings, sim_cfg, predictor, cfg, _ = build_run(doc)
    result = engine.run(scenario, bindings, sim_cfg, predictor)
    steps, ttcs = [], []
    predict_all, crossing_ttc = metrics.predict_all, metrics._crossing_ttc

    def recorded_predict_all(states, lanelets, network, cfg, dt):
        poses = predict_all(states, lanelets, network, cfg, dt)
        steps.append(poses.shape[1] - 1)
        return poses

    def recorded_ttc(*args):
        ttcs.append(crossing_ttc(*args))
        return ttcs[-1]

    monkeypatch.setattr(metrics, "predict_all", recorded_predict_all)
    monkeypatch.setattr(metrics, "_crossing_ttc", recorded_ttc)
    evaluate(result, scenario, cfg)
    n = round(metrics.CROSSING_HORIZON / dt)
    assert ttcs and set(steps) == {n}
    finite = np.concatenate(ttcs)[np.isfinite(np.concatenate(ttcs))]
    assert np.all(finite <= n * dt) and np.allclose(finite / dt, np.round(finite / dt))
    if dt == 0.08:
        assert finite.size > 0


def area_flags(area, *logs):
    return [box_intersects_polygon(log.boxes, area) for log in logs]


class TestEncroachment:
    def test_et_pet(self):
        area = Polygon([[20, -2], [28, -2], [28, 2], [20, 2]])
        agent = const_log("a", 0.0, 0.0, 10.0, n=60)
        other = const_log("o", -40.0, 0.0, 10.0, n=60)
        flags_a, flags_o = area_flags(area, agent, other)
        entry, exit_, et, pet, oid = encroachment_times(flags_a, {"o": flags_o}, DT)
        # front edge reaches x=20 at t=1.8, rear edge leaves x=28 at t=3.0
        assert entry == pytest.approx(1.8, abs=2 * DT)
        assert et == pytest.approx(exit_ - entry, abs=1e-9)
        assert et == pytest.approx(1.2, abs=3 * DT)
        entry_other = encroachment_times(flags_o, {"a": flags_a}, DT)[0]
        assert pet == pytest.approx(entry_other - exit_, abs=1e-9)
        assert oid == "o"

    def test_agent_never_enters(self):
        area = Polygon([[20, 10], [28, 10], [28, 14], [20, 14]])
        agent = const_log("a", 0.0, 0.0, 10.0)
        other = const_log("o", -40.0, 0.0, 10.0)
        flags_a, flags_o = area_flags(area, agent, other)
        assert encroachment_times(flags_a, {"o": flags_o}, DT) == (INF, INF, INF, INF, None)

    def test_pet_infinite_when_other_never_follows(self):
        area = Polygon([[20, -2], [28, -2], [28, 2], [20, 2]])
        agent = const_log("a", 0.0, 0.0, 10.0, n=60)
        parked = const_log("o", -40.0, 0.0, 0.0, n=60)
        flags_a, flags_o = area_flags(area, agent, parked)
        _, _, et, pet, oid = encroachment_times(flags_a, {"o": flags_o}, DT)
        assert math.isfinite(et)
        assert pet == INF
        assert oid == "o"

    def test_pet_against_earliest_follower(self):
        area = Polygon([[20, -2], [28, -2], [28, 2], [20, 2]])
        agent = const_log("a", 0.0, 0.0, 10.0, n=80)
        parked = const_log("b", -40.0, 0.0, 0.0, n=80)
        late = const_log("c", -60.0, 0.0, 10.0, n=80)
        early = const_log("d", -40.0, 0.0, 10.0, n=80)
        flags_a, *others = area_flags(area, agent, parked, late, early)
        _, exit_, _, pet, oid = encroachment_times(flags_a, dict(zip("bcd", others)), DT)
        assert oid == "d"
        assert pet == pytest.approx(encroachment_times(others[2], {}, DT)[0] - exit_, abs=1e-9)


class TestReport:
    def test_evaluate_deterministic(self, intersection_runs):
        result, scenario, cfg = intersection_runs["frenet"]
        first = evaluate(result, scenario, cfg).to_dict()
        second = evaluate(result, scenario, cfg).to_dict()
        assert first == second

    def test_collision_run_has_zero_dce(self, merge_runs):
        result, scenario, cfg = merge_runs["replay"]
        report = evaluate(result, scenario, cfg)
        assert report.aggregates["green"]["collided"]
        assert report.aggregates["green"]["min_dce"] == 0.0

    def test_gating_is_monotone(self, merge_runs):
        result, scenario, _ = merge_runs["idm"]
        narrow = evaluate(result, scenario, MetricConfig(gating_distance=20.0))
        wide = evaluate(result, scenario, MetricConfig(gating_distance=80.0))
        assert set(narrow.pair_series) <= set(wide.pair_series)

    def test_aggregate_invariants(self, merge_runs):
        result, scenario, cfg = merge_runs["frenet"]
        report = evaluate(result, scenario, cfg)
        for agg in report.aggregates.values():
            assert 0.0 <= agg["tet"] <= 1.0
            assert 0.0 <= agg["tit"] <= cfg.ttc_threshold
            assert agg["min_dce"] >= 0.0

    def test_serialization_marks_infinities(self, merge_runs):
        result, scenario, cfg = merge_runs["idm"]
        doc = evaluate(result, scenario, cfg).to_dict()
        def no_raw_inf(obj):
            if isinstance(obj, float):
                return math.isfinite(obj)
            if isinstance(obj, dict):
                return all(no_raw_inf(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_raw_inf(v) for v in obj)
            return True
        assert no_raw_inf(doc)

    def test_recordings_stay_arrays(self, merge_runs, monkeypatch):
        # loading a scenario and evaluating a run read recorded and logged
        # motion as arrays: neither builds an AgentState
        result, scenario, cfg = merge_runs["replay"]
        built, post_init = [], AgentState.__post_init__

        def counted(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(AgentState, "__post_init__", counted)
        assert sum(len(o.recording) for o in load_scenario(
            resolve_scenario_path("highway", Path("."))).dynamic_obstacles) > 3000
        evaluate(result, scenario, cfg)
        assert built == []

    def test_pet_names_the_vehicle_that_follows(self, intersection_runs):
        # a parked vehicle that sorts first by id and never enters the
        # conflict area must not stand in for the one that follows the agent.
        # In the idm run orange leaves the area 1.4 s before green enters; in
        # the replay run both leave at the same step, so no PET is finite.
        result, scenario, cfg = intersection_runs["idm"]
        two = evaluate(result, scenario, cfg).conflict_events
        doc = load_run_config("intersection_idm")
        scenario, bindings, sim_cfg, predictor, cfg, _ = build_run(doc)
        parked = StaticObstacle("aaa", 4.5, 2.0, AgentState(-500.0, -500.0, 0.0, 0.0))
        scenario = Scenario(scenario.network, [parked], scenario.dynamic_obstacles,
                            scenario.planning_problems, scenario.dt)
        three = evaluate(engine.run(scenario, bindings, sim_cfg, predictor), scenario,
                         cfg).conflict_events
        assert any(math.isfinite(e["pet"]) for e in two)
        assert len(three) == len(two)
        for e2, e3 in zip(two, three):
            assert e3["pet"] == e2["pet"]
            assert e3["other"] == (e2["other"] if math.isfinite(e2["pet"]) else "aaa")

    def test_lone_agent_records_et(self):
        # ET needs no other vehicle: orange alone on t_intersection, driven
        # by intersection_idm's binding, still gets one event per area
        doc = load_run_config("intersection_idm")
        doc["substitute"], doc["agents"] = ["orange"], {"orange": doc["agents"]["orange"]}
        scenario, bindings, sim_cfg, predictor, cfg, _ = build_run(doc)
        scenario = Scenario(scenario.network, [], [], scenario.planning_problems, scenario.dt)
        result = engine.run(scenario, bindings, sim_cfg, predictor)
        events = evaluate(result, scenario, cfg).conflict_events
        params = scenario.planning_problems[0].params
        boxes = occupancy(result.trajectories["orange"].states, params.length, params.width)
        overlapping = [int(box_intersects_polygon(boxes, area).sum())
                       for _, area in scenario.network.conflict_areas()]
        assert sum(n > 0 for n in overlapping) > 0
        assert [e["area_index"] for e in events] == [i for i, n in enumerate(overlapping) if n]
        for e in events:
            assert e["agent"] == "orange" and e["other"] is None and e["pet"] == INF
            assert e["et"] == pytest.approx(overlapping[e["area_index"]] * DT)


def _leaves(obj, path=""):
    """(path, value) of every scalar in a report document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


@pytest.mark.parametrize("regime", [f"{scene}_{planner}" for scene in ("merge", "intersection")
                                    for planner in ("replay", "idm", "frenet")])
def test_evaluate_from_disk_matches_memory(regime, tmp_path, merge_runs, intersection_runs):
    """The report of a run read back from its files equals, leaf by leaf,
    the report of the simulated run: summary.json holds the exact states."""
    scene, planner = regime.split("_")
    result, scenario, cfg = (merge_runs if scene == "merge" else intersection_runs)[planner]
    write_run_outputs(tmp_path, result, {})
    from_disk, _ = read_run_outputs(tmp_path)
    memory = dict(_leaves(evaluate(result, scenario, cfg).to_dict()))
    disk = dict(_leaves(evaluate(from_disk, scenario, cfg).to_dict()))
    assert memory.keys() == disk.keys()
    for path, value in memory.items():
        assert value == disk[path], path
