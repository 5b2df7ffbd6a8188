"""End-to-end acceptance suite.

Covers the regime-comparison runs on the bundled fixtures, determinism and
parallel-scaling guarantees of the engine, and oracle-backed checks of the
geometric and metric primitives.
"""

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from drivesim.cli import build_run, load_run_config, write_run_outputs
from drivesim.dynamics import AgentState, VehicleParams, feasible
from drivesim.engine import AgentStatus, benchmark, run
from drivesim.geometry import (CurvilinearFrame, Polygon, Polyline,
                               box_intersects_polygon, boxes_intersect, min_distance,
                               occupancy)
from drivesim.metrics import (VehicleLog, distance_series, evaluate,
                              ttc_closed_form, ttce_dce)
from drivesim.planners import FrenetPlanner, FrenetPlannerConfig, LocalView, Neighbor
from drivesim.prediction import PredictedPath
from drivesim.scenario import load_scenario

from conftest import candidate_trajectory, run_bundled

DT = 0.1
INF = math.inf


def _statuses(result):
    return {aid: st for aid, st in result.statuses.items()}


def _max_lateral_offset(result, scenario_name, agent_id):
    """Max |lateral offset| of the realized trajectory from the recorded path."""
    from drivesim.cli import resolve_scenario_path

    original = load_scenario(resolve_scenario_path(scenario_name, Path(".")))
    recording = original.dynamic_obstacle(agent_id).recording
    frame = CurvilinearFrame(Polyline(recording[:, :2]))
    worst = 0.0
    for st in result.trajectories[agent_id].states:
        _, d, in_dom = frame.project((st.x, st.y))
        if in_dom:
            worst = max(worst, abs(d))
    return worst


# ---------------------------------------------------------------------------
# 1. merge regimes


def test_merge_regimes(merge_runs):
    replay, _, _ = merge_runs["replay"]
    idm, _, _ = merge_runs["idm"]
    frenet, _, _ = merge_runs["frenet"]

    assert any(st is AgentStatus.COLLIDED for st in _statuses(replay).values())
    for result in (idm, frenet):
        sts = _statuses(result)
        assert all(st is not AgentStatus.COLLIDED for st in sts.values())
        assert all(st in (AgentStatus.REACHED_IN_TIME, AgentStatus.REACHED_LATE)
                   for st in sts.values())
    assert merge_runs["elapsed"] < 60.0


# ---------------------------------------------------------------------------
# 2. intersection regimes


def test_intersection_regimes(intersection_runs):
    replay, _, _ = intersection_runs["replay"]
    assert any(st is AgentStatus.COLLIDED for st in _statuses(replay).values())
    reports = {}
    for regime in ("idm", "frenet"):
        result, scenario, metric_cfg = intersection_runs[regime]
        sts = _statuses(result)
        assert all(st is not AgentStatus.COLLIDED for st in sts.values())
        reports[regime] = evaluate(result, scenario, metric_cfg)

    et_b = reports["idm"].aggregates["green"]["et"]
    et_c = reports["frenet"].aggregates["green"]["et"]
    pet_b = reports["idm"].aggregates["green"]["pet"]
    pet_c = reports["frenet"].aggregates["green"]["pet"]
    assert (et_b > et_c) or (math.isinf(pet_b) and math.isfinite(pet_c))


# ---------------------------------------------------------------------------
# 3. interaction signature (lateral evasion only in the interactive regime)


def test_merge_lateral_interaction_signature(merge_runs):
    frenet, _, _ = merge_runs["frenet"]
    idm, _, _ = merge_runs["idm"]
    assert _max_lateral_offset(frenet, "merge", "green") > 0.3
    assert _max_lateral_offset(idm, "merge", "green") < 0.3


# ---------------------------------------------------------------------------
# 4. determinism across worker counts


HIGHWAY_FRENET12 = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "configs" / "highway_frenet12.json")


def test_determinism_across_worker_counts(tmp_path):
    """steps.jsonl is byte-identical in process and on a pool: merge_frenet
    on 8 workers (more workers than agents), merge_idm on 2, and the first
    3 steps of the twelve highway Frenet agents on 2 (six agents per batch,
    up to 23 neighbours each). Every step times one planning batch per
    worker that got an agent, and none when no agent plans."""
    for name, workers, max_steps in (("merge_frenet", 8, None), ("merge_idm", 2, None),
                                     (str(HIGHWAY_FRENET12), 2, 3)):
        steps = []
        for w in (1, workers):
            result, _, _ = run_bundled(name, worker_count=w, max_steps=max_steps)
            for log in result.step_logs:
                planned = sum(e["planner_status"] is not None for e in log.agents.values())
                assert len(log.timings["planning_batches"]) == min(w, planned), (name, w)
            out = tmp_path / f"{Path(name).stem}_w{w}"
            write_run_outputs(out, result, {})
            steps.append((out / "steps.jsonl").read_bytes())
        assert steps[0] == steps[1], name
        # field-level comparison of everything except timings
        for line_1, line_w in zip(steps[0].splitlines(), steps[1].splitlines()):
            assert json.loads(line_1) == json.loads(line_w)


# ---------------------------------------------------------------------------
# 5. parallel scaling


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 4,
                    reason="parallel speedup needs >= 4 usable cores; "
                           f"host exposes {len(os.sched_getaffinity(0))}")
def test_parallel_scaling_highway():
    t0 = time.perf_counter()
    from drivesim.cli import resolve_scenario_path

    scenario = load_scenario(resolve_scenario_path("highway", Path(".")))
    rows = benchmark(scenario, agent_counts=[16], worker_counts=[1, 4],
                     repetitions=2, steps=15)
    by_workers = {r["workers"]: r["mean_step_time"] for r in rows}
    assert by_workers[4] <= (2.0 / 3.0) * by_workers[1]
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 6. TTC closed form vs fine-step integration


def test_ttc_closed_form_against_integration_oracle():
    rng = np.random.default_rng(7)
    horizon, tick = 60.0, 1e-3
    t_grid = np.arange(0.0, horizon, tick)
    for _ in range(1000):
        hw = rng.uniform(0.1, 50.0)
        dv = rng.uniform(-15.0, 10.0)
        da = rng.uniform(-5.0, 5.0)
        ttc = ttc_closed_form(hw, dv, da)
        gap = hw + dv * t_grid + 0.5 * da * t_grid**2
        hits = np.nonzero(gap <= 0.0)[0]
        if math.isinf(ttc):
            assert len(hits) == 0
        elif ttc < horizon - 1.0:
            assert len(hits) > 0
            assert abs(t_grid[hits[0]] - ttc) <= 0.01


# ---------------------------------------------------------------------------
# 7. oriented-box predicates vs boundary-sampling oracle


def _random_box(rng):
    return np.array([rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-math.pi, math.pi),
                     rng.uniform(2.0, 6.0), rng.uniform(1.0, 3.0)])


def _resized(box, delta):
    return np.concatenate([box[:3], np.maximum(box[3:] + delta, 1e-6)])


def _ring_samples(vertices, spacing):
    """Points at <= spacing along the closed ring through vertices."""
    pts = []
    for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
        n = max(1, int(math.ceil(float(np.hypot(*(b - a))) / spacing)))
        t = np.arange(n)[:, None] / n
        pts.append(a + t * (b - a))
    return np.vstack(pts)


def _boundary_samples(box, spacing):
    c, s = math.cos(box[2]), math.sin(box[2])
    rot = np.array([[c, -s], [s, c]])
    hl, hw = box[3] / 2.0, box[4] / 2.0
    corners = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    return _ring_samples(corners, spacing) @ rot.T + box[:2]


def _points_inside(box, pts, tol=0.0):
    c, s = math.cos(box[2]), math.sin(box[2])
    rel = pts - box[:2]
    u = rel[:, 0] * c + rel[:, 1] * s
    v = -rel[:, 0] * s + rel[:, 1] * c
    return (np.abs(u) <= box[3] / 2.0 + tol) & (np.abs(v) <= box[4] / 2.0 + tol)


def _oracle_intersects(a, b, spacing=0.005):
    pa, pb = _boundary_samples(a, spacing), _boundary_samples(b, spacing)
    return bool(np.any(_points_inside(b, pa)) or np.any(_points_inside(a, pb)))


def test_box_predicates_against_sampling_oracle():
    rng = np.random.default_rng(11)
    pairs, hits, dists = [], [], []
    while len(pairs) < 500:
        a, b = _random_box(rng), _random_box(rng)
        # skip pairs whose classification flips under a 1 cm perturbation;
        # the sampling oracle cannot decide those
        if _oracle_intersects(_resized(a, 0.01), b, spacing=0.02) != \
           _oracle_intersects(_resized(a, -0.01), b, spacing=0.02):
            continue
        truth = _oracle_intersects(a, b)
        assert boxes_intersect(a, b) == truth
        dist = min_distance(a, b)
        if truth:
            assert dist == 0.0
        else:
            pa, pb = _boundary_samples(a, 0.005), _boundary_samples(b, 0.005)
            oracle_dist, _ = cKDTree(pa).query(pb)
            assert abs(dist - float(np.min(oracle_dist))) <= 1e-2
        pairs.append((a, b))
        hits.append(truth)
        dists.append(dist)
    # one broadcast call over all pairs gives the per-pair answers exactly
    a, b = (np.array(boxes) for boxes in zip(*pairs))
    assert np.array_equal(boxes_intersect(a, b), hits)
    assert np.array_equal(min_distance(a, b), dists)
    assert np.array_equal(boxes_intersect(a[:100, None], b[None, :100]).diagonal(), hits[:100])


def _random_convex_polygon(rng):
    angles = np.sort(rng.uniform(-math.pi, math.pi, rng.integers(3, 8)))
    radius = rng.uniform(1.0, 6.0)
    center = rng.uniform(-6, 6, 2)
    return Polygon(center + radius * np.column_stack([np.cos(angles), np.sin(angles)]))


def _oracle_box_polygon(box, poly, spacing=0.005):
    box_pts = _boundary_samples(box, spacing)
    poly_pts = _ring_samples(poly.vertices, spacing)
    return bool(np.any(poly.contains_points(box_pts, boundary_tol=0.0))
                or np.any(_points_inside(box, poly_pts)))


def test_box_polygon_against_sampling_oracle():
    rng = np.random.default_rng(17)
    boxes, polys, hits = [], [], []
    while len(boxes) < 300:
        box, poly = _random_box(rng), _random_convex_polygon(rng)
        if _oracle_box_polygon(_resized(box, 0.01), poly, spacing=0.02) != \
           _oracle_box_polygon(_resized(box, -0.01), poly, spacing=0.02):
            continue
        truth = _oracle_box_polygon(box, poly)
        assert box_intersects_polygon(box, poly) == truth
        boxes.append(box)
        polys.append(poly)
        hits.append(truth)
    assert 0 < sum(hits) < len(hits)
    # one call over many boxes gives each box's answer
    for poly in polys[:20]:
        per_box = [box_intersects_polygon(box, poly) for box in boxes]
        assert np.array_equal(box_intersects_polygon(np.array(boxes), poly), per_box)


def _vehicle_boxes(result, scenario):
    """Box (cx, cy, heading, length, width) of every vehicle at every step
    of a run, built from its states; agents first."""
    n = len(result.step_logs)
    params = {p.agent_id: p.params for p in scenario.planning_problems}
    boxes = {}
    for aid, traj in result.trajectories.items():
        p = params.get(aid, VehicleParams())
        boxes[aid] = np.array([[s.x, s.y, s.theta, p.length, p.width] for s in traj.states])
    for obs in scenario.dynamic_obstacles:
        boxes[obs.id] = np.array([[s.x, s.y, s.theta, obs.length, obs.width]
                                  for s in (obs.state_at(k) for k in range(n + 1))])
    for obs in scenario.static_obstacles:
        boxes[obs.id] = np.array([[obs.pose.x, obs.pose.y, obs.pose.theta, obs.length,
                                   obs.width]] * (n + 1))
    return boxes


def test_dce_ttce_against_sampled_distances_on_highway():
    """DCE and TTCE of every agent against every other vehicle of ten steps
    of the twelve-agent highway run (24 vehicles) equal a brute-force
    oracle: the distance at each step between the two boxes' boundaries
    sampled every 2 cm (0 where the samples of one lie in the other),
    minimised over the future. Pairs evaluate leaves out are gated: they
    stay farther apart than the gating distance."""
    spacing, tol = 0.02, 0.02
    result, scenario, metric_cfg = run_bundled(str(HIGHWAY_FRENET12), max_steps=10)
    report = evaluate(result, scenario, metric_cfg)
    boxes = _vehicle_boxes(result, scenario)
    assert len(boxes) == 24 and len(result.trajectories) == 12
    samples = {vid: [_boundary_samples(box, spacing) for box in series]
               for vid, series in boxes.items()}
    trees = {vid: [cKDTree(pts) for pts in series] for vid, series in samples.items()}
    dt, compared = result.dt, 0
    for aid in sorted(result.trajectories):
        for oid in sorted(boxes):
            if oid == aid:
                continue
            n = min(len(boxes[aid]), len(boxes[oid]))
            oracle = np.array([
                0.0 if _oracle_intersects(boxes[aid][k], boxes[oid][k], spacing)
                else float(trees[aid][k].query(samples[oid][k])[0].min())
                for k in range(n)])
            series = report.pair_series.get((aid, oid))
            if series is None:
                assert oracle.min() >= metric_cfg.gating_distance - tol, (aid, oid)
                continue
            for t in range(n):
                future = oracle[t:].min()
                assert abs(series["dce"][t] - future) <= tol, (aid, oid, t)
                k = round(series["ttce"][t] / dt)
                assert series["ttce"][t] == pytest.approx(k * dt) and t + k < n
                assert oracle[t + k] <= future + 2 * tol, (aid, oid, t)
                compared += 1
            assert report.aggregates[aid]["min_dce"] <= oracle.min() + tol
    assert compared > 1000
    for aid, agg in report.aggregates.items():
        mins = [min(s["dce"]) for (a, _), s in report.pair_series.items() if a == aid]
        assert agg["min_dce"] == min(mins)


def _first_contact(hw, dv, da):
    """Smallest t > 0 with hw + dv*t + da*t^2/2 = 0, inf if none."""
    if abs(da) < 1e-9:
        return -hw / dv if dv < -1e-12 else math.inf
    roots = np.roots([0.5 * da, dv, hw])
    return min((r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0), default=math.inf)


@pytest.mark.parametrize("planner", ["frenet", "idm"])
def test_btn_stn_against_logged_states_on_highway(planner):
    """BTN and STN of every same-lane pair-step with a finite headway in ten
    steps of the twelve-agent highway run, recomputed from the logged
    states. The Frenet agents keep their gaps over these steps, so every
    BTN and STN is 0; as IDM agents they close in, and some are not.

    The four lanes run straight along +x, so a vehicle's speed along its
    lane is v cos(theta) and the lateral offset between two vehicles is
    |y_a - y_o|. The headway is found as perfbench/checks.py finds it: both
    vehicles within half a half-width of the same lane's centre line, closer
    than the gating distance, with a positive gap from the agent's front to
    the other's rear.
        BTN = max(0, closing speed)^2 / (2 hw) / a_long_max
        STN = 2 max(0, (w_a + w_o)/2 - |y_a - y_o|) / TTC^2 / a_lat_max
    with TTC the first contact of the gap at the logged speeds and
    accelerations (central differences)."""
    doc = load_run_config(HIGHWAY_FRENET12)
    for block in doc["agents"].values():
        block["planner"] = planner
    scenario, bindings, sim_cfg, predictor, metric_cfg, _ = build_run(doc)
    result = run(scenario, bindings, dataclasses.replace(sim_cfg, max_steps=10), predictor)
    report = evaluate(result, scenario, metric_cfg)
    dt, n = result.dt, len(result.step_logs) + 1
    bands = {}
    for lid, lane in scenario.network.lanelets.items():
        centre = lane.centerline.points
        assert np.ptp(centre[:, 1]) == 0 and np.all(np.diff(centre[:, 0]) > 0), lid
        bands[lid] = (centre[0, 1], 0.5 * (lane.left_bound.points[0, 1]
                                           - lane.right_bound.points[0, 1]))

    def lane_of(y):
        return next((lid for lid, (yc, half) in bands.items() if abs(y - yc) <= 0.5 * half), None)

    params = {p.agent_id: p.params for p in scenario.planning_problems}
    tracks = {aid: (np.array([[s.x, s.y, s.v, s.theta] for s in traj.states]),
                    params[aid].length, params[aid].width)
              for aid, traj in result.trajectories.items()}
    for obs in scenario.dynamic_obstacles:
        tracks[obs.id] = (obs.track(np.arange(n)), obs.length, obs.width)
    compared, nonzero = 0, {"btn": 0, "stn": 0}
    for aid in sorted(result.trajectories):
        track_a, len_a, w_a = tracks[aid]
        for oid, (track_o, len_o, w_o) in sorted(tracks.items()):
            if oid == aid:
                continue
            da = (np.gradient(track_o[:, 2]) - np.gradient(track_a[:, 2])) / dt
            for t in range(min(len(track_a), len(track_o))):
                (xa, ya, va, tha), (xo, yo, vo, tho) = track_a[t].tolist(), track_o[t].tolist()
                hw = (xo - len_o / 2.0) - (xa + len_a / 2.0)
                if (lane_of(ya) is None or lane_of(ya) != lane_of(yo) or hw <= 0
                        or math.hypot(xa - xo, ya - yo) > metric_cfg.gating_distance):
                    continue
                closing = va * math.cos(tha) - vo * math.cos(tho)
                ttc = _first_contact(hw, -closing, da[t])
                expect = {
                    "hw": hw,
                    "btn": max(0.0, closing) ** 2 / (2.0 * hw) / params[aid].a_long_max,
                    "stn": (2.0 * max(0.0, 0.5 * (w_a + w_o) - abs(ya - yo)) / ttc ** 2
                            / params[aid].a_lat_max),
                }
                series = report.pair_series[(aid, oid)]
                for key, want in expect.items():
                    assert series[key][t] == pytest.approx(want, rel=1e-6, abs=1e-12), \
                        (aid, oid, t, key)
                compared += 1
                nonzero["btn"] += expect["btn"] > 0
                nonzero["stn"] += expect["stn"] > 0
    assert compared > 100
    assert min(nonzero.values()) > 0 if planner == "idm" else max(nonzero.values()) == 0, nonzero


def test_msd_psd_against_logged_states_on_intersection(intersection_runs):
    """MSD and PSD of both agents at every logged step of intersection_frenet,
    recomputed from the logged states. The two lanes are straight, orange's
    along +x and green's along +y, and cross in the conflict area
    [-2, 2]^2, so the distance along the lane from an agent's front to the
    area is -2 - (coordinate + length / 2).
        MSD = v^2 / (2 a_long_max)
        PSD = distance / MSD where the distance is > 0, else inf"""
    result, scenario, metric_cfg = intersection_runs["frenet"]
    report = evaluate(result, scenario, metric_cfg)
    (_, area), = scenario.network.conflict_areas()
    assert area.vertices.min(axis=0).tolist() == [-2.0, -2.0]
    assert area.vertices.max(axis=0).tolist() == [2.0, 2.0]
    axis = {"orange": 0, "green": 1}
    params = {p.agent_id: p.params for p in scenario.planning_problems}
    finite = infinite = 0
    for aid, traj in result.trajectories.items():
        p, series = params[aid], report.agent_series[aid]
        assert len(series["psd"]) == len(traj.states)
        for t, state in enumerate(traj.states):
            xy = (state.x, state.y)
            assert abs(xy[1 - axis[aid]]) < 0.5, (aid, t)  # on its lane, heading along it
            assert math.cos(state.theta - axis[aid] * math.pi / 2) > 0.9, (aid, t)
            msd = state.v * state.v / (2.0 * p.a_long_max)
            dist = -2.0 - (xy[axis[aid]] + p.length / 2.0)
            assert series["msd"][t] == pytest.approx(msd, rel=1e-12), (aid, t)
            if dist > 0:
                assert series["psd"][t] == pytest.approx(dist / msd, rel=1e-9), (aid, t)
                finite += 1
            else:
                assert series["psd"][t] == math.inf, (aid, t)
                infinite += 1
    assert finite > 50 and infinite > 50


def _oracle_overlap(a, b):
    """Whether boxes a and b (..., 5) overlap, elementwise: no axis among the
    four edge normals separates their corners."""
    def corners(box):  # (..., 4, 2)
        c, s = np.cos(box[..., 2:3]), np.sin(box[..., 2:3])
        lx = np.array([1.0, -1.0, -1.0, 1.0]) * box[..., 3:4] / 2.0
        ly = np.array([1.0, 1.0, -1.0, -1.0]) * box[..., 4:5] / 2.0
        return np.stack([box[..., 0:1] + lx * c - ly * s, box[..., 1:2] + lx * s + ly * c], -1)

    ca, cb = corners(a), corners(b)
    overlap = True
    for theta in (a[..., 2], a[..., 2] + np.pi / 2, b[..., 2], b[..., 2] + np.pi / 2):
        u = np.stack([np.cos(theta), np.sin(theta)], -1)[..., None, :]
        pa, pb = (ca * u).sum(-1), (cb * u).sum(-1)
        overlap = overlap & (pa.max(-1) >= pb.min(-1)) & (pb.max(-1) >= pa.min(-1))
    return overlap


def test_crossing_ttc_against_lane_axis_sweep_on_intersection(intersection_runs):
    """Crossing TTC of every crossing pair-step of intersection_frenet with
    no headway, against an independent sweep. Both t_intersection lanes are
    straight lines, ew along y = 0 heading +x and ns along x = 0 heading +y,
    so each vehicle moves from its logged position along the axis of the
    lane whose centre line is nearest (ew on a tie) at its logged speed,
    heading along it. The first overlap of the two boxes, sampled every
    0.01 s over 15 s, must lie within one step of the reported TTC, and
    neither may find one without the other. Most of these steps meet no
    overlap. At step 62 orange, just inside the conflict area and nearer
    ns's centre line, is swept north behind green, which passes the end of
    ns after 4.4 s and goes on; orange closes on it after 8.53 s (reported
    8.6 s)."""
    result, scenario, metric_cfg = intersection_runs["frenet"]
    report = evaluate(result, scenario, metric_cfg)
    dt = result.dt
    params = {p.agent_id: p.params for p in scenario.planning_problems}
    times = np.arange(1501) * 0.01

    def sweep(aid, t):
        st = result.trajectories[aid].states[t]
        heading = 0.0 if abs(st.y) <= abs(st.x) else np.pi / 2
        boxes = np.empty((len(times), 5))
        boxes[:, 0] = st.x + st.v * times * np.cos(heading)
        boxes[:, 1] = st.y + st.v * times * np.sin(heading)
        boxes[:, 2] = heading
        boxes[0, 2] = st.theta
        boxes[:, 3], boxes[:, 4] = params[aid].length, params[aid].width
        return boxes

    compared = finite = 0
    for (aid, oid), series in report.pair_series.items():
        for t, (relation, hw, ttc) in enumerate(zip(series["relation"], series["hw"],
                                                     series["ttc"])):
            if relation != "crossing" or hw != INF:
                continue
            hits = np.flatnonzero(_oracle_overlap(sweep(aid, t), sweep(oid, t)))
            oracle = times[hits[0]] if len(hits) else INF
            assert math.isfinite(ttc) == math.isfinite(oracle), (aid, oid, t, ttc, oracle)
            if math.isfinite(ttc):
                assert abs(ttc - oracle) <= dt + 1e-9, (aid, oid, t, ttc, oracle)
                finite += 1
            compared += 1
    assert compared == 131 and finite >= 1


# ---------------------------------------------------------------------------
# 8. metric invariants


def _stopping_logs(margin):
    """Ego closes on a stopped lead at 10 m/s and halts `margin` short of it."""
    length, width = 4.0, 2.0
    lead = np.tile((24.0, 0.0, 0.0, 0.0), (31, 1))
    x = np.minimum(np.arange(31.0), 20.0 - margin)
    v = np.where(x < 20.0 - margin, 10.0, 0.0)
    ego = np.column_stack([x, np.zeros(31), v, np.zeros(31)])
    return (VehicleLog("ego", ego, length, width, True),
            VehicleLog("lead", lead, length, width, False))


def test_tet_tit_bounds():
    from drivesim.metrics import tet, tit

    tau, total = 2.0, 10.0
    n = int(total / DT)
    series_inf = [INF] * n
    assert tet(series_inf, tau, DT, total) == 0.0
    assert tit(series_inf, tau, DT, total) == 0.0
    series_zero = [0.0] * n
    assert tet(series_zero, tau, DT, total) == pytest.approx(1.0)
    assert tit(series_zero, tau, DT, total) == pytest.approx(tau)
    series_half = [tau / 2] * (n // 2) + [INF] * (n - n // 2)
    assert tet(series_half, tau, DT, total) == pytest.approx(0.5)
    assert tit(series_half, tau, DT, total) == pytest.approx(tau / 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        series = rng.uniform(0.0, 3 * tau, size=n)
        t_e = tet(series, tau, DT, total)
        t_i = tit(series, tau, DT, total)
        assert 0.0 <= t_e <= 1.0
        assert 0.0 <= t_i <= tau


def test_dce_zero_on_colliding_logs():
    ego, lead = _stopping_logs(0.0)
    dists = distance_series(ego, lead)
    _, dce = ttce_dce(dists, DT)
    assert dce[0] == 0.0


def test_ttce_converges_to_ttc_as_dce_vanishes():
    ttc = ttc_closed_form(20.0, -10.0, 0.0)
    assert ttc == pytest.approx(2.0)
    gaps = []
    for margin in (2.0, 1.0, 0.5, 0.1, 0.01):
        ego, lead = _stopping_logs(margin)
        dists = distance_series(ego, lead)
        ttce, dce = ttce_dce(dists, DT)
        assert dce[0] == pytest.approx(margin, abs=1e-9)
        gaps.append(abs(ttce[0] - ttc))
    assert all(g1 >= g2 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.1  # converged to within one step


# ---------------------------------------------------------------------------
# 9. curvilinear round-trip


def test_curvilinear_round_trip():
    straight = CurvilinearFrame(Polyline(
        np.column_stack([np.linspace(0, 100, 21), np.zeros(21)])))
    phi = np.linspace(0.0, math.pi / 2, 200)
    arc = CurvilinearFrame(Polyline(
        np.column_stack([50.0 * np.cos(phi), 50.0 * np.sin(phi)])))
    rng = np.random.default_rng(23)
    for frame in (straight, arc):
        s = rng.uniform(1.0, frame.length - 1.0, size=5000)
        d = rng.uniform(-3.0, 3.0, size=5000)
        for si, di in zip(s, d):
            p = frame.to_cartesian(float(si), float(di))
            s2, d2, in_dom = frame.project(p)
            assert in_dom
            p2 = frame.to_cartesian(s2, d2)
            assert float(np.hypot(*(p2 - p))) <= 1e-6


# ---------------------------------------------------------------------------
# 10. frenet planner contract on randomized local views


def _random_view(rng, route, params):
    ego = AgentState(rng.uniform(0.0, 50.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(3.0, 15.0), rng.uniform(-0.1, 0.1))
    neighbors = {}
    n_pred = 31
    for i in range(rng.integers(1, 4)):
        nid = f"nb{i}"
        st = AgentState(ego.x + rng.uniform(5.0, 60.0), rng.uniform(-4.0, 4.0),
                        rng.uniform(0.0, 15.0), rng.uniform(-0.1, 0.1))
        k = np.arange(n_pred)
        poses = np.column_stack([st.x + st.v * k * DT * math.cos(st.theta),
                                 st.y + st.v * k * DT * math.sin(st.theta),
                                 np.full(n_pred, st.theta)])
        neighbors[nid] = Neighbor(params.length, params.width,
                                  PredictedPath(poses, st.v, 0.5 * k * DT))
    return LocalView(ego_id="ego", ego=ego, step=0, neighbors=neighbors)


def test_frenet_planner_contract():
    params = VehicleParams()
    route = CurvilinearFrame(Polyline(
        np.column_stack([np.linspace(0.0, 400.0, 81), np.zeros(81)])))
    rng = np.random.default_rng(41)
    planned = 0
    for _ in range(200):
        view = _random_view(rng, route, params)
        planner = FrenetPlanner(route, FrenetPlannerConfig(), params,
                                v_ref=rng.uniform(5.0, 15.0), dt=DT)
        table = planner.candidates(view, {})[2]
        result = planner.plan(view, {})
        if result.status != "ok":
            continue
        planned += 1
        traj = candidate_trajectory(table, *table.best, view.ego, DT)
        assert (traj.states[1], traj.inputs[0]) == (result.next_state, result.next_input)
        assert feasible(traj, params)
        assert _overlap_with_prediction(traj, view, params) is None
    assert planned >= 150  # the vast majority of views must be plannable


def _overlap_with_prediction(traj, view, params):
    """First (neighbour, step) at which the plan's box overlaps the
    neighbour's predicted box at that step (its last one past the horizon),
    grown on every side by the prediction's stddev; None if there is none.
    Each predicted box is built here from the pose, not read from
    Neighbor.boxes."""
    for nid, nb in sorted(view.neighbors.items()):
        pred = nb.prediction
        last = len(pred.poses) - 1
        for k in range(1, len(traj.states)):
            ego_box = occupancy(traj.states[k], params.length, params.width)
            kp = min(k, last)
            x, y, theta = pred.poses[kp].tolist()
            nb_box = occupancy(AgentState(x, y, pred.v, theta), nb.length, nb.width)
            nb_box[3:] += 2.0 * pred.pos_stddev[kp]
            if boxes_intersect(ego_box, nb_box):
                return nid, k
    return None


def test_merge_frenet_plans_clear_inflated_predictions(monkeypatch):
    """Every plan the Frenet agents choose in the bundled merge run keeps
    clear of every neighbour's inflated predicted box, as the contract
    demands. A centre-distance prefilter shorter than the reach of the
    inflated boxes lets such overlaps through (agent orange at step 48)."""
    plan = FrenetPlanner.plan
    chosen = []

    def recording_plan(self, view, memory):
        table = self.candidates(view, memory)[2]
        result = plan(self, view, memory)
        chosen.append((view, result, table, self))
        return result

    monkeypatch.setattr(FrenetPlanner, "plan", recording_plan)
    run_bundled("merge_frenet", worker_count=1)
    assert chosen
    for view, result, table, planner in chosen:
        if result.status == "ok":
            traj = candidate_trajectory(table, *table.best, view.ego, planner.dt)
            overlap = _overlap_with_prediction(traj, view, planner.params)
            assert overlap is None, (view.ego_id, view.step, overlap)
