"""End-to-end acceptance suite.

Covers the regime-comparison runs on the bundled fixtures, determinism and
parallel-scaling guarantees of the engine, and oracle-backed checks of the
geometric and metric primitives.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from drivesim.cli import write_run_outputs
from drivesim.dynamics import AgentState, VehicleParams, feasible
from drivesim.engine import AgentStatus, benchmark
from drivesim.geometry import (CurvilinearFrame, Polygon, Polyline,
                               box_intersects_polygon, boxes_intersect, min_distance,
                               occupancy)
from drivesim.metrics import (VehicleLog, distance_series, evaluate,
                              ttc_closed_form, ttce_dce)
from drivesim.planners import FrenetPlanner, FrenetPlannerConfig, LocalView, Neighbor
from drivesim.prediction import PredictedPath
from drivesim.scenario import load_scenario

from conftest import run_bundled

DT = 0.1
INF = math.inf


def _statuses(result):
    return {aid: st for aid, st in result.statuses.items()}


def _max_lateral_offset(result, scenario_name, agent_id):
    """Max |lateral offset| of the realized trajectory from the recorded path."""
    from drivesim.cli import resolve_scenario_path

    original = load_scenario(resolve_scenario_path(scenario_name, Path(".")))
    recorded = original.dynamic_obstacle(agent_id).recorded_states
    frame = CurvilinearFrame(Polyline(np.array([[s.x, s.y] for s in recorded])))
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


# ---------------------------------------------------------------------------
# 8. metric invariants


def _stopping_logs(margin):
    """Ego closes on a stopped lead at 10 m/s and halts `margin` short of it."""
    length, width = 4.0, 2.0
    lead = [AgentState(24.0, 0.0, 0.0, 0.0)] * 31
    ego = []
    for k in range(31):
        x = min(1.0 * k, 20.0 - margin)
        v = 10.0 if x < 20.0 - margin else 0.0
        ego.append(AgentState(x, 0.0, v, 0.0))
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
    _, dce = ttce_dce(dists, 0, DT)
    assert dce == 0.0


def test_ttce_converges_to_ttc_as_dce_vanishes():
    ttc = ttc_closed_form(20.0, -10.0, 0.0)
    assert ttc == pytest.approx(2.0)
    gaps = []
    for margin in (2.0, 1.0, 0.5, 0.1, 0.01):
        ego, lead = _stopping_logs(margin)
        dists = distance_series(ego, lead)
        ttce, dce = ttce_dce(dists, 0, DT)
        assert dce == pytest.approx(margin, abs=1e-9)
        gaps.append(abs(ttce - ttc))
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
        result = planner.plan(view, {})
        if result.status != "ok":
            continue
        planned += 1
        traj = result.intended_trajectory
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
        result = plan(self, view, memory)
        chosen.append((view, result, self.params))
        return result

    monkeypatch.setattr(FrenetPlanner, "plan", recording_plan)
    run_bundled("merge_frenet", worker_count=1)
    assert chosen
    for view, result, params in chosen:
        if result.status == "ok":
            overlap = _overlap_with_prediction(result.intended_trajectory, view, params)
            assert overlap is None, (view.ego_id, view.step, overlap)
