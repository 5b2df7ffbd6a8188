"""Output checks computed apart from drivesim.

Each check recomputes a figure from the logged states with code of its own
(kinematics, box overlap, box-polygon overlap, headway and TTC) and compares
it with what the program produced. A check returns a list of problems; an
empty list means it passed. None of them runs inside a timed section.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def kinematic_step(x, y, v, theta, accel, kappa, dt):
    """Kinematic transition as drivesim documents it: the speed changes by
    accel*dt (never below 0) and the vehicle moves an arc of curvature kappa
    whose length uses the mean of old and new speed; the heading advances by
    old speed * kappa * dt."""
    v1 = max(0.0, v + accel * dt)
    ds = 0.5 * (v + v1) * dt
    if abs(kappa) < 1e-12 or ds < 1e-15:
        x1, y1 = x + ds * math.cos(theta), y + ds * math.sin(theta)
    else:
        # chord of the arc from theta to theta + kappa*ds
        half = 0.5 * kappa * ds
        chord = 2.0 * math.sin(half) / kappa
        x1 = x + chord * math.cos(theta + half)
        y1 = y + chord * math.sin(theta + half)
    return x1, y1, v1, theta + v * kappa * dt


def check_kinematics(result) -> list[str]:
    """Every logged state follows from the previous state and logged input,
    and the step log agrees with the trajectories."""
    problems = []
    dt = result.dt
    for aid, traj in sorted(result.trajectories.items()):
        for k, (s, u) in enumerate(zip(traj.states, traj.inputs)):
            x1, y1, v1, th1 = kinematic_step(s.x, s.y, s.v, s.theta,
                                             u.accel, u.curvature_cmd, dt)
            nxt = traj.states[k + 1]
            err = max(abs(x1 - nxt.x), abs(y1 - nxt.y), abs(v1 - nxt.v),
                      abs(_wrap(th1 - nxt.theta)))
            if err > TOL:
                problems.append(f"{aid} state {k + 1} does not follow from state {k} "
                                f"and its input (error {err:.3g})")
                break
    for log in result.step_logs:
        for aid, entry in log.agents.items():
            traj = result.trajectories[aid]
            if entry["state"] != traj.states[log.step]:
                problems.append(f"{aid} step {log.step}: logged state differs from trajectory")
            if entry["input"] is not None and entry["input"] != traj.inputs[log.step]:
                problems.append(f"{aid} step {log.step}: logged input differs from trajectory")
    return problems


def box_corners(x, y, theta, length, width) -> np.ndarray:
    """Corners (..., 4, 2) of oriented rectangles."""
    x, y, theta = (np.asarray(a, dtype=float) for a in (x, y, theta))
    length, width = np.broadcast_arrays(np.asarray(length, float), np.asarray(width, float))
    c, s = np.cos(theta), np.sin(theta)
    out = []
    for sl, sw in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        lx, ly = 0.5 * sl * length, 0.5 * sw * width
        out.append(np.stack([x + c * lx - s * ly, y + s * lx + c * ly], axis=-1))
    return np.stack(out, axis=-2)


def _edge_normals(corners: np.ndarray) -> np.ndarray:
    edges = np.roll(corners, -1, axis=-2) - corners
    return np.stack([-edges[..., 1], edges[..., 0]], axis=-1)


def _separated(ca: np.ndarray, cb: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """True where some axis separates the convex point sets ca and cb.

    ca, cb: (..., n, 2) and (..., m, 2); axes: (..., k, 2). Touching sets are
    not separated."""
    pa = np.einsum("...nd,...kd->...kn", ca, axes)
    pb = np.einsum("...md,...kd->...km", cb, axes)
    gap = (pa.max(-1) < pb.min(-1)) | (pb.max(-1) < pa.min(-1))
    return gap.any(-1)


def overlapping_pairs(ids, corners, is_agent) -> set[frozenset]:
    """Pairs of overlapping boxes with at least one agent among them."""
    n = len(ids)
    i, j = np.triu_indices(n, 1)
    keep = is_agent[i] | is_agent[j]
    i, j = i[keep], j[keep]
    ca, cb = corners[i], corners[j]
    axes = np.concatenate([_edge_normals(ca), _edge_normals(cb)], axis=-2)
    hit = ~_separated(ca, cb, axes)
    return {frozenset((ids[a], ids[b])) for a, b in zip(i[hit], j[hit])}


def check_collisions(result, scenario) -> list[str]:
    """The benchmark's own overlap test agrees with the engine's events at
    every step, on the time-t states the engine checked."""
    problems = []
    problems_by_id = {p.agent_id: p for p in scenario.planning_problems}
    for log in result.step_logs:
        rows = []
        for aid in sorted(log.agents):
            st, prm = log.agents[aid]["state"], problems_by_id[aid].params
            rows.append((aid, st.x, st.y, st.theta, prm.length, prm.width, True))
        for o in scenario.dynamic_obstacles:
            st = o.state_at(log.step)
            rows.append((o.id, st.x, st.y, st.theta, o.length, o.width, False))
        for o in scenario.static_obstacles:
            rows.append((o.id, o.pose.x, o.pose.y, o.pose.theta, o.length, o.width, False))
        ids = [r[0] for r in rows]
        cols = list(zip(*rows))
        corners = box_corners(cols[1], cols[2], cols[3], cols[4], cols[5])
        mine = overlapping_pairs(ids, corners, np.array(cols[6]))
        engine = {frozenset(e["ids"]) for e in log.collision_events
                  if e["type"] == "vehicle_pair"}
        if mine != engine:
            problems.append(f"step {log.step}: overlap test found {sorted(map(sorted, mine))}, "
                            f"engine reported {sorted(map(sorted, engine))}")
    return problems


def _lane_bands(network):
    """(y_center, half_width) of each lanelet whose centerline is a straight
    line along +x."""
    bands = {}
    for lid, lane in network.lanelets.items():
        pts = lane.centerline.points
        left, right = lane.left_bound.points, lane.right_bound.points
        if np.ptp(pts[:, 1]) > 0 or np.any(np.diff(pts[:, 0]) <= 0):
            raise ValueError(f"lanelet {lid} is not a straight lane along +x")
        bands[lid] = (float(pts[0, 1]), 0.5 * float(left[0, 1] - right[0, 1]))
    return bands


def _ttc(hw, dv, da):
    """Smallest positive t with hw + dv*t + da*t^2/2 = 0, inf if none."""
    if not math.isfinite(hw):
        return math.inf
    if abs(da) < 1e-9:
        return -hw / dv if dv < -1e-12 else math.inf
    roots = np.roots([0.5 * da, dv, hw])
    pos = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    return min(pos) if pos else math.inf


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def _accels(speeds, dt):
    """Central differences of the speeds, one-sided at the ends."""
    v = list(speeds)
    if len(v) < 2:
        return [0.0] * len(v)
    a = [v[1] - v[0]] + [(v[k + 1] - v[k - 1]) / 2.0 for k in range(1, len(v) - 1)]
    return [x / dt for x in a + [v[-1] - v[-2]]]


def check_headways(result, scenario, report, cfg) -> tuple[list[str], int]:
    """On straight lanes, headway, THW and closed-form TTC of every agent
    towards each vehicle well inside its own lane, recomputed from the logged
    states. Returns the problems and the number of finite headways compared."""
    problems, compared = [], 0
    bands = _lane_bands(scenario.network)
    n_steps = len(result.step_logs)
    vehicles = {}
    for aid, traj in result.trajectories.items():
        prm = next(p.params for p in scenario.planning_problems if p.agent_id == aid)
        vehicles[aid] = (traj.states, prm.length)
    for o in scenario.dynamic_obstacles:
        vehicles[o.id] = ([o.state_at(k) for k in range(n_steps + 1)], o.length)

    def lane_of(st):
        for lid, (yc, half) in bands.items():
            if abs(st.y - yc) <= 0.5 * half:
                return lid
        return None

    for aid in sorted(result.trajectories):
        states_a, len_a = vehicles[aid]
        acc_a = _accels([s.v for s in states_a], result.dt)
        for oid, (states_o, len_o) in sorted(vehicles.items()):
            if oid == aid:
                continue
            acc_o = _accels([s.v for s in states_o], result.dt)
            series = report.pair_series.get((aid, oid))
            for t in range(min(len(states_a), len(states_o))):
                sa, so = states_a[t], states_o[t]
                lane = lane_of(sa)
                if lane is None or lane != lane_of(so):
                    continue
                hw = math.inf
                if math.hypot(sa.x - so.x, sa.y - so.y) <= cfg.gating_distance:
                    gap = (so.x - len_o / 2.0) - (sa.x + len_a / 2.0)
                    hw = gap if gap > 0 else math.inf
                if series is None:
                    if math.isfinite(hw):
                        problems.append(f"{aid}|{oid}: no pair series, expected headway {hw:.3f}")
                        break
                    continue
                dv = so.v * math.cos(so.theta) - sa.v * math.cos(sa.theta)
                expect = {
                    "hw": hw,
                    "thw": hw / sa.v if math.isfinite(hw) and sa.v > 0 else math.inf,
                    "ttc": _ttc(hw, dv, acc_o[t] - acc_a[t]),
                }
                for key, want in expect.items():
                    got = series[key][t]
                    if not _close(float(got), want):
                        problems.append(f"{aid}|{oid} step {t}: {key} {got} != {want}")
                compared += math.isfinite(hw)
    return problems, compared


def check_tet_tit(report, cfg) -> list[str]:
    """TET in [0, 1], TIT in [0, tau * TET], and TET as recounted from the
    agent's minimum-TTC series."""
    problems = []
    tau = cfg.ttc_threshold
    for aid, agg in sorted(report.aggregates.items()):
        ttc = report.agent_series[aid]["ttc"]
        duration = (len(ttc) - 1) * report.dt
        recount = report.dt * sum(1 for v in ttc if v <= tau) / duration if duration > 0 else 0.0
        tet, tit = agg["tet"], agg["tit"]
        if not (0.0 <= tet <= 1.0) or not _close(tet, recount):
            problems.append(f"{aid}: TET {tet} outside [0, 1] or != recount {recount}")
        if not (0.0 <= tit <= tau * tet + TOL):
            problems.append(f"{aid}: TIT {tit} outside [0, tau * TET = {tau * tet}]")
    return problems


def box_overlaps_polygon(corners: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Per box of corners (n, 4, 2): does it overlap the convex polygon (m, 2)?"""
    poly = np.broadcast_to(polygon, (len(corners),) + polygon.shape)
    axes = np.concatenate([_edge_normals(corners), _edge_normals(poly)], axis=-2)
    return ~_separated(corners, poly, axes)


def check_encroachment(result, scenario, report) -> list[str]:
    """Each agent's ET on each conflict area equals dt times the number of
    its steps whose box overlaps the area, and an area the agent never
    touches has no event."""
    problems = []
    areas = scenario.network.conflict_areas()
    events = {(e["agent"], e["area_index"]): e["et"] for e in report.conflict_events}
    for aid, traj in sorted(result.trajectories.items()):
        prm = next(p.params for p in scenario.planning_problems if p.agent_id == aid)
        xs, ys, ths = zip(*((s.x, s.y, s.theta) for s in traj.states))
        corners = box_corners(xs, ys, ths, prm.length, prm.width)
        for idx, (_, area) in enumerate(areas):
            steps = int(box_overlaps_polygon(corners, np.asarray(area.vertices)).sum())
            et = events.get((aid, idx))
            if steps == 0 and et is not None:
                problems.append(f"{aid} area {idx}: ET {et} without an overlapping step")
            if steps and (et is None or not _close(et, steps * result.dt)):
                problems.append(f"{aid} area {idx}: ET {et} != {steps} steps * dt")
    if not events:
        problems.append("no conflict-area events")
    return problems


def check_goals(result) -> list[str]:
    return [f"{aid} ended {st.value}, expected reached_in_time"
            for aid, st in sorted(result.statuses.items()) if st.value != "reached_in_time"]


def run_checks(workload, result, scenario, report, metric_cfg) -> dict:
    """All checks that apply to the workload: {name: problems} plus the
    number of headways compared."""
    out = {
        "kinematics": check_kinematics(result),
        "collisions": check_collisions(result, scenario),
        "tet_tit": check_tet_tit(report, metric_cfg),
    }
    compared = 0
    if workload.straight_lanes:
        out["headways"], compared = check_headways(result, scenario, report, metric_cfg)
        if compared == 0:
            out["headways"].append("no finite headway to compare")
    if workload.must_reach_goal:
        out["goals"] = check_goals(result)
        out["encroachment"] = check_encroachment(result, scenario, report)
    return {"problems": out, "headways_compared": compared}
