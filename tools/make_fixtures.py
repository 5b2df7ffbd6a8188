"""Generate the bundled scenario fixtures (merge, t_intersection, highway).

Recordings are produced by rolling the vehicle model along reference paths,
so replayed trajectories are exactly consistent with the transition function.
Run from the repository root:  python3 tools/make_fixtures.py
"""

import math
from pathlib import Path

import numpy as np

from drivesim.dynamics import AgentState, ControlInput, VehicleParams, step
from drivesim.geometry import CurvilinearFrame, Polyline
from drivesim.planners import _track_path
from drivesim.scenario import (Adjacency, DynamicObstacle, Lanelet, Scenario,
                               StreetNetwork, save_scenario)

DT = 0.1
DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "drivesim" / "data"
PARAMS = VehicleParams()


def straight(x0, x1, y, step_len=5.0):
    n = max(2, int(round(abs(x1 - x0) / step_len)) + 1)
    xs = np.linspace(x0, x1, n)
    return np.column_stack([xs, np.full(n, y)])


def straight_y(y0, y1, x, step_len=5.0):
    n = max(2, int(round(abs(y1 - y0) / step_len)) + 1)
    ys = np.linspace(y0, y1, n)
    return np.column_stack([np.full(n, x), ys])


def lane(points_center, halfwidth, overhang=0.3):
    """Left/right bounds by offsetting the centerline along its normals.

    Bounds overhang the centerline ends slightly so polygons of consecutive
    lanelets overlap instead of leaving seam slivers at tilted joints.
    """
    pts = np.asarray(points_center, dtype=float)
    tang = np.gradient(pts, axis=0)
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    normal = np.column_stack([-tang[:, 1], tang[:, 0]])
    left = pts + halfwidth * normal
    right = pts - halfwidth * normal
    for bound in (left, right):
        bound[0] -= overhang * tang[0]
        bound[-1] += overhang * tang[-1]
    return left, right


def taper_centerline(x0, x1, y0, y1, step_len=2.0):
    n = max(2, int(round((x1 - x0) / step_len)) + 1)
    xs = np.linspace(x0, x1, n)
    u = (xs - x0) / (x1 - x0)
    ys = y0 + (y1 - y0) * (3 * u**2 - 2 * u**3)  # smoothstep
    return np.column_stack([xs, ys])


def drive(path_points, start: AgentState, accel_fn, n_steps: int) -> np.ndarray:
    """Roll the vehicle model along a path with a per-step acceleration law;
    the recording (n_steps + 1, 4) of (x, y, v, theta)."""
    frame = CurvilinearFrame(Polyline(np.asarray(path_points)))
    states = [start]
    st = start
    for k in range(n_steps):
        s, d, _ = frame.project((st.x, st.y))
        kappa = _track_path(frame, s, d, st.theta, 0.0, PARAMS)
        st = step(st, ControlInput(accel_fn(k, st), kappa), DT)
        states.append(st)
    return np.array([(s.x, s.y, s.v, s.theta) for s in states])


def hold_speed(target):
    def fn(k, st):
        return max(-2.0, min(2.0, (target - st.v) / DT * 0.5))
    return fn


def profile(segments):
    """segments: list of (duration_s, accel); returns accel_fn."""
    edges = np.cumsum([d for d, _ in segments])

    def fn(k, st):
        t = k * DT
        for edge, (_, a) in zip(edges, segments):
            if t < edge - 1e-9:
                return a
        return segments[-1][1]
    return fn


# ---------------------------------------------------------------------------


def make_merge():
    hw = 2.0  # lane halfwidth
    main_pre_c = straight(-80, 35, 0.0)
    main_post_c = straight(35, 180, 0.0)
    left_c = straight(-80, 180, 4.0)
    ramp_c = straight(-45, -5, -4.0)
    taper_c = taper_centerline(-5, 35, -4.0, 0.0)

    def mk(lid, center, successors=(), left_adj=None, right_adj=None, halfwidth=hw):
        lb, rb = lane(center, halfwidth)
        return Lanelet(lid, Polyline(lb), Polyline(rb), successors=list(successors),
                       adjacent_left=left_adj, adjacent_right=right_adj)

    lanelets = [
        mk("main_pre", main_pre_c, ["main_post"],
           left_adj=Adjacency("left_lane", True)),
        mk("main_post", main_post_c, [], left_adj=Adjacency("left_lane", True)),
        mk("left_lane", left_c, [], right_adj=Adjacency("main_pre", True),
           halfwidth=3.0),
        mk("ramp", ramp_c, ["taper"]),
        mk("taper", taper_c, ["main_post"], halfwidth=2.4),
    ]
    network = StreetNetwork(lanelets)

    # orange: merges from the ramp, constant 10 m/s, 14 s
    orange_path = np.vstack([ramp_c, taper_c[1:], main_post_c[1:]])
    orange = drive(orange_path, AgentState(-25.0, -4.0, 10.0, 0.0),
                   hold_speed(10.0), 140)

    # green: on the main lane; cruises at 8, then accelerates hard to 20
    green_path = np.vstack([main_pre_c, main_post_c[1:]])
    green = drive(green_path, AgentState(-60.0, 0.0, 8.0, 0.0),
                  profile([(5.0, 0.0), (4.0, 3.0), (4.0, 0.0)]), 130)

    scenario = Scenario(network, [], [
        DynamicObstacle("green", PARAMS.length, PARAMS.width, green),
        DynamicObstacle("orange", PARAMS.length, PARAMS.width, orange),
    ], [], DT)
    save_scenario(scenario, DATA_DIR / "merge.json")
    print("merge: orange ends at (%.1f, %.1f), green at (%.1f, %.1f)"
          % (*orange[-1, :2], *green[-1, :2]))


def make_t_intersection():
    hw = 2.0
    ew_c = straight(-80, 80, 0.0)
    ns_c = straight_y(-50, 50, 0.0)

    def mk(lid, center):
        lb, rb = lane(center, hw)
        return Lanelet(lid, Polyline(lb), Polyline(rb))

    network = StreetNetwork([mk("ew", ew_c), mk("ns", ns_c)])

    # orange: eastbound through the junction at 10 m/s, 13 s
    orange = drive(ew_c, AgentState(-60.0, 0.0, 10.0, 0.0), hold_speed(10.0), 130)

    # green: northbound; brakes to a stop short of the junction, then darts
    # across timed against orange's arrival
    green = drive(ns_c, AgentState(0.0, -30.0, 8.0, math.pi / 2),
                  profile([(4.0, -2.0), (2.0, 5.0), (5.0, 0.0)]), 110)

    scenario = Scenario(network, [], [
        DynamicObstacle("green", PARAMS.length, PARAMS.width, green),
        DynamicObstacle("orange", PARAMS.length, PARAMS.width, orange),
    ], [], DT)
    save_scenario(scenario, DATA_DIR / "t_intersection.json")
    print("t_intersection: orange ends (%.1f, %.1f), green ends (%.1f, %.1f) v=%.1f"
          % (*orange[-1, :2], *green[-1, :3]))


def make_highway():
    hw = 2.0
    n_lanes, per_lane = 4, 6
    lanelets = []
    centers = {}
    for lane_idx in range(n_lanes):
        y = 4.0 * lane_idx
        c = straight(-120, 520, y)
        centers[lane_idx] = c
        lb, rb = lane(c, hw)
        left_adj = Adjacency(f"lane{lane_idx + 1}", True) if lane_idx + 1 < n_lanes else None
        right_adj = Adjacency(f"lane{lane_idx - 1}", True) if lane_idx > 0 else None
        lanelets.append(Lanelet(f"lane{lane_idx}", Polyline(lb), Polyline(rb),
                                adjacent_left=left_adj, adjacent_right=right_adj))
    network = StreetNetwork(lanelets)

    obstacles = []
    for k in range(n_lanes * per_lane):
        lane_idx = k % n_lanes
        slot = k // n_lanes
        x0 = -100.0 + 30.0 * slot
        y = 4.0 * lane_idx
        states = drive(centers[lane_idx], AgentState(x0, y, 20.0, 0.0),
                       hold_speed(20.0), 150)
        obstacles.append(DynamicObstacle(f"veh{k:02d}", PARAMS.length, PARAMS.width, states))
    scenario = Scenario(network, [], obstacles, [], DT)
    save_scenario(scenario, DATA_DIR / "highway.json")
    print(f"highway: {len(obstacles)} vehicles")


if __name__ == "__main__":
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    make_merge()
    make_t_intersection()
    make_highway()
