"""Scenario model: maps, obstacles, goals, substitution, (de)serialization."""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from drivesim import geometry, scenario as scenario_module
from drivesim.cli import main, resolve_scenario_path
from drivesim.dynamics import AgentState, normalize_angle
from drivesim.geometry import Polygon, Polyline, RegionIndex, box_inside_region, occupancy
from drivesim.scenario import (CONFLICT_GRID_RESOLUTION, CONFLICT_MIN_AREA, Adjacency,
                               DynamicObstacle, GoalCheck,
                               GoalRegion, Lanelet, Scenario, ScenarioError,
                               StreetNetwork, goal_satisfied, load_scenario,
                               save_scenario, scenario_from_dict,
                               scenario_to_dict, substitute_agents)
from drivesim.scenario import _convex_hull, _overlap_grid, _same_direction_adjacent


def _bundled(name):
    return load_scenario(resolve_scenario_path(name, Path(".")))


def simple_lane(lid, x0, x1, y, hw=2.0, **kw):
    xs = np.linspace(x0, x1, 5)
    left = np.column_stack([xs, np.full(5, y + hw)])
    right = np.column_stack([xs, np.full(5, y - hw)])
    return Lanelet(lid, Polyline(left), Polyline(right), **kw)


class TestNetwork:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ScenarioError):
            StreetNetwork([simple_lane("a", 0, 10, 0), simple_lane("a", 0, 10, 4)])

    def test_dangling_successor_rejected(self):
        with pytest.raises(ScenarioError):
            StreetNetwork([simple_lane("a", 0, 10, 0, successors=["nope"])])

    def test_containing_and_nearest(self):
        net = StreetNetwork([simple_lane("a", 0, 10, 0), simple_lane("b", 0, 10, 4)])
        located, turns = net.locate([(5.0, 0.5, 0.25)])
        assert located == ["a"]
        assert turns[0, 0] == 0.25 and np.isnan(turns[0, 1])
        lid, dist = net.nearest_lanelet((5.0, 7.0))
        assert lid == "b"
        assert dist == pytest.approx(3.0)

    def test_locate_prefers_the_lanelet_it_drives_along(self):
        """Of the lanelets holding a pose, locate takes the one its heading
        turns least from, the smaller id among equal turns, whichever centre
        line is nearer; one it drives against (a turn of pi) loses to a
        crossing one (pi / 2)."""
        xs = np.linspace(-20, 20, 5)
        ns = Lanelet("ns", Polyline(np.column_stack([np.full(5, -2.0), xs])),
                     Polyline(np.column_stack([np.full(5, 2.0), xs])))
        net = StreetNetwork([simple_lane("ew", -20, 20, 0), ns, simple_lane("dup", -20, 20, 0)])
        located, turns = net.locate([(0.5, 0.2, math.pi / 2 - 0.1), (0.2, 0.5, 0.1),
                                     (0.2, 0.5, math.pi)])
        assert located == ["ns", "dup", "ns"]   # ids sort as dup, ew, ns
        assert turns[2].tolist() == [math.pi, math.pi, pytest.approx(math.pi / 2)]

    def test_locate_of_many_poses_equals_one_call_each(self):
        """An (n, 3) array gives, row for row, the lanelet and turns (NaN
        included, bitwise) of one single-pose call per row, on every bundled
        network, for the recorded poses and for random poses around them
        (inside one lanelet, two or none); an empty (0, 3) array gives no
        rows, and a network without lanelets None and no turns per pose."""
        rng = np.random.default_rng(11)
        for name in ("merge", "t_intersection", "highway"):
            scn = _bundled(name)
            net = scn.network
            recorded = np.vstack([o.recording[:, [0, 1, 3]] for o in scn.dynamic_obstacles])
            poses = np.vstack([recorded, rng.uniform(recorded.min(0) - 5.0,
                                                     recorded.max(0) + 5.0, (200, 3))])
            located, turns = net.locate(poses)
            single = [net.locate(pose[None]) for pose in poses]
            assert located == [lid for (lid,), _ in single]
            assert turns.tobytes() == np.vstack([t for _, t in single]).tobytes()
            assert {int(n) for n in (~np.isnan(turns)).sum(axis=1)} >= {0, 1}
            empty, no_turns = net.locate(np.empty((0, 3)))
            assert empty == [] and no_turns.shape == (0, len(net.lanelets))
        located, turns = StreetNetwork([]).locate(np.zeros((3, 3)))
        assert located == [None] * 3 and turns.shape == (3, 0)

    def test_region_index_is_built_once_by_the_network(self, monkeypatch):
        """StreetNetwork builds its region index once, on first use, over
        its lanelet polygons in sorted id order: loading a scenario without
        planning problems builds none, and loading one with a problem
        builds it to check the start. The index's tables are read-only, and
        repeated locate and box_inside_region calls all ask that one object,
        building no other. Neither geometry nor scenario keeps a cache at
        module level or keys anything by id()."""
        built, asked = [], []
        init, holds = RegionIndex.__init__, RegionIndex.holds

        def recorded_init(region, polygons):
            built.append(region)
            init(region, polygons)

        def recorded_holds(region, *args, **kwargs):
            asked.append(region)
            return holds(region, *args, **kwargs)

        monkeypatch.setattr(RegionIndex, "__init__", recorded_init)
        monkeypatch.setattr(RegionIndex, "holds", recorded_holds)
        scn = _bundled("merge")
        net = scn.network
        assert built == []
        assert net.region is net.region and built == [net.region]
        assert net.region.polygons == tuple(net.lanelets[lid].polygon
                                            for lid in sorted(net.lanelets))
        for table in (net.region.edges, net.region.cull, net.region.owner):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[..., 0] = 0
        poses = np.vstack([o.recording[:, [0, 1, 3]] for o in scn.dynamic_obstacles])
        boxes = occupancy(poses, 4.5, 2.0)
        asked.clear()
        for _ in range(3):
            net.locate(poses)
            box_inside_region(boxes, net.region)
        assert len(asked) == 6 and all(region is net.region for region in asked)
        assert built == [net.region]
        loaded = scenario_from_dict(scenario_to_dict(substitute_agents(scn, ["green"])))
        assert built == [net.region, loaded.network.region] and len(asked) == 7
        for module in (geometry, scenario_module):
            assert not re.search(r"\bid\(", inspect.getsource(module)), module.__name__
            for name, value in vars(module).items():
                if not name.startswith("__"):
                    assert not isinstance(value, (dict, list, set)), name
                    assert not hasattr(value, "cache_info"), name

    def test_crossing_lanes_form_conflict_area(self):
        ew = simple_lane("ew", -20, 20, 0)
        xs = np.linspace(-20, 20, 5)
        ns = Lanelet("ns", Polyline(np.column_stack([np.full(5, -2.0), xs])),
                     Polyline(np.column_stack([np.full(5, 2.0), xs])))
        net = StreetNetwork([ew, ns])
        areas = net.conflict_areas()
        assert len(areas) == 1
        (pair, poly), = areas
        assert pair == ("ew", "ns")
        assert poly.area == pytest.approx(16.0, rel=0.2)

    def test_adjacent_and_successor_pairs_do_not_conflict(self):
        a = simple_lane("a", 0, 10, 0, successors=["c"],
                        adjacent_left=Adjacency("b", True))
        b = simple_lane("b", 0, 10, 3.5, adjacent_right=Adjacency("a", True))
        c = simple_lane("c", 9.5, 20, 0)  # overlaps its predecessor slightly
        a2 = Lanelet("c", c.left_bound, c.right_bound)
        net = StreetNetwork([a, b, a2])
        assert net.conflict_areas() == []


def qhull_vertices(points):
    """scipy's ConvexHull vertices of points, or None where qhull finds no
    2-D hull."""
    try:
        return ConvexHull(points).vertices.tolist()
    except Exception:
        return None


def cyclic(seq, first):
    """seq rotated to start at first (seq unchanged if first is not in it)."""
    k = seq.index(first) if first in seq else 0
    return seq[k:] + seq[:k]


def grid(rng, rotated: bool) -> np.ndarray:
    """A random part of a CONFLICT_GRID_RESOLUTION grid, built as
    _overlap_grid builds one, rotated by a random angle if rotated."""
    res = CONFLICT_GRID_RESOLUTION
    x0, y0 = rng.uniform(-150.0, 150.0, 2)
    nx, ny = rng.integers(1, 40, 2)
    gx, gy = np.meshgrid(np.arange(x0, x0 + nx * res + res, res),
                         np.arange(y0, y0 + ny * res + res, res))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[rng.random(len(pts)) < rng.uniform(0.2, 1.0)]
    if rotated:
        c, s = np.cos(a := rng.uniform(0.0, 2.0 * np.pi)), np.sin(a)
        pts = pts @ np.array([[c, s], [-s, c]])
    return pts


class TestConvexHull:
    """_convex_hull against scipy's ConvexHull (qhull) as the oracle: the
    same vertices in the same counter-clockwise cycle, and None where qhull
    finds no 2-D hull."""

    @pytest.mark.parametrize("name", ["t_intersection", "merge", "highway"])
    def test_bundled_conflict_grids_match_qhull_from_the_same_vertex(self, name):
        net = _bundled(name).network
        grids = {}
        ids = sorted(net.lanelets)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if not _same_direction_adjacent(net.lanelets[a], net.lanelets[b]):
                    pts = _overlap_grid(net.lanelets[a].polygon, net.lanelets[b].polygon,
                                        CONFLICT_GRID_RESOLUTION)
                    if len(pts):
                        grids[(a, b)] = pts
        expect = []
        for pair, pts in grids.items():
            hull, oracle = _convex_hull(pts), qhull_vertices(pts)
            assert (None if hull is None else hull.tolist()) == oracle, pair
            if oracle is not None and Polygon(pts[oracle]).area >= CONFLICT_MIN_AREA:
                expect.append((pair, pts[oracle]))
        areas = net.conflict_areas()
        assert [pair for pair, _ in areas] == [pair for pair, _ in expect]
        for (_, poly), (_, vertices) in zip(areas, expect):
            assert poly.vertices.tobytes() == vertices.tobytes()
        if name in ("t_intersection", "merge"):
            assert areas

    @pytest.mark.parametrize("kind", ["normal", "uniform", "grid", "rotated grid"])
    def test_random_sets_match_qhull(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for trial in range(300):
            if kind == "normal":
                pts = rng.normal(size=(rng.integers(3, 300), 2)) * rng.uniform(0.01, 100.0)
            elif kind == "uniform":
                pts = rng.uniform(-1.0, 1.0, (rng.integers(3, 300), 2)) * 100.0 + rng.uniform(-1e3, 1e3, 2)
            else:
                pts = grid(rng, kind == "rotated grid")
            hull, oracle = _convex_hull(pts), qhull_vertices(pts)
            if oracle is None:
                assert hull is None, (trial, len(pts))
                continue
            hull = hull.tolist()
            assert hull == cyclic(oracle, hull[0]), trial
            assert Polygon(pts[hull]).area > 0.0
            first = np.lexsort((pts[:, 1], pts[:, 0]))[0]
            assert hull[0] == first

    def test_duplicate_points_give_one_vertex_each(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = rng.normal(size=(rng.integers(3, 40), 2))
            doubled = np.concatenate([pts, pts[rng.integers(0, len(pts), len(pts))]])
            hull, oracle = _convex_hull(doubled), qhull_vertices(doubled)
            assert [tuple(p) for p in doubled[hull]] == cyclic(
                [tuple(p) for p in doubled[oracle]], tuple(doubled[hull[0]]))
            assert len({tuple(p) for p in doubled[hull]}) == len(hull)

    @pytest.mark.parametrize("points", [
        [],
        [[0.0, 0.0], [1.0, 1.0]],
        [[1.0, 2.0]] * 5,
        [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]],
        [[x, 3.0] for x in np.arange(-2.0, 2.0, 0.25)],
        [[3.0, y] for y in np.arange(-2.0, 2.0, 0.25)],
        [[0.25 * k, 0.5 * k] for k in range(9)],
        (np.column_stack([np.arange(0.0, 10.0, 0.25), np.zeros(40)])
         @ np.array([[np.cos(0.7), np.sin(0.7)], [-np.sin(0.7), np.cos(0.7)]])
         + [80.0, -40.0]).tolist(),
    ], ids=["no point", "two points", "one point repeated", "two points repeated",
            "horizontal", "vertical", "diagonal", "rotated line"])
    def test_collinear_points_have_no_hull(self, points):
        pts = np.array(points, dtype=float).reshape(-1, 2)
        assert qhull_vertices(pts) is None
        assert _convex_hull(pts) is None


class TestGoal:
    def test_goal_checks(self):
        goal = GoalRegion(area=Polygon([[0, 0], [4, 0], [4, 4], [0, 4]]),
                          t_max=5.0, velocity_interval=(0.0, 10.0))
        inside = AgentState(2, 2, 5, 0)
        assert goal_satisfied(goal, inside, 4.0) is GoalCheck.REACHED_IN_TIME
        assert goal_satisfied(goal, inside, 6.0) is GoalCheck.REACHED_LATE
        assert goal_satisfied(goal, AgentState(9, 9, 5, 0), 1.0) is GoalCheck.NOT_REACHED
        too_fast = AgentState(2, 2, 20, 0)
        assert goal_satisfied(goal, too_fast, 1.0) is GoalCheck.NOT_REACHED

    @pytest.mark.parametrize("interval, theta, reached", [
        ((-3.5, -2.8), 3.0, True),     # 3.0 is -3.283 wrapped
        ((2.8, 3.5), -3.0, True),      # -3.0 is 3.283 wrapped
        ((-3.5, -2.8), 2.0, False),
        ((2.8, 3.5), -2.0, False),
        ((-0.5, 0.5), 0.2, True),
        ((-0.5, 0.5), 1.0, False),
        ((5.8, 6.6), 0.1, True),       # 0.1 is 6.383 wrapped
        ((-7.0, -6.0), 0.0, True),     # 0.0 is -6.283 wrapped
        ((-7.0, -6.0), 0.5, False),
        ((-10.0, 0.0), 2.0, True),     # wider than the circle
        ((1.0, 2.0), 1.0 - 1e-13, True),   # within the edge tolerance
        ((1.0, 2.0), 2.0 + 1e-13, True),
        ((1.0, 2.0), 1.0 - 1e-9, False),
    ])
    def test_orientation_interval_matches_every_wrapped_heading(self, interval, theta, reached):
        goal = GoalRegion(area=Polygon([[0, 0], [4, 0], [4, 4], [0, 4]]), t_max=5.0,
                          orientation_interval=interval)
        check = goal_satisfied(goal, AgentState(2, 2, 5, theta), 1.0)
        assert check is (GoalCheck.REACHED_IN_TIME if reached else GoalCheck.NOT_REACHED)

    @pytest.mark.parametrize("vertices", [[[0, 0], [4, 0], [4, 4], [0, 4]],
                                          [[100, 50], [130, 62], [118, 91], [95, 70]]])
    def test_position_outside_the_bounds_skips_the_edge_test(self, vertices, monkeypatch):
        """Points on, just inside and just outside every edge and vertex, in
        steps of the cull's margin, reach the goal iff contains_points holds
        them; those outside the bounds by more than the margin never reach
        contains_points."""
        area = Polygon(vertices)
        goal = GoalRegion(area=area, t_max=5.0)
        reach = 1e-9 + area.slack
        v = area.vertices
        points = []
        for a, b in zip(v, np.roll(v, -1, axis=0)):
            normal = np.array([b[1] - a[1], a[0] - b[0]]) / math.hypot(*(b - a))
            for k in (-1e6, -2.0, -1.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 0.999, 1.001, 2.0, 1e6):
                points.append(0.5 * (a + b) + k * reach * normal)
                points += [a + k * reach * np.array(u) for u in ((1, 0), (0, 1), (1, 1))]
        points = np.array(points)
        expect = area.contains_points(points).tolist()
        lo, hi = v.min(axis=0), v.max(axis=0)
        far = ((points < lo - reach) | (points > hi + reach)).any(axis=1)
        assert far.any() and (~far).any() and any(expect) and not all(expect)
        assert not any(e for e, f in zip(expect, far) if f)

        tested, contains_points = [], Polygon.contains_points

        def recorded(poly, pts, boundary_tol=1e-9):
            tested.append(pts.tolist())
            return contains_points(poly, pts, boundary_tol)

        monkeypatch.setattr(Polygon, "contains_points", recorded)
        for p, e in zip(points.tolist(), expect):
            check = goal_satisfied(goal, AgentState(p[0], p[1], 5, 0), 1.0)
            assert check is (GoalCheck.REACHED_IN_TIME if e else GoalCheck.NOT_REACHED), p
        assert tested == [[p] for p in points[~far].tolist()]


class TestSubstitution:
    def test_substitute_agents(self):
        scenario = _bundled("merge")
        sub = substitute_agents(scenario, ["green"])
        assert [o.id for o in sub.dynamic_obstacles] == ["orange"]
        (prob,) = sub.planning_problems
        assert prob.agent_id == "green"
        recording = scenario.dynamic_obstacle("green").recording
        assert prob.initial_state == AgentState(*recording[0])
        assert bool(prob.goal.area.contains_points(recording[-1:, :2])[0])
        duration = (len(recording) - 1) * scenario.dt
        assert prob.goal.t_max == pytest.approx(1.5 * duration)

    def test_unknown_id_rejected(self):
        with pytest.raises(ScenarioError):
            substitute_agents(_bundled("merge"), ["ghost"])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scenario = _bundled("t_intersection")
        path = tmp_path / "copy.json"
        save_scenario(scenario, path)
        back = load_scenario(path)
        assert sorted(back.network.lanelets) == sorted(scenario.network.lanelets)
        assert [o.id for o in back.dynamic_obstacles] == \
               [o.id for o in scenario.dynamic_obstacles]
        for orig, copy in zip(scenario.dynamic_obstacles, back.dynamic_obstacles):
            assert np.array_equal(orig.recording, copy.recording)

    @pytest.mark.parametrize("trajectory", [
        [[0.0, 0.0, 5.0, 0.0], [1.0, 0.0, 5.0]],
        [[0.0, 0.0, 5.0, 0.0, 1.0]],
        [0.0, 0.0, 5.0, 0.0],
        [[0.0, "east", 5.0, 0.0]],
        [[0.0, 0.0, None, 0.0]],
        [[0.0, 0.0, 5.0, 0.0], [0.5, 0.0, -1.0, 0.0]],
        [],
    ], ids=["ragged", "five_columns", "flat", "non_numeric", "null", "negative_speed",
            "empty"])
    def test_malformed_trajectory_names_obstacle(self, trajectory):
        doc = scenario_to_dict(_bundled("merge"))
        obstacle = doc["dynamic_obstacles"][1]
        obstacle["trajectory"] = trajectory
        with pytest.raises(ScenarioError, match=rf"\bobstacle {obstacle['id']}: "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("row, entry", [
        ([float("nan"), 0.0, 5.0, 0.0], "row 1 column 0 is nan"),
        ([0.0, float("inf"), 5.0, 0.0], "row 1 column 1 is inf"),
        ([0.0, 0.0, 5.0, float("nan")], "row 1 column 3 is nan"),
    ], ids=["nan_x", "inf_y", "nan_theta"])
    def test_non_finite_recording_is_rejected(self, tmp_path, row, entry):
        """A NaN or infinite entry fails where the recording enters, from a
        file or built in code, naming the obstacle and the entry; it once
        loaded and failed later as an unnamed geometry error."""
        doc = scenario_to_dict(_bundled("merge"))
        obstacle = doc["dynamic_obstacles"][1]
        obstacle["trajectory"] = [[0.0, 0.0, 5.0, 0.0], row]
        message = rf"^obstacle {obstacle['id']}: malformed trajectory \({entry}, not a finite"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        with pytest.raises(ScenarioError, match=r"^obstacle x: malformed trajectory"):
            DynamicObstacle("x", 4.5, 2.0, [row])

    @pytest.mark.parametrize("path, value, message", [
        (("dynamic_obstacles", 0, "vehicle_params"), {"a_long_max": -1},
         r"obstacle green: malformed vehicle_params \(a_long_max=-1\.0 must be finite and > 0\)"),
        (("dynamic_obstacles", 0, "vehicle_params"), {"a_long": 8.0},
         r"obstacle green: malformed vehicle_params \(.*keyword argument 'a_long'\)"),
        (("dynamic_obstacles", 0, "vehicle_params"), {"a_long_max": math.nan, "kappa_max": math.nan},
         r"obstacle green: malformed vehicle_params \(a_long_max=nan must be finite"),
        (("planning_problems", 0, "vehicle_params"), {"v_max": math.inf},
         r"planning problem orange: malformed vehicle_params \(v_max=inf must be finite"),
        (("dynamic_obstacles", 0, "vehicle_params"), [8.0],
         r"obstacle green: malformed vehicle_params \('list' object"),
        (("dynamic_obstacles", 0, "shape", "length"), math.nan,
         r"obstacle green: shape nan x 2\.0 must be finite and > 0"),
        (("dt",), math.nan, r"dt=nan must be finite and > 0"),
        (("planning_problems", 0, "goal", "t_max"), math.nan,
         r"planning problem orange: goal t_max=nan must be finite and > 0"),
        (("static_obstacles",), [{"id": "cone", "shape": {"length": 1.0, "width": 1.0},
                                  "pose": {"x": math.nan, "y": 0.0, "theta": 0.0}}],
         r"obstacle cone: pose \(nan, 0\.0, 0\.0, 0\.0\) must be finite"),
        (("planning_problems", 0, "initial_state", 1), math.inf,
         r"planning problem orange: initial state \([^,]+, inf, [^,]+, [^,]+\) must be finite"),
        (("planning_problems", 0, "initial_state", 2), -1.0,
         r"planning problem orange: malformed initial state \[[^,]+, [^,]+, -1\.0, [^,]+\] "
         r"\(velocity must be >= 0\)"),
        (("planning_problems", 0, "goal", "v_interval"), [math.nan, 5.0],
         r"planning problem orange: goal v_interval=\[nan, 5\.0\] must be two numbers lo <= hi"),
        (("planning_problems", 0, "goal", "v_interval"), [5.0],
         r"planning problem orange: goal v_interval=\[5\.0\] must be two numbers lo <= hi"),
    ], ids=["negative_bound", "unknown_key", "nan_bounds", "infinite_agent_bound",
            "not_an_object", "nan_length", "nan_dt", "nan_deadline", "nan_static_pose",
            "infinite_initial_state", "negative_initial_speed", "nan_goal_interval",
            "one_number_goal_interval"])
    def test_bad_numbers_fail_at_load(self, tmp_path, capsys, path, value, message):
        """A vehicle_params bound <= 0 or not finite, an unknown
        vehicle_params key, a vehicle_params list, a NaN obstacle shape, a
        NaN dt, a NaN goal deadline, a NaN static-obstacle pose, an infinite
        initial state, a negative initial speed and a goal interval that is
        not two numbers lo <= hi (NaN, or one number) fail at load with a
        ScenarioError naming the vehicle and the key, and `drivesim run`
        exits 1 with it. Such a scenario once exited 2 as a runtime failure
        (bound <= 0, unknown key, list, static pose, negative speed, one
        number), loaded and ran (NaN shape, dt, deadline or interval) or was
        reported as starting outside the street network."""
        doc = scenario_to_dict(substitute_agents(_bundled("merge"), ["orange"]))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(doc)
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scenario": "bad.json", "simulation": {"max_steps": 5},
                                      "agents": {"green": {"planner": "frenet"}}}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
        assert re.search(message, capsys.readouterr().err)

    def test_planning_problems_must_start_on_the_network(self):
        """Loading names the first planning problem, in file order, whose
        start no lanelet holds; a start on a lanelet's corner is held; and
        a network without lanelets checks no start."""
        doc = scenario_to_dict(substitute_agents(_bundled("merge"), ["green", "orange"]))
        first, second = (p["agent_id"] for p in doc["planning_problems"])
        corner = doc["lanelets"][0]["left_bound"][0]
        for moved, named in (([1], second), ([0, 1], first)):
            bad = json.loads(json.dumps(doc))
            for k in moved:
                bad["planning_problems"][k]["initial_state"][:2] = [1e4, -1e4]
            with pytest.raises(ScenarioError, match=f"planning problem {named}: initial state "
                                                    "outside the street network"):
                scenario_from_dict(bad)
            bad["lanelets"] = []
            assert scenario_from_dict(bad).network.region.polygons == ()
        doc["planning_problems"][0]["initial_state"][:2] = corner
        assert scenario_from_dict(doc).planning_problems[0].initial_state.x == corner[0]

    def test_dict_round_trip(self):
        scenario = _bundled("merge")
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert sorted(again.network.lanelets) == sorted(scenario.network.lanelets)

    def test_obstacle_state_at_holds_final_pose(self):
        obs = DynamicObstacle("x", 4.0, 2.0, [[0, 0, 5, 0], [0.5, 0, 5, 7.0]])
        held = obs.state_at(10)
        assert (held.x, held.v) == (0.5, 0.0)
        assert obs.recording[1, 3] == normalize_angle(7.0) == held.theta
        assert not obs.recording.flags.writeable
        held_track = [[s.x, s.y, s.v, s.theta] for s in map(obs.state_at, range(4))]
        assert obs.track(range(4)).tolist() == held_track
