"""Scenario model: maps, obstacles, goals, substitution, (de)serialization."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from drivesim.cli import main, resolve_scenario_path
from drivesim.dynamics import AgentState, normalize_angle
from drivesim.geometry import Polygon, Polyline
from drivesim.scenario import (Adjacency, DynamicObstacle, GoalCheck,
                               GoalRegion, Lanelet, Scenario, ScenarioError,
                               StreetNetwork, goal_satisfied, load_scenario,
                               save_scenario, scenario_from_dict,
                               scenario_to_dict, substitute_agents)


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
