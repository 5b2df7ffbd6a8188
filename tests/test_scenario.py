"""Scenario model: maps, obstacles, goals, substitution, (de)serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from drivesim.cli import resolve_scenario_path
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
        assert net.containing_lanelets((5.0, 0.5)) == ["a"]
        lid, dist = net.nearest_lanelet((5.0, 7.0))
        assert lid == "b"
        assert dist == pytest.approx(3.0)

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
