"""Replay, IDM, and frenet-sampling planners."""

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from drivesim import dynamics, engine, planners
from drivesim.cli import build_run, load_run_config
from drivesim.dynamics import (AgentState, ControlInput, Trajectory, VehicleParams,
                               feasible, normalize_angle, step)
from drivesim.geometry import CurvilinearFrame, Polyline, boxes_intersect, occupancy
from drivesim.planners import (REJECTIONS, FrenetPlanner, FrenetPlannerConfig,
                               IdmParams, IdmPlanner, PlannerError, PlanResult,
                               ReplayPlanner, _corridor_box, route_to_goal)
from drivesim.prediction import PredictorConfig
from drivesim.scenario import (GoalRegion, Lanelet, StreetNetwork, load_scenario,
                               substitute_agents)
from drivesim.geometry import Polygon

from conftest import candidate_trajectory, local_view
from test_geometry import reference_boxes_intersect

DT = 0.1
PARAMS = VehicleParams()


def straight_route(length=300.0):
    n = int(length / 5) + 1
    return CurvilinearFrame(Polyline(
        np.column_stack([np.linspace(0.0, length, n), np.zeros(n)])))


def empty_view(ego, step_idx=0):
    return local_view(ego, step_idx)


def view_with_neighbor(ego, nb_state, n_pred=31):
    k = np.arange(n_pred)
    poses = np.column_stack([nb_state.x + nb_state.v * k * DT, np.full(n_pred, nb_state.y),
                             np.full(n_pred, nb_state.theta)])
    return local_view(ego, 0, [(poses, nb_state.v, PARAMS.length, PARAMS.width)])


class TestReplay:
    def test_reproduces_recording(self):
        states = [AgentState(0, 0, 10, 0)]
        for _ in range(20):
            states.append(step(states[-1], ControlInput(0.5, 0.01), DT))
        planner = ReplayPlanner(np.array([(s.x, s.y, s.v, s.theta) for s in states]), DT)
        current = states[0]
        for k in range(20):
            res = planner.plan(empty_view(current, k), {})
            assert res.status == "ok"
            assert res.next_state == states[k + 1]
            current = res.next_state

    def test_holds_pose_after_recording(self):
        planner = ReplayPlanner(np.zeros((2, 4)), DT)
        res = planner.plan(empty_view(AgentState(0, 0, 0, 0), 5), {})
        assert res.next_state.v == 0.0
        assert res.next_state.x == pytest.approx(0.0)


class TestIdm:
    def test_free_road_approaches_profile_speed(self):
        route = straight_route(600.0)
        planner = IdmPlanner(route, [15.0] * 400, IdmParams(), PARAMS, DT)
        state = AgentState(0, 0, 5, 0)
        for k in range(300):
            res = planner.plan(empty_view(state, k), {})
            state = res.next_state
        assert state.v == pytest.approx(15.0, abs=0.5)

    def test_stops_behind_stopped_lead(self):
        route = straight_route()
        planner = IdmPlanner(route, [15.0] * 400, IdmParams(), PARAMS, DT)
        lead = AgentState(80.0, 0.0, 0.0, 0.0)
        state = AgentState(0, 0, 12, 0)
        for k in range(300):
            view = view_with_neighbor(state, lead)
            state = planner.plan(view, {}).next_state
        gap = lead.x - state.x - PARAMS.length
        assert state.v < 0.1
        assert gap > 0.5  # stopped short of contact

    def test_ignores_lateral_traffic(self):
        route = straight_route()
        planner = IdmPlanner(route, [10.0] * 400, IdmParams(), PARAMS, DT)
        aside = AgentState(30.0, 8.0, 10.0, 0.0)  # outside the corridor
        res = planner.plan(view_with_neighbor(AgentState(0, 0, 10, 0), aside), {})
        assert res.next_input.accel > -0.5

    def test_off_path_raises(self):
        route = straight_route()
        planner = IdmPlanner(route, [10.0], IdmParams(), PARAMS, DT)
        with pytest.raises(PlannerError):
            planner.plan(empty_view(AgentState(10, 30, 10, 0)), {})

    @pytest.mark.parametrize("key, value", [
        ("accel", 0.0), ("decel", -1.0), ("exponent", 0.0), ("corridor_halfwidth", 0.0),
        ("headway", -0.1), ("min_gap", -0.1), ("accel", math.nan)])
    def test_params_validation(self, key, value):
        """A zero accel once divided by zero in plan and left the agent
        infeasible; zero headway and standstill gap stay allowed."""
        with pytest.raises(ValueError, match=f"{key}={value}"):
            IdmParams(**{key: value})
        IdmParams(headway=0.0, min_gap=0.0)


class TestFrenet:
    def test_tracks_centerline_and_speed(self):
        route = straight_route()
        planner = FrenetPlanner(route, FrenetPlannerConfig(), PARAMS, v_ref=12.0, dt=DT)
        state = AgentState(0.0, 1.0, 6.0, 0.0)
        memory = {}
        for k in range(150):
            res = planner.plan(empty_view(state, k), memory)
            assert res.status == "ok"
            state = res.next_state
        assert abs(state.y) < 0.2
        assert state.v == pytest.approx(12.0, abs=1.0)

    def test_swerves_or_brakes_for_blocker(self):
        route = straight_route()
        planner = FrenetPlanner(route, FrenetPlannerConfig(), PARAMS, v_ref=10.0, dt=DT)
        blocker = AgentState(40.0, 0.0, 0.0, 0.0)
        state = AgentState(0.0, 0.0, 10.0, 0.0)
        memory = {}
        collided = False
        for k in range(120):
            res = planner.plan(view_with_neighbor(state, blocker), memory)
            state = res.next_state
            if abs(state.y) < 2.0 and abs(state.x - blocker.x) < PARAMS.length:
                collided = True
        assert not collided

    def test_fallback_when_boxed_in(self):
        # blocker directly ahead at standstill, too close to pass or outrun
        route = straight_route(60.0)
        cfg = FrenetPlannerConfig(d_end_samples=(0.0,), v_frac_samples=(1.0,))
        planner = FrenetPlanner(route, cfg, PARAMS, v_ref=10.0, dt=DT)
        blocker = AgentState(12.0, 0.0, 0.0, 0.0)
        res = planner.plan(view_with_neighbor(AgentState(0, 0, 10, 0), blocker), {})
        assert res.status == "infeasible"
        assert res.next_input.accel < 0  # braking fallback

    def test_off_route_raises(self):
        route = straight_route()
        planner = FrenetPlanner(route, FrenetPlannerConfig(), PARAMS, v_ref=10.0, dt=DT)
        with pytest.raises(PlannerError):
            planner.plan(empty_view(AgentState(50.0, 40.0, 10.0, 0.0)), {})


class TestRouting:
    def test_route_through_successors(self):
        xs1 = np.linspace(0, 50, 6)
        xs2 = np.linspace(50, 100, 6)
        a = Lanelet("a", Polyline(np.column_stack([xs1, np.full(6, 2.0)])),
                    Polyline(np.column_stack([xs1, np.full(6, -2.0)])),
                    successors=["b"])
        b = Lanelet("b", Polyline(np.column_stack([xs2, np.full(6, 2.0)])),
                    Polyline(np.column_stack([xs2, np.full(6, -2.0)])))
        net = StreetNetwork([a, b])
        goal = GoalRegion(area=Polygon([[90, -1], [95, -1], [95, 1], [90, 1]]),
                          t_max=60.0)
        route = route_to_goal(net, AgentState(5.0, 0.0, 10.0, 0.0), goal)
        assert route.length >= 90.0
        s, d, in_dom = route.project((92.0, 0.0))
        assert in_dom and abs(d) < 1e-6

    def test_goal_lanelets_equal_the_unculled_tests(self, monkeypatch):
        """On every bundled scenario, with every recorded vehicle made a
        planning problem (as a run configuration substitutes it), the
        lanelets that route_to_goal takes as overlapping the goal
        (_overlaps_goal, which skips a containment test whose points' bounds
        do not reach its polygon) are those that both containment tests over
        all points give, and some tests are skipped."""
        data = Path(planners.__file__).resolve().parent / "data"
        scenarios = []
        for path in sorted(data.glob("*.json")):
            if "scenario" not in json.loads(path.read_text()):
                scenario = load_scenario(path)
                scenarios.append(substitute_agents(
                    scenario, [obs.id for obs in scenario.dynamic_obstacles]))
        tests = []
        contains_points = Polygon.contains_points

        def counted(poly, points, boundary_tol=1e-9):
            tests.append(len(points))
            return contains_points(poly, points, boundary_tol)

        monkeypatch.setattr(Polygon, "contains_points", counted)
        problems, skipped = 0, 0
        for scenario in scenarios:
            lanes = scenario.network.lanelets
            for problem in scenario.planning_problems:
                area = problem.goal.area
                unculled = {lid for lid, lane in lanes.items()
                            if np.any(area.contains_points(lane.centerline.points))
                            or np.any(lane.polygon.contains_points(area.vertices))}
                tests.clear()
                culled = {lid for lid, lane in lanes.items()
                          if planners._overlaps_goal(lane, problem.goal)}
                assert culled == unculled and culled, (problem.agent_id, sorted(culled))
                assert len(tests) <= 2 * len(lanes)
                problems += 1
                skipped += 2 * len(lanes) - len(tests)
        assert len(scenarios) >= 3 and problems > 20 and skipped > problems

    @pytest.mark.parametrize("offset", [0.0, 5e-10, 3e-9, 1e-6, 1.0])
    def test_goal_at_a_lanelet_edge(self, offset):
        """A goal area offset from a lanelet's edges overlaps it exactly as
        both containment tests over all points say; within the boundary
        tolerance of 1e-9 it still overlaps, past the end (the centre
        line's last point) and beside it (a goal vertex)."""
        xs = np.linspace(0.0, 50.0, 6)
        lane = Lanelet("a", Polyline(np.column_stack([xs, np.full(6, 2.0)])),
                       Polyline(np.column_stack([xs, np.full(6, -2.0)])))
        past_end = Polygon([[50.0 + offset, -1.0], [60.0, -1.0], [60.0, 1.0],
                            [50.0 + offset, 1.0]])
        beside = Polygon([[10.0, 2.0 + offset], [20.0, 2.0 + offset], [20.0, 3.0],
                          [10.0, 3.0]])
        for area in (past_end, beside):
            unculled = bool(np.any(area.contains_points(lane.centerline.points))
                            or np.any(lane.polygon.contains_points(area.vertices)))
            overlaps = planners._overlaps_goal(lane, GoalRegion(area=area, t_max=10.0))
            assert overlaps == unculled
            assert overlaps == (offset <= 1e-9)


# ---------------------------------------------------------------------------
# Reference: the per-candidate Frenet planner that the array program
# replaced, kept here as an oracle. It derives each candidate's inputs from
# scalar curvature and heading lookups, rolls it out one AgentState at a time
# with the scalar kinematic model, checks the bounds step by step and sums
# the risk term in a Python loop.


def _reference_step(state, u, dt):
    v_new = max(0.0, state.v + u.accel * dt)
    ds = 0.5 * (state.v + v_new) * dt
    kappa = u.curvature_cmd
    theta = state.theta
    if abs(kappa) < 1e-12 or ds < 1e-15:
        x = state.x + ds * math.cos(theta)
        y = state.y + ds * math.sin(theta)
    else:
        theta_end = theta + kappa * ds
        x = state.x + (math.sin(theta_end) - math.sin(theta)) / kappa
        y = state.y + (math.cos(theta) - math.cos(theta_end)) / kappa
    theta_new = normalize_angle(theta + state.v * kappa * dt)
    return AgentState(x, y, v_new, theta_new)


def _reference_feasible(states, inputs, params):
    """The first (step, bound, value) that breaks a bound, or None."""
    eps = 1e-9
    for i, (s, u) in enumerate(zip(states[:-1], inputs)):
        if abs(u.accel) > params.a_long_max + eps:
            return i, "a_long_max", u.accel
        if s.v > params.v_max + eps:
            return i, "v_max", s.v
        if abs(u.curvature_cmd) > params.kappa_max + eps:
            return i, "kappa_max", u.curvature_cmd
        a_lat = s.v * abs(s.v * u.curvature_cmd)
        if a_lat > params.a_lat_max + eps:
            return i, "a_lat_max", a_lat
    if states[-1].v > params.v_max + eps:
        return len(states) - 1, "v_max", states[-1].v
    return None


def _reference_poly(coeffs, tau):
    return np.vander(tau, len(coeffs), increasing=True) @ coeffs


def _reference_derivative(coeffs):
    return coeffs[1:] * np.arange(1, len(coeffs))


class ReferenceFrenetPlanner:
    def __init__(self, planner: FrenetPlanner):
        self.planner = planner
        self.route, self.cfg, self.params = planner.route, planner.cfg, planner.params
        self.v_ref, self.dt = planner.v_ref, planner.dt

    def _candidate_inputs(self, ego, s0, d0, ds0, dd0, dd0_acc, a0, T, d_end, v_target):
        K = int(round(T / self.dt))
        tau = np.arange(K + 1) * self.dt
        h = d_end - d0  # the closed-form quintic to d_end at rest at T
        lat = np.array([d0, dd0, dd0_acc / 2.0,
                        (20 * h - 12 * dd0 * T - 3 * dd0_acc * T**2) / (2 * T**3),
                        (-30 * h + 16 * dd0 * T + 3 * dd0_acc * T**2) / (2 * T**4),
                        (12 * h - 6 * dd0 * T - dd0_acc * T**2) / (2 * T**5)])
        d_vals = _reference_poly(lat, tau)
        dd_vals = _reference_poly(_reference_derivative(lat), tau)
        lat_acc_next = float(_reference_poly(
            _reference_derivative(_reference_derivative(lat)), tau[1:2])[0])
        A = v_target - ds0 - a0 * T
        B = -a0
        det = 3 * T**2 * 12 * T**2 - 4 * T**3 * 6 * T
        c3 = (A * 12 * T**2 - 4 * T**3 * B) / det
        c4 = (3 * T**2 * B - A * 6 * T) / det
        lon = np.array([s0, ds0, a0 / 2.0, c3, c4])
        s_vals = np.maximum.accumulate(_reference_poly(lon, tau))
        ds_vals = np.maximum(_reference_poly(_reference_derivative(lon), tau), 0.0)
        if s_vals[-1] > self.route.length:
            return None
        kappas = np.array([self.route.curvature_at(float(s)) for s in s_vals])
        if np.any(np.abs(d_vals * kappas) >= 0.98):
            return None
        theta_ref = np.array([self.route.tangent_angle_smooth(float(s)) for s in s_vals])
        along = ds_vals * (1.0 - d_vals * kappas)
        v_vals = np.hypot(along, dd_vals)
        headings = theta_ref + np.arctan2(dd_vals, np.maximum(along, 1e-9))
        headings[0] = ego.theta
        accels = np.diff(v_vals) / self.dt
        dtheta = np.array([normalize_angle(headings[k + 1] - headings[k]) for k in range(K)])
        curv = np.where(v_vals[:-1] > 0.05,
                        dtheta / (np.maximum(v_vals[:-1], 0.05) * self.dt), 0.0)
        curv = np.clip(curv, -self.params.kappa_max, self.params.kappa_max)
        return [ControlInput(float(a), float(k)) for a, k in zip(accels, curv)], lat_acc_next

    def _colliding(self, trajs, view):
        lengths = [len(states) - 1 for states in trajs]
        steps = np.concatenate([np.arange(n) for n in lengths])
        predicted = []
        for j in view.seen.tolist():
            nb_states = _predicted_states(view, j)
            kp = np.minimum(np.arange(1, max(lengths) + 1), len(nb_states) - 1)
            margin = _pos_stddev(len(nb_states))[kp]
            predicted.append(occupancy([nb_states[k] for k in kp], view.length[j] + 2.0 * margin,
                                       _width(view, j) + 2.0 * margin))
        predicted = np.stack(predicted, axis=1) if predicted else np.empty((max(lengths), 0, 5))
        ego = occupancy([st for states in trajs for st in states[1:]],
                        self.params.length, self.params.width)
        hits = boxes_intersect(ego[:, None, :], predicted[steps]).any(axis=1)
        return np.logical_or.reduceat(hits, np.cumsum(lengths) - lengths)

    def _risk(self, states, view):
        r2 = self.cfg.risk_radius**2
        total = 0.0
        for j in view.seen.tolist():
            predicted = _predicted_states(view, j)
            last = len(predicted) - 1
            for k in range(1, len(states)):
                ps = predicted[min(k, last)]
                dx, dy = states[k].x - ps.x, states[k].y - ps.y
                total += float(np.exp(-(dx * dx + dy * dy) / r2))
        return total

    def plan(self, view, memory):
        ego = view.ego
        s0, d0, in_dom = self.route.project((ego.x, ego.y))
        if not in_dom or abs(d0) > 10.0:
            raise PlannerError("ego not projectable onto route")
        dtheta = normalize_angle(ego.theta - self.route.tangent_angle_at(s0))
        ds0, dd0 = ego.v * math.cos(dtheta), ego.v * math.sin(dtheta)
        a0 = float(memory.get("accel", 0.0))
        dd0_acc = float(memory.get("d_accel", 0.0))
        feasible_rows = []
        for T in self.cfg.t_end_samples:
            for d_end in self.cfg.d_end_samples:
                for frac in self.cfg.v_frac_samples:
                    v_target = max(0.0, frac * self.v_ref)
                    candidate = self._candidate_inputs(ego, s0, d0, ds0, dd0, dd0_acc, a0,
                                                       T, d_end, v_target)
                    if candidate is None:
                        continue
                    inputs, lat_acc_next = candidate
                    states = [ego]
                    for u in inputs:
                        states.append(_reference_step(states[-1], u, self.dt))
                    if _reference_feasible(states, inputs, self.params) is None:
                        feasible_rows.append((states, inputs, d_end, v_target, lat_acc_next))
        colliding = (self._colliding([row[0] for row in feasible_rows], view)
                     if feasible_rows else ())
        best = None
        self.costs = []  # of the surviving candidates, in sampling order
        self.chosen = None  # the chosen candidate's Trajectory
        for (states, inputs, d_end, v_target, lat_acc_next), collides in zip(feasible_rows,
                                                                            colliding):
            if collides:
                continue
            accels = np.array([u.accel for u in inputs])
            lat_acc = np.array([st.v * st.v * u.curvature_cmd
                                for st, u in zip(states[:-1], inputs)])
            jerk = 0.0
            if len(accels) > 1:
                jerk = float(np.sum(np.diff(accels) ** 2 + np.diff(lat_acc) ** 2) / self.dt)
            dv = v_target - self.v_ref
            cost = (self.cfg.w_jerk * jerk + self.cfg.w_lat * (d_end * d_end)
                    + self.cfg.w_speed * (dv * dv) + self.cfg.w_risk * self._risk(states, view))
            self.costs.append(cost)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, Trajectory(states, inputs, self.dt), lat_acc_next)
        if best is None:
            return self.planner._fallback(view, s0, d0, memory)
        traj = self.chosen = best[1]
        memory["accel"] = traj.inputs[0].accel
        memory["d_accel"] = best[2]
        return PlanResult(traj.states[1], traj.inputs[0], "ok")


def _predicted_states(view, j):
    """Row j's prediction as one AgentState per pose, so the references build
    their boxes and points from the states and not from the view's boxes."""
    v = float(view.v[j])
    return [AgentState(x, y, v, theta) for x, y, theta in view.poses[j].tolist()]


def _pos_stddev(n):
    """The positional stddev at steps 0..n-1 of the default predictor."""
    return PredictorConfig().growth_rate * np.arange(n) * DT


def _width(view, j):
    """Row j's width: its box at step 0, where the stddev is 0, is not grown."""
    return float(view.boxes[j, 0, 4])


def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def _state_bits(states):
    return [_bits(st.x, st.y, st.v, st.theta) for st in states]


def _input_bits(inputs):
    return [_bits(u.accel, u.curvature_cmd) for u in inputs]


HIGHWAY_FRENET12 = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "configs" / "highway_frenet12.json")


def _record_frenet_views(config, max_steps=None):
    """(planner, view, memory before planning) of every Frenet plan of a run."""
    scenario, bindings, sim_cfg, predictor, _, _ = build_run(load_run_config(config))
    if max_steps is not None:
        sim_cfg = dataclasses.replace(sim_cfg, max_steps=max_steps)
    recorded = []
    plan = FrenetPlanner.plan

    def recording_plan(self, view, memory):
        recorded.append((self, view, dict(memory)))
        return plan(self, view, memory)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FrenetPlanner, "plan", recording_plan)
        engine.run(scenario, bindings, dataclasses.replace(sim_cfg, worker_count=1), predictor)
    return recorded


@pytest.fixture(scope="module")
def frenet_views():
    """Every third view of the bundled intersection and merge Frenet runs,
    and every view of the first two steps of the twelve-agent highway
    configuration (up to 23 neighbours each)."""
    return (_record_frenet_views("intersection_frenet")[::3]
            + _record_frenet_views("merge_frenet")[::3]
            + _record_frenet_views(str(HIGHWAY_FRENET12), max_steps=2))


def _assert_plan_matches_reference(planner, view, memory):
    """planner.plan on the view equals the reference planner bitwise: the
    costs of the surviving candidates, the step it applies, the states and
    inputs of the chosen candidate over its K + 1 steps (read from the
    table's best) and the memory it leaves. Returns the plan."""
    new_memory, ref_memory = dict(memory), dict(memory)
    result = planner.plan(view, new_memory)
    reference = ReferenceFrenetPlanner(planner)
    ref = reference.plan(view, ref_memory)
    where = (view.ego_id, view.step, planner.cfg.t_end_samples)
    table = planner.candidates(view, dict(memory))[2]
    assert _bits(*table.cost[table.ok].tolist()) == _bits(*reference.costs), where
    assert result.status == ref.status, where
    assert _state_bits([result.next_state]) == _state_bits([ref.next_state]), where
    assert _input_bits([result.next_input]) == _input_bits([ref.next_input]), where
    assert (table.best is None) == (reference.chosen is None), where
    if table.best is not None:
        traj = candidate_trajectory(table, *table.best, view.ego, planner.dt)
        assert _state_bits(traj.states) == _state_bits(reference.chosen.states), where
        assert _input_bits(traj.inputs) == _input_bits(reference.chosen.inputs), where
    assert sorted(new_memory) == sorted(ref_memory), where
    assert [_bits(new_memory[k]) for k in sorted(new_memory)] == \
        [_bits(ref_memory[k]) for k in sorted(ref_memory)], where
    return result


def test_plan_matches_reference_bitwise(frenet_views):
    fallbacks = 0
    for planner, view, memory in frenet_views:
        fallbacks += _assert_plan_matches_reference(planner, view, memory).status != "ok"
    assert len(frenet_views) > 180 and fallbacks < len(frenet_views)


def _planner_arrays(planner):
    """(where, array) of every array a planner holds, also inside the
    dicts and tuples it holds."""
    found = []

    def walk(where, value):
        if isinstance(value, np.ndarray):
            found.append((where, value))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(f"{where}[{key!r}]", item)
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                walk(f"{where}[{i}]", item)

    for name, value in vars(planner).items():
        walk(name, value)
    return found


def _outcome_bits(planner, view, memory):
    """A plan of the view from memory, as bytes: its result, the memory it
    leaves and every field of its candidate table."""
    after = dict(memory)
    result = planner.plan(view, after)
    table = planner.candidates(view, dict(memory))[2]
    fields = []
    for field in dataclasses.fields(table):
        value = getattr(table, field.name)
        items = value.items() if isinstance(value, dict) else [(field.name, value)]
        for name, a in items:
            fields.append((name, a.dtype.str, a.shape, a.tobytes())
                          if isinstance(a, np.ndarray) else (name, a))
    return (result.status, _state_bits([result.next_state]), _input_bits([result.next_input]),
            [(k, _bits(after[k])) for k in sorted(after)], fields)


def test_planning_leaves_the_planner_unchanged(frenet_views):
    """Every array a Frenet planner builds when it is built is read-only,
    and planning the recorded views forwards, then backwards, gives bitwise
    the same results, memories and candidate tables, and leaves those
    arrays as they were: no plan leaves state behind that a later plan
    reads."""
    built = list({id(p): p for p, _, _ in frenet_views}.values())
    before = []
    for planner in built:
        arrays = _planner_arrays(planner)
        assert len(arrays) >= 15
        for where, a in arrays:
            assert not a.flags.writeable, where
        before.append([(where, a.tobytes()) for where, a in arrays])
    order = range(len(frenet_views))
    forwards = [_outcome_bits(*frenet_views[i]) for i in order]
    backwards = [_outcome_bits(*frenet_views[i]) for i in reversed(order)]
    assert len(built) > 12 and forwards == backwards[::-1]
    assert before == [[(where, a.tobytes()) for where, a in _planner_arrays(p)] for p in built]


def test_unequal_horizons_share_one_rollout_and_at_most_two_collision_calls(frenet_views,
                                                                             monkeypatch):
    """Three horizons of 15, 20 and 30 steps: the plan still equals the
    reference bitwise, although every horizon's inputs are padded to 30 steps
    and built into one table, and one plan makes one call each to
    rollout_arrays (over all three horizons), bound_violations and _cost,
    and at most two to boxes_intersect (each candidate's deepest pair, then
    the other pairs of the candidates still clear); a braking fallback adds
    its one-step rollout."""
    rollouts, calls = [], []
    rollout_arrays = dynamics.rollout_arrays

    def counted_rollout(x, y, v, theta, accel, kappa, dt):
        rollouts.append(accel.shape)
        return rollout_arrays(x, y, v, theta, accel, kappa, dt)

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(dynamics, "rollout_arrays", counted_rollout)
    monkeypatch.setattr(dynamics, "bound_violations",
                        counted("bound_violations", dynamics.bound_violations))
    monkeypatch.setattr(planners, "boxes_intersect",
                        counted("boxes_intersect", planners.boxes_intersect))
    monkeypatch.setattr(FrenetPlanner, "_cost", counted("_cost", FrenetPlanner._cost))
    t_end = (1.5, 2.0, 3.0)
    statuses = []
    for planner, view, memory in frenet_views[::4]:
        cfg = dataclasses.replace(planner.cfg, t_end_samples=t_end)
        three = FrenetPlanner(planner.route, cfg, planner.params, planner.v_ref, planner.dt)
        assert three.steps == (15, 20, 30)
        rows = len(cfg.d_end_samples) * len(cfg.v_frac_samples)
        rollouts.clear()
        calls.clear()
        status = three.plan(view, dict(memory)).status
        assert rollouts == [(3, rows, 30)] + [(1,)] * (status != "ok")
        intersects = calls.count("boxes_intersect")
        assert sorted(calls) == ["_cost", "bound_violations"] + ["boxes_intersect"] * intersects
        assert intersects <= 2
        statuses.append(status)
        _assert_plan_matches_reference(three, view, memory)
    assert len(statuses) > 45 and "ok" in statuses


def test_inexact_horizons_match_reference_bitwise(frenet_views):
    """Horizons of 1.2 s and 3.3 s, whose powers numpy's array power rounds
    differently from Python's pow (1.2 ** 4, 3.3 ** 3): the plan still
    equals the scalar reference bitwise, because the planner takes each
    horizon's powers from Python's pow."""
    t_end = (1.2, 3.3)
    assert any(float(np.power(np.array([T]), k)[0]) != T**k for T in t_end for k in range(6))
    for planner, view, memory in frenet_views[::6]:
        cfg = dataclasses.replace(planner.cfg, t_end_samples=t_end)
        _assert_plan_matches_reference(
            FrenetPlanner(planner.route, cfg, planner.params, planner.v_ref, planner.dt),
            view, memory)


def _parent_quintics(x0, dx0, ddx0, x1, T):
    """The lateral quintics as the planner solved them before the closed
    form: one 3x3 np.linalg.solve per end value x1 and horizon, T[1] (H, 1)
    holding the horizons."""
    def quintic(x1, T, dx1=0.0, ddx1=0.0):
        a0, a1, a2 = x0, dx0, ddx0 / 2.0
        A = np.array([[T**3, T**4, T**5], [3 * T**2, 4 * T**3, 5 * T**4],
                      [6 * T, 12 * T**2, 20 * T**3]])
        b = np.array([x1 - a0 - a1 * T - a2 * T**2, dx1 - a1 - 2 * a2 * T, ddx1 - 2 * a2])
        return [a0, a1, a2, *np.linalg.solve(A, b)]
    return np.array([[quintic(x, T) for x in x1.tolist()] for T in T[1][:, 0].tolist()])


def _parent_cost(self, accel, kappa, v, x, y, d_end, v_target, steps, predicted):
    """FrenetPlanner._cost as it was before the array program, applied to
    the rows of each horizon cut to that horizon's K steps."""
    cost = np.empty(len(x))
    for K in np.unique(steps).tolist():
        rows = steps == K
        cost[rows] = _parent_horizon_cost(self, accel[rows, :K], kappa[rows, :K],
                                          v[rows, :K + 1], x[rows, :K + 1], y[rows, :K + 1],
                                          d_end[rows], v_target[rows], predicted[:K])
    return cost


def _parent_horizon_cost(self, accel, kappa, v, x, y, d_end, v_target, predicted):
    """The cost of one horizon's rows as the planner had it before the array
    program: a math.exp per risk term and squares through libm pow
    (np.float_power)."""
    def pow2(a):
        return np.float_power(a, 2.0)

    cfg, dt = self.cfg, self.dt
    lat_acc = pow2(v[:, :-1]) * kappa
    jerk = np.sum(np.diff(accel, axis=-1) ** 2 + np.diff(lat_acc, axis=-1) ** 2, axis=-1) / dt
    dist2 = (pow2(x[:, None, 1:] - predicted[:, :, 0].T)
             + pow2(y[:, None, 1:] - predicted[:, :, 1].T))
    exponent = -dist2 / cfg.risk_radius**2
    terms = np.array([math.exp(e) for e in exponent.ravel().tolist()]).reshape(len(x), -1)
    risk = np.cumsum(terms, axis=-1)[:, -1] if terms.size else np.zeros(len(x))
    return (cfg.w_jerk * jerk + cfg.w_lat * pow2(d_end)
            + cfg.w_speed * pow2(v_target - self.v_ref) + cfg.w_risk * risk)


def test_costs_stay_close_to_the_parent_numerics(frenet_views, monkeypatch):
    """Against the scalar-pinned numerics the planner had before (math.exp,
    libm pow squares, a linear solve per quintic), every view rejects the
    same rows, every surviving cost is within a relative 1e-9 and the same
    row is chosen. The numerics do differ: some cost moves."""
    now = [planner.candidates(view, dict(memory))[2] for planner, view, memory in frenet_views]
    monkeypatch.setattr(planners, "_quintics", _parent_quintics)
    monkeypatch.setattr(FrenetPlanner, "_cost", _parent_cost)
    worst, chosen = 0.0, 0
    for (planner, view, memory), table in zip(frenet_views, now):
        where = (view.ego_id, view.step)
        parent = planner.candidates(view, dict(memory))[2]
        for reason in REJECTIONS:
            assert np.array_equal(table.rejected[reason], parent.rejected[reason]), where
        ok = parent.ok
        drift = np.abs(table.cost[ok] - parent.cost[ok])
        assert np.all(drift <= 1e-9 * np.abs(parent.cost[ok])), where
        worst = max(worst, float(np.max(drift / np.abs(parent.cost[ok]), initial=0.0)))
        assert table.best == parent.best, where
        chosen += parent.best is not None
    assert 0.0 < worst and chosen > 180


def _all_pairs_collision(planner, view, table, h):
    """The collision mask of horizon h's candidates with every alive row
    tested at each of the horizon's K steps against every neighbour by the
    unculled reference kernel."""
    alive = ~np.any([mask[h] for reason, mask in table.rejected.items()
                     if reason != "collision"], axis=0)
    K = int(table.steps[h])
    boxes = [view.boxes[j] for j in view.seen.tolist()]
    if not boxes:
        return np.zeros(len(alive), dtype=bool)
    predicted = np.stack([b[np.minimum(np.arange(1, K + 1), len(b) - 1)] for b in boxes], axis=1)
    ego = occupancy(np.stack([a[h, :, 1:K + 1] for a in (table.x, table.y, table.theta)], axis=-1),
                    planner.params.length, planner.params.width)
    hits = reference_boxes_intersect(ego[:, :, None, :], predicted[None])
    return alive & hits.any(axis=(1, 2))


@pytest.fixture(scope="module")
def highway_views():
    """Every third view of steps 2 to 11 of the twelve-agent highway
    configuration."""
    return _record_frenet_views(str(HIGHWAY_FRENET12), max_steps=12)[24::3]


def test_culled_collision_mask_equals_all_pairs(frenet_views, highway_views, monkeypatch):
    """The broad phase, the gate and the deepest-first calls reject exactly
    the rows that testing every alive (row, step) pair against every
    neighbour rejects, while the at most two collision calls of a highway
    plan get under a tenth of those pairs between them."""
    tested = []
    intersect = planners.boxes_intersect

    def counted_intersect(a, b):
        tested.append(len(a))
        return intersect(a, b)

    monkeypatch.setattr(planners, "boxes_intersect", counted_intersect)
    collisions, culled, all_pairs = 0, 0, 0
    for planner, view, memory in frenet_views + highway_views:
        tested.clear()
        _, _, table = planner.candidates(view, dict(memory))
        for h in range(len(table.steps)):
            expected = _all_pairs_collision(planner, view, table, h)
            assert np.array_equal(table.rejected["collision"][h], expected), (view.ego_id, view.step)
            collisions += int(expected.sum())
        assert len(tested) <= 2
        if len(view.seen) > 10:
            alive = (table.ok | table.rejected["collision"]).sum(axis=1)
            all_pairs += len(view.seen) * int(alive @ table.steps)
            culled += sum(tested)
    assert len(highway_views) >= 40 and collisions > 100
    assert 0 < culled < all_pairs / 10


def test_collision_filter_equals_all_pairs_on_random_grids():
    """The collision filter on random ego states and neighbour boxes, with
    NaN and infinite headings and NaN centres among them, marks exactly the
    candidates of which some marked step's box meets some neighbour's box at
    that step under the unculled reference, which calls a box with a
    heading that is not finite touching whatever lies within its
    circumradius. Candidate r is marked at step r at most, with the two
    neighbours of that step around it, so each pair decides its candidate."""
    rng = np.random.default_rng(29)
    planner = FrenetPlanner(straight_route(), FrenetPlannerConfig(), PARAMS, v_ref=10.0, dt=DT)
    n, seen = 30, 2
    diagonal = np.arange(n)
    marked = 0
    for trial in range(80):
        x, y = rng.uniform(0.0, 60.0, (1, n, n + 1)), rng.uniform(-8.0, 8.0, (1, n, n + 1))
        theta = rng.uniform(-math.pi, math.pi, (1, n, n + 1))
        bad = rng.random(theta.shape) < 0.3 * (trial % 2)
        theta[bad] = rng.choice([math.nan, math.inf, -math.inf], int(bad.sum()))
        x.flat[rng.integers(0, x.size, 5)] = math.nan
        pairs = np.zeros((1, n, n), dtype=bool)
        pairs[0, diagonal, diagonal] = rng.random(n) < 0.9
        predicted = np.empty((n, seen, 5))
        predicted[..., 0] = x[0, diagonal, diagonal + 1, None] + rng.uniform(-7.0, 7.0, (n, seen))
        predicted[..., 1] = y[0, diagonal, diagonal + 1, None] + rng.uniform(-5.0, 5.0, (n, seen))
        predicted[..., 2] = rng.choice([0.0, math.pi / 2, 1.0, math.nan], (n, seen),
                                       p=[0.3, 0.3, 0.3, 0.1])
        predicted[..., 3] = rng.uniform(3.0, 8.0, (n, seen))
        predicted[..., 4] = rng.uniform(1.5, 3.0, (n, seen))
        ego = np.empty((1, n, n, 5))
        ego[..., 0], ego[..., 1], ego[..., 2] = x[..., 1:], y[..., 1:], theta[..., 1:]
        ego[..., 3], ego[..., 4] = PARAMS.length, PARAMS.width
        with np.errstate(invalid="ignore"):
            hits = reference_boxes_intersect(ego[..., None, :], predicted[None, None])
            collision = planner._collisions(x, y, theta, pairs, predicted)
        expected = (hits & pairs[..., None]).any(axis=(2, 3))
        assert np.array_equal(collision, expected), trial
        marked += int(expected.sum())
    assert 0.2 < marked / (80 * n) < 0.8


def test_degenerate_horizons_are_rejected():
    for t_end in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t_end={t_end}"):
            FrenetPlannerConfig(t_end_samples=(2.0, t_end))
    for t_end in (0.04, 0.05):
        cfg = FrenetPlannerConfig(t_end_samples=(t_end, 3.0))
        with pytest.raises(PlannerError, match=f"t_end={t_end} s rounds to 0 steps"):
            FrenetPlanner(straight_route(), cfg, PARAMS, v_ref=10.0, dt=DT)
    assert FrenetPlanner(straight_route(), FrenetPlannerConfig(t_end_samples=(0.06,)),
                         PARAMS, v_ref=10.0, dt=DT).steps == (1,)


def test_candidate_rows_replay_the_scalar_model(frenet_views):
    """Every candidate's states over its own K + 1 steps are exact
    dynamics.step replays of its inputs (and of the reference scalar model),
    and its bound masks, from one bound_violations call over the padded
    table, agree with dynamics.feasible over those steps alone."""
    for planner, view, memory in frenet_views[::10]:
        _, _, table = planner.candidates(view, dict(memory))
        bounds = np.stack([table.rejected[b] for b in REJECTIONS[2:6]], axis=-1)
        for h, row in np.ndindex(table.ok.shape):
            traj = candidate_trajectory(table, h, row, view.ego, planner.dt)
            for k, u in enumerate(traj.inputs):
                expected = _state_bits([traj.states[k + 1]])
                assert _state_bits([step(traj.states[k], u, planner.dt)]) == expected
                assert _state_bits([_reference_step(traj.states[k], u, planner.dt)]) == expected
            verdict = feasible(traj, planner.params)
            assert verdict.ok == (not bounds[h, row].any())
            first = _reference_feasible(traj.states, traj.inputs, planner.params)
            assert verdict.violation == first
            if not verdict.ok:
                assert table.rejected[verdict.violation.bound][h, row]


def _curved_route(radius, arc=math.pi / 2, lead=30.0):
    """Straight lead-in of `lead` metres, then a left arc of the radius."""
    phi = np.linspace(0.0, arc, 40)[1:]
    pts = np.vstack([np.column_stack([np.linspace(-lead, 0.0, 7), np.zeros(7)]),
                     np.column_stack([radius * np.sin(phi), radius * (1 - np.cos(phi))])])
    return CurvilinearFrame(Polyline(pts))


def test_every_rejection_reason_fires():
    """Scenes built so that each reason of REJECTIONS rejects some row."""
    fired = set()

    def collect(planner, view):
        table = planner.candidates(view, {})[2]
        fired.update(r for r in REJECTIONS if table.rejected[r].any())

    cfg = FrenetPlannerConfig()
    # route end: 40 m of route left at 10 m/s
    collect(FrenetPlanner(straight_route(60.0), cfg, PARAMS, v_ref=10.0, dt=DT),
            empty_view(AgentState(20.0, 0.0, 10.0, 0.0)))
    # fold-over: a 3 m radius turn ahead
    collect(FrenetPlanner(_curved_route(3.0), cfg, PARAMS, v_ref=3.0, dt=DT),
            empty_view(AgentState(-2.0, 0.0, 2.0, 0.0)))
    # lateral acceleration: a 30 m radius curve at 25 m/s
    collect(FrenetPlanner(_curved_route(30.0, lead=10.0), cfg, PARAMS, v_ref=25.0, dt=DT),
            empty_view(AgentState(-5.0, 0.0, 25.0, 0.0)))
    # longitudinal acceleration and speed: asked for 60 m/s at 45 m/s
    collect(FrenetPlanner(straight_route(600.0), cfg, PARAMS, v_ref=60.0, dt=DT),
            empty_view(AgentState(0.0, 0.0, 45.0, 0.0)))
    # collision: a stopped car 20 m ahead
    collect(FrenetPlanner(straight_route(), cfg, PARAMS, v_ref=10.0, dt=DT),
            view_with_neighbor(AgentState(0.0, 0.0, 10.0, 0.0), AgentState(20.0, 0.0, 0.0, 0.0)))
    # the planner clips each curvature command to kappa_max before the bound
    # check, so that bound never rejects a candidate
    assert fired == set(REJECTIONS) - {"kappa_max"}


# ---------------------------------------------------------------------------
# IDM lead search: the corridor prefilter must not change any lead.


def _reference_lead(planner, view, s_ego):
    """IdmPlanner._lead without the prefilter: every neighbour's predicted
    states projected onto the whole path."""
    best = None
    half = planner.idm.corridor_halfwidth
    for j in view.seen.tolist():
        states = _predicted_states(view, j)
        s_n, d_n, in_dom = planner.path.project([(st.x, st.y) for st in states])
        entries = in_dom & (np.abs(d_n) <= half) & (s_n > s_ego)
        if not entries.any():
            continue
        k = int(np.argmax(entries))
        st, s_k = states[k], float(s_n[k])
        along = st.v * math.cos(normalize_angle(st.theta - planner.path.tangent_angle_at(s_k)))
        s_lead = s_k - (float(view.length[j]) / 2.0)
        if best is None or s_lead < best[0]:
            best = (s_lead, max(0.0, along))
    return best


def _record_idm_leads(doc, max_steps=None):
    """(planner, view, s_ego) of every IdmPlanner._lead call of a run."""
    scenario, bindings, sim_cfg, predictor, _, _ = build_run(doc)
    if max_steps is not None:
        sim_cfg = dataclasses.replace(sim_cfg, max_steps=max_steps)
    recorded = []
    lead = IdmPlanner._lead

    def recording_lead(self, view, s_ego):
        recorded.append((self, view, s_ego))
        return lead(self, view, s_ego)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IdmPlanner, "_lead", recording_lead)
        engine.run(scenario, bindings, dataclasses.replace(sim_cfg, worker_count=1), predictor)
    return recorded


def test_idm_lead_prefilter_keeps_every_lead(monkeypatch):
    """On every view of the bundled IDM runs and of the first ten steps of the
    twelve highway vehicles as IDM agents, _lead equals the unfiltered
    search bitwise, while the prefilter skips some neighbours."""
    highway = load_run_config(HIGHWAY_FRENET12)
    for block in highway["agents"].values():
        block["planner"] = "idm"
    leads = (_record_idm_leads(load_run_config("intersection_idm"))
             + _record_idm_leads(load_run_config("merge_idm"))
             + _record_idm_leads(highway, max_steps=10))
    projections = []
    project = CurvilinearFrame.project

    def counted_project(self, p):
        projections.append(1)
        return project(self, p)

    monkeypatch.setattr(CurvilinearFrame, "project", counted_project)
    neighbours = found = 0
    for planner, view, s_ego in leads:
        lead = planner._lead(view, s_ego)
        expected = _reference_lead(planner, view, s_ego)
        assert (lead is None) == (expected is None), (view.ego_id, view.step)
        if lead is not None:
            assert _bits(*lead) == _bits(*expected), (view.ego_id, view.step)
            found += 1
        neighbours += len(view.seen)
    skipped = 2 * neighbours - len(projections)
    assert len(leads) > 400 and found > 100 and 0 < skipped < neighbours


def test_corridor_box_holds_every_corridor_point():
    """Random points near a gently curving path and near a 57 degree turn:
    every point project places in the corridor lies inside the box. At the
    turn's outer corner such points reach past the points' bounding box
    grown by the half-width alone. A right angle gives no box: a point 100 m
    past its outer corner still projects in domain at d = -1."""
    rng = np.random.default_rng(3)
    half = 2.0
    gentle = np.column_stack([np.linspace(0.0, 80.0, 30), 5.0 * np.sin(np.linspace(0, 3, 30))])
    turned = np.array([[0.0, 0.0], [10.0, 0.0], [10.0 + 0.3 * math.cos(1.0), 0.3 * math.sin(1.0)]])
    for pts in (gentle, turned):
        path = CurvilinearFrame(Polyline(pts))
        lo, hi = _corridor_box(path, half)
        p = rng.uniform(pts.min(axis=0) - 5.0, pts.max(axis=0) + 5.0, (20000, 2))
        s, d, in_dom = path.project(p)
        corridor = p[in_dom & (np.abs(d) <= half)]
        assert len(corridor) > 1000 and np.all((corridor >= lo) & (corridor <= hi))
    grown = (corridor >= turned.min(axis=0) - half) & (corridor <= turned.max(axis=0) + half)
    assert not grown.all()
    corner = CurvilinearFrame(Polyline([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]))
    assert _corridor_box(corner, half) is None
    s, d, in_dom = corner.project((110.0, -1.0))
    assert in_dom and d == -1.0
