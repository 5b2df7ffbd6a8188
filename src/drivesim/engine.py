"""Synchronous lockstep simulation: aggregate, collision-check, goal-check,
predict, fan out local views, plan in parallel batches, advance.

Results are bit-identical for any worker count: agents are planned
independently on immutable time-t data and all next states are applied
together. Wall-clock timings are logged but excluded from any
determinism contract.
"""

from __future__ import annotations

import enum
import math
import multiprocessing as mp
import statistics
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory
from .geometry import Polyline, CurvilinearFrame, box_inside_region, boxes_intersect, occupancy
from .planners import (
    FrenetPlanner, FrenetPlannerConfig, IdmParams, IdmPlanner, LocalView,
    Neighbor, PlannerError, ReplayPlanner, RouteError,
)
from .prediction import PredictorConfig, predict_all
from .scenario import GoalCheck, Scenario, goal_satisfied


class SetupError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 0.1
    max_steps: int = 500
    visibility_radius: float = 100.0
    worker_count: int = 1  # also the number of planning batches per step

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt={self.dt} must be > 0")
        if not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ValueError(f"max_steps={self.max_steps!r} must be an integer >= 1")
        if not self.visibility_radius >= 0:
            raise ValueError(f"visibility_radius={self.visibility_radius} must be >= 0")
        if not (isinstance(self.worker_count, int) and self.worker_count >= 1):
            raise ValueError(f"worker_count={self.worker_count!r} must be an integer >= 1")


class AgentStatus(enum.Enum):
    RUNNING = "running"
    REACHED_IN_TIME = "reached_in_time"
    REACHED_LATE = "reached_late"
    TIME_LIMIT_EXCEEDED = "time_limit_exceeded"
    GOAL_MISSED = "goal_missed"
    INFEASIBLE = "infeasible"
    COLLIDED = "collided"


TERMINAL = {s for s in AgentStatus if s is not AgentStatus.RUNNING}


@dataclass(frozen=True)
class PlannerBinding:
    """How an agent is controlled: replay | idm | frenet plus parameters."""

    kind: str
    recorded_states: tuple | None = None
    v_ref: float | None = None
    frenet_config: FrenetPlannerConfig = field(default_factory=FrenetPlannerConfig)
    idm_params: IdmParams = field(default_factory=IdmParams)

    def __post_init__(self):
        if self.kind not in ("replay", "idm", "frenet"):
            raise SetupError(f"unknown planner kind {self.kind!r}")


@dataclass
class StepLog:
    step: int
    agents: dict  # id -> {"state", "input", "status", "planner_status"}
    collision_events: list
    timings: dict  # prediction, collision_check, planning_batches, total


@dataclass
class SimulationResult:
    step_logs: list[StepLog]
    statuses: dict[str, AgentStatus]
    terminal_steps: dict[str, int]
    trajectories: dict[str, Trajectory]
    dt: float


def _dedupe_polyline(states):
    pts, last = [], None
    for s in states:
        p = (s.x, s.y)
        if last is None or math.hypot(p[0] - last[0], p[1] - last[1]) > 1e-6:
            pts.append(p)
            last = p
    return pts


def build_planner(binding: PlannerBinding, problem, scenario: Scenario, dt: float):
    if binding.kind == "replay":
        if not binding.recorded_states:
            raise SetupError(f"agent {problem.agent_id}: replay needs a recording")
        return ReplayPlanner(binding.recorded_states, dt)
    if binding.kind == "idm":
        if not binding.recorded_states:
            raise SetupError(f"agent {problem.agent_id}: idm needs a recorded path")
        pts = _dedupe_polyline(binding.recorded_states)
        if len(pts) < 2:
            raise SetupError(f"agent {problem.agent_id}: recorded path too short for idm")
        path = CurvilinearFrame(Polyline(np.asarray(pts)))
        v0_profile = [s.v for s in binding.recorded_states]
        return IdmPlanner(path, v0_profile, binding.idm_params, problem.params, dt)
    # frenet
    from .planners import route_to_goal

    try:
        route = route_to_goal(scenario.network, problem.initial_state, problem.goal)
    except RouteError as exc:
        raise SetupError(f"agent {problem.agent_id}: {exc}") from exc
    if binding.v_ref is not None:
        v_ref = binding.v_ref
    elif binding.recorded_states:
        v_ref = max(1.0, float(np.mean([s.v for s in binding.recorded_states])))
    else:
        v_ref = max(1.0, problem.initial_state.v)
    try:
        return FrenetPlanner(route, binding.frenet_config, problem.params, v_ref, dt)
    except PlannerError as exc:
        raise SetupError(f"agent {problem.agent_id}: {exc}") from exc


# ---------------------------------------------------------------------------
# Worker pool

_WORKER_PLANNERS: dict = {}  # a pool worker's planners by agent id


def _worker_init(planners):
    _WORKER_PLANNERS.update(planners)


def _plan_batch(planners, batch):
    """Plan every agent of one batch, the only planning path: in process with
    one worker, in a pool worker (_plan_in_worker) otherwise.

    batch holds (agent_id, view, memory) triples. Returns one
    (agent_id, result, memory, error) per agent, in batch order, and the
    batch's wall time. A planner that raises gets result None and the error
    message; planner errors never abort the run."""
    t0 = time.perf_counter()
    out = []
    for agent_id, view, memory in batch:
        try:
            out.append((agent_id, planners[agent_id].plan(view, memory), memory, None))
        except Exception as exc:
            out.append((agent_id, None, memory, f"{type(exc).__name__}: {exc}"))
    return out, time.perf_counter() - t0


def _plan_in_worker(batch):
    return _plan_batch(_WORKER_PLANNERS, batch)


# ---------------------------------------------------------------------------


@dataclass
class _AgentRuntime:
    problem: object
    memory: dict
    status: AgentStatus
    states: list
    inputs: list
    terminal_step: int | None = None
    entered_goal: bool = False


def _chunk(seq, n):
    """Contiguous split of seq into n chunks (some may be empty)."""
    k, m = divmod(len(seq), n)
    out, i = [], 0
    for j in range(n):
        size = k + (1 if j < m else 0)
        out.append(seq[i:i + size])
        i += size
    return out


def run(scenario: Scenario, bindings: dict[str, PlannerBinding],
        cfg: SimulationConfig, predictor: PredictorConfig | None = None) -> SimulationResult:
    """Run the simulation to termination; see module docstring for the loop."""
    predictor = predictor or PredictorConfig()
    problems = {p.agent_id: p for p in scenario.planning_problems}
    missing = set(problems) - set(bindings)
    if missing:
        raise SetupError(f"agents without planner binding: {sorted(missing)}")

    agents: dict[str, _AgentRuntime] = {}
    planners = {}
    for aid in sorted(problems):
        prob = problems[aid]
        planners[aid] = build_planner(bindings[aid], prob, scenario, cfg.dt)
        agents[aid] = _AgentRuntime(prob, {}, AgentStatus.RUNNING, [prob.initial_state], [])

    pool = None
    if cfg.worker_count > 1:
        pool = ProcessPoolExecutor(
            max_workers=cfg.worker_count,
            mp_context=mp.get_context("fork"),
            initializer=_worker_init,
            initargs=(planners,),
        )
    try:
        return _run_loop(scenario, agents, planners, cfg, predictor, pool)
    finally:
        if pool is not None:
            pool.shutdown()


def _run_loop(scenario, agents, planners, cfg, predictor, pool) -> SimulationResult:
    statics = [(o.id, o.pose, o.length, o.width) for o in scenario.static_obstacles]
    step_logs: list[StepLog] = []

    for t in range(cfg.max_steps):
        t_total0 = time.perf_counter()
        running = [aid for aid in sorted(agents) if agents[aid].status is AgentStatus.RUNNING]
        if not running:
            break
        t_now = t * cfg.dt

        # (1) aggregate time-t states of everything
        agent_states = {aid: agents[aid].states[-1] for aid in running}
        obstacle_states = {o.id: o.state_at(t) for o in scenario.dynamic_obstacles}
        vehicles = (
            [(aid, agent_states[aid], agents[aid].problem.params.length,
              agents[aid].problem.params.width, True) for aid in running]
            + [(o.id, obstacle_states[o.id], o.length, o.width, False)
               for o in scenario.dynamic_obstacles]
            + [(sid, pose, ln, wd, False) for sid, pose, ln, wd in statics]
        )

        # (2) collision check on time-t states; collided agents are removed
        t_col0 = time.perf_counter()
        collision_events = []
        collided: set[str] = set()
        ids, states, lengths, widths, is_agent = zip(*vehicles)
        boxes = occupancy(states, lengths, widths)
        is_agent = np.array(is_agent)
        first, second = np.triu_indices(len(vehicles), k=1)
        checked = is_agent[first] | is_agent[second]
        first, second = first[checked], second[checked]
        hits = boxes_intersect(boxes[first], boxes[second])
        for i, j in zip(first[hits], second[hits]):
            collision_events.append({"type": "vehicle_pair", "ids": [ids[i], ids[j]]})
            collided.update(ids[k] for k in (i, j) if is_agent[k])
        # running agents lead the vehicle list, in the same order
        on_road = [k for k, aid in enumerate(running) if aid not in collided]
        for k, inside in zip(on_road, box_inside_region(boxes[on_road], scenario.network.region)):
            if not inside:
                collision_events.append({"type": "road_departure", "ids": [running[k]]})
                collided.add(running[k])
        for aid in sorted(collided):
            agents[aid].status = AgentStatus.COLLIDED
            agents[aid].terminal_step = t
        t_col = time.perf_counter() - t_col0
        running = [aid for aid in running if aid not in collided]

        # (3) goal check
        for aid in list(running):
            rt = agents[aid]
            check = goal_satisfied(rt.problem.goal, rt.states[-1], t_now)
            if check is GoalCheck.REACHED_IN_TIME:
                rt.status = AgentStatus.REACHED_IN_TIME
            elif check is GoalCheck.REACHED_LATE:
                rt.status = AgentStatus.REACHED_LATE
            elif t_now > rt.problem.goal.t_max:
                rt.status = AgentStatus.TIME_LIMIT_EXCEEDED
            else:
                continue
            rt.terminal_step = t
            rt.entered_goal = check is not GoalCheck.NOT_REACHED
            running.remove(aid)

        # (4) global motion prediction on time-t states
        t_pred0 = time.perf_counter()
        all_states = {vid: st for vid, st, _, _, is_agent in vehicles
                      if (not is_agent) or vid in running}
        predictions = predict_all(all_states, scenario.network, predictor, cfg.dt)
        t_pred = time.perf_counter() - t_pred0

        # (5) local views by radius filter, sharing one Neighbor per vehicle
        neighbors = {vid: Neighbor(ln, wd, predictions[vid])
                     for vid, _, ln, wd, _ in vehicles if vid in all_states}
        views = {}
        for aid in running:
            ego = agents[aid].states[-1]
            visible = {vid: neighbors[vid] for vid, st in all_states.items() if vid != aid
                       and math.hypot(st.x - ego.x, st.y - ego.y) <= cfg.visibility_radius}
            views[aid] = LocalView(ego_id=aid, ego=ego, step=t, neighbors=visible)

        # (6) plan in batches; barrier before applying anything
        batches = [[(aid, views[aid], agents[aid].memory) for aid in batch]
                   for batch in _chunk(running, cfg.worker_count) if batch]
        if pool is None:
            planned = [_plan_batch(planners, batch) for batch in batches]
        else:
            try:
                planned = list(pool.map(_plan_in_worker, batches))
            except BrokenProcessPool as exc:
                raise RuntimeError(f"step {t}: a planning worker died ({exc})") from exc
        batch_times = [wall for _, wall in planned]
        results = {}
        for out, _ in planned:
            for aid, res, mem, err in out:
                results[aid] = (res, err)
                agents[aid].memory = mem

        # (7) apply all next states simultaneously
        record = {}
        for aid in sorted(agent_states):
            rt = agents[aid]
            entry = {"state": agent_states[aid],
                     "status": rt.status.value, "input": None, "planner_status": None}
            if aid in results:
                res, err = results[aid]
                if err is not None:
                    rt.status = AgentStatus.INFEASIBLE
                    rt.terminal_step = t
                    entry["planner_status"] = err
                else:
                    rt.states.append(res.next_state)
                    rt.inputs.append(res.next_input)
                    entry["input"] = res.next_input
                    entry["planner_status"] = res.status
                entry["status"] = rt.status.value
            record[aid] = entry
        step_logs.append(StepLog(
            step=t, agents=record, collision_events=collision_events,
            timings={
                "prediction": t_pred,
                "collision_check": t_col,
                "planning_batches": batch_times,
                "total": time.perf_counter() - t_total0,
            },
        ))

    for aid, rt in agents.items():
        if rt.status is AgentStatus.RUNNING:
            rt.status = AgentStatus.GOAL_MISSED
            rt.terminal_step = len(rt.states) - 1

    trajectories = {
        aid: Trajectory(rt.states, rt.inputs, cfg.dt) for aid, rt in agents.items()
    }
    return SimulationResult(
        step_logs=step_logs,
        statuses={aid: rt.status for aid, rt in agents.items()},
        terminal_steps={aid: rt.terminal_step for aid, rt in agents.items()},
        trajectories=trajectories,
        dt=cfg.dt,
    )


# ---------------------------------------------------------------------------
# Benchmarking


def benchmark(scenario: Scenario, agent_counts, worker_counts, repetitions: int,
              steps: int = 20, frenet_config: FrenetPlannerConfig | None = None):
    """Timing table over (agent count, worker count) combinations.

    Substitutes the first n recorded vehicles (by id) with frenet agents and
    reports mean/quartiles of per-step total and per-batch planning time,
    and agents_removed: how many agents ended collided or infeasible (the
    same in every repetition, runs being deterministic). A removed agent
    plans no more, so the later steps time fewer agents than n.
    """
    from .scenario import substitute_agents

    obstacle_ids = sorted(o.id for o in scenario.dynamic_obstacles)
    rows = []
    for n in agent_counts:
        if n > len(obstacle_ids):
            raise SetupError(f"agent count {n} exceeds available vehicles ({len(obstacle_ids)})")
        chosen = obstacle_ids[:n]
        recordings = {oid: tuple(scenario.dynamic_obstacle(oid).recorded_states)
                      for oid in chosen}
        sub = substitute_agents(scenario, chosen)
        bindings = {
            oid: PlannerBinding(kind="frenet", recorded_states=recordings[oid],
                                frenet_config=frenet_config or FrenetPlannerConfig())
            for oid in chosen
        }
        for w in worker_counts:
            step_times, batch_times = [], []
            for _ in range(repetitions):
                cfg = SimulationConfig(dt=scenario.dt, max_steps=steps, worker_count=w)
                result = run(sub, bindings, cfg)
                removed = sum(st in (AgentStatus.COLLIDED, AgentStatus.INFEASIBLE)
                              for st in result.statuses.values())
                for log in result.step_logs:
                    step_times.append(log.timings["total"])
                    batch_times.extend(log.timings["planning_batches"])
            rows.append({
                "n_agents": n,
                "workers": w,
                "mean_step_time": statistics.fmean(step_times),
                "q1_step_time": float(np.percentile(step_times, 25)),
                "q3_step_time": float(np.percentile(step_times, 75)),
                "mean_batch_planning_time": statistics.fmean(batch_times),
                "q1_batch_planning_time": float(np.percentile(batch_times, 25)),
                "q3_batch_planning_time": float(np.percentile(batch_times, 75)),
                "agents_removed": removed,
            })
    return rows
