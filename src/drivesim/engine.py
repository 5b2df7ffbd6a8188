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
    PlannerError, ReplayPlanner, RouteError,
)
from .prediction import PredictorConfig, predict_all, predicted_boxes
from .scenario import GoalCheck, Scenario, goal_satisfied, substitute_agents


class SetupError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    max_steps: int = 500
    visibility_radius: float = 100.0
    worker_count: int = 1  # also the number of planning batches per step

    def __post_init__(self):
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
    """How an agent is controlled: replay | idm | frenet, its recording and parameters."""

    kind: str
    recording: np.ndarray | None = None
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
    timings: dict  # prediction, collision_check, views, planning_batches, apply, total


@dataclass
class SimulationResult:
    step_logs: list[StepLog]
    statuses: dict[str, AgentStatus]
    terminal_steps: dict[str, int]
    trajectories: dict[str, Trajectory]
    dt: float


def _dedupe_polyline(points):
    """points (n, 2) without each point within 1e-6 of the last one kept."""
    pts = []
    for p in points.tolist():
        if not pts or math.hypot(p[0] - pts[-1][0], p[1] - pts[-1][1]) > 1e-6:
            pts.append(p)
    return pts


def build_planner(binding: PlannerBinding, problem, scenario: Scenario):
    recording, dt = binding.recording, scenario.dt
    recorded = recording is not None and len(recording) > 0
    if binding.kind == "replay":
        if not recorded:
            raise SetupError(f"agent {problem.agent_id}: replay needs a recording")
        return ReplayPlanner(recording, dt)
    if binding.kind == "idm":
        if not recorded:
            raise SetupError(f"agent {problem.agent_id}: idm needs a recorded path")
        pts = _dedupe_polyline(recording[:, :2])
        if len(pts) < 2:
            raise SetupError(f"agent {problem.agent_id}: recorded path too short for idm")
        path = CurvilinearFrame(Polyline(np.asarray(pts)))
        return IdmPlanner(path, recording[:, 2].tolist(), binding.idm_params,
                          problem.params, dt)
    # frenet; imported here so that replacing planners.route_to_goal, as
    # perfbench/spans.py does to time it, reaches this call
    from .planners import route_to_goal

    try:
        route = route_to_goal(scenario.network, problem.initial_state, problem.goal)
    except RouteError as exc:
        raise SetupError(f"agent {problem.agent_id}: {exc}") from exc
    v_ref = binding.v_ref
    if v_ref is None:
        v_ref = max(1.0, float(np.mean(recording[:, 2])) if recorded else problem.initial_state.v)
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
        planners[aid] = build_planner(bindings[aid], prob, scenario)
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
    step_logs: list[StepLog] = []
    obstacles = scenario.dynamic_obstacles + scenario.static_obstacles
    shapes = [(o.length, o.width) for o in obstacles]
    # past the longest recording every obstacle holds its last state
    held = max((len(o.recording) for o in scenario.dynamic_obstacles), default=0)
    tracks = scenario.obstacle_tracks(min(cfg.max_steps, held + 1))

    for t in range(cfg.max_steps):
        t_total0 = time.perf_counter()
        running = [aid for aid in sorted(agents) if agents[aid].status is AgentStatus.RUNNING]
        if not running:
            break
        t_now = t * scenario.dt

        # (1) aggregate time-t states of everything: one row per vehicle,
        # the running agents first, then the obstacles
        agent_states = {aid: agents[aid].states[-1] for aid in running}
        ids = running + [o.id for o in obstacles]
        states = np.vstack([[(s.x, s.y, s.v, s.theta) for s in agent_states.values()],
                            tracks[:, min(t, tracks.shape[1] - 1)]])
        length, width = np.array([(p.length, p.width) for p in
                                  (agents[aid].problem.params for aid in running)] + shapes).T

        # (2) collision check on time-t states; collided agents are removed
        t_col0 = time.perf_counter()
        collision_events = []
        collided: set[str] = set()
        boxes = occupancy(states[:, [0, 1, 3]], length, width)
        is_agent = np.arange(len(ids)) < len(running)
        first, second = np.triu_indices(len(ids), k=1)
        checked = is_agent[first] | is_agent[second]
        first, second = first[checked], second[checked]
        hits = boxes_intersect(boxes[first], boxes[second])
        for i, j in zip(first[hits], second[hits]):
            collision_events.append({"type": "vehicle_pair", "ids": [ids[i], ids[j]]})
            collided.update(ids[k] for k in (i, j) if is_agent[k])
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
            running.remove(aid)

        # (4) locate and predict the running agents and obstacles, in id order
        t_pred0 = time.perf_counter()
        rows = sorted((k for k, vid in enumerate(ids) if k >= len(agent_states) or vid in running),
                      key=ids.__getitem__)
        lanelets, _ = scenario.network.locate(states[rows][:, [0, 1, 3]])
        poses = predict_all(states[rows], lanelets, scenario.network, predictor, scenario.dt)
        t_pred = time.perf_counter() - t_pred0

        # (5) local views sharing the step's arrays; each sees the rows in radius but its own
        t_views0 = time.perf_counter()
        length = length[rows]
        grown = predicted_boxes(poses, length, width[rows], predictor, scenario.dt)
        x, y, v = states[rows, :3].T
        egos = [rows.index(ids.index(aid)) for aid in running]
        near = np.hypot(x - x[egos, None], y - y[egos, None]) <= cfg.visibility_radius
        near[np.arange(len(egos)), egos] = False
        views = {aid: LocalView(aid, agent_states[aid], t, np.flatnonzero(seen), poses, v, length,
                                grown) for aid, seen in zip(running, near)}
        t_views = time.perf_counter() - t_views0

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
        t_apply0 = time.perf_counter()
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
        t_apply = time.perf_counter() - t_apply0
        step_logs.append(StepLog(
            step=t, agents=record, collision_events=collision_events,
            timings={
                "prediction": t_pred,
                "collision_check": t_col,
                "views": t_views,
                "planning_batches": batch_times,
                "apply": t_apply,
                "total": time.perf_counter() - t_total0,
            },
        ))

    for aid, rt in agents.items():
        if rt.status is AgentStatus.RUNNING:
            rt.status = AgentStatus.GOAL_MISSED
            rt.terminal_step = len(rt.states) - 1

    trajectories = {
        aid: Trajectory(rt.states, rt.inputs, scenario.dt) for aid, rt in agents.items()
    }
    return SimulationResult(
        step_logs=step_logs,
        statuses={aid: rt.status for aid, rt in agents.items()},
        terminal_steps={aid: rt.terminal_step for aid, rt in agents.items()},
        trajectories=trajectories,
        dt=scenario.dt,
    )


# ---------------------------------------------------------------------------
# Benchmarking


def benchmark(scenario: Scenario, agent_counts, worker_counts, repetitions: int,
              steps: int = 20):
    """Timing table over (agent count, worker count) combinations.

    Substitutes the first n recorded vehicles (by id) with frenet agents and
    reports mean/quartiles of per-step total and per-batch planning time,
    agents_removed, how many agents ended collided or infeasible, and the
    count of each outcome: reached (in time or late), missed (goal or time
    limit), collided, infeasible (the same in every repetition, runs being
    deterministic). A removed agent
    plans no more, so later steps time fewer agents (a row where none ever
    plans reports nan batch times). A count below 1 raises SetupError.
    """
    for name, values in (("agent count", agent_counts), ("worker count", worker_counts),
                         ("repetition count", [repetitions]), ("step count", [steps])):
        if min(values, default=1) < 1:
            raise SetupError(f"{name} {min(values)} must be >= 1")
    obstacle_ids = sorted(o.id for o in scenario.dynamic_obstacles)
    rows = []
    for n in agent_counts:
        if n > len(obstacle_ids):
            raise SetupError(f"agent count {n} exceeds available vehicles ({len(obstacle_ids)})")
        chosen = obstacle_ids[:n]
        sub = substitute_agents(scenario, chosen)
        bindings = {
            oid: PlannerBinding(kind="frenet", recording=scenario.dynamic_obstacle(oid).recording)
            for oid in chosen
        }
        for w in worker_counts:
            step_times, batch_times = [], []
            for _ in range(repetitions):
                cfg = SimulationConfig(max_steps=steps, worker_count=w)
                result = run(sub, bindings, cfg)
                ended = {name: sum(st in kinds for st in result.statuses.values())
                         for name, kinds in _OUTCOMES.items()}
                for log in result.step_logs:
                    step_times.append(log.timings["total"])
                    batch_times.extend(log.timings["planning_batches"])
            rows.append({"n_agents": n, "workers": w, **_spread("step_time", step_times),
                         **_spread("batch_planning_time", batch_times),
                         "agents_removed": ended["collided"] + ended["infeasible"], **ended})
    return rows


_OUTCOMES = {"reached": (AgentStatus.REACHED_IN_TIME, AgentStatus.REACHED_LATE),
             "missed": (AgentStatus.TIME_LIMIT_EXCEEDED, AgentStatus.GOAL_MISSED),
             "collided": (AgentStatus.COLLIDED,), "infeasible": (AgentStatus.INFEASIBLE,)}


def _spread(name: str, times: list) -> dict:
    """Mean and quartiles of times, keyed mean_/q1_/q3_<name>; nan if empty."""
    stats = [math.nan] * 3
    if times:
        stats = [statistics.fmean(times), *np.percentile(times, [25, 75]).tolist()]
    return dict(zip((f"mean_{name}", f"q1_{name}", f"q3_{name}"), stats))
