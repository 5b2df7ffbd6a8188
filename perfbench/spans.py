"""Spans around the public calls of drivesim's layers, recorded from outside.

`install` replaces each traced function by a wrapper at the place where the
calling module looks it up (a module attribute or a class attribute), so no
source file of the package changes. Each call appends one span, a tuple

    (name, start, end, parent, work)

to an in-memory list; `parent` is the index of the enclosing span of the same
process, or -1, and `work` is a count of what the call processed (1 unless a
counter is given). Nothing is written until `Tracer.write`.

Only the traced process is recorded: the benchmark's workloads run with one
worker, so every planner call happens in that process.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

LAYERS = ("scenario", "geometry", "dynamics", "prediction",
          "planners", "engine", "metrics", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, 1)
            if work is not None:
                spans[idx] = (name, t0, t1, parent, work(out))
            return out

        return traced

    def write(self, path: Path):
        """Chrome trace-event JSON, viewable in Perfetto or chrome://tracing."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [{"name": s[0], "cat": s[0].split(".")[0], "ph": "X", "pid": 1, "tid": 1,
                   "ts": (s[1] - origin) * 1e6, "dur": (s[2] - s[1]) * 1e6,
                   "args": {"parent": s[3], "work": s[4]}}
                  for s in self.spans]
        path.write_text(json.dumps({"traceEvents": events}))


def install(tracer: Tracer):
    """Wrap the traced functions; returns a function that restores them."""
    from drivesim import cli, dynamics, engine, geometry, metrics, planners, scenario

    restore = []

    def patch(owner, attr, name, work=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__, work))
        else:
            wrapped = tracer.wrap(name, original, work)
        setattr(owner, attr, wrapped)
        restore.append((owner, attr, original))

    # whole phases
    patch(cli, "load_run_config", "cli.load_run_config")
    patch(cli, "build_run", "cli.build_run")
    patch(cli, "write_run_outputs", "cli.write_run_outputs")
    patch(engine, "run", "engine.run")
    patch(metrics, "evaluate", "metrics.evaluate")
    # scenario
    patch(cli, "load_scenario", "scenario.load_scenario")
    patch(scenario.StreetNetwork, "nearest_lanelet", "scenario.nearest_lanelet")
    patch(scenario.StreetNetwork, "conflict_areas", "scenario.conflict_areas")
    # prediction
    patch(engine, "predict_all", "prediction.predict_all", work=len)
    # planners
    patch(planners.FrenetPlanner, "plan", "planners.frenet_plan")
    patch(planners, "route_to_goal", "planners.route_to_goal")
    # dynamics
    patch(dynamics.Trajectory, "rollout", "dynamics.rollout")
    patch(dynamics, "feasible", "dynamics.feasible")
    # geometry, at each module that imported the function by name
    for module in (planners, engine, metrics):
        patch(module, "boxes_intersect",
              f"geometry.boxes_intersect[{module.__name__.split('.')[-1]}]")
    patch(geometry.CurvilinearFrame, "project", "geometry.project")
    patch(metrics, "min_distance", "geometry.min_distance")
    patch(engine, "box_inside_region", "geometry.box_inside_region")
    patch(metrics, "box_intersects_polygon", "geometry.box_intersects_polygon")
    # metrics
    patch(metrics, "select_frames", "metrics.select_frames")
    patch(metrics, "distance_series", "metrics.distance_series", work=len)
    patch(metrics, "encroachment_times", "metrics.encroachment_times")
    def undo():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return undo


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, work, total (inclusive) seconds, self seconds,
    and the duration of every call; plus self seconds per layer.

    Self time is a span's duration minus that of its direct children.
    """
    names: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    child = [0.0] * len(tracer.spans)
    for name, t0, t1, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for (name, t0, t1, _, work), inner in zip(tracer.spans, child):
        entry = names.setdefault(name, {"calls": 0, "work": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["work"] += work
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - inner
        entry["durations"].append(t1 - t0)
        layer_self[name.split(".")[0]] += (t1 - t0) - inner
    return {"names": names, "layer_self_s": layer_self}


def layer_metrics(summary: dict, step_timings: list[dict]) -> dict:
    """The per-layer figures, named as in BENCHMARK.json and the README."""
    names = summary["names"]

    def pick(prefix, field):
        return sum(e[field] for n, e in names.items()
                   if n == prefix or n.startswith(prefix + "["))

    def durations(prefix):
        return [d for n, e in names.items() for d in e["durations"]
                if n.split("[")[0] == prefix]

    col = sum(t["collision_check"] for t in step_timings)
    # the barrier waits for the slowest batch of each step
    plan = sum(max(t["planning_batches"], default=0.0) for t in step_timings)
    pred = sum(t["prediction"] for t in step_timings)
    total = sum(t["total"] for t in step_timings)
    return {
        "cli.build_run_s": statistics.median(durations("cli.build_run")),
        "scenario.load_scenario_s": statistics.median(durations("scenario.load_scenario")),
        "engine.collision_check_s": col,
        "engine.planning_s": plan,
        "engine.other_s": total - col - plan - pred,
        "prediction.predict_all_s": pick("prediction.predict_all", "total_s"),
        "prediction.vehicles_predicted": pick("prediction.predict_all", "work"),
        "planners.frenet_plan_s": pick("planners.frenet_plan", "total_s"),
        "planners.frenet_plan_calls": pick("planners.frenet_plan", "calls"),
        "planners.frenet_plan_p50_ms": 1e3 * statistics.median(durations("planners.frenet_plan")),
        "planners.route_to_goal_s": pick("planners.route_to_goal", "total_s"),
        "geometry.boxes_intersect_calls": pick("geometry.boxes_intersect", "calls"),
        "geometry.boxes_intersect_s": pick("geometry.boxes_intersect", "total_s"),
        "geometry.project_calls": pick("geometry.project", "calls"),
        "geometry.project_s": pick("geometry.project", "total_s"),
        "geometry.min_distance_calls": pick("geometry.min_distance", "calls"),
        "geometry.min_distance_s": pick("geometry.min_distance", "total_s"),
        "geometry.box_inside_region_s": pick("geometry.box_inside_region", "total_s"),
        "geometry.box_intersects_polygon_calls": pick("geometry.box_intersects_polygon", "calls"),
        "geometry.box_intersects_polygon_s": pick("geometry.box_intersects_polygon", "total_s"),
        "dynamics.rollout_calls": pick("dynamics.rollout", "calls"),
        "dynamics.rollout_s": pick("dynamics.rollout", "total_s"),
        "dynamics.feasible_s": pick("dynamics.feasible", "total_s"),
        "scenario.nearest_lanelet_calls": pick("scenario.nearest_lanelet", "calls"),
        "scenario.nearest_lanelet_s": pick("scenario.nearest_lanelet", "total_s"),
        "scenario.conflict_areas_s": pick("scenario.conflict_areas", "total_s"),
        "metrics.select_frames_calls": pick("metrics.select_frames", "calls"),
        "metrics.select_frames_s": pick("metrics.select_frames", "total_s"),
        "metrics.distance_series_s": pick("metrics.distance_series", "total_s"),
        "metrics.encroachment_times_calls": pick("metrics.encroachment_times", "calls"),
        "metrics.encroachment_times_s": pick("metrics.encroachment_times", "total_s"),
        "metrics.pair_steps": pick("metrics.distance_series", "work"),
        "cli.write_run_outputs_s": pick("cli.write_run_outputs", "total_s"),
    }
