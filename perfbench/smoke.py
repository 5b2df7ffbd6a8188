"""Smoke test of the benchmark: every workload once, and every output check
shown to reject a tampered output.

    python3 perfbench/smoke.py

Run from the root of a source checkout. Both workloads run as the benchmark
runs them, highway_frenet12 traced. Exits with status 1 on the first
failure. Takes about half a minute on 2 cores.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
from checks import run_checks  # noqa: E402

EXPECTED_CHECKS = {
    "highway_frenet12": ["collisions", "headways", "kinematics", "tet_tit"],
    "intersection_frenet": ["collisions", "encroachment", "goals", "kinematics", "tet_tit"],
}


def fail(msg: str):
    print(f"FAIL: {msg}")
    raise SystemExit(1)


def run_workloads():
    for name, trace in (("highway_frenet12", 1), ("intersection_frenet", 0)):
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", name, "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        fig = json.loads(proc.stdout.splitlines()[-1])
        if fig["problems"] or fig["failed"] or fig["checks"] != EXPECTED_CHECKS[name]:
            fail(f"{name}: problems {fig['problems']}, failed {fig['failed']}, "
                 f"checks {fig['checks']}")
        if trace and not (fig["layers"]["planners.frenet_plan_s"] > 0
                          and fig["layers"]["geometry.project_calls"] > 0):
            fail(f"{name}: traced run has no planner or projection spans")
        print(f"ok   {name}: {fig['steps']} steps, checks {', '.join(fig['checks'])}")


def expect_rejected(label, objects, check, tamper):
    objects = copy.deepcopy(objects)
    tamper(*objects[1:])
    problems = run_checks(*objects)["problems"]
    if not problems.get(check):
        fail(f"tampered {label} was not caught by the {check} check")
    print(f"ok   {check} check rejects {label}")


def run_tamper_checks():
    # Both runs stay referenced to the end: drivesim caches frames by id()
    # of lanelets, and a freed scenario's ids could be reused by the next.
    _, highway = rep.repetition("highway_frenet12", trace=False)
    aid = sorted(highway[1].trajectories)[0]

    def move_state(result, *_):
        states = result.trajectories[aid].states
        states[1] = dataclasses.replace(states[1], x=states[1].x + 0.01)

    def add_collision(result, *_):
        result.step_logs[0].collision_events.append({"type": "vehicle_pair", "ids": [aid, "veh00"]})

    def stretch_headway(result, scenario, report, cfg):
        for series in report.pair_series.values():
            for t, hw in enumerate(series["hw"]):
                if hw != float("inf"):
                    series["hw"][t] = hw + 0.5
                    return
        raise AssertionError("no finite headway to tamper with")

    def inflate_tet(result, scenario, report, cfg):
        report.aggregates[aid]["tet"] = 1.5

    expect_rejected("agent state", highway, "kinematics", move_state)
    expect_rejected("collision event", highway, "collisions", add_collision)
    expect_rejected("headway", highway, "headways", stretch_headway)
    expect_rejected("TET", highway, "tet_tit", inflate_tet)

    _, intersection = rep.repetition("intersection_frenet", trace=False)

    def shift_et(result, scenario, report, cfg):
        report.conflict_events[0]["et"] += result.dt

    def arrive_late(result, *_):
        from drivesim.engine import AgentStatus

        result.statuses[sorted(result.statuses)[0]] = AgentStatus.REACHED_LATE

    expect_rejected("encroachment time", intersection, "encroachment", shift_et)
    expect_rejected("agent status", intersection, "goals", arrive_late)


def main() -> int:
    if not (HERE.parent / "src" / "drivesim").is_dir():
        fail("run from the root of a drivesim source checkout")
    rep.OUT.mkdir(exist_ok=True)
    run_workloads()
    run_tamper_checks()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
