"""The benchmark's workloads: which run configuration each one loads and
which output checks apply to it. Why each one is in the benchmark is
written in BENCHMARK.json and README.md.

None of them draws random numbers, so every repetition of a workload does the
same work. This module imports nothing heavy, so run.py can read it
without importing numpy or drivesim.
"""

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    config: str            # run-config path, or the name of a bundled config
    straight_lanes: bool   # highway: recompute headway, THW and TTC per lane
    must_reach_goal: bool  # every agent must end reached_in_time


WORKLOADS = {w.name: w for w in (
    Workload("highway_frenet12", str(HERE / "configs" / "highway_frenet12.json"),
             straight_lanes=True, must_reach_goal=False),
    Workload("intersection_frenet", "intersection_frenet",
             straight_lanes=False, must_reach_goal=True),
)}
