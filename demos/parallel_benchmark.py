"""Measure how planning wall time scales with the worker count.

Substitutes recorded vehicles on the highway scenario with interactive
planning agents and times the simulation step across a grid of agent and
worker counts. Agents are planned in contiguous batches that are fanned out
to a worker pool and joined at a barrier each step, so results stay
bit-identical regardless of the worker count; only the wall time changes.
The `removed` column counts agents that ended collided or infeasible before
the step cap; they stop planning, so later steps time fewer agents.

Meaningful speedups require several physical cores.

Usage: python3 demos/parallel_benchmark.py [--agents 8,16] [--workers 1,2,4]
"""

import argparse
from pathlib import Path

from drivesim.cli import resolve_scenario_path
from drivesim.engine import benchmark
from drivesim.scenario import load_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--agents", default="8,16", help="comma-separated agent counts")
    ap.add_argument("--workers", default="1,2,4", help="comma-separated worker counts")
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--steps", type=int, default=15)
    args = ap.parse_args()

    scenario = load_scenario(resolve_scenario_path("highway", Path(".")))
    rows = benchmark(scenario,
                     agent_counts=[int(a) for a in args.agents.split(",")],
                     worker_counts=[int(w) for w in args.workers.split(",")],
                     repetitions=args.reps, steps=args.steps)

    print(f"{'agents':>7} {'workers':>8} {'mean step [s]':>14} {'mean batch [s]':>15}"
          f" {'removed':>8}")
    base = {}
    for row in rows:
        base.setdefault(row["n_agents"], row["mean_step_time"])
        line = (f"{row['n_agents']:>7} {row['workers']:>8} "
                f"{row['mean_step_time']:>14.3f} {row['mean_batch_planning_time']:>15.3f}"
                f" {row['agents_removed']:>8}")
        if row["workers"] > 1:
            line += f"   x{base[row['n_agents']] / row['mean_step_time']:.2f} vs 1 worker"
        print(line)


if __name__ == "__main__":
    main()
