"""Compare the three substitution regimes on the highway-merge scenario.

A recorded vehicle on the main lane (green) and one merging from the ramp
(orange) are replaced by planning agents in three ways:

  (a) replay  -- both follow their recordings blindly; the merge ends in a
                 rear-end collision because nobody reacts.
  (b) idm     -- green adjusts its speed along its recorded path; the
                 conflict dissolves longitudinally.
  (c) frenet  -- both plan interactively; green additionally performs a
                 lateral evasive maneuver onto the neighboring lane.

The script runs all three regimes, evaluates the criticality measures, and
prints a comparison table plus the lateral-offset signature of regime (c).

Usage: python3 demos/merge_regimes.py
"""

import math
from pathlib import Path

import numpy as np

from drivesim.cli import build_run, load_run_config, resolve_scenario_path
from drivesim.engine import run
from drivesim.geometry import CurvilinearFrame, Polyline
from drivesim.metrics import evaluate
from drivesim.scenario import load_scenario


def fmt(v):
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.2f}"
    return str(v)


def max_lateral_offset(result, agent_id):
    """Peak |lateral offset| of the realized trajectory from the recording."""
    original = load_scenario(resolve_scenario_path("merge", Path(".")))
    recording = original.dynamic_obstacle(agent_id).recording
    frame = CurvilinearFrame(Polyline(recording[:, :2]))
    _, d, in_dom = frame.project([(st.x, st.y) for st in result.trajectories[agent_id].states])
    return float(np.abs(d[in_dom]).max(initial=0.0))


def main():
    rows = []
    lateral = {}
    for regime in ("replay", "idm", "frenet"):
        doc = load_run_config(f"merge_{regime}")
        scenario, bindings, sim_cfg, predictor, metric_cfg, _ = build_run(doc)
        result = run(scenario, bindings, sim_cfg, predictor)
        report = evaluate(result, scenario, metric_cfg)
        agg = report.aggregates["green"]
        rows.append((regime, agg["collided"], agg["min_dce"], agg["min_ttc"],
                     agg["max_btn"], agg["tet"]))
        lateral[regime] = max_lateral_offset(result, "green")

    header = ("regime", "collided", "min DCE", "min TTC", "max BTN", "TET")
    widths = [9, 9, 9, 9, 9, 7]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(fmt(v).ljust(w) for v, w in zip(row, widths)))

    print()
    print("lateral evasion of the yielding vehicle (max |offset| from recording):")
    for regime in ("idm", "frenet"):
        print(f"  {regime:8s} {lateral[regime]:5.2f} m")


if __name__ == "__main__":
    main()
