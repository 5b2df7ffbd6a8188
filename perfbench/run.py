"""drivesim benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; drivesim is imported from ./src.
Repeats the workload in fresh interpreters (rep.py) for about S seconds,
always in whole repetitions, and prints one JSON line with the medians:

  --trace 0  the end-to-end metrics (setup_s, run_s, evaluate_s,
             agent_steps_per_s, step_p50_ms, peak_rss_mb);
  --trace 1  the per-layer metrics from traced repetitions, each paired
             with an untraced one whose run_s gives the tracing overhead.

No input is random: the seed is recorded but every repetition of a workload
does the same work. Every repetition checks its outputs (checks.py); a
failed check prints "correct": false and exits with status 1. Raw figures of
every repetition go to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

REP_TIMEOUT_S = 150.0   # one repetition; a run must end within 180 s

def repetition(workload: str, trace: int, timeout: float) -> dict:
    """One repetition in a fresh interpreter; its figures."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repetition of {workload} failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, trace: int, seconds: int) -> list[dict]:
    """Whole rounds of repetitions until a round of median length would end
    past `seconds` (at least one round). A round is one repetition, or with
    tracing an untraced and a traced one."""
    start = time.perf_counter()
    rounds, durations = [], []
    while True:
        t0 = time.perf_counter()
        rnd = [repetition(workload, t, max(REP_TIMEOUT_S - (time.perf_counter() - start), 1.0))
               for t in ((0, 1) if trace else (0,))]
        rounds.append(rnd)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return rounds


def end_to_end(reps: list[dict]) -> dict:
    """Medians over the repetitions. Every repetition runs the same steps, so
    the wall time of a run is composed step by step: the median of each
    step's time across repetitions, plus the median of the time outside the
    steps (building planners, starting and joining the pool). A burst of
    host slowness that hits one repetition at some step is then outvoted by
    the others instead of adding to the run's time."""
    med = statistics.median
    if len({len(r["step_total_s"]) for r in reps}) != 1 or len({r["plan_calls"] for r in reps}) != 1:
        raise SystemExit("repetitions of one workload ran different steps")
    steps = [med(ts) for ts in zip(*(r["step_total_s"] for r in reps))]
    run_s = sum(steps) + med([r["run_s"] - sum(r["step_total_s"]) for r in reps])
    return {
        "setup_s": med([s for r in reps for s in r["setup_s"]]),
        "run_s": run_s,
        "evaluate_s": med([r["evaluate_s"] for r in reps]),
        "agent_steps_per_s": reps[0]["plan_calls"] / run_s,
        "step_p50_ms": 1e3 * med(steps),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(rounds: list[list[dict]], names) -> dict:
    """Medians over the traced repetitions; the tracing overhead is the median,
    over rounds, of traced minus untraced run_s within the round."""
    out = {name: statistics.median([traced["layers"][name] for _, traced in rounds])
           for name in names if name != "trace.overhead_s"}
    out["trace.overhead_s"] = statistics.median(
        [traced["run_s"] - untraced["run_s"] for untraced, traced in rounds])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "drivesim" / "__init__.py").is_file():
        print(f"error: no drivesim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    rounds = measure(args.workload, args.trace, args.seconds)
    reps = [rep for rnd in rounds for rep in rnd]
    problems = {f"repetition {i}": rep["problems"] for i, rep in enumerate(reps) if rep["problems"]}
    # metric names and units as BENCHMARK.json lists them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = per_layer(rounds, units) if args.trace else end_to_end(reps)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "result": result,
         "problems": problems, "repetitions": reps}, indent=1))
    for where, found in problems.items():
        for check, lines in found.items():
            print(f"check {check} failed in {where}: {lines[0]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
