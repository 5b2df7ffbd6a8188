"""Paired benchmark runs: a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N --seconds S
                                 --label L

Extracts the committed files of REV into a temporary directory (`git
archive`, so the repository's worktree list and index are left alone), then
runs `perfbench/run.py --workload W --seed 1 --seconds S --trace 0` N times in
each tree, alternately: even pairs run the parent first, odd pairs this
checkout first, so a slow drift of the host favours neither side. Each side
imports drivesim from its own `src`. A run whose output checks fail stops the
tool with status 1.

It prints, per metric of the run's JSON line, the median and quartiles of
each side, the change of the medians, and in how many pairs this checkout
was better (a tie is no win; which direction is better comes from
BENCHMARK.json), and marks whether the medians differ by more than the
parent's interquartile range. It appends the raw figures and that summary,
with the host's core count, the Python and numpy versions and both commit
SHAs (and whether this checkout has uncommitted changes), to `BENCH_<L>.json`
at the root of this checkout. The workloads draw no random numbers, so the
seed changes no input.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The committed files of rev, written under into."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def bench(tree: Path, workload: str, seconds: int) -> dict:
    """The end-to-end metric values of one perfbench/run.py run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py failed in {tree} with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of pairs [(parent, change), ...] of metric dicts: each
    side's median, q1 and q3, the relative change of the medians, the count
    of pairs in which the change is better (better[name] is "lower" or
    "higher"; a metric not listed counts no wins), and whether the medians
    differ by more than the parent's interquartile range."""
    out = {}
    for name in pairs[0][0]:
        sides = {}
        for side, k in (("parent", 0), ("change", 1)):
            q1, med, q3 = _quartiles([p[k][name] for p in pairs])
            sides[side] = {"median": med, "q1": q1, "q3": q3}
        sign = {"lower": -1, "higher": 1}.get(better.get(name), 0)
        wins = sum(sign * (change[name] - parent[name]) > 0 for parent, change in pairs)
        before, after = sides["parent"]["median"], sides["change"]["median"]
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {**sides, "change_rel": (after - before) / before if before else None,
                     "wins": wins, "pairs": len(pairs), "resolved": abs(after - before) > spread}
    return out


def _table(summary: dict) -> str:
    rows = [f"{'metric':<36} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
            f" {'change':>8} {'wins':>6}"]
    for name, m in summary.items():
        cells = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]"
                 for s in ("parent", "change")]
        rel = "" if m["change_rel"] is None else f"{100 * m['change_rel']:+.1f}%"
        mark = "" if m["resolved"] else " (within parent IQR)"
        rows.append(f"{name:<36} {cells[0]:>32} {cells[1]:>32} {rel:>8}"
                    f" {m['wins']:>2}/{m['pairs']:<3}{mark}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="per perfbench/run.py run")
    ap.add_argument("--label", required=True, help="append the figures to BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_sha = _git("rev-parse", f"{args.parent}^{{commit}}")
    # what this checkout runs, read before the runs
    change_sha = _git("rev-parse", "HEAD")
    uncommitted = bool(_git("status", "--porcelain", "--untracked-files=no"))

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        extract(parent_sha, parent_tree)
        for i in range(args.pairs):
            order = ((parent_tree, ROOT) if i % 2 == 0 else (ROOT, parent_tree))
            ran = {tree: bench(tree, args.workload, args.seconds) for tree in order}
            pairs.append((ran[parent_tree], ran[ROOT]))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    summary = summarize(pairs, better)
    print(_table(summary))
    record = {
        "workload": args.workload, "trace": 0, "seconds": args.seconds,
        "parent_sha": parent_sha, "change_sha": change_sha, "change_uncommitted": uncommitted,
        "host": {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "order": "even pairs parent first, odd pairs change first",
        "pairs": [{"parent": p, "change": c} for p, c in pairs],
        "summary": summary,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"label": args.label, "runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended to {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
