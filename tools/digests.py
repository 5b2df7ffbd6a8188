"""Behaviour-preservation check: sha256 of every bundled run's outputs.

    python3 tools/digests.py

Runs and evaluates every bundled run configuration that substitutes agents,
the benchmark's twelve-agent highway configuration (3 steps), which it only
reads, and two variants of it that it derives in a temporary directory:
`highway_idm12`, the same twelve agents on the IDM planner over 40 steps,
and `highway_frenet12x40`, the same twelve Frenet agents over 40 steps. Each
bundled configuration has two vehicles, so only the highway ones exercise
many-neighbour filtering, the IDM lead search among many neighbours, the
all-pairs collision check and the road check of many agents. Every
configuration runs with `drivesim run` and `drivesim evaluate` in a fresh
interpreter and a temporary directory, and the script prints one table row
per configuration with the sha256 of its `steps.jsonl` and of its
`metrics.json`. The last column hashes the report of the same run evaluated
in the interpreter that simulated it, serialized as `drivesim evaluate`
writes `metrics.json`: `evaluate` then reads the simulated states, not the
9-decimal states of the run's files, so a change to a measure that the
rounding masks still shows. drivesim is imported from the `src` directory
next to this script, so running the script of two checkouts compares their
code.

The printed table is then compared with `tools/expected_digests.md`. On any
difference the script prints the differing rows as a diff and exits 1. A
refactor that claims to keep behaviour must leave every digest unchanged; a
change that moves digests on purpose edits that file and says why.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "drivesim" / "data"
MULTI_VEHICLE = ROOT / "perfbench" / "configs" / "highway_frenet12.json"
EXPECTED = Path(__file__).resolve().parent / "expected_digests.md"


def agent_configs() -> list[str]:
    """Names of the bundled run configurations that simulate agents."""
    names = []
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        if "scenario" in doc and doc.get("substitute", sorted(doc.get("agents", {}))):
            names.append(path.stem)
    return names


# run and evaluate config (argv[1]) in one interpreter; print the sha256 of
# the report as `drivesim evaluate` writes it to metrics.json
IN_MEMORY = """
import hashlib, json, sys
from drivesim.cli import build_run, load_run_config
from drivesim.engine import run
from drivesim.metrics import evaluate
scenario, bindings, sim_cfg, predictor, metric_cfg, _ = build_run(load_run_config(sys.argv[1]))
report = evaluate(run(scenario, bindings, sim_cfg, predictor), scenario, metric_cfg)
text = json.dumps(report.to_dict(), sort_keys=True, indent=1)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def python(*argv: str, cwd: str) -> str:
    """Stdout of a fresh interpreter that imports drivesim from SRC."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"python {' '.join(argv)} failed:\n{proc.stderr}")
    return proc.stdout


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(config: str) -> tuple[str, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        python("-m", "drivesim.cli", "run", config, "--out", "out", cwd=tmp)
        python("-m", "drivesim.cli", "evaluate", "out", cwd=tmp)
        in_memory = python("-c", IN_MEMORY, config, cwd=tmp).strip()
        out = Path(tmp) / "out"
        return sha256(out / "steps.jsonl"), sha256(out / "metrics.json"), in_memory


def write_variant(directory: str, name: str, planner: str) -> str:
    """Write the multi-vehicle configuration with every agent on planner and
    40 steps into directory as name.json; returns its path."""
    doc = json.loads(MULTI_VEHICLE.read_text())
    for block in doc["agents"].values():
        block["planner"] = planner
    doc["simulation"]["max_steps"] = 40
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def main() -> int:
    table = ["| config | steps.jsonl sha256 | metrics.json sha256 "
             "| in-memory metrics.json sha256 |", "|---|---|---|---|"]
    print(*table, sep="\n")
    configs = {name: name for name in agent_configs()}
    configs[MULTI_VEHICLE.stem] = str(MULTI_VEHICLE)
    with tempfile.TemporaryDirectory() as derived:
        configs["highway_idm12"] = write_variant(derived, "highway_idm12", "idm")
        configs["highway_frenet12x40"] = write_variant(derived, "highway_frenet12x40", "frenet")
        for name, config in configs.items():
            table.append("| `" + "` | `".join((name, *digests(config))) + "` |")
            print(table[-1], flush=True)
    expected = EXPECTED.read_text().splitlines()
    if table == expected:
        return 0
    print(f"\ndigests differ from {EXPECTED.relative_to(ROOT)}:")
    for line in difflib.unified_diff(expected, table, "expected", "this checkout", lineterm="", n=0):
        print(line)
    return 1


if __name__ == "__main__":
    sys.exit(main())
