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
`metrics.json`. drivesim is imported from the `src` directory next to this
script, so running the script of two checkouts compares their code. A
refactor that claims to keep behaviour must leave every digest unchanged.
"""

from __future__ import annotations

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


def agent_configs() -> list[str]:
    """Names of the bundled run configurations that simulate agents."""
    names = []
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        if "scenario" in doc and doc.get("substitute", sorted(doc.get("agents", {}))):
            names.append(path.stem)
    return names


def drivesim(*argv: str, cwd: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "drivesim.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"drivesim {' '.join(argv)} failed:\n{proc.stderr}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(config: str) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        drivesim("run", config, "--out", "out", cwd=tmp)
        drivesim("evaluate", "out", cwd=tmp)
        out = Path(tmp) / "out"
        return sha256(out / "steps.jsonl"), sha256(out / "metrics.json")


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
    print("| config | steps.jsonl sha256 | metrics.json sha256 |")
    print("|---|---|---|")
    configs = {name: name for name in agent_configs()}
    configs[MULTI_VEHICLE.stem] = str(MULTI_VEHICLE)
    with tempfile.TemporaryDirectory() as derived:
        configs["highway_idm12"] = write_variant(derived, "highway_idm12", "idm")
        configs["highway_frenet12x40"] = write_variant(derived, "highway_frenet12x40", "frenet")
        for name, config in configs.items():
            steps, metrics = digests(config)
            print(f"| `{name}` | `{steps}` | `{metrics}` |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
