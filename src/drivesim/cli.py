"""Command-line entry points: run, evaluate, benchmark, plotdata.

Every run directory carries a manifest with a content digest of the resolved
configuration so reruns can be matched to their inputs. Step logs are written
as line-delimited JSON with wall-clock timings kept in a separate file, which
makes the main log byte-identical across reruns and worker counts.

Exit codes: 0 completed (and --help), 1 usage/config error, bad command
lines included, 2 runtime failure. Agent outcomes (collisions, missed
goals) never change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .dynamics import AgentState, ControlInput, Trajectory
from .engine import (AgentStatus, PlannerBinding, SetupError, SimulationConfig,
                     SimulationResult, benchmark, run)
from .metrics import MetricConfig, evaluate
from .planners import FrenetPlannerConfig, IdmParams
from .prediction import PredictorConfig
from .scenario import ScenarioError, load_scenario, substitute_agents


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so that it exits 1 with
    an error line like every other usage error, not with argparse's 2."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


# ---------------------------------------------------------------------------
# Configuration


def _bundled_scenario_path(name: str) -> Path | None:
    ref = resources.files("drivesim.data") / f"{name}.json"
    try:
        with resources.as_file(ref) as p:
            return Path(p) if p.exists() else None
    except FileNotFoundError:
        return None


def resolve_scenario_path(spec: str, base_dir: Path) -> Path:
    """A scenario reference is either a path or the name of a bundled map."""
    cand = Path(spec)
    if not cand.is_absolute():
        cand = base_dir / cand
    if cand.exists():
        return cand
    bundled = _bundled_scenario_path(spec)
    if bundled is not None:
        return bundled
    raise ConfigError(f"scenario {spec!r} not found (no file and no bundled map)")


def _config_block(cls, block: dict, context: str):
    """cls built from one config block; an unknown key or a bad value raises
    a ConfigError naming the block."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(block) - names
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_run_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        bundled = _bundled_scenario_path(path.stem)
        if path.parent == Path(".") and bundled is not None:
            path = bundled
        else:
            raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if "scenario" not in doc:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    doc.setdefault("simulation", {})
    doc.setdefault("predictor", {})
    doc.setdefault("metrics", {})
    doc.setdefault("agents", {})
    doc.setdefault("substitute", sorted(doc["agents"]))
    doc["_base_dir"] = str(path.parent.resolve())
    doc["_config_path"] = str(path.resolve())
    return doc


def config_digest(doc: dict) -> str:
    resolved = {k: v for k, v in sorted(doc.items()) if not k.startswith("_")}
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_run(doc: dict):
    """Resolve a run config into (scenario, bindings, sim cfg, predictor, metric cfg)."""
    base_dir = Path(doc["_base_dir"])
    scn_path = resolve_scenario_path(str(doc["scenario"]), base_dir)
    scenario = load_scenario(scn_path)

    sim_cfg = _config_block(SimulationConfig, {"dt": scenario.dt, **doc["simulation"]},
                            "simulation")
    predictor = _config_block(PredictorConfig, doc["predictor"], "predictor")
    try:
        predictor.n_steps(sim_cfg.dt)
    except ValueError as exc:
        raise ConfigError(f"predictor: {exc}") from exc
    metric_cfg = _config_block(MetricConfig, doc["metrics"], "metrics")

    substitute = [str(a) for a in doc["substitute"]]
    if not substitute:
        raise ConfigError(f"{doc['_config_path']}: no agents to simulate; "
                          "give 'agents' or 'substitute'")
    recordings = {aid: tuple(scenario.dynamic_obstacle(aid).recorded_states)
                  for aid in substitute}
    sub = substitute_agents(scenario, substitute)

    bindings = {}
    for aid in substitute:
        block = dict(doc["agents"].get(aid, {}))
        kind = block.pop("planner", "frenet")
        v_ref = block.pop("v_ref", None)
        frenet = _config_block(FrenetPlannerConfig, block.pop("frenet", {}),
                               f"agents.{aid}.frenet")
        idm = _config_block(IdmParams, block.pop("idm", {}), f"agents.{aid}.idm")
        if block:
            raise ConfigError(f"agents.{aid}: unknown keys {sorted(block)}")
        bindings[aid] = PlannerBinding(kind=kind, recorded_states=recordings[aid],
                                       v_ref=v_ref, frenet_config=frenet, idm_params=idm)
    return sub, bindings, sim_cfg, predictor, metric_cfg, str(scn_path)


# ---------------------------------------------------------------------------
# Serialization helpers


def _state_dict(s: AgentState) -> dict:
    return {"x": s.x, "y": s.y, "v": s.v, "theta": s.theta}


def _input_dict(u: ControlInput | None):
    if u is None:
        return None
    return {"accel": u.accel, "curvature_cmd": u.curvature_cmd}


def _round_floats(obj, ndigits=9):
    if isinstance(obj, float):
        return round(obj, ndigits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, ndigits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, ndigits) for v in obj]
    return obj


def write_run_outputs(out_dir: Path, result: SimulationResult, manifest: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "steps.jsonl", "w") as fh:
        for log in result.step_logs:
            rec = {
                "step": log.step,
                "agents": {aid: {
                    "state": _state_dict(e["state"]),
                    "input": _input_dict(e["input"]),
                    "status": e["status"],
                    "planner_status": e["planner_status"],
                } for aid, e in sorted(log.agents.items())},
                "collision_events": log.collision_events,
            }
            fh.write(json.dumps(_round_floats(rec), sort_keys=True) + "\n")
    with open(out_dir / "timings.jsonl", "w") as fh:
        for log in result.step_logs:
            fh.write(json.dumps({"step": log.step, **log.timings}) + "\n")
    summary = {
        "n_steps": len(result.step_logs),
        "dt": result.dt,
        "statuses": {aid: st.value for aid, st in sorted(result.statuses.items())},
        "terminal_steps": {aid: result.terminal_steps[aid]
                           for aid in sorted(result.terminal_steps)},
        "trajectories": {
            aid: {
                "states": [_state_dict(s) for s in traj.states],
                "inputs": [_input_dict(u) for u in traj.inputs],
            } for aid, traj in sorted(result.trajectories.items())
        },
    }
    (out_dir / "summary.json").write_text(
        json.dumps(_round_floats(summary), sort_keys=True, indent=1))
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def read_run_outputs(run_dir: Path):
    """Reconstruct a SimulationResult (minus timings) from a run directory."""
    for name in ("manifest.json", "summary.json", "steps.jsonl"):
        if not (run_dir / name).exists():
            raise ConfigError(f"{run_dir} is not a complete run directory (missing {name})")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    summary = json.loads((run_dir / "summary.json").read_text())
    dt = float(summary["dt"])
    trajectories = {}
    for aid, block in summary["trajectories"].items():
        states = [AgentState(s["x"], s["y"], s["v"], s["theta"]) for s in block["states"]]
        inputs = [ControlInput(u["accel"], u["curvature_cmd"])
                  for u in block["inputs"] if u is not None]
        trajectories[aid] = Trajectory(states, inputs[:len(states) - 1], dt)
    statuses = {aid: AgentStatus(v) for aid, v in summary["statuses"].items()}
    result = SimulationResult(
        step_logs=[None] * int(summary["n_steps"]),
        statuses=statuses,
        terminal_steps={aid: v for aid, v in summary["terminal_steps"].items()},
        trajectories=trajectories,
        dt=dt,
    )
    return result, manifest


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    doc = load_run_config(args.config)
    scenario, bindings, sim_cfg, predictor, _, scn_path = build_run(doc)
    manifest = {
        "config_path": doc["_config_path"],
        "scenario_path": scn_path,
        "output_dir": str(Path(args.out).resolve()),
        "tool_version": __version__,
        "config_digest": config_digest(doc),
    }
    result = run(scenario, bindings, sim_cfg, predictor)
    write_run_outputs(Path(args.out), result, manifest)
    statuses = ", ".join(f"{aid}={st.value}" for aid, st in sorted(result.statuses.items()))
    print(f"completed {len(result.step_logs)} steps; {statuses}")
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run_dir)
    result, manifest = read_run_outputs(run_dir)
    doc = load_run_config(manifest["config_path"])
    digest = config_digest(doc)
    if digest != manifest.get("config_digest"):
        raise ConfigError(
            f"{manifest['config_path']} changed since the run: its digest is {digest}, "
            f"the run's manifest records {manifest.get('config_digest')}")
    scenario, _, _, _, metric_cfg, _ = build_run(doc)
    report = evaluate(result, scenario, metric_cfg)
    (run_dir / "metrics.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1))
    write_metrics_csv(run_dir / "metrics_summary.csv", report)
    print(f"wrote {run_dir / 'metrics.json'} and {run_dir / 'metrics_summary.csv'}")
    return 0


def write_metrics_csv(path, report):
    """One row per agent with the table-style aggregate measures."""
    cols = ["agent", "min_dce", "min_ttc", "max_btn", "max_stn",
            "tet", "tit", "et", "pet", "collided", "status"]

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return "inf" if math.isinf(v) else f"{v:.6g}"
        return str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for aid in sorted(report.aggregates):
            agg = report.aggregates[aid]
            writer.writerow([aid] + [fmt(agg[c]) for c in cols[1:]])


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {text!r} is not a comma-separated list of integers") from exc


def cmd_benchmark(args) -> int:
    agent_counts = _int_list(args.agents, "--agents")
    worker_counts = _int_list(args.workers, "--workers")
    doc = load_run_config(args.config)
    base_dir = Path(doc["_base_dir"])
    scn_path = resolve_scenario_path(str(doc["scenario"]), base_dir)
    scenario = load_scenario(scn_path)
    rows = benchmark(scenario, agent_counts, worker_counts, args.reps, steps=args.steps)
    cols = list(rows[0].keys())
    out = sys.stdout
    close = False
    if args.out:
        out = open(args.out, "w", newline="")
        close = True
    try:
        writer = csv.writer(out)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([f"{row[c]:.6g}" if isinstance(row[c], float) else row[c]
                             for c in cols])
    finally:
        if close:
            out.close()
    return 0


def cmd_plotdata(args) -> int:
    run_dir = Path(args.run_dir)
    result, _ = read_run_outputs(run_dir)
    plot_dir = run_dir / "plot"
    plot_dir.mkdir(exist_ok=True)
    for aid, traj in sorted(result.trajectories.items()):
        with open(plot_dir / f"{aid}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "v", "theta"])
            for k, s in enumerate(traj.states):
                writer.writerow([f"{k * result.dt:.6g}", f"{s.x:.6g}", f"{s.y:.6g}",
                                 f"{s.v:.6g}", f"{s.theta:.6g}"])
    print(f"wrote {len(result.trajectories)} series files to {plot_dir}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="drivesim",
        description="Deterministic multi-agent driving simulation and criticality evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a run configuration")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="compute criticality metrics for a finished run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="time the planning step over agent/worker grids")
    p.add_argument("config")
    p.add_argument("--agents", required=True, help="comma-separated agent counts")
    p.add_argument("--workers", required=True, help="comma-separated worker counts")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("plotdata", help="emit per-agent time series for plotting")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ScenarioError, SetupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
