"""Command-line interface: configs, subcommands, output files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drivesim.cli import (ConfigError, build_run, config_digest,
                          load_run_config, main, resolve_scenario_path)


@pytest.fixture()
def quick_config(tmp_path):
    """A fast all-replay run on the bundled merge map."""
    path = tmp_path / "quick.json"
    path.write_text(json.dumps({
        "scenario": "merge",
        "simulation": {"max_steps": 40},
        "substitute": ["green", "orange"],
        "agents": {"green": {"planner": "replay"}, "orange": {"planner": "replay"}},
    }))
    return path


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "nope.json")

    def test_bundled_name_resolves(self):
        doc = load_run_config("merge_replay")
        assert doc["scenario"] == "merge"

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(p)

    def test_missing_scenario_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        with pytest.raises(ConfigError, match="scenario"):
            load_run_config(p)

    def test_unknown_agent_key_rejected(self, quick_config):
        doc = load_run_config(quick_config)
        doc["agents"]["green"]["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            build_run(doc)

    def test_unknown_scenario(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"scenario": "atlantis", "substitute": []}))
        with pytest.raises(ConfigError, match="atlantis"):
            build_run(load_run_config(p))

    def test_digest_ignores_private_keys_and_order(self):
        a = {"scenario": "merge", "substitute": ["x"], "_base_dir": "/tmp/a"}
        b = {"substitute": ["x"], "scenario": "merge", "_base_dir": "/tmp/b"}
        assert config_digest(a) == config_digest(b)

    def test_resolve_scenario_path_prefers_files(self, tmp_path):
        (tmp_path / "merge").write_text("{}")
        assert resolve_scenario_path("merge", tmp_path) == tmp_path / "merge"


class TestSubcommands:
    def test_run_outputs(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", str(quick_config), "--out", str(out)]) == 0
        for name in ("steps.jsonl", "timings.jsonl", "summary.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["statuses"]) == {"green", "orange"}
        first = json.loads((out / "steps.jsonl").read_text().splitlines()[0])
        assert first["step"] == 0
        assert "timings" not in first  # determinism-comparable by construction

    def test_run_twice_byte_identical(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", str(quick_config), "--out", str(out1)])
        main(["run", str(quick_config), "--out", str(out2)])
        assert (out1 / "steps.jsonl").read_bytes() == (out2 / "steps.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_evaluate(self, quick_config, tmp_path):
        out = tmp_path / "run"
        main(["run", str(quick_config), "--out", str(out)])
        assert main(["evaluate", str(out)]) == 0
        assert (out / "metrics.json").exists()
        with open(out / "metrics_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["agent"] for r in rows} == {"green", "orange"}
        assert {"min_dce", "min_ttc", "et", "pet", "collided", "status"} <= set(rows[0])

    def test_evaluate_rejects_edited_config(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", str(quick_config), "--out", str(out)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config_digest"]
        doc = json.loads(quick_config.read_text())
        doc["simulation"]["max_steps"] = 41
        quick_config.write_text(json.dumps(doc))
        assert main(["evaluate", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(quick_config.resolve()) in err
        assert recorded in err
        assert config_digest(load_run_config(quick_config)) in err
        assert not (out / "metrics.json").exists()

    def test_run_without_agents_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "highway_benchmark", "--out", str(out)]) == 1
        assert "no agents" in capsys.readouterr().err
        assert not (out / "steps.jsonl").exists()

    def test_run_rejects_agents_block_of_unsubstituted_id(self, tmp_path, capsys):
        """An agents block configures only an id in substitute; one for any
        other id exits 1 naming the block, where it once ran with the block
        ignored and the vehicle left a recorded obstacle. Every bundled run
        configuration still builds."""
        path, out = tmp_path / "c.json", tmp_path / "run"
        path.write_text(json.dumps({
            "scenario": "merge", "substitute": ["green"],
            "agents": {"orange": {"planner": "idm"}, "green": {"planner": "frenet"}}}))
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "agents.orange: not substituted" in capsys.readouterr().err
        assert not (out / "steps.jsonl").exists()
        for name in (f"{m}_{r}" for m in ("merge", "intersection")
                     for r in ("replay", "idm", "frenet")):
            build_run(load_run_config(name))

    def test_plotdata(self, quick_config, tmp_path):
        out = tmp_path / "run"
        main(["run", str(quick_config), "--out", str(out)])
        assert main(["plotdata", str(out)]) == 0
        with open(out / "plot" / "green.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "x", "y", "v", "theta"]
        assert float(rows[1]["t"]) == pytest.approx(0.1)

    def test_benchmark_csv(self, tmp_path, capsys):
        code = main(["benchmark", "highway_benchmark", "--agents", "2",
                     "--workers", "1", "--reps", "1", "--steps", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n_agents,workers,mean_step_time")
        assert lines[0].endswith(",agents_removed,reached,missed,collided,infeasible")
        assert len(lines) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--agents", "0", "agent count 0"),
        ("--agents", "-1", "agent count -1"),
        ("--agents", "x", "--agents: 'x'"),
        ("--workers", "0", "worker count 0"),
        ("--workers", "1,x", "--workers: '1,x'"),
        ("--reps", "0", "repetition count 0"),
        ("--steps", "0", "step count 0"),
    ])
    def test_benchmark_rejects_bad_arguments(self, capsys, flag, value, message):
        """A count below 1 or one that is not an integer is a usage error
        (exit 1) naming the flag or count, not a runtime failure, and no row
        is written."""
        args = {"--agents": "2", "--workers": "1", "--reps": "1", "--steps": "1", flag: value}
        argv = ["benchmark", "highway_benchmark"] + [a for kv in args.items() for a in kv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    @pytest.mark.parametrize("t_end", [0.04, 0.0, -1.0])
    def test_run_rejects_degenerate_horizon(self, tmp_path, capsys, t_end):
        """A horizon that is not positive, or rounds to no step of dt, stops
        the run with a message naming it instead of leaving every agent
        infeasible."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scenario": "merge",
            "simulation": {"max_steps": 5},
            "agents": {"orange": {"planner": "frenet",
                                  "frenet": {"t_end_samples": [t_end]}}},
        }))
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"t_end={t_end} s" in err and "orange" in err
        assert not (out / "steps.jsonl").exists()

    @pytest.mark.parametrize("block, key, value", [
        ("simulation", "worker_count", 0), ("simulation", "worker_count", 1.5),
        ("simulation", "dt", 0), ("simulation", "max_steps", -5),
        ("simulation", "visibility_radius", -1),
        ("predictor", "horizon", 0), ("predictor", "horizon", 0.25),
        ("predictor", "horizon", float("inf")), ("predictor", "growth_rate", -1),
        ("predictor", "growth_rate", float("inf")), ("metrics", "ttc_threshold", -1)])
    def test_run_rejects_bad_block_value(self, quick_config, tmp_path, capsys,
                                         block, key, value):
        """A bad value in the simulation, predictor or metrics block, or a
        prediction horizon that is no multiple of dt (0.1 s here), stops the
        run with exit 1 and a message naming the block, before any step. A
        negative max_steps once ran no step and exited 0, a negative growth
        rate left every Frenet agent infeasible, an infinite horizon exited 2
        with an OverflowError and an infinite growth rate made every
        predicted box infinite."""
        doc = json.loads(quick_config.read_text())
        doc.setdefault(block, {})[key] = value
        quick_config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["run", str(quick_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {block}: ") and key in err
        assert not (out / "steps.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("accel", 0), ("decel", 0), ("exponent", 0), ("corridor_halfwidth", 0),
        ("headway", -1), ("min_gap", -1)])
    def test_run_rejects_bad_idm_params(self, tmp_path, capsys, key, value):
        """A bad IDM parameter stops the run with exit 1 naming the agent's
        idm block, instead of an agent left infeasible or a run that
        completes."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scenario": "merge",
            "simulation": {"max_steps": 5},
            "agents": {"green": {"planner": "idm", "idm": {key: value}}},
        }))
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert f"agents.green.idm: {key}={value}" in capsys.readouterr().err
        assert not (out / "steps.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("risk_radius", 0), ("risk_radius", -8.0), ("risk_radius", float("nan")),
        ("risk_radius", float("inf")), ("w_risk", float("nan")), ("w_jerk", float("inf")),
        ("w_lat", -1), ("d_end_samples", [0.0, float("nan")]),
        ("v_frac_samples", [1.0, float("inf")])])
    def test_run_rejects_bad_frenet_config(self, tmp_path, capsys, key, value):
        """A risk radius that is not finite and > 0, or a weight or sample
        that is not finite, stops the run with exit 1 naming the agent's
        frenet block and the key. risk_radius 0 once only warned "divide by
        zero" and dropped the risk term; NaN weights and samples were taken."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scenario": "merge",
            "simulation": {"max_steps": 5},
            "agents": {"orange": {"planner": "frenet", "frenet": {key: value}}},
        }))
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert f"error: agents.orange.frenet: {key}=" in capsys.readouterr().err
        assert not (out / "steps.jsonl").exists()

    @pytest.mark.parametrize("value", ["abc", -5.0, 0, float("nan"), float("inf"), True])
    def test_run_rejects_bad_v_ref(self, tmp_path, capsys, value):
        """v_ref must be a finite number > 0: "abc" once left the agent
        infeasible after one step, and -5 and NaN were taken."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scenario": "merge",
            "simulation": {"max_steps": 5},
            "agents": {"green": {"planner": "frenet", "v_ref": value}},
        }))
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: agents.green: v_ref=") and "finite number > 0" in err
        assert not (out / "steps.jsonl").exists()

    @pytest.mark.parametrize("planner, key, value", [
        ("replay", "frenet", {}), ("replay", "v_ref", 10.0), ("replay", "idm", {}),
        ("idm", "frenet", {"w_lat": 2.0}), ("idm", "v_ref", 10.0), ("frenet", "idm", {})])
    def test_run_rejects_a_block_of_another_planner(self, tmp_path, capsys, planner, key,
                                                    value):
        """A frenet or v_ref entry on an agent that is not a Frenet agent, or
        an idm entry on one that is not an IDM agent, stops the run naming
        the agent and the key; it was once ignored without a message."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "scenario": "merge",
            "simulation": {"max_steps": 5},
            "agents": {"green": {"planner": planner, key: value}},
        }))
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: agents.green: key '{key}' ") and planner in err
        assert not (out / "steps.jsonl").exists()

    def test_error_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json"), "--out",
                     str(tmp_path / "o")]) == 1


class TestCommandLine:
    @pytest.mark.parametrize("argv, message", [
        (["benchmark", "highway_benchmark", "--agents", "2", "--workers", "1", "--reps", "x"],
         "argument --reps: invalid int value: 'x'"),
        (["benchmark", "highway_benchmark", "--agents", "2", "--workers", "1", "--steps", "x"],
         "argument --steps: invalid int value: 'x'"),
        (["run", "merge_replay"], "the following arguments are required: --out"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        (["plotdata", "out", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_bad_command_line_exits_1(self, capsys, argv, message):
        """A bad command line is a usage error: exit 1 with an error line
        and the usage, as for a bad config, not argparse's exit 2, which
        this CLI reserves for runtime failures."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "usage: drivesim" in captured.err and not captured.out

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["benchmark", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: drivesim")


FOOTPRINT = """
import importlib, pkgutil, sys
import drivesim
for info in pkgutil.walk_packages(drivesim.__path__, "drivesim."):
    importlib.import_module(info.name)
scipy = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
assert not scipy, f"importing drivesim loads {scipy[:5]}"
from drivesim import cli, engine, metrics
scenario, bindings, sim_cfg, predictor, metric_cfg, _ = cli.build_run(
    cli.load_run_config("intersection_frenet"))
before = set(sys.modules)
result = engine.run(scenario, bindings, sim_cfg, predictor)
assert set(sys.modules) == before, f"engine.run imports {sorted(set(sys.modules) - before)}"
metrics.evaluate(result, scenario, metric_cfg)
assert set(sys.modules) == before, f"evaluate imports {sorted(set(sys.modules) - before)}"
"""


def test_runtime_imports_no_scipy_and_nothing_lazily():
    """In a fresh interpreter, no drivesim module loads scipy, and neither
    engine.run nor metrics.evaluate of intersection_frenet imports a module
    the package has not (a lazy import, such as numpy.ma's from np.unique,
    would add its import time to the run or the evaluation)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
