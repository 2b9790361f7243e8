"""Command-line contract: exit codes, config handling, deterministic output."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import stochflow
from stochflow.cli import _number, main
from stochflow.experiments import EXPERIMENTS, run_experiment

#: the default ``summary.json`` of every experiment at seed 1234
_FIXTURES = Path(__file__).parent / "fixtures" / "summaries"


@pytest.fixture()
def runner():
    return CliRunner()


def test_list_names_every_experiment(runner):
    result = runner.invoke(main, ["list"])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines() if ln.strip()]
    assert len(lines) == len(EXPERIMENTS) == 10
    for name in EXPERIMENTS:
        assert any(ln.startswith(name) for ln in lines), name


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_describe_prints_thresholds_and_defaults(runner, name):
    result = runner.invoke(main, ["describe", name])
    assert result.exit_code == 0
    # a title: the registry key, underlined with "=" to its length
    assert result.output.splitlines()[:2] == [name, "=" * len(name)]
    assert "default parameters:" in result.output
    # every check of the default run, or its family, with the threshold as `run` echoes it
    lines = [ln.strip() for ln in result.output.splitlines()]
    for chk in json.loads((_FIXTURES / f"{name}.json").read_text())["checks"]:
        head = f"{chk['name'].split('[')[0]} {chk['comparison']} {_number(chk['threshold'])} "
        assert any(ln.startswith(head) for ln in lines), head
    for key, (comparison, bound) in EXPERIMENTS[name].minimums.items():
        assert f"{key} = {EXPERIMENTS[name].defaults[key]}  (must be {comparison} {bound})" in lines


def test_run_writes_outputs_and_exits_zero(runner, tmp_path):
    out = tmp_path / "res"
    result = runner.invoke(main, ["run", "ga-identities", "--out", str(out), "--seed", "5"])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["seed"] == 5
    assert summary["experiment"] == "ga-identities"
    assert (out / "manifest.json").exists()
    assert (out / "identity_residuals.csv").exists()
    assert "[PASS]" in result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runtime_seconds"] > 0


def test_rerun_is_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = runner.invoke(main, ["run", "ga-identities", "--out", str(out)])
        assert result.exit_code == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "identity_residuals.csv").read_bytes() == (b / "identity_residuals.csv").read_bytes()


def test_unknown_config_key_exits_two_and_names_it(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_real_knob": 1}))
    result = runner.invoke(
        main, ["run", "colehopf-1d", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "not_a_real_knob" in result.output


def test_threads_is_an_unknown_parameter(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 4}))
    result = runner.invoke(
        main, ["run", "ga-identities", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "unknown parameter 'threads'" in result.output
    result = runner.invoke(main, ["run", "ga-identities", "--threads", "4"])
    assert result.exit_code == 2
    assert "--threads" in result.output


@pytest.mark.parametrize(
    "experiment, overrides, key, expected",
    [
        ("colehopf-3d", {"n": "abc"}, "n", "int"),
        ("ga-identities", {"n": 24.5}, "n", "int"),
        ("ga-identities", {"n": True}, "n", "int"),
        ("colehopf-1d", {"eps": "0.2"}, "eps", "float"),
        ("colehopf-1d", {"eps": False}, "eps", "float"),
        ("born-free", {"t_final": [1.0]}, "t_final", "float"),
        ("complex-increments", {"pairs": 3}, "pairs", "list"),
        ("complex-increments", {"pairs": [[1.0, "a"]]}, "pairs", "list of list of float"),
        ("complex-increments", {"pairs": [1.0]}, "pairs", "list of list of float"),
    ],
)
def test_config_value_of_wrong_type_exits_two_and_names_it(
    runner, tmp_path, experiment, overrides, key, expected
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    assert repr(key) in result.output
    assert f"type {expected}" in result.output


@pytest.mark.parametrize(
    "overrides, key",
    [({"seed": "x"}, "seed"), ({"seed": True}, "seed"), ({"seed": 1.5}, "seed")],
)
def test_config_seed_must_be_int(runner, tmp_path, overrides, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(
        main, ["run", "ga-identities", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert repr(key) in result.output
    assert "type int" in result.output


@pytest.mark.parametrize(
    "experiment, overrides, flags, key",
    [
        ("colehopf-1d", {"n": 4}, [], "'n'"),
        ("ga-identities", {"seed": -3}, [], "'seed'"),
        ("ga-identities", {}, ["--seed", "-1"], "'seed'"),
    ],
)
def test_value_the_experiment_rejects_exits_two_and_names_it(
    runner, tmp_path, experiment, overrides, flags, key
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert key in result.output


@pytest.mark.parametrize(
    "experiment, overrides, key",
    [
        ("born-harmonic", {"dt": 0.0}, "dt"),
        ("born-free", {"steps_per_point": 0}, "steps_per_point"),
        ("born-free", {"t_final": -1.0}, "t_final"),
        ("colehopf-1d", {"dt": 0.0}, "dt"),
        ("colehopf-1d", {"t_final": 0.0}, "t_final"),
        ("burgers-direct-vs-ch", {"dt": 0.0}, "dt"),
        ("sde-estimators", {"dt_short": 0.0}, "dt_short"),
        ("complex-increments", {"pairs": [["a", 1.0]]}, "pairs"),
        ("complex-increments", {"dt": 0.0}, "dt"),
        ("complex-increments", {"pairs": []}, "pairs"),
        ("variational", {"n_theta": 2}, "n_theta"),
        ("variational", {"t_complex": 0.0}, "t_complex"),
        ("fp-consistency", {"t_transient": 0.0}, "t_transient"),
        ("colehopf-3d", {"n_random": 0}, "n_random"),
        ("born-harmonic", {"method": "cn"}, "method"),
        ("ga-identities", {"n_algebra_trials": 0}, "n_algebra_trials"),
        ("colehopf-1d", {"b": float("inf")}, "b"),
        ("colehopf-3d", {"b": float("inf")}, "b"),
        ("variational", {"t_final": float("inf")}, "t_final"),
        ("sde-estimators", {"n_paths_short": 0}, "n_paths_short"),
        ("sde-estimators", {"n_paths_long": 0}, "n_paths_long"),
        ("variational", {"n_paths": 0}, "n_paths"),
        ("variational", {"n_paths": 1}, "n_paths"),
        ("complex-increments", {"n_samples": 0}, "n_samples"),
        ("colehopf-1d", {"eps": 0.0}, "eps"),
        ("colehopf-1d", {"k_mode": 0}, "k_mode"),
        ("colehopf-3d", {"amp": 0.0}, "amp"),
        ("variational", {"b": float("inf")}, "b"),
        ("complex-increments", {"pairs": [[float("inf"), 1.0]]}, "pairs"),
        ("complex-increments", {"pairs": [[1.0, float("inf")]]}, "pairs"),
        ("sde-estimators", {"b": float("inf")}, "b"),
        ("fp-consistency", {"b": float("inf")}, "b"),
        ("sde-estimators", {"half_window_short": -1}, "half_window_short"),
        ("sde-estimators", {"half_window_long": -20}, "half_window_long"),
    ],
)
def test_meaningless_value_exits_two_with_one_error_line(runner, tmp_path, experiment, overrides, key):
    # no step count, nothing to check, a count below its minimum, a list of the
    # wrong element type, a zero time step, an infinite value, a zero amplitude
    # or a removed parameter: each is a configuration error, never a traceback,
    # a FAIL against a meaningless threshold or a PASS with nothing to check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: ") and repr(key) in lines[0]


@pytest.mark.parametrize(
    "experiment, config, message",
    [
        ("complex-increments", '{"dt": 1e400}', "dt must be positive and finite, got inf"),
        ("sde-estimators", '{"n_paths_short": 1}', "no bin reaches 500 paths with n_paths_short = 1"),
        ("born-free", '{"n": 9}', "n must be >= 16, got 9"),
        ("born-free", '{"b": 1e400}', "noise amplitude b must be positive and finite, got inf"),
        ("born-harmonic", '{"b": 1e400}', "noise amplitude b must be positive and finite, got inf"),
        ("burgers-direct-vs-ch", '{"b": 1e400}', "noise amplitude b must be positive and finite, got inf"),
        ("colehopf-3d", '{"amp": 1e-300}', "amp must be >= 0.001, got 1e-300"),
    ],
)
def test_bad_value_exits_two_with_a_message_about_it(runner, tmp_path, experiment, config, message):
    # these once gave nine NaN FAILs, a numpy reduction error, the least grid of
    # the half-resolution run in place of the configured n, "field contains
    # non-finite entries" in place of the infinite b, and a vacuous PASS
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(message), line


@pytest.mark.parametrize(
    "experiment, key, comparison, bound",
    [(name, key, *minimum) for name, spec in EXPERIMENTS.items() for key, minimum in spec.minimums.items()],
)
def test_value_just_past_a_declared_minimum_exits_two(runner, tmp_path, experiment, key, comparison, bound):
    if comparison == ">":
        value = bound
    else:  # the next representable value below: one less for a count
        value = bound - 1 if isinstance(bound, int) else float(np.nextafter(bound, 0))
    assert type(value) is type(EXPERIMENTS[experiment].defaults[key])  # not a type error instead
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert repr(key) in lines[0] and f"{key} must be {comparison} {bound}, got {value}" in lines[0]


@pytest.mark.parametrize("change", ["add an undeclared check", "drop a declared check"])
def test_run_refuses_check_names_that_differ_from_the_declaration(monkeypatch, change):
    spec = EXPERIMENTS["ga-identities"]
    declared = [c.name for c in spec.checks]

    def run_with(names):
        fake = dataclasses.replace(spec, runner=lambda p, seed: ({n: 0.0 for n in names}, {}, {}))
        monkeypatch.setitem(EXPERIMENTS, "ga-identities", fake)
        return run_experiment("ga-identities", dict(spec.defaults), 0)

    assert len(run_with(declared)["summary"]["checks"]) == len(declared)
    names = declared + ["undeclared"] if change.startswith("add") else declared[1:]
    with pytest.raises(ValueError, match="not the declared"):
        run_with(names)


def test_non_finite_check_value_is_echoed_and_fails(runner, tmp_path, monkeypatch):
    from stochflow import cli
    from stochflow.output import check

    def fake_run(name, params, seed):
        checks = [check("residual", float("nan"), 1e-3), check("floor", float("-inf"), 0.0)]
        summary = {"experiment": name, "seed": seed, "params": params, "checks": checks,
                   "metrics": {"peak": float("inf")}, "pass": False}
        return {"summary": summary, "csvs": {}}

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "ga-identities", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "[FAIL] residual: nan <= 0.001" in result.output
    assert "[FAIL] floor: -inf <= 0" in result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["peak"] == "inf"


def test_config_int_accepted_for_float_parameter(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 1}))
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "ga-identities", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "summary.json").read_text())["params"]["b"] == 1


def test_malformed_config_exits_two(runner, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    result = runner.invoke(
        main, ["run", "colehopf-1d", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "JSON" in result.output


def test_missing_config_file_exits_two(runner, tmp_path):
    result = runner.invoke(
        main,
        ["run", "colehopf-1d", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


def test_config_overrides_are_applied_and_flags_win(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.2, "seed": 99}))
    out = tmp_path / "o"
    result = runner.invoke(
        main,
        ["run", "colehopf-1d", "--config", str(cfg), "--out", str(out), "--seed", "3"],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["params"]["eps"] == 0.2
    assert summary["seed"] == 3  # the command-line flag beats the file


def test_config_seed_used_when_no_flag(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99}))
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "ga-identities", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 99


def test_solver_breakdown_prints_only_the_error_line(tmp_path):
    # eps = 1.2 drives the direct Burgers solve to overflow; the user sees the
    # exit-2 message alone, not NumPy's RuntimeWarning lines before it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 1.2}))
    env = dict(os.environ, PYTHONPATH=str(Path(stochflow.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "stochflow.cli", "run", "burgers-direct-vs-ch",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ") and "'eps'" in lines[0]


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(stochflow.__file__).parents[1]))
    code = "import sys, stochflow.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_failing_check_exits_one(runner, tmp_path):
    # starve the transient run of resolution; the accuracy check must fail
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_transient": 32}))
    out = tmp_path / "o"
    result = runner.invoke(
        main, ["run", "fp-consistency", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert "[FAIL]" in result.output


def test_unknown_experiment_rejected(runner):
    result = runner.invoke(main, ["run", "perpetual-motion"])
    assert result.exit_code == 2
