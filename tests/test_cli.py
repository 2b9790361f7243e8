"""Command-line contract: exit codes, config handling, deterministic output."""

import json

import pytest
from click.testing import CliRunner

from stochflow.cli import main
from stochflow.experiments import EXPERIMENTS


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
    assert name in result.output
    assert "default parameters:" in result.output
    # every description quotes at least one tolerance
    assert "<=" in result.output or "==" in result.output or "3/sqrt" in result.output


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


@pytest.mark.parametrize(
    "experiment, overrides, key, expected",
    [
        ("colehopf-3d", {"n": "abc"}, "n", "int"),
        ("ga-identities", {"n": 24.5}, "n", "int"),
        ("ga-identities", {"n": True}, "n", "int"),
        ("colehopf-1d", {"eps": "0.2"}, "eps", "float"),
        ("colehopf-1d", {"eps": False}, "eps", "float"),
        ("born-free", {"method": 1}, "method", "str"),
        ("complex-increments", {"pairs": 3}, "pairs", "list"),
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


def test_threads_env_fallback(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("STOCHFLOW_THREADS", "4")
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "ga-identities", "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads((out / "manifest.json").read_text())["threads"] == 4
    monkeypatch.setenv("STOCHFLOW_THREADS", "many")
    result = runner.invoke(main, ["run", "ga-identities", "--out", str(tmp_path / "p")])
    assert result.exit_code == 2


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
