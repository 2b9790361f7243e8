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
from stochflow import experiments
from stochflow.cli import _number, main
from stochflow.experiments import EXPERIMENTS, run_experiment
from stochflow.output import write_summary

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
    # the SIMD targets that the digest listing's first line names
    import output_digests

    simd = output_digests.environment().split(" simd ")[1].split()
    assert manifest["numpy_simd_targets"] == simd == sorted(simd)


def test_run_names_no_simd_targets_where_numpy_found_none(runner, tmp_path, monkeypatch):
    # numpy's config drops an empty "found" list, as on a CPU without AVX2
    monkeypatch.setattr(np, "show_config", lambda mode: {"SIMD Extensions": {"baseline": ["SSE"]}})
    out = tmp_path / "res"
    result = runner.invoke(main, ["run", "ga-identities", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "manifest.json").read_text())["numpy_simd_targets"] == []
    import output_digests

    assert output_digests.environment() == f"# numpy {np.__version__} simd "


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


def _overrides_id(value):
    """A config's id, each key with its value as compact JSON, so that a case keeps its id when
    another is added or removed; other parameters keep pytest's ids."""
    if not isinstance(value, dict):
        return None
    pairs = (f"{key}={json.dumps(v, separators=(',', ':'))}" for key, v in value.items())
    return "-".join(pairs) or "defaults"


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
    ids=_overrides_id,
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
    ids=_overrides_id,
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
    ids=_overrides_id,
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


def _case_id(experiment: str, overrides: dict) -> str:
    return f"{experiment}-{_overrides_id(overrides)}"


_MEANINGLESS = [pytest.param(e, o, k, id=_case_id(e, o)) for e, o, k in [
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
    ("ga-identities", {"b": float("inf")}, "b"),
    ("ga-identities", {"b": 0.0}, "b"),
    ("ga-identities", {"b": -1.0}, "b"),
    ("born-harmonic", {"b": 0.0}, "b"),
    ("sde-estimators", {"theta": 3000.0}, "theta"),
    ("sde-estimators", {"theta": 1e6}, "theta"),
]]


@pytest.mark.parametrize("experiment, overrides, key", _MEANINGLESS)
def test_meaningless_value_exits_two_with_one_error_line(runner, tmp_path, experiment, overrides, key):
    # no step count, nothing to check, a count below its minimum, a list of the
    # wrong element type, a zero time step, an infinite value, a zero amplitude,
    # a drift past Euler-Maruyama stability or a removed parameter: each is a
    # configuration error, never a traceback, a FAIL against a meaningless
    # threshold or a PASS with nothing to check
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


_BAD_VALUES = [pytest.param(e, c, m, id=_case_id(e, json.loads(c))) for e, c, m in [
    ("complex-increments", '{"dt": 1e400}', "dt must be finite, got inf"),
    ("sde-estimators", '{"n_paths_short": 1}', "no bin reaches 500 paths with n_paths_short = 1"),
    ("born-free", '{"n": 9}', "n must be >= 16, got 9"),
    ("born-free", '{"b": 1e400}', "b must be finite, got inf"),
    ("born-harmonic", '{"b": 1e400}', "b must be finite, got inf"),
    ("burgers-direct-vs-ch", '{"b": 1e400}', "b must be finite, got inf"),
    ("burgers-direct-vs-ch", '{"window_half_width": NaN}', "window_half_width must be finite, got nan"),
    ("fp-consistency", '{"theta": -Infinity}', "theta must be finite, got -inf"),
    ("colehopf-3d", '{"amp": 1e-300}', "amp must be >= 0.001, got 1e-300"),
    ("sde-estimators", '{"theta": 3000}', "Euler-Maruyama steps of dt = 0.001 are unstable for this drift"),
    ("complex-increments", '{"pairs": [[1.0, 1.0], [1.0000001, 1.0]], "n_samples": 1000}',
     "the run makes check 'mean_dz[b=1,bhat=1]' twice"),
]]


def test_error_case_ids_are_unique_and_name_the_override():
    # an id built from the experiment and its overrides stays with its case
    # when another is added or removed, unlike a positional overrides<N> id
    ids = [case.id for case in _MEANINGLESS + _BAD_VALUES]
    assert len(set(ids)) == len(ids)
    for case in _MEANINGLESS + _BAD_VALUES:
        assert case.id.startswith(f"{case.values[0]}-")
        assert "overrides" not in case.id


@pytest.mark.parametrize("experiment, config, message", _BAD_VALUES)
def test_bad_value_exits_two_with_a_message_about_it(runner, tmp_path, experiment, config, message):
    # these once gave nine NaN FAILs, a numpy reduction error, the least grid of
    # the half-resolution run in place of the configured n, "field contains
    # non-finite entries" in place of the infinite b, a vacuous PASS, numpy's
    # "Maximum allowed size exceeded" for paths that blew up, and a PASS on 3 of
    # 6 checks, the second pair's tags overwriting the first's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(message), line


@pytest.mark.parametrize(
    "experiment, overrides",
    [pytest.param(*case.values[:2], id=case.id) for case in _MEANINGLESS]
    + [pytest.param(case.values[0], json.loads(case.values[1]), id=case.id) for case in _BAD_VALUES],
)
def test_cli_error_line_ends_with_the_library_error(runner, tmp_path, experiment, overrides):
    # one gate judges a configuration, so the CLI prints what the library raises
    with pytest.raises(ValueError) as library:
        run_experiment(experiment, overrides, 1234)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.splitlines()
    assert line.endswith(f": {library.value}"), line


@pytest.mark.parametrize(
    "experiment, key, comparison, bound",
    [(name, key, *minimum) for name, spec in EXPERIMENTS.items() for key, minimum in spec.minimums.items()],
)
def test_value_just_past_a_declared_minimum_exits_two(runner, tmp_path, experiment, key, comparison, bound):
    if comparison in (">", "!="):
        value = bound
    else:  # the next representable value below: one less for a count
        value = bound - 1 if isinstance(bound, int) else float(np.nextafter(bound, -np.inf))
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


#: (experiment, key, value) of the 0/-1 sweep that is not run, with the reason
_SWEEP_NOT_RUN = {
    **{("born-free", key, v): "a start position or a carrier of whole cycles; any value is a packet"
       for key in ("x0_offset", "k0_cycles") for v in (0, -1)},
    ("sde-estimators", "half_window_short", 0): "a window of one interior step still estimates",
    ("sde-estimators", "half_window_long", 0): "a window of one interior step still estimates",
    ("sde-estimators", "x0_spread", 0): "a point start is a start; the drift spreads it",
}
_SWEEP = [
    (name, key, type(default)(v))
    for name, spec in EXPERIMENTS.items()
    for key, default in spec.defaults.items()
    if isinstance(default, (int, float)) and not isinstance(default, bool)
    for v in (0, -1)
]


def _unreached(p, seed, run):
    raise AssertionError("the runner started")


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        (name, key, value)
        for name, spec in EXPERIMENTS.items()
        for key, default in spec.defaults.items()
        if isinstance(default, float)
        for value in (np.nan, np.inf, -np.inf)
    ],
)
def test_non_finite_float_parameter_is_rejected_before_the_run(monkeypatch, experiment, key, value):
    # once refused only by the field it poisoned ("field contains non-finite
    # entries"), or, for a window of infinite width, a FAIL
    spec = dataclasses.replace(EXPERIMENTS[experiment], runner=_unreached)
    monkeypatch.setitem(EXPERIMENTS, experiment, spec)
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
        run_experiment(experiment, dict(spec.defaults, **{key: value}), 1234)


def _assert_config_error(runner, tmp_path, experiment, config_text, named):
    """``stochflow run`` on ``config_text`` exits 2 with one error line naming ``named``,
    and leaves no directory behind of those it made for its output."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    result = runner.invoke(
        main, ["run", experiment, "--config", str(cfg), "--out", str(tmp_path / "o" / "p")]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and named in line, line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment, key",
    [
        pytest.param(name, key, id=f"{name}-{key}")
        for name, spec in EXPERIMENTS.items()
        for key, default in spec.defaults.items()
        if isinstance(default, float)
    ],
)
def test_int_too_large_for_a_float_parameter_exits_two(runner, tmp_path, experiment, key):
    # an int of 400 digits passes the type gate of a float parameter; numpy's finite
    # check once raised a TypeError on it, a traceback that left the output directory
    _assert_config_error(runner, tmp_path, experiment, json.dumps({key: 10**400}), repr(key))


def test_int_too_large_for_a_float_in_a_list_parameter_exits_two(runner, tmp_path):
    # once an OverflowError from the runner's arithmetic on the pair
    config = json.dumps({"pairs": [[10**400, 1.0]], "n_samples": 1000})
    _assert_config_error(runner, tmp_path, "complex-increments", config, "'pairs'")


def test_integer_literal_past_the_digit_limit_exits_two(runner, tmp_path):
    # json.loads raises a ValueError that is not a JSONDecodeError for an integer
    # literal of more than 4,300 digits
    config = '{"length": 1' + "0" * 5000 + "}"
    _assert_config_error(runner, tmp_path, "born-free", config, str(tmp_path / "cfg.json"))


@pytest.mark.parametrize(
    "experiment, overrides, seed, key",
    [
        ("colehopf-1d", {"bogus": 3}, 1234, "bogus"),
        ("colehopf-1d", {"n": 512.0}, 1234, "n"),
        ("colehopf-1d", {"k_mode": 1.5}, 1234, "k_mode"),
        ("colehopf-1d", {"b": "1"}, 1234, "b"),
        ("colehopf-1d", {"n": True}, 1234, "n"),
        ("born-free", {}, -1, "seed"),
        ("born-free", {}, 1.5, "seed"),
        ("born-free", {}, True, "seed"),
    ],
    ids=_overrides_id,
)
def test_library_path_rejects_what_the_cli_rejects(monkeypatch, experiment, overrides, seed, key):
    # the library once ran these, echoing the key or the seed into the summary,
    # or broke down in numpy (a TypeError for n = 512.0, "field contains
    # non-finite entries" for k_mode = 1.5)
    spec = dataclasses.replace(EXPERIMENTS[experiment], runner=_unreached)
    monkeypatch.setitem(EXPERIMENTS, experiment, spec)
    with pytest.raises(ValueError, match=f"'{key}'"):
        run_experiment(experiment, overrides, seed)


@pytest.mark.parametrize(
    "experiment, overrides", [("colehopf-1d", {"eps": 0.2}), ("ga-identities", {})],
    ids=_overrides_id,
)
def test_partial_overrides_give_the_summary_of_the_full_dict(tmp_path, experiment, overrides):
    written = []
    for params in (overrides, dict(EXPERIMENTS[experiment].defaults, **overrides)):
        out = tmp_path / str(len(written))
        out.mkdir()
        summary = run_experiment(experiment, params, 1234)["summary"]
        written.append(write_summary(out, summary).read_bytes())
    assert written[0] == written[1]


def test_summary_params_are_a_fresh_dict_not_the_specs_defaults():
    defaults = EXPERIMENTS["ga-identities"].defaults
    params = run_experiment("ga-identities", defaults, 1234)["summary"]["params"]
    assert params == defaults and params is not defaults


def test_sde_estimators_check_the_long_run_time_step_before_simulating(monkeypatch):
    def unreached(*args, **kwargs):
        raise AssertionError("run (a) simulated")

    monkeypatch.setattr(experiments, "simulate_forward", unreached)
    defaults = EXPERIMENTS["sde-estimators"].defaults
    for key in ("t_long", "dt_long"):
        with pytest.raises(ValueError, match="must be positive"):
            run_experiment("sde-estimators", dict(defaults, **{key: 0.0}), 1234)


def test_front_window_just_past_its_limit_is_rejected():
    # the limit keeps the window 5 diffusion lengths clear of the fan that the
    # seam opens; at the defaults it lies between 8 (2.6e-5) and 9 (6.0e-4)
    spec = EXPERIMENTS["burgers-direct-vs-ch"]
    limit = experiments._front_window_limit(spec.defaults)
    assert 8.0 < limit < 9.0
    summary = run_experiment(
        "burgers-direct-vs-ch", dict(spec.defaults, window_half_width=limit), 1234
    )["summary"]
    (front,) = [c for c in summary["checks"] if c["name"] == "travelling_front_window_error"]
    assert front["pass"] and front["value"] < 1e-3
    past = float(np.nextafter(limit, np.inf))
    # a quarter of a 16-long domain read 0.18 against 1e-2 before the limit
    too_wide = ({"window_half_width": past},
                {"front_length": 16.0, "front_n": 256, "window_half_width": 4.0})
    for params in too_wide:
        with pytest.raises(ValueError, match="^window_half_width must be <= .* the periodic seam"):
            run_experiment("burgers-direct-vs-ch", dict(spec.defaults, **params), 1234)


def test_sweep_exceptions_name_cases_of_the_sweep():
    assert set(_SWEEP_NOT_RUN) <= set(_SWEEP)


@pytest.mark.parametrize(
    "experiment, key, value", [case for case in _SWEEP if case not in _SWEEP_NOT_RUN]
)
def test_sweep_of_zero_and_minus_one_rejects_or_leaves_every_check_something(
    experiment, key, value
):
    # a value that hollows a check out, as a front speed of 0 once did with a front a == 0,
    # must be a configuration error; one that runs keeps every check's value off exactly 0.0
    params = dict(EXPERIMENTS[experiment].defaults, **{key: value})
    try:
        summary = run_experiment(experiment, params, 1234)["summary"]
    except ValueError:
        return
    defaults = json.loads((_FIXTURES / f"{experiment}.json").read_text())["checks"]
    nonzero_at_defaults = {chk["name"] for chk in defaults if chk["value"] != 0.0}
    hollow = [chk["name"] for chk in summary["checks"]
              if chk["value"] == 0.0 and chk["name"] in nonzero_at_defaults]
    assert not hollow, hollow


_DECLARED = [c.name for c in EXPERIMENTS["ga-identities"].checks]
#: change -> (the names a fake runner checks, the error, the names whose next statement ran)
_NAME_CHANGES = {
    # an undeclared or repeated name raises at its call: the runner stops there
    "add an undeclared check": (_DECLARED + ["undeclared"],
                                "^the run makes check 'undeclared', of no declared family$",
                                _DECLARED),
    "drop a declared check": (_DECLARED[1:],
                              rf"^the run makes no check of the declared \['{_DECLARED[0]}'\]$",
                              _DECLARED[1:]),
    "repeat a check name": (_DECLARED + [_DECLARED[1]],
                            f"^the run makes check '{_DECLARED[1]}' twice$", _DECLARED),
}


@pytest.mark.parametrize("change", list(_NAME_CHANGES))
def test_run_refuses_check_names_that_differ_from_the_declaration(monkeypatch, change):
    names, message, reached = _NAME_CHANGES[change]
    spec = EXPERIMENTS["ga-identities"]
    made = []

    def run_with(names):
        def fake(p, seed, run):
            for n in names:
                run.check(n, 0.0)
                made.append(n)

        monkeypatch.setitem(EXPERIMENTS, "ga-identities", dataclasses.replace(spec, runner=fake))
        return run_experiment("ga-identities", dict(spec.defaults), 0)

    assert len(run_with(_DECLARED)["summary"]["checks"]) == len(_DECLARED)
    made.clear()
    with pytest.raises(ValueError, match=message):
        run_with(names)
    assert made == reached


def test_non_finite_check_value_is_echoed_and_fails(runner, tmp_path, monkeypatch):
    from stochflow import cli

    def fake_run(name, params, seed):
        # the records run_experiment makes of the values nan and -inf
        checks = [
            {"name": "residual", "value": "nan", "threshold": 1e-3, "comparison": "<=", "pass": False},
            {"name": "floor", "value": "-inf", "threshold": 0.0, "comparison": "<=", "pass": False},
        ]
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


@pytest.mark.parametrize("out_flags", [["--out", "x/a/b"], []])
def test_rejected_config_removes_the_directories_the_run_created(runner, tmp_path, monkeypatch,
                                                                 out_flags):
    # they were once left behind, empty: x/a/b, or runs/ga-identities without --out
    (tmp_path / "bad.json").write_text(json.dumps({"n": 24.5}))
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["run", "ga-identities", "--config", "bad.json", *out_flags])
    assert result.exit_code == 2, result.output
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_rejected_config_keeps_an_output_directory_that_existed(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n": 24.5}))
    out = tmp_path / "existing"
    out.mkdir()
    result = runner.invoke(main, ["run", "ga-identities", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert out.is_dir()


def test_unwritable_output_directory_exits_two_before_the_run(runner, tmp_path, monkeypatch):
    from stochflow import cli

    def unreached(name, overrides, seed):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", unreached)
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(main, ["run", "ga-identities", "--out", str(blocker / "out")])
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: cannot create output directory {blocker / 'out'}: ")


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
    # scipy, and the thread pool that only a simulation starts
    code = (
        "import sys, stochflow.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent.futures'))))"
    )
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
