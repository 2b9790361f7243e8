"""Acceptance gate: the ten headline claims, one pass/fail line each.

Every criterion drives the corresponding packaged experiment at its
default parameters (seed 1234) and asserts the relevant checks.  Each test
emits one ``[PASS]``/``[FAIL]`` line with the measured values and their
thresholds; the lines bypass output capture so they are always visible.
The same runs are compared against the stored default summaries.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from output_digests import differences, digest_line
from stochflow.cli import main as cli_main
from stochflow.experiments import EXPERIMENTS, run_experiment
from stochflow.output import jsonable, write_csv

_SEED = 1234
#: the default ``summary.json`` of every experiment at seed 1234
_FIXTURES = Path(__file__).parent / "fixtures" / "summaries"
#: the sha256 of every default output at seed 1234, as ``tests/output_digests.py`` lists them
_DIGESTS = Path(__file__).parent / "fixtures" / "output_digests.txt"
#: a stored value matches within this relative or absolute gap, whichever is looser
_REL_TOL, _ABS_TOL = 1e-12, 1e-15
_CACHE: dict = {}
_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_gate_lines(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _emit(line: str) -> None:
    if _CAPSYS is None:
        print(line)
    else:
        with _CAPSYS.disabled():
            print(line)


def _run(name: str):
    if name not in _CACHE:
        t0 = time.perf_counter()
        # under the strictest state a caller can set: run_experiment sets its own,
        # so these runs match the stored ones, which numpy's default state wrote
        with np.errstate(all="raise"):
            out = run_experiment(name, EXPERIMENTS[name].defaults, _SEED)
        _CACHE[name] = (out, time.perf_counter() - t0)
    return _CACHE[name]


def _checks(out) -> dict:
    return {c["name"]: c for c in out["summary"]["checks"]}


def _require(num: int, title: str, named_checks: dict, wanted: list[str], extra_ok: bool = True,
             extra_note: str = "") -> None:
    failed = [w for w in wanted if not named_checks[w]["pass"]]
    ok = not failed and extra_ok
    details = "; ".join(
        f"{w}={named_checks[w]['value']:.3g} (limit {named_checks[w]['threshold']:.3g})"
        for w in wanted
    )
    if extra_note:
        details = f"{details}; {extra_note}" if details else extra_note
    _emit(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({title}): {details}")
    assert ok, f"criterion {num} failed: {failed or extra_note}"


def test_criterion_01_free_packet_density_from_continuity_transport():
    out, runtime = _run("born-free")
    _require(
        1,
        "transported density matches F F*, converging at scheme order",
        _checks(out),
        [
            "relative_density_discrepancy",
            "halving_resolution_error_ratio",
            "transport_mass_drift",
        ],
        extra_ok=runtime <= 60.0,
        extra_note=f"runtime {runtime:.1f}s (limit 60s)",
    )


def test_criterion_02_harmonic_ground_state_stationarity():
    out, _ = _run("born-harmonic")
    _require(
        2,
        "trapped ground state stays put over T=10",
        _checks(out),
        ["stationary_density_discrepancy", "wavefunction_norm_drift"],
    )


def test_criterion_03_direct_nonlinear_solve_agrees_with_transform_route():
    out_c, _ = _run("colehopf-1d")
    out_r, _ = _run("burgers-direct-vs-ch")
    merged = {**_checks(out_c), **_checks(out_r)}
    _require(
        3,
        "complex-viscosity direct vs wave route; real front vs analytic",
        merged,
        ["direct_vs_transform_route", "travelling_front_window_error"],
    )


def test_criterion_04_cancellation_identity_and_conjugate_symmetry():
    out, _ = _run("colehopf-3d")
    _require(
        4,
        "gradient cancellation on 20 random fields; conjugate map mirrors V",
        _checks(out),
        ["cancellation_worst_linf", "conjugate_symmetry"],
    )


def test_criterion_05_stretched_gradient_identities():
    out, _ = _run("ga-identities")
    ch = _checks(out)
    wanted = [
        name for name in ch
        if name.endswith("[isotropic]") or name.endswith("[anisotropic_additive]")
    ]
    assert len(wanted) == 6  # 3 identities x 2 valid configs
    _require(5, "identity residuals at 1e-10", ch, wanted)


def test_criterion_06_sde_estimators_recover_drift_noise_velocities():
    out, _ = _run("sde-estimators")
    _require(
        6,
        "drift, b^2, current and osmotic velocities within 5 stderr",
        _checks(out),
        [
            "drift_recovery_max_z",
            "noise_recovery_z",
            "osmotic_velocity_max_z",
            "current_velocity_max_z",
        ],
    )


def test_criterion_07_complex_increment_moments():
    out, _ = _run("complex-increments")
    ch = _checks(out)
    assert len(ch) == 9  # three moments for each of three (b, bhat) pairs
    _require(7, "complex noise moments within 3/sqrt(n)", ch, sorted(ch))


def test_criterion_08_density_equation_residual_structure():
    out, _ = _run("fp-consistency")
    _require(
        8,
        "mass conservation and residual split on manufactured solutions",
        _checks(out),
        [
            "mass_conservation",
            "packet_continuity_residual",
            "packet_osmotic_residual",
            "packet_complex_residual_forward",
            "packet_complex_residual_conjugate",
            "continuity_time_order_ratio",
        ],
    )


def test_criterion_09_action_minimization_and_path_sums():
    out, _ = _run("variational")
    _require(
        9,
        "action minimal at the consistent drift; E(sum dZ)^2 ~ 0",
        _checks(out),
        [
            "sampled_argmin_at_zero",
            "quadratic_fit_minimum",
            "quadratic_fit_curvature_positive",
            "complex_path_sum_squared",
        ],
    )


def test_criterion_10_reruns_byte_identical(tmp_path):
    runner = CliRunner()
    identical = True
    # variational draws random numbers, steps paths on a thread pool, sweeps a
    # batch and sums blocked complex increments
    for name in ("ga-identities", "colehopf-1d", "variational"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            res = runner.invoke(cli_main, ["run", name, "--out", str(out)])
            assert res.exit_code == 0, res.output
            dirs.append(out)
        summaries = [(d / "summary.json").read_bytes() for d in dirs]
        csvs = [sorted(p.name for p in d.glob("*.csv")) for d in dirs]
        identical &= summaries[0] == summaries[1]
        for fname in csvs[0]:
            identical &= (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
    note = "summary.json and CSVs byte-identical across re-runs"
    _emit(f"[{'PASS' if identical else 'FAIL'}] criterion 10 (determinism): {note}")
    assert identical


def _mismatches(got, want, path="summary") -> list[str]:
    """Where ``got`` differs from ``want``: verdicts and text exactly, numbers
    within ``_REL_TOL`` relative or ``_ABS_TOL`` absolute."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    numbers = (isinstance(want, (int, float)) and isinstance(got, (int, float))
               and not isinstance(want, bool) and not isinstance(got, bool))
    if numbers:
        if abs(got - want) <= max(_REL_TOL * abs(want), _ABS_TOL):
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{path}: {got!r} != stored {want!r}"]


def test_stored_summaries_cover_every_experiment():
    assert sorted(p.stem for p in _FIXTURES.glob("*.json")) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_summary_matches_stored(name, tmp_path):
    out, _ = _run(name)
    got = json.loads(json.dumps(jsonable(out["summary"])))
    want = json.loads((_FIXTURES / f"{name}.json").read_text())
    assert [c["pass"] for c in got["checks"]] == [c["pass"] for c in want["checks"]]
    assert got["pass"] is want["pass"]
    assert _mismatches(got, want) == []
    # the same run's CSVs, byte for byte
    csvs = [digest_line(write_csv(tmp_path, f, *table), name) for f, table in out["csvs"].items()]
    stored = [
        line for line in _DIGESTS.read_text().splitlines()
        if line.startswith(f"{name} ") and not line.startswith(f"{name} summary.json ")
    ]
    assert differences(csvs, stored) == []
