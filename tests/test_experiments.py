"""run_experiment is the whole run: its verdict rule and its floating-point state."""

import warnings

import numpy as np
import pytest

from stochflow.experiments import EXPERIMENTS, Check, ExperimentSpec, run_experiment


def _judged(monkeypatch, value, threshold, comparison="<="):
    """The record that ``run_experiment`` makes of one check of ``value``."""
    def runner(p, seed, run):
        run.check("x", value)

    spec = ExperimentSpec(
        defaults={}, describe="", runner=runner, checks=(Check("x", comparison, threshold, ""),)
    )
    monkeypatch.setitem(EXPERIMENTS, "judged", spec)
    summary = run_experiment("judged", {}, 0)["summary"]
    assert summary["pass"] is summary["checks"][0]["pass"]
    return summary["checks"][0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64(np.nan), complex(np.nan, 0)])
@pytest.mark.parametrize("comparison", ["<=", ">=", "=="])
def test_non_finite_value_fails_every_comparison(monkeypatch, value, comparison):
    assert _judged(monkeypatch, value, 1.0, comparison)["pass"] is False


def test_finite_values_still_compare(monkeypatch):
    assert _judged(monkeypatch, 0.5, 1.0) == {
        "name": "x", "value": 0.5, "threshold": 1.0, "comparison": "<=", "pass": True,
    }
    assert _judged(monkeypatch, 2, 1.0, ">=")["pass"] is True
    assert _judged(monkeypatch, 1.0, 1.0, "==")["pass"] is True
    assert _judged(monkeypatch, 1.5, 1.0)["pass"] is False


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("burgers-direct-vs-ch", {"eps": 1.2}),
        ("sde-estimators", {"theta": 1000.0}),
        ("colehopf-1d", {"eps": 1.0}),
    ],
)
def test_a_breakdown_raises_alike_under_any_callers_errstate(experiment, overrides):
    # the same ValueError, and no RuntimeWarning before it, in numpy's default state
    # and in the strictest
    messages = []
    for state in ({}, {"all": "raise"}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning raises in place of the ValueError
            with np.errstate(**state), pytest.raises(ValueError) as rejected:
                run_experiment(experiment, overrides, 1234)
        messages.append(str(rejected.value))
    assert messages[0] == messages[1]
