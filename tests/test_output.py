"""Artifact writers and checks: non-finite values never pass and never break JSON."""

import json

import numpy as np
import pytest

from stochflow.output import check, jsonable, write_manifest, write_summary


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64(np.nan), complex(np.nan, 0)])
@pytest.mark.parametrize("comparison", ["<=", ">=", "=="])
def test_non_finite_value_fails_every_comparison(value, comparison):
    assert check("x", value, 1.0, comparison)["pass"] is False


def test_finite_values_still_compare():
    assert check("x", 0.5, 1.0)["pass"] is True
    assert check("x", 2, 1.0, ">=")["pass"] is True
    assert check("x", 1.0, 1.0, "==")["pass"] is True
    assert check("x", 1.5, 1.0)["pass"] is False


def test_jsonable_names_non_finite_floats():
    data = {"a": np.nan, "b": np.float64(np.inf), "c": -np.inf, "d": complex(1.0, np.nan), "e": 0.25}
    assert jsonable(data) == {
        "a": "nan", "b": "inf", "c": "-inf", "d": {"re": 1.0, "im": "nan"}, "e": 0.25,
    }


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("writer", [write_summary, write_manifest])
def test_writers_emit_valid_json_for_non_finite_values(tmp_path, writer):
    path = writer(tmp_path, {"value": np.nan, "arr": np.array([1.0, -np.inf])})
    data = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert data == {"value": "nan", "arr": [1.0, "-inf"]}
