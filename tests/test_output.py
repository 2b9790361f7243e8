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


def test_digest_check_exits_one_naming_each_output_that_differs(tmp_path, monkeypatch, capsys):
    import output_digests

    saved = tmp_path / "digests.txt"
    saved.write_text("a summary.json 00\na x.csv 11\nb summary.json 22\n")
    listing = ["a summary.json 00", "a x.csv 12", "c summary.json 33"]
    monkeypatch.setattr(output_digests, "digests", lambda out_dir: listing)
    assert output_digests.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "differs: a x.csv: 11 -> 12",
        "differs: b summary.json: 22 -> absent",
        "differs: c summary.json: absent -> 33",
    ]
    saved.write_text("\n".join(listing) + "\n")
    assert output_digests.main(["--check", str(saved)]) == 0
