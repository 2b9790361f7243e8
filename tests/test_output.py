"""Artifact writers: non-finite values never break JSON; the digest listing and its fixtures."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from stochflow.output import jsonable, write_manifest, write_summary

_FIXTURES = Path(__file__).parent / "fixtures"


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


def test_digest_listing_names_its_environment_and_check_names_both_when_an_output_differs(
    tmp_path, monkeypatch, capsys
):
    import output_digests

    here = output_digests.environment()
    assert here.startswith(f"# numpy {np.__version__} simd ")
    targets = here.split(" simd ")[1].split()
    # the public call names the dispatch targets that numpy's own table finds on this CPU
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    assert targets == sorted(target for target in __cpu_dispatch__ if __cpu_features__.get(target))
    monkeypatch.setattr(output_digests, "digests", lambda out_dir: ["a summary.json 00"])
    saved = tmp_path / "digests.txt"
    for listing, code, errors in [
        # saved elsewhere, and no output differs: nothing on stderr
        ("# numpy 0.0 simd NONE\na summary.json 00\n", 0, []),
        # saved elsewhere, and an output differs: it and both environments are named
        ("# numpy 0.0 simd NONE\na summary.json 01\n", 1,
         ["differs: a summary.json: 01 -> 00", f"environment: numpy 0.0 simd NONE -> {here[2:]}"]),
        # saved here, and an output differs: only the output is named
        (f"{here}\na summary.json 01\n", 1, ["differs: a summary.json: 01 -> 00"]),
    ]:
        saved.write_text(listing)
        assert output_digests.main(["--check", str(saved)]) == code
        out, err = capsys.readouterr()
        assert out.splitlines() == [here, "a summary.json 00"]
        assert err.splitlines() == errors


def test_digest_listing_holds_the_sha256_of_each_stored_summary():
    # both fixtures store the default summaries: a change that regenerates one
    # and not the other fails here, before any experiment runs
    listed = {
        line.split()[0]: line.split()[2]
        for line in (_FIXTURES / "output_digests.txt").read_text().splitlines()
        if line.split()[1:2] == ["summary.json"]
    }
    stored = {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (_FIXTURES / "summaries").glob("*.json")
    }
    assert listed == stored and len(stored) == 10
