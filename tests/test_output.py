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


def test_digest_check_names_what_moved_in_a_summary_that_differs(tmp_path, monkeypatch, capsys):
    import output_digests

    # the run's summary against a stored one that holds one metric more and another value
    name = "ga-identities"
    monkeypatch.setattr(output_digests, "EXPERIMENTS", {name: output_digests.EXPERIMENTS[name]})
    stored = json.loads((_FIXTURES / "summaries" / f"{name}.json").read_text())
    stored["metrics"]["n_algebra_trials"] = 50
    check = stored["checks"][0]
    value, check["value"] = check["value"], 1.0
    (tmp_path / "summaries").mkdir()
    (tmp_path / "summaries" / f"{name}.json").write_text(json.dumps(stored))
    saved = tmp_path / "digests.txt"
    saved.write_text(f"{output_digests.environment()}\n{name} summary.json 00\n")
    assert output_digests.main(["--check", str(saved)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"differs: {name} summary.json: 00 -> ")
    assert err[1:3] == [
        f"  changed check {check['name']}: value 1.0 -> {value!r}",
        "  removed metric n_algebra_trials",
    ]
    assert err[3].startswith(f"differs: {name} identity_residuals.csv: absent -> ")
    assert len(err) == 4


_STORED = {
    "checks": [{"name": "a", "value": 1.0, "passed": True}, {"name": "b", "value": 2.0, "passed": True}],
    "params": {"n": 8},
    "metrics": {"m": 0.5},
}


@pytest.mark.parametrize("edit, moves", [
    (lambda s: None, []),
    (lambda s: s["checks"].append({"name": "c", "value": 3.0, "passed": True}), ["added check c"]),
    (lambda s: s["checks"][1].update(value=2.5, passed=False),
     ["changed check b: value 2.0 -> 2.5, passed True -> False"]),
    (lambda s: s["params"].update(n=9, k=1), ["changed param n: 8 -> 9", "added param k"]),
    (lambda s: s.pop("metrics"), ["removed metric m"]),
], ids=["same", "check added", "check changed", "params moved", "metrics removed"])
def test_summary_moves_name_each_check_param_and_metric_that_moved(tmp_path, edit, moves):
    from output_digests import summary_moves

    got = json.loads(json.dumps(_STORED))
    edit(got)
    (tmp_path / "got.json").write_text(json.dumps(got))
    (tmp_path / "want.json").write_text(json.dumps(_STORED))
    assert summary_moves(tmp_path / "got.json", tmp_path / "want.json") == moves


def test_summary_moves_against_a_missing_stored_summary_add_everything(tmp_path):
    from output_digests import summary_moves

    (tmp_path / "got.json").write_text(json.dumps(_STORED))
    assert summary_moves(tmp_path / "got.json", tmp_path / "absent.json") == [
        "added check a", "added check b", "added param n", "added metric m",
    ]


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
