"""Tests of the benchmark's own arithmetic, wrappers and bookkeeping."""

import importlib
import json

import numpy.fft
import pytest

import run as bench
from spans import (
    FFT_FUNCTIONS,
    FREQ_FUNCTIONS,
    REPEATABLE,
    SPANNED,
    Span,
    Tracer,
    install,
    layer_metrics,
    self_times,
)
from stochflow.experiments import EXPERIMENTS
from stochflow.fields import ScalarField
from worker import BENCHMARKED, ROOT, WORKLOADS, run_pass

TRACED = ("colehopf-1d", "sde-estimators")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("b", 3.5, 6.0, 0, 1),  # overlaps a: root loses [1, 6] once
        Span("c", 9.0, 12.0, 0, 1),  # only [9, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_records_parents_and_trace_ids():
    tracer = Tracer()
    tracer.begin_trace()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.begin_trace()
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent, s.trace_id) for s in tracer.spans] == [
        ("outer", None, 1), ("inner", 0, 1), ("next", None, 2),
    ]
    assert all(s.start <= s.end for s in tracer.spans)


def _traced_attributes() -> dict:
    attrs = {}
    for module_name, attr, _span in SPANNED:
        attrs[module_name, attr] = vars(importlib.import_module(module_name))[attr]
    for attr in FFT_FUNCTIONS + FREQ_FUNCTIONS:
        attrs["numpy.fft", attr] = vars(numpy.fft)[attr]
    attrs["ScalarField", "__post_init__"] = vars(ScalarField)["__post_init__"]
    return attrs


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    before = _traced_attributes()
    passes = []
    for i in range(2):
        tracer = Tracer()
        patcher, missing = install(tracer)
        try:
            replaced = sum(
                vars(owner)[attr] is not original for owner, attr, original in patcher.saved
            )
            records = run_pass(TRACED, 1234, tmp_path_factory.mktemp(f"pass{i}"), tracer)
        finally:
            patcher.restore()
        passes.append({"tracer": tracer, "missing": missing, "replaced": replaced,
                       "records": records})
    return before, _traced_attributes(), passes


def test_wrappers_restore_every_patched_attribute(traced_passes):
    before, after, passes = traced_passes
    for p in passes:
        assert p["missing"] == []
        assert p["replaced"] == len(before)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_passes_pass_and_repeat_their_summaries(traced_passes):
    _before, _after, passes = traced_passes
    first, second = (p["records"] for p in passes)
    assert [r["experiment"] for r in first] == list(TRACED)
    assert all(r["failed"] == 0 for r in first + second)
    assert [r["sha256"] for r in first] == [r["sha256"] for r in second]


def test_counts_repeat_exactly_across_traced_passes(traced_passes):
    _before, _after, passes = traced_passes
    first, second = (layer_metrics(p["tracer"], BENCHMARKED) for p in passes)
    assert {name: first[name] for name in REPEATABLE} == {name: second[name] for name in REPEATABLE}
    assert first["fields.scalarfield.count"] > 0
    assert first["numpy.fft.calls"] > 0
    p = EXPERIMENTS["sde-estimators"].defaults
    assert first["sde.simulate.path_steps"] == (
        p["n_paths_short"] * round(p["t_short"] / p["dt_short"])
        + p["n_paths_long"] * round(p["t_long"] / p["dt_long"])
    )
    assert first["sde.simulate.calls"] == 2
    assert first["born.pipeline.s"] == 0.0


def test_verify_counts_failed_checks_raised_experiments_and_changed_summaries():
    ok = {"experiment": "a", "checks": 3, "failed": 0, "sha256": "x"}
    passes = [
        ("pass", {"records": [ok, {"experiment": "b", "checks": 2, "failed": 1, "sha256": "y"}]}, ""),
        ("pass", {"records": [dict(ok, sha256="z"), {"experiment": "b", "error": "boom"}]}, ""),
        ("pass", None, "worker exited with 1"),
    ]
    attempted, failed, digests, problems = bench.verify(("a", "b"), passes)
    # each pass: a has 3 checks + 1 summary, b has 2 checks + 1 summary
    assert attempted == 3 * (4 + 3)
    # pass 0: one check of b; pass 1: a's summary differs, b raised; pass 2: everything
    assert failed == 1 + (1 + 3) + (4 + 3)
    assert digests == {"a": "x", "b": "y"}
    assert len(problems) == 4


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_metrics()
    reported = set(layer_metrics(Tracer(), BENCHMARKED)) | {"trace.overhead_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}
