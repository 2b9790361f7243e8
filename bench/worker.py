"""One pass over a workload in a fresh interpreter, as ``stochflow run`` pays for it.

``run.py`` starts this script once per pass, and once per set-up probe,
with a single JSON argument::

    {"mode": "setup" | "pass" | "traced", "workload": ..., "seed": ...,
     "out": <output directory>, "spans": <span file>, "t0": <monotonic>}

``t0`` is the parent's ``time.monotonic()`` just before the spawn.  On
Linux that clock is system-wide, so ``setup_s`` covers interpreter start
plus ``import stochflow.cli``.  A pass then runs ``run_experiment`` for
every experiment of the workload at its defaults and writes the outputs
the way the CLI does.  The result is printed as one JSON line.  Modules
that stochflow does not import itself are imported after the set-up stamp.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: workload -> experiments, run in this order in one process per pass
WORKLOADS = {
    "born-long": ("born-harmonic",),
    # the Monte-Carlo experiments, then the cross-checks; one workload, so
    # that each of the two gets a long run
    "monte-carlo-cross-checks": (
        "sde-estimators", "variational", "complex-increments",
        "born-free", "colehopf-1d", "colehopf-3d", "burgers-direct-vs-ch",
        "ga-identities", "fp-consistency",
    ),
}
BENCHMARKED = tuple(e for names in WORKLOADS.values() for e in names)


def import_stochflow():
    """Import ``stochflow.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "stochflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no stochflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stochflow.cli

    if Path(stochflow.cli.__file__).resolve().parent != SRC / "stochflow":
        raise SystemExit(f"bench: imported stochflow from {stochflow.cli.__file__}, not {SRC}")
    return stochflow.cli


def run_pass(experiments, seed: int, out_dir: Path, tracer) -> list[dict]:
    """Run and write every experiment; one record per experiment.

    A record holds the number of checks, the number that failed and the
    sha256 of ``summary.json``, or the traceback if the experiment raised.
    """
    import hashlib
    import traceback

    from stochflow.experiments import EXPERIMENTS, run_experiment
    from stochflow.output import write_csv, write_manifest, write_summary

    records = []
    for name in experiments:
        tracer.begin_trace()
        target = out_dir / name
        target.mkdir(parents=True)
        try:
            with tracer.span(f"experiments.{name}"):
                t0 = time.perf_counter()
                result = run_experiment(name, dict(EXPERIMENTS[name].defaults), seed)
                elapsed = time.perf_counter() - t0
                with tracer.span("output.write"):
                    write_summary(target, result["summary"])
                    for filename, (header, rows) in result["csvs"].items():
                        write_csv(target, filename, header, rows)
                    write_manifest(target, {"experiment": name, "runtime_seconds": elapsed})
        except Exception:  # one experiment's error must not hide the others' results
            records.append({"experiment": name, "error": traceback.format_exc()})
            continue
        written = sum(p.stat().st_size for p in target.iterdir())
        tracer.count("output.bytes", written)
        data = (target / "summary.json").read_bytes()
        checks = json.loads(data)["checks"]
        records.append({
            "experiment": name,
            "checks": len(checks),
            "failed": sum(not c["pass"] for c in checks),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    return records


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def measured_pass(request: dict, tracer) -> dict:
    """One pass with its wall time, CPU time and peak-RSS rise over set-up."""
    import resource

    rss_setup = _resident_bytes()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    records = run_pass(
        WORKLOADS[request["workload"]], request["seed"], Path(request["out"]), tracer
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": (after.ru_maxrss * 1024 - rss_setup) / 1e6,
        "records": records,
    }


def main() -> None:
    request = json.loads(sys.argv[1])
    import_stochflow()
    result = {"setup_s": time.monotonic() - request["t0"]}
    if request["mode"] == "pass":
        from spans import NullTracer

        result.update(measured_pass(request, NullTracer()))
    elif request["mode"] == "traced":
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        patcher, missing = install(tracer)
        try:
            result.update(measured_pass(request, tracer))
        finally:
            patcher.restore()
        if not patcher.all_restored():
            raise SystemExit("bench: a traced attribute was not restored")
        tracer.write(Path(request["spans"]))
        result["layers"] = layer_metrics(tracer, BENCHMARKED)
        result["unpatched"] = missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
