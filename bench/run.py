"""stochflow benchmark: time to a verdict, memory and per-layer traces.

Usage, from the root of a checkout::

    python3 bench/run.py --workload born-long [--seed 1234] [--seconds 56] [--trace 0|1]

Closed loop, one client: passes over the workload run one after another,
each in a fresh interpreter (``worker.py``), as long as another pass of
the usual length still ends within ``--seconds``, and at least three
passes, one of each kind among them.  Every pass runs all the workload's
experiments at their defaults with the given seed and writes their outputs
into a temporary directory under ``.bench_run/``.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics of the
traced passes are reported together with the tracing overhead.

The outputs are checked: every check must pass and each experiment's
``summary.json`` must be byte-identical across the passes of a run.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the sha256 of each summary and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_METRICS, REPEATABLE
from worker import BENCHMARKED, ROOT, SRC, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_DIR = ROOT / ".bench_run"
#: fresh interpreters per run that only import stochflow.cli; they warm the
#: file cache and, with the passes, give the median set-up time
SETUP_PROBES = 3
#: passes a run makes at least, so that a median is not the mean of two
MIN_PASSES = 3
#: a run must end within 180 s; no pass starts that could overrun this
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "STOCHFLOW_THREADS",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports; lower is better."""
    return [
        *LAYER_METRICS,
        *((f"experiments.{e}.wall_s", "s") for e in BENCHMARKED),
        ("trace.overhead_s", "s"),
    ]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def spawn(request: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one worker; returns its result, or None and the reason it has none."""
    env = dict(os.environ, TMPDIR=str(RUN_DIR))
    request = dict(request, t0=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Set-up probes, then the passes that fit in ``seconds``."""
    RUN_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        result, error = spawn({"mode": "setup"}, deadline)
        if result is None:
            raise RuntimeError(error)
        setups.append(result["setup_s"])

    modes = ("pass", "traced") if trace else ("pass",)
    passes: list[tuple[str, dict | None, str]] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        # after MIN_PASSES, stop when a pass of the median length would end
        # after ``seconds``, or might not end before the deadline
        if len(passes) >= MIN_PASSES and (
            began - start + statistics.median(durations) > seconds
            or began + 1.5 * max(durations) > deadline
        ):
            break
        mode = modes[len(passes) % len(modes)]
        with tempfile.TemporaryDirectory(dir=RUN_DIR) as out:
            request = {
                "mode": mode, "workload": workload, "seed": seed, "out": out,
                "spans": str(RUN_DIR / f"spans-{workload}.json"),
            }
            result, error = spawn(request, deadline)
        passes.append((mode, result, error))
        durations.append(time.monotonic() - began)
    return setups, passes


def verify(experiments, passes) -> tuple[int, int, dict, list[str]]:
    """Count operations and failures over all passes.

    An operation is one check or one summary.  A summary fails when it
    differs from the first pass's; an experiment that raised, or a pass
    whose worker died, fails every check it would have made.
    """
    n_checks = {e: 1 for e in experiments}
    for _mode, result, _error in passes:
        for rec in (result or {}).get("records", ()):
            if "checks" in rec:
                n_checks[rec["experiment"]] = max(n_checks[rec["experiment"]], rec["checks"])
    attempted = failed = 0
    digests: dict[str, str] = {}
    problems = []
    for index, (mode, result, error) in enumerate(passes):
        if result is None:
            problems.append(f"pass {index} ({mode}): {error}")
        records = {r["experiment"]: r for r in (result or {}).get("records", ())}
        for e in experiments:
            rec = records.get(e)
            if rec is None or "error" in rec:
                attempted += n_checks[e] + 1
                failed += n_checks[e] + 1
                if rec is not None:
                    problems.append(f"pass {index} ({mode}) {e} raised:\n{rec['error']}")
                continue
            attempted += rec["checks"] + 1
            failed += rec["failed"]
            if rec["failed"]:
                problems.append(f"pass {index} ({mode}) {e}: {rec['failed']} checks failed")
            if digests.setdefault(e, rec["sha256"]) != rec["sha256"]:
                failed += 1
                problems.append(f"pass {index} ({mode}) {e}: summary.json differs from pass 0")
    return attempted, failed, digests, problems


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stochflow" / "__init__.py").is_file():
        print(f"bench: no stochflow sources under {SRC}", file=sys.stderr)
        return 2

    experiments = WORKLOADS[args.workload]
    setups, passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, digests, problems = verify(experiments, passes)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    untraced = [r for mode, r, _ in passes if r is not None and mode == "pass"]
    traced = [r for mode, r, _ in passes if r is not None and mode == "traced"]
    if not untraced or (args.trace and not traced):
        print("bench: no pass completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"experiments {' '.join(experiments)}")
    for e, digest in digests.items():
        print(f"summary {e} sha256 {digest}")
    fail_ratio = failed / attempted
    print(f"fail_ratio {fail_ratio!r} ratio ({failed} of {attempted} operations)")

    if args.trace:
        metrics = {}
        for name, unit in per_layer_metrics():
            if name == "trace.overhead_s":
                value = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        repeat = all(len({r["layers"][c] for r in traced}) == 1 for c in REPEATABLE)
        print(f"counts repeat across {len(traced)} traced passes: {'yes' if repeat else 'no'}")
        unpatched = sorted({n for r in traced for n in r["unpatched"]})
        if unpatched:
            print(f"not traced (name not found): {' '.join(unpatched)}")
    else:
        samples = {
            "setup_s": setups + [r["setup_s"] for r in untraced],
            **{key: [r[key] for r in untraced] for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        }
        values = {key: statistics.median(v) for key, v in samples.items()}
        values["pass_ratio"] = 1.0 - fail_ratio
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for key, v in samples.items():
            print(f"samples {key} {' '.join(f'{x:.6g}' for x in v)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
