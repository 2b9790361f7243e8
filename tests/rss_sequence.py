"""Print the resident size of each experiment of a bench workload, run in one process.

Runs the experiments of a ``bench/worker.py`` workload in its order, in one
interpreter, each through the worker's ``run_pass`` (``run_experiment`` at
the defaults, then the output writers) as one bench pass runs them.  The
resident size counts from set-up, which is read, as the worker reads it,
after ``import stochflow.cli``.  One line per experiment gives its resident
size at its start and its peak, sampled every 0.5 ms by a helper thread
(a peak shorter than that can be missed); the last line gives the
process's ``ru_maxrss`` over set-up, the formula of the bench's
``peak_rss_mb``::

    PYTHONPATH=src python tests/rss_sequence.py [--workload monte-carlo-cross-checks] [--seed 1234]

The outputs go to a temporary directory that is removed afterwards.  It
reads ``/proc/self/statm``, so it runs on Linux only.  The file name keeps
pytest from collecting it.
"""

import argparse
import resource
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import NullTracer  # noqa: E402
from worker import WORKLOADS, _resident_bytes, import_stochflow, run_pass  # noqa: E402

#: seconds between two samples of the resident size
INTERVAL = 5e-4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="monte-carlo-cross-checks")
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()
    import_stochflow()
    setup = _resident_bytes()
    peak, lock, done = [setup], threading.Lock(), threading.Event()

    def sample() -> None:
        while not done.is_set():
            with lock:
                peak[0] = max(peak[0], _resident_bytes())
            time.sleep(INTERVAL)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    failed = 0
    try:
        with tempfile.TemporaryDirectory() as out:
            for name in WORKLOADS[args.workload]:
                with lock:
                    start = peak[0] = _resident_bytes()
                (record,) = run_pass((name,), args.seed, Path(out), NullTracer())
                failed += "error" in record or record["failed"] > 0
                top = max(peak[0], _resident_bytes())
                print(
                    f"{name}: {(start - setup) / 1e6:.2f} MB at start, "
                    f"peak {(top - setup) / 1e6:.2f} MB over set-up"
                )
    finally:
        done.set()
        sampler.join()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"ru_maxrss {(maxrss - setup) / 1e6:.2f} MB over set-up")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
