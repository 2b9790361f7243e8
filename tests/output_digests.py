"""Print the sha256 of every output file of every experiment at its defaults.

Runs each experiment of ``stochflow.experiments.EXPERIMENTS`` at seed 1234
through ``run_experiment``, writes ``summary.json`` and its CSVs with the
``stochflow.output`` writers as ``stochflow run`` does, and prints one line
``name file sha256`` per file.  ``manifest.json`` holds timings and versions,
so it is not written.  A change meant to leave every output byte-identical
leaves this listing unchanged::

    PYTHONPATH=src python tests/output_digests.py [OUT_DIR]

Without ``OUT_DIR`` the files go to a temporary directory that is removed
afterwards.  The file name keeps pytest from collecting it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from stochflow.experiments import EXPERIMENTS, run_experiment
from stochflow.output import write_csv, write_summary

SEED = 1234


def write_outputs(out_dir: Path) -> list[Path]:
    """Write every experiment's summary and CSVs under ``out_dir/<name>``."""
    written = []
    for name, spec in EXPERIMENTS.items():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as the CLI runs
            result = run_experiment(name, dict(spec.defaults), SEED)
        target = out_dir / name
        target.mkdir(parents=True, exist_ok=True)
        written.append(write_summary(target, result["summary"]))
        for filename, (header, rows) in result["csvs"].items():
            written.append(write_csv(target, filename, header, rows))
    return written


def main(out_dir: Path) -> None:
    for path in write_outputs(out_dir):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(path.parent.name, path.name, digest)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp))
