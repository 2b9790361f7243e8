"""Print the sha256 of every output file of every experiment at its defaults.

Runs each experiment of ``stochflow.experiments.EXPERIMENTS`` at seed 1234
through ``run_experiment``, writes ``summary.json`` and its CSVs with the
``stochflow.output`` writers as ``stochflow run`` does, and prints one line
``name file sha256`` per file.  ``manifest.json`` holds timings and versions,
so it is not written.  The first line, ``# numpy <version> simd <targets>``,
names the environment: numpy's float64 ``exp``, ``log`` and ``power`` differ in
their last bits between SIMD targets, so the digests hold for the environment
named.  A change meant to leave every output byte-identical leaves this
listing unchanged::

    PYTHONPATH=src python tests/output_digests.py [OUT_DIR]
    PYTHONPATH=src python tests/output_digests.py --check tests/fixtures/output_digests.txt

Without ``OUT_DIR`` the files go to a temporary directory that is removed
afterwards.  ``--check FILE`` compares the listing with ``FILE``, a listing
saved earlier, and exits 1 naming each output whose sha256 differs or that
one listing lacks; when one does and ``FILE`` names another environment, it
names both.  The file name keeps pytest from collecting it.
"""

import argparse
import hashlib
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from stochflow.cli import simd_targets
from stochflow.experiments import EXPERIMENTS, run_experiment
from stochflow.output import write_csv, write_summary

SEED = 1234


def write_outputs(out_dir: Path) -> list[Path]:
    """Write every experiment's summary and CSVs under ``out_dir/<name>``."""
    written = []
    for name, spec in EXPERIMENTS.items():
        result = run_experiment(name, dict(spec.defaults), SEED)
        target = out_dir / name
        target.mkdir(parents=True, exist_ok=True)
        written.append(write_summary(target, result["summary"]))
        for filename, (header, rows) in result["csvs"].items():
            written.append(write_csv(target, filename, header, rows))
    return written


def environment() -> str:
    """The listing's first line: numpy's version and the SIMD targets it dispatches to here,
    as ``manifest.json`` names them."""
    return f"# numpy {np.__version__} simd {' '.join(simd_targets())}"


def digest_line(path: Path, name: str) -> str:
    """The line ``name file sha256`` of one output of experiment ``name``."""
    return f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"


def digests(out_dir: Path) -> list[str]:
    """The lines ``name file sha256`` of every output written under ``out_dir``."""
    return [digest_line(path, path.parent.name) for path in write_outputs(out_dir)]


def differences(got: list[str], want: list[str]) -> list[str]:
    """One line per output whose digest differs between two listings, or that one lacks;
    ``#`` lines are skipped."""
    got_by, want_by = (
        dict(line.rsplit(" ", 1) for line in lines if line and not line.startswith("#"))
        for lines in (got, want)
    )
    return [
        f"{output}: {want_by.get(output, 'absent')} -> {got_by.get(output, 'absent')}"
        for output in dict.fromkeys([*want_by, *got_by])
        if got_by.get(output) != want_by.get(output)
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", nargs="?", type=Path, help="where to write the outputs")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with a saved listing; exit 1 if any output differs")
    args = parser.parse_args(argv)
    with nullcontext(args.out_dir) if args.out_dir else tempfile.TemporaryDirectory() as out:
        lines = [environment(), *digests(Path(out))]
    print("\n".join(lines))
    if args.check is None:
        return 0
    saved = args.check.read_text().splitlines()
    changed = differences(lines, saved)
    for line in changed:
        print(f"differs: {line}", file=sys.stderr)
    saved_in = next((line for line in saved if line.startswith("#")), lines[0])
    if changed and saved_in != lines[0]:
        print(f"environment: {saved_in[2:]} -> {lines[0][2:]}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
