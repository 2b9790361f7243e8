"""Command-line entry point.

``stochflow run <experiment>`` executes one named experiment and writes
``summary.json`` (deterministic, byte-identical across re-runs with the
same inputs), ``manifest.json`` (environment and timing, allowed to
vary), and one CSV per result table into the output directory.

The config file's values, its ``seed`` split off, go to
:func:`stochflow.experiments.run_experiment` as partial overrides; that
gate alone judges them and sets the floating-point state, so ``run`` and
the library reject the same inputs with the same reason.

Exit codes: 0 when every check passes, 1 when any check fails, and 2 for
configuration or I/O errors (bad JSON, unknown parameter, a value of the
wrong type or one the experiment rejects, a seed that is not a
non-negative int, unwritable output directory).  A rejected configuration
leaves behind no directory that the run created for its output.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .experiments import EXPERIMENTS, run_experiment
from .output import write_csv, write_manifest, write_summary

_DEFAULT_SEED = 1234


def simd_targets() -> list[str]:
    """The SIMD targets numpy dispatches to here, sorted: none where numpy found none,
    in which case its config lacks the key."""
    return sorted(np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", []))


def _fail_config(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail_config(f"cannot read config file {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail_config(f"config file {path!r} is not valid JSON: {exc}")
    except ValueError as exc:  # an integer literal past Python's digit limit for int()
        _fail_config(f"config file {path!r} holds a number that cannot be read: {exc}")
    if not isinstance(data, dict):
        _fail_config(f"config file {path!r} must contain a JSON object")
    return data


def _number(value) -> str:
    """A check value as echoed; non-finite ones arrive as "nan", "inf", "-inf"."""
    return format(value, ".6g") if isinstance(value, (int, float)) else str(value)


@click.group()
@click.version_option(version=__version__, prog_name="stochflow")
def main() -> None:
    """Cross-verification experiments for diffusion, velocity-field, and
    wave-equation solvers."""


@main.command(name="list")
def list_experiments() -> None:
    """List the available experiments."""
    width = max(len(name) for name in EXPERIMENTS)
    for name, spec in EXPERIMENTS.items():
        click.echo(f"{name:<{width}}  {spec.describe}")


@main.command()
@click.argument("experiment", type=click.Choice(sorted(EXPERIMENTS), case_sensitive=True))
def describe(experiment: str) -> None:
    """Print what an experiment verifies: each check with its threshold at the
    defaults, then the default parameters with their minimums."""
    spec = EXPERIMENTS[experiment]
    click.echo(f"{experiment}\n{'=' * len(experiment)}\n{spec.describe}\n\nchecks:")
    heads = [f"{c.name} {c.comparison} {_number(c.at(spec.defaults))}" for c in spec.checks]
    width = max(map(len, heads))
    for head, c in zip(heads, spec.checks):
        click.echo(f"  {head:<{width}}  {c.meaning}")
    click.echo("\ndefault parameters:")
    for key, value in sorted(spec.defaults.items()):
        minimum = " ".join(map(str, spec.minimums.get(key, ())))
        click.echo(f"  {key} = {value}" + (f"  (must be {minimum})" if minimum else ""))


@main.command()
@click.argument("experiment", type=click.Choice(sorted(EXPERIMENTS), case_sensitive=True))
@click.option("--config", "config_path", type=str, default=None,
              help="JSON file with parameter overrides.")
@click.option("--seed", type=int, default=None, help="RNG seed (default 1234).")
@click.option("--out", "out_dir", type=str, default=None,
              help="Output directory (default ./runs/<experiment>).")
def run(experiment: str, config_path: str | None, seed: int | None,
        out_dir: str | None) -> None:
    """Run one experiment and write summary.json, manifest.json, and CSVs."""
    overrides = _load_config(config_path)
    if seed is not None:  # the flag beats the file
        overrides["seed"] = seed
    configured = sorted(overrides)
    seed = overrides.pop("seed", _DEFAULT_SEED)

    target = Path(out_dir) if out_dir is not None else Path("runs") / experiment
    created = [d for d in (target, *target.parents) if not d.exists()]  # deepest first
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail_config(f"cannot create output directory {target}: {exc}")

    t0 = time.perf_counter()
    try:
        result = run_experiment(experiment, overrides, seed)
    except ValueError as exc:
        if not configured:  # the defaults must always run: a program error
            raise
        for directory in created:  # still empty: nothing is written before the run ends
            directory.rmdir()
        _fail_config(
            f"experiment {experiment!r} rejects the configured value of "
            f"{', '.join(map(repr, configured))}: {exc}"
        )
    elapsed = time.perf_counter() - t0

    summary = result["summary"]
    try:
        write_summary(target, summary)
        for filename, (header, rows) in result["csvs"].items():
            write_csv(target, filename, header, rows)
        write_manifest(
            target,
            {
                "experiment": experiment,
                "runtime_seconds": elapsed,
                "package_version": __version__,
                "python_version": platform.python_version(),
                "numpy_version": np.__version__,
                "numpy_simd_targets": simd_targets(),
            },
        )
    except OSError as exc:
        _fail_config(f"cannot write results under {target}: {exc}")

    for chk in summary["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        click.echo(
            f"[{status}] {chk['name']}: {_number(chk['value'])} "
            f"{chk['comparison']} {_number(chk['threshold'])}"
        )
    overall = "PASS" if summary["pass"] else "FAIL"
    click.echo(f"{experiment}: {overall} ({elapsed:.2f} s, results in {target})")
    sys.exit(0 if summary["pass"] else 1)


if __name__ == "__main__":
    main()
