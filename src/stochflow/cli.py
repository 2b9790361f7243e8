"""Command-line entry point.

``stochflow run <experiment>`` executes one named experiment and writes
``summary.json`` (deterministic, byte-identical across re-runs with the
same inputs), ``manifest.json`` (environment and timing, allowed to
vary), and one CSV per result table into the output directory.

Exit codes: 0 when every check passes, 1 when any check fails, and 2 for
configuration or I/O errors (bad JSON, unknown parameter, unwritable
output directory).
"""

from __future__ import annotations

import json
import os
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
    if not isinstance(data, dict):
        _fail_config(f"config file {path!r} must contain a JSON object")
    return data


def _merge_params(defaults: dict, config: dict, name: str) -> tuple[dict, dict]:
    """Overlay config values on the defaults; unknown keys and values whose
    type differs from the default's (an int may stand for a float, a bool
    for nothing) are an error."""
    reserved = {}
    params = dict(defaults)
    for key, value in config.items():
        if key in ("seed", "threads"):
            reserved[key] = value
            continue
        if key not in defaults:
            _fail_config(
                f"unknown parameter {key!r} for experiment {name!r} "
                f"(known: {', '.join(sorted(defaults))})"
            )
        expected = type(defaults[key])
        accepted = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, accepted):
            _fail_config(
                f"parameter {key!r} of experiment {name!r} must be of type "
                f"{expected.__name__}, got {json.dumps(value)}"
            )
        params[key] = value
    return params, reserved


def _resolve_threads(cli_value: int | None, config_value) -> int:
    if cli_value is not None:
        return cli_value
    if config_value is not None:
        return int(config_value)
    env = os.environ.get("STOCHFLOW_THREADS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail_config(f"STOCHFLOW_THREADS={env!r} is not an integer")
    return 1


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
        first_line = spec.describe.splitlines()[0]
        click.echo(f"{name:<{width}}  {first_line}")


@main.command()
@click.argument("experiment", type=click.Choice(sorted(EXPERIMENTS), case_sensitive=True))
def describe(experiment: str) -> None:
    """Print what an experiment verifies, with thresholds and defaults."""
    spec = EXPERIMENTS[experiment]
    click.echo(f"{spec.name}\n{'=' * len(spec.name)}")
    click.echo(spec.describe)
    click.echo("\ndefault parameters:")
    for key, value in sorted(spec.defaults.items()):
        click.echo(f"  {key} = {value}")


@main.command()
@click.argument("experiment", type=click.Choice(sorted(EXPERIMENTS), case_sensitive=True))
@click.option("--config", "config_path", type=str, default=None,
              help="JSON file with parameter overrides.")
@click.option("--seed", type=int, default=None, help="RNG seed (default 1234).")
@click.option("--out", "out_dir", type=str, default=None,
              help="Output directory (default ./runs/<experiment>).")
@click.option("--threads", type=int, default=None,
              help="Worker threads; falls back to STOCHFLOW_THREADS, then 1.")
def run(experiment: str, config_path: str | None, seed: int | None,
        out_dir: str | None, threads: int | None) -> None:
    """Run one experiment and write summary.json, manifest.json, and CSVs."""
    spec = EXPERIMENTS[experiment]
    config = _load_config(config_path)
    params, reserved = _merge_params(spec.defaults, config, experiment)
    if seed is None:
        seed = int(reserved.get("seed", _DEFAULT_SEED))
    n_threads = _resolve_threads(threads, reserved.get("threads"))

    target = Path(out_dir) if out_dir is not None else Path("runs") / experiment
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail_config(f"cannot create output directory {target}: {exc}")

    t0 = time.perf_counter()
    result = run_experiment(experiment, params, seed)
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
                "threads": n_threads,
                "package_version": __version__,
                "python_version": platform.python_version(),
                "numpy_version": np.__version__,
            },
        )
    except OSError as exc:
        _fail_config(f"cannot write results under {target}: {exc}")

    for chk in summary["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        click.echo(
            f"[{status}] {chk['name']}: {chk['value']:.6g} "
            f"{chk['comparison']} {chk['threshold']:.6g}"
        )
    overall = "PASS" if summary["pass"] else "FAIL"
    click.echo(f"{experiment}: {overall} ({elapsed:.2f} s, results in {target})")
    sys.exit(0 if summary["pass"] else 1)


if __name__ == "__main__":
    main()
