"""Command-line entry point.

``stochflow run <experiment>`` executes one named experiment and writes
``summary.json`` (deterministic, byte-identical across re-runs with the
same inputs), ``manifest.json`` (environment and timing, allowed to
vary), and one CSV per result table into the output directory.

Exit codes: 0 when every check passes, 1 when any check fails, and 2 for
configuration or I/O errors (bad JSON, unknown parameter, a value of the
wrong type or one the experiment rejects, unwritable output directory).
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


def _matches(value, default) -> bool:
    """Whether ``value`` has the type of ``default``: an int may stand for a float,
    a bool for nothing, and every element of a list must match the default's first."""
    expected = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, expected):
        return False
    if isinstance(default, list) and default:
        return all(_matches(v, default[0]) for v in value)
    return True


def _type_name(default) -> str:
    if isinstance(default, list) and default:
        return f"list of {_type_name(default[0])}"
    return type(default).__name__


def _merge_params(defaults: dict, config: dict, name: str) -> tuple[dict, int | None]:
    """Overlay config values on the defaults and return them with the config's
    ``seed`` (None if absent); unknown keys and values that do not match the
    default's type (:func:`_matches`) are an error.  A ``seed`` must be an int."""
    seed = None
    params = dict(defaults)
    for key, value in config.items():
        if key == "seed":
            if isinstance(value, bool) or not isinstance(value, int):
                _fail_config(f"{key!r} in the config file must be of type int, got {json.dumps(value)}")
            seed = value
            continue
        if key not in defaults:
            _fail_config(
                f"unknown parameter {key!r} for experiment {name!r} "
                f"(known: {', '.join(sorted(defaults))})"
            )
        if not _matches(value, defaults[key]):
            _fail_config(
                f"parameter {key!r} of experiment {name!r} must be of type "
                f"{_type_name(defaults[key])}, got {json.dumps(value)}"
            )
        params[key] = value
    return params, seed


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
        first_line = spec.describe.splitlines()[0]
        click.echo(f"{name:<{width}}  {first_line}")


@main.command()
@click.argument("experiment", type=click.Choice(sorted(EXPERIMENTS), case_sensitive=True))
def describe(experiment: str) -> None:
    """Print what an experiment verifies, with thresholds and defaults."""
    spec = EXPERIMENTS[experiment]
    click.echo(f"{experiment}\n{'=' * len(experiment)}")
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
def run(experiment: str, config_path: str | None, seed: int | None,
        out_dir: str | None) -> None:
    """Run one experiment and write summary.json, manifest.json, and CSVs."""
    spec = EXPERIMENTS[experiment]
    config = _load_config(config_path)
    params, config_seed = _merge_params(spec.defaults, config, experiment)
    if seed is None:
        seed = _DEFAULT_SEED if config_seed is None else config_seed
    if seed < 0:
        _fail_config(f"'seed' must be non-negative, got {seed}")

    target = Path(out_dir) if out_dir is not None else Path("runs") / experiment
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail_config(f"cannot create output directory {target}: {exc}")

    t0 = time.perf_counter()
    try:
        # a non-finite value is caught by the checks or by ScalarField, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = run_experiment(experiment, params, seed)
    except ValueError as exc:
        overridden = sorted(set(config) & set(spec.defaults))
        if not overridden:  # the defaults must always run: a program error
            raise
        _fail_config(
            f"experiment {experiment!r} rejects the configured value of "
            f"{', '.join(map(repr, overridden))}: {exc}"
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
