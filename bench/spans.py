"""Spans, counters and the wrappers that record them around stochflow's layers.

A traced pass installs a wrapper on each name where its caller looks it
up: ``born`` does ``from .schrodinger import evolve``, so the pipeline
finds ``evolve`` in the ``stochflow.born`` namespace, and that is the
attribute replaced.  The NumPy FFT functions are looked up as attributes
of ``numpy.fft`` at every call, so they are replaced there.  Every wrapper
is removed again by :meth:`Patcher.restore`, which lets untraced passes in
the same interpreter measure the unmodified program.

Spans carry a name, a start, an end, the index of the enclosing span and
the id of the experiment call they belong to.  They are kept in memory and
written out once the pass has ended.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy

MB = 1e6

#: (module where the caller looks the name up, name, span name).  The
#: residual helpers ``born`` imports are left unwrapped on purpose, so that
#: ``born.pipeline.self_s`` holds the compare and residual stages.
SPANNED = (
    ("stochflow.experiments", "born_pipeline", "born.pipeline"),
    ("stochflow.born", "evolve", "schrodinger.evolve"),
    ("stochflow.experiments", "evolve", "schrodinger.evolve"),
    ("stochflow.born", "velocity_from_wavefunction", "born.extract"),
    ("stochflow.born", "evolve_density_continuity", "born.transport"),
    ("stochflow.experiments", "simulate_forward", "sde.simulate"),
    ("stochflow.experiments", "estimate_velocities", "sde.estimate"),
    ("stochflow.experiments", "estimate_diffusion", "sde.estimate"),
    ("stochflow.experiments", "discretized_action", "sde.action"),
    ("stochflow.experiments", "sample_complex_increments", "sde.increments"),
    ("stochflow.experiments", "solve_burgers", "burgers.solve"),
    ("stochflow.experiments", "heat_evolve_spectral", "burgers.heat"),
    ("stochflow.experiments", "solve_forward", "fokker_planck.solve"),
    ("stochflow.experiments", "solve_backward", "fokker_planck.solve"),
    ("stochflow.experiments", "discrete_stationary_density", "fokker_planck.solve"),
    ("stochflow.experiments", "complex_fp_residual", "fokker_planck.residual"),
    ("stochflow.experiments", "continuity_residual", "fokker_planck.residual"),
    ("stochflow.experiments", "osmotic_constraint_residual", "fokker_planck.residual"),
    ("stochflow.experiments", "check_prop_identities", "clifford"),
    ("stochflow.experiments", "geometric_product", "clifford"),
    ("stochflow.experiments", "grad_wedge", "clifford"),
    ("stochflow.experiments", "linearization_cancellation", "clifford"),
    ("stochflow.experiments", "scalar_product", "clifford"),
    ("stochflow.experiments", "wedge", "clifford"),
    ("stochflow.experiments", "contraction", "clifford"),
    ("stochflow.burgers", "gradient", "clifford"),
)

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
FREQ_FUNCTIONS = ("fftfreq", "rfftfreq")

#: (name, unit) of the per-layer metrics of a traced pass, in the order
#: they are reported; for all of them lower is better.  They are followed
#: by ``experiments.<name>.wall_s`` for every benchmarked experiment, and
#: run.py adds ``trace.overhead_s``.
LAYER_METRICS = (
    ("schrodinger.evolve.s", "s"),
    ("schrodinger.evolve.steps", "count"),
    ("schrodinger.evolve.stored_mb", "MB"),
    ("born.pipeline.s", "s"),
    ("born.pipeline.self_s", "s"),
    ("born.extract.s", "s"),
    ("born.extract.calls", "count"),
    ("born.transport.s", "s"),
    ("fields.scalarfield.count", "count"),
    ("numpy.fft.calls", "count"),
    ("numpy.fft.mpoints", "Mpoint"),
    ("numpy.fft.fftfreq.calls", "count"),
    ("sde.simulate.s", "s"),
    ("sde.simulate.calls", "count"),
    ("sde.simulate.path_steps", "count"),
    ("sde.ensemble_mb", "MB"),
    ("sde.estimate.s", "s"),
    ("sde.action.s", "s"),
    ("sde.increments.s", "s"),
    ("burgers.solve.s", "s"),
    ("burgers.heat.s", "s"),
    ("fokker_planck.solve.s", "s"),
    ("fokker_planck.residual.s", "s"),
    ("clifford.s", "s"),
    ("output.write.s", "s"),
    ("output.mb", "MB"),
    ("experiments.self_s", "s"),
)

#: Integer counters, all zero until a wrapper adds to them.
COUNTERS = (
    "schrodinger.evolve.steps",
    "schrodinger.evolve.stored_bytes",
    "fields.scalarfield.count",
    "numpy.fft.calls",
    "numpy.fft.points",
    "numpy.fft.fftfreq.calls",
    "sde.simulate.path_steps",
    "sde.ensemble_bytes",
    "output.bytes",
)

#: Layer metrics that must repeat exactly between passes: all but the
#: times and ``output.mb``, whose manifest records a runtime.
REPEATABLE = tuple(
    name for name, unit in LAYER_METRICS if unit != "s" and name != "output.mb"
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``Tracer.spans``; None for a root span
    parent: int | None
    trace_id: int


class Tracer:
    """Collects spans and counters for one pass."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.trace_id = 0
        self._open: list[int] = []

    def begin_trace(self) -> None:
        """Start a new experiment call; later spans share its id."""
        self.trace_id += 1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # filled in when the span closes
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.trace_id)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.trace_id] for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "counters": self.counters}))


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    def begin_trace(self) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, key: str, amount: int = 1) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(kids, s.start, s.end) for s, kids in zip(spans, children)]


def span_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Per span name: inclusive seconds, self seconds and call count.

    No wrapped function calls another one of the same name through a
    wrapped lookup, so inclusive times of one name never overlap.
    """
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, self_s in zip(spans, self_times(spans)):
        inclusive[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
    return inclusive, own, calls


def layer_metrics(tracer: Tracer, experiments) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``experiments`` are all benchmarked ones."""
    inclusive, own, calls = span_totals(tracer.spans)
    counters = tracer.counters
    metrics = {
        "schrodinger.evolve.s": inclusive["schrodinger.evolve"],
        "schrodinger.evolve.steps": counters["schrodinger.evolve.steps"],
        "schrodinger.evolve.stored_mb": counters["schrodinger.evolve.stored_bytes"] / MB,
        "born.pipeline.s": inclusive["born.pipeline"],
        "born.pipeline.self_s": own["born.pipeline"],
        "born.extract.s": inclusive["born.extract"],
        "born.extract.calls": calls["born.extract"],
        "born.transport.s": inclusive["born.transport"],
        "fields.scalarfield.count": counters["fields.scalarfield.count"],
        "numpy.fft.calls": counters["numpy.fft.calls"],
        "numpy.fft.mpoints": counters["numpy.fft.points"] / MB,
        "numpy.fft.fftfreq.calls": counters["numpy.fft.fftfreq.calls"],
        "sde.simulate.s": inclusive["sde.simulate"],
        "sde.simulate.calls": calls["sde.simulate"],
        "sde.simulate.path_steps": counters["sde.simulate.path_steps"],
        "sde.ensemble_mb": counters["sde.ensemble_bytes"] / MB,
        "sde.estimate.s": inclusive["sde.estimate"],
        "sde.action.s": inclusive["sde.action"],
        "sde.increments.s": inclusive["sde.increments"],
        "burgers.solve.s": inclusive["burgers.solve"],
        "burgers.heat.s": inclusive["burgers.heat"],
        "fokker_planck.solve.s": inclusive["fokker_planck.solve"],
        "fokker_planck.residual.s": inclusive["fokker_planck.residual"],
        "clifford.s": inclusive["clifford"],
        "output.write.s": inclusive["output.write"],
        "output.mb": counters["output.bytes"] / MB,
        "experiments.self_s": sum(own[f"experiments.{e}"] for e in experiments),
    }
    for e in experiments:
        metrics[f"experiments.{e}.wall_s"] = inclusive[f"experiments.{e}"]
    return metrics


# -- wrappers ----------------------------------------------------------------


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> bool:
        """Replace ``owner.attr`` by ``make_wrapper(original)``; False if absent."""
        original = vars(owner).get(attr)
        if original is None:
            return False
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)

    def all_restored(self) -> bool:
        return all(vars(owner).get(attr) is original for owner, attr, original in self.saved)


def _n_steps(t_final: float, dt: float) -> int:
    """Step count of a run of ``t_final`` with steps of ``dt``, as evolve documents it."""
    return max(1, int(round(t_final / dt)))


def _account_evolve(tracer, args, result) -> None:
    tracer.count("schrodinger.evolve.steps", _n_steps(args["t_final"], args["dt"]))
    points = math.prod(args["problem"].grid.shape)
    stored = len(getattr(result, "states", ()))
    tracer.count("schrodinger.evolve.stored_bytes", stored * points * 16)


def _account_simulate(tracer, args, result) -> None:
    steps = _n_steps(args["t_final"], args["dt"])
    tracer.count("sde.simulate.path_steps", args["n_paths"] * steps)
    paths = getattr(result, "paths", None)
    tracer.count("sde.ensemble_bytes", getattr(paths, "nbytes", 0))


ACCOUNTS = {"schrodinger.evolve": _account_evolve, "sde.simulate": _account_simulate}


def _spanned(tracer: Tracer, name: str, fn):
    account = ACCOUNTS.get(name)
    signature = inspect.signature(fn) if account else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if account is not None:
            account(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _counted(tracer: Tracer, key: str, fn, points_key: str | None = None):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        if points_key is not None:
            counters[points_key] += numpy.size(args[0] if args else kwargs["a"])
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> tuple[Patcher, list[str]]:
    """Wrap every traced name; returns the patcher and the names not found."""
    from stochflow.fields import ScalarField

    patcher = Patcher()
    missing = []
    for module_name, attr, span_name in SPANNED:
        module = importlib.import_module(module_name)
        if not patcher.patch(module, attr, lambda fn, n=span_name: _spanned(tracer, n, fn)):
            missing.append(f"{module_name}.{attr}")
    for attr in FFT_FUNCTIONS:
        patcher.patch(
            numpy.fft, attr,
            lambda fn: _counted(tracer, "numpy.fft.calls", fn, "numpy.fft.points"),
        )
    for attr in FREQ_FUNCTIONS:
        patcher.patch(numpy.fft, attr, lambda fn: _counted(tracer, "numpy.fft.fftfreq.calls", fn))
    if not patcher.patch(
        ScalarField, "__post_init__",
        lambda fn: _counted(tracer, "fields.scalarfield.count", fn),
    ):
        missing.append("stochflow.fields.ScalarField.__post_init__")
    return patcher, missing
