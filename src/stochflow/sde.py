"""Path sampling and pathwise statistics for real diffusions and complex noise.

Real processes follow ``dX = a(X) dt + b dW``, with a drift of position
alone, and are integrated with forward Euler-Maruyama in
``simulate_forward``, on the steps of ``fields.time_steps``.  No path is
stored.  Each block of paths keeps per-path running sums of ``q = (dX)^2 /
dt`` and ``q^2`` over its steps, and reduces them when its last step is
done: to the sums of ``q`` and ``q^2`` over its paths, which the
quadratic-variation estimator reads, and to those of the per-path action
``s = sum_k q_k - n b^2`` and of ``s^2``, which the action estimator reads.
At the steps of a window the caller names, it also keeps the velocity sums
that ``estimate_velocities`` finishes.  A drift may broadcast the state to a
leading batch axis, such as one member per parameter of a sweep; the
members share the initial samples and every draw, and each keeps its own
sums.

A drift must be pointwise along the path axis: ``drift(x)[..., p]`` reads
only ``x[..., p]``.  Paths that go non-finite, or positions that spread past
``MAX_BINS`` bins, raise a ``ValueError`` that names Euler-Maruyama
instability as the cause (or, for the spread, a start too wide for the
bins).

``estimate_velocities`` conditions the forward difference ``X(t + dt) -
X(t)`` and the backward one ``X(t) - X(t - dt)`` on the position at the
same step.  The bins are a lattice of width ``2 b sqrt(dt)`` anchored at 0.
At each pooled step a block adds, per bin, the count of its positions and
the sums of both differences over ``dt`` and of their squares; the
estimate finishes those sums in the bins of ``min_count`` positions or more.

The complex noise ``dZ = (b dW + i bhat dW') / (sqrt(2) sigma)`` mixes two
independent Wiener processes, with ``sigma^2 = (b^2 + bhat^2) / 2``.  Its
defining moments are ``E[dZ dZ*] = dt`` and
``E[dZ^2] = dt (b^2 - bhat^2) / (b^2 + bhat^2)``, which vanishes in the
balanced case ``b = bhat``; ``sample_complex_increments`` returns the
sample means of ``dZ``, ``dZ^2`` and ``dZ dZ*`` beside these exact values,
and ``complex_path_sums`` the sum of ``dZ`` along each of a bundle of paths.

Every draw goes through one block runner, which alone checks the counts
(at least one path, of at least one value) and partitions the paths: a
block holds at most ``BLOCK_VALUES`` values but at least one path, of
paths (batch members included) or of complex increments.  Block
``j`` is one task, claimed from one shared iterator by the caller's thread
or by a pool helper, one per further CPU the process may use; it draws
from its own Philox stream, the ``j``-th child of ``SeedSequence(seed)``,
and returns its sums, which merge in block order, so the output is the
same bit for bit whatever the number of threads.  Each thread's scratch is
allocated on the caller's thread, since large buffers that helpers
allocate stay resident in glibc's per-thread arenas; a helper allocates
only a drift's result and a block's sums.  None outlives the call, so no
path and no whole ``dZ`` is held.  An error on one thread stops the others
before they claim another block, and is raised in the caller.

All randomness flows through counter-based Philox generators keyed by an
explicit integer seed; repeated runs are bit-identical.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import GridSpec, ScalarField, _spectral_derivative, time_steps

__all__ = [
    "DiffusionModel",
    "PathEnsemble",
    "ComplexIncrementStats",
    "VelocityEstimate",
    "make_rng",
    "simulate_forward",
    "sample_complex_increments",
    "complex_path_sums",
    "estimate_velocities",
    "estimate_diffusion",
    "discretized_action",
    "osmotic_velocity_from_density",
    "backward_drift_from_forward",
]


#: values per block of paths (batch members included) or of complex increments
BLOCK_VALUES = 2**14
#: most velocity bins the positions of one block may span at one step
MAX_BINS = 2**16


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based generator; the sole source of randomness in the package."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class DiffusionModel:
    """Drift-diffusion model ``dX = drift(x) dt + b dW`` with constant noise scale."""

    drift: Callable[[np.ndarray], np.ndarray]
    b: float

    def __post_init__(self):
        if not 0 < self.b < np.inf:
            raise ValueError(f"noise amplitude b must be positive and finite, got {self.b}")

    def drift_on(self, grid: GridSpec) -> np.ndarray:
        """The drift tabulated at the points of a 1-D grid, as floats."""
        return np.asarray(self.drift(grid.axis), dtype=float)


@dataclass(frozen=True)
class PathEnsemble:
    """The sums that a bundle of ``n_paths`` forward sample paths of
    ``n_steps`` steps of ``dt`` leaves.

    ``totals`` has shape ``(4,) + batch``, where ``batch`` is empty or the
    batch shape of a batched sweep (one member per drift).  Its rows are the
    sums over every step of every path of ``q = (dX)^2 / dt`` and of ``q^2``,
    then the sums over the paths of the action ``s = sum_k q_k - n_steps b^2``
    of a path and of ``s^2``.  ``bins[:, i]`` holds the sums over the pooled
    steps ``k`` for velocity bin ``i``, the positions ``X_k`` in ``[(bin_first
    + i) w, (bin_first + i + 1) w)`` with ``w = 2 b sqrt(dt)``: their count,
    the sums of the forward rate ``(X_{k+1} - X_k) / dt`` and of its square,
    and those of the backward rate ``(X_k - X_{k-1}) / dt``.  With no pooled
    step ``bins`` has no columns.
    """

    totals: np.ndarray = field(repr=False)
    n_paths: int
    bins: np.ndarray = field(repr=False)
    bin_first: int
    dt: float
    n_steps: int
    b: float


def _bin_width(b: float, dt: float) -> float:
    """Velocity bins of ``2 b sqrt(dt)`` keep the one-step diffusive blur below the bin scale."""
    return 2 * b * np.sqrt(dt)


def _initial_samples(x0, out: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``out`` from a constant ``x0`` or from ('gaussian', mean, std)."""
    if isinstance(x0, tuple) and len(x0) == 3 and x0[0] == "gaussian":
        rng.standard_normal(out=out)
        out *= x0[2]
        out += x0[1]
    else:
        out.fill(float(x0))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(n_paths: int, per_path: int, seed: int, scratch: Callable, task,
                counted: str = "n_paths") -> list:
    """``task(start, n, rng, *buffers)`` of every block, in block order.  Block ``j`` holds the
    ``n`` paths from path ``start``: at most ``BLOCK_VALUES // per_path`` paths of ``per_path``
    values, but at least one; ``rng`` is on the ``j``-th child of ``SeedSequence(seed)``.  The
    blocks run on the caller's thread and ``_cpu_count() - 1`` helpers, each thread with its
    ``buffers = scratch(paths of the largest block)`` allocated here, on the caller's thread.
    An error on one thread stops the others before their next block and is raised here, as
    is a ValueError for fewer than one path or than one value per path; the caller's name for
    its count of paths is ``counted``."""
    for name, count in ((counted, n_paths), ("values per path", per_path)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    per_block = max(1, BLOCK_VALUES // per_path)
    starts = range(0, n_paths, per_block)
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    buffers = [scratch(min(per_block, n_paths)) for _ in range(min(_cpu_count(), len(starts)))]
    results = [None] * len(starts)
    claim = iter(range(len(starts)))
    stop = threading.Event()

    def run(mine: tuple) -> None:
        try:
            while not stop.is_set() and (j := next(claim, None)) is not None:
                n = min(per_block, n_paths - starts[j])
                results[j] = task(starts[j], n, make_rng(streams[j]), *mine)
        except BaseException:
            stop.set()
            raise

    # imported here, not at the top: concurrent.futures loads logging, which
    # a CLI start-up that never simulates would pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, len(buffers) - 1)) as pool:
        # each helper runs in a copy of the caller's context, so that numpy's
        # errstate holds there too
        helpers = [pool.submit(contextvars.copy_context().run, run, mine) for mine in buffers[1:]]
        run(buffers[0])
        for helper in helpers:
            helper.result()
    return results


def _unstable(dt: float, cause: str) -> ValueError:
    return ValueError(f"{cause} Euler-Maruyama steps of dt = {dt:g} are unstable for this drift")


def _add_bins(total, first: int, bins: np.ndarray) -> tuple[int, np.ndarray]:
    """``total``, a lattice ``(index of its first bin, (5, n) sums)`` or None,
    with the sums ``bins`` from lattice index ``first`` added; it grows to hold them."""
    if total is None:
        return first, bins
    start, sums = total
    lo, hi = min(start, first), max(start + sums.shape[1], first + bins.shape[1])
    if (lo, hi) != (start, start + sums.shape[1]):
        grown = np.zeros((5, hi - lo))
        grown[:, start - lo : start - lo + sums.shape[1]] = sums
        start, sums = lo, grown
    sums[:, first - start : first - start + bins.shape[1]] += bins
    return start, sums


def _bin_step(x, forward, backward, width, dt, keys, idx) -> tuple[int, np.ndarray]:
    """The lattice sums of one pooled step of a block; ``keys`` and ``idx`` are
    scratch of the block's size, and ``keys`` takes the squared rates once the
    bin indices are read off it."""
    np.floor(np.divide(x, width, out=keys), out=keys)
    lo, hi = keys.min(), keys.max()
    if not hi - lo < MAX_BINS:  # false for NaN too
        raise _unstable(
            dt, f"the positions of a pooled step spread past {MAX_BINS} bins of width "
            "2 b sqrt(dt): the start is too wide, or"
        )
    idx[...] = np.subtract(keys, lo, out=keys)
    n = int(hi - lo) + 1
    sums = [np.bincount(idx, minlength=n)]
    for rate in (forward, backward):
        sums += [np.bincount(idx, rate, n), np.bincount(idx, np.square(rate, out=keys), n)]
    return int(lo), np.stack(sums)


def simulate_forward(
    model: DiffusionModel,
    x0,
    t_final: float,
    dt: float,
    n_paths: int,
    seed: int,
    window: tuple[int, int] | None = None,
) -> PathEnsemble:
    """Euler-Maruyama ensemble of the forward process.

    The run takes the ``n`` steps of ``time_steps(t_final, dt)``, and leaves
    the sums of ``q = (dX)^2 / dt``, of ``q^2`` and of the per-path action
    ``sum_k q_k - n b^2`` and its square (:class:`PathEnsemble`).  The
    steps ``k`` of ``window = (first, stop)`` (half open, within ``1`` to
    ``n - 1``; default none) are pooled: their positions are binned with
    both differences, for ``estimate_velocities``.  The drift may broadcast
    the state to leading batch axes, e.g. ``theta[:, None] * sin(x)``: every
    batch member then sees the same initial samples and the same draws.  A
    batched run pools no step.  The drift must be pointwise along the path
    axis: ``drift(x)[..., p]`` reads only ``x[..., p]``.
    """
    m, dt = time_steps(t_final, dt)
    first, stop = (0, 0) if window is None else window
    if window is not None and not 1 <= first < stop <= m:
        raise ValueError(f"window {window} is not within the steps 1 to {m - 1} of the {m}-step run")
    drift, scale, width = model.drift, model.b * np.sqrt(dt), _bin_width(model.b, dt)
    # one path's drift fixes the batch shape, so that all memory is
    # allocated here, on the caller's thread
    batch = np.shape(drift(np.zeros(1)))[:-1]
    if batch and window is not None:
        raise ValueError(f"a batch of shape {batch} has no single velocity profile to pool")
    action_shift = m * model.b**2

    def run_block(_, n: int, rng, states, lines, idx) -> tuple:
        x, nxt, inc, q_acc, q2_acc = states[..., :n]
        noise, forward, backward, keys = lines[:, :n]
        q_acc.fill(0.0)
        q2_acc.fill(0.0)
        _initial_samples(x0, noise, rng)
        x[...] = noise
        lattice = None
        for k in range(m):
            rng.standard_normal(out=noise)
            # x + drift(x) dt + b sqrt(dt) noise, in that order; the product
            # goes to scratch, since a drift may return its argument
            np.multiply(drift(x), dt, out=nxt)
            nxt += x
            noise *= scale
            nxt += noise
            np.subtract(nxt, x, out=inc)
            if first - 1 <= k < stop:
                # the last step's forward rate is this step's backward one
                forward, backward = backward, forward
                np.divide(inc, dt, out=forward)
                if k >= first:
                    step = _bin_step(x, forward, backward, width, dt, keys, idx[:n])
                    lattice = _add_bins(lattice, *step)
            np.square(inc, out=inc)
            inc /= dt
            q_acc += inc
            np.multiply(inc, inc, out=inc)
            q2_acc += inc
            x, nxt = nxt, x
        q, q2 = q_acc.sum(axis=-1), q2_acc.sum(axis=-1)
        if not np.isfinite(q2).all():  # sums of squares: any non-finite step shows
            raise _unstable(dt, "the paths went non-finite:")
        q_acc -= action_shift  # the action s of each path
        s = q_acc.sum(axis=-1)
        return np.stack((q, q2, s, np.square(q_acc, out=q_acc).sum(axis=-1))), lattice

    def scratch(size: int) -> tuple:
        return np.empty((5,) + batch + (size,)), np.empty((4, size)), np.empty(size, np.intp)

    blocks = _run_blocks(n_paths, max(1, math.prod(batch)), seed, scratch, run_block)
    block_totals, lattices = zip(*blocks)
    totals = sum(block_totals)  # in block order, whichever thread ran a block
    total = None
    for lattice in filter(None, lattices):
        total = _add_bins(total, *lattice)
    bin_first, bins = total or (0, np.zeros((5, 0)))
    return PathEnsemble(
        totals=totals, n_paths=n_paths, bins=bins, bin_first=bin_first, dt=dt, n_steps=m,
        b=model.b,
    )


# -- complex noise -----------------------------------------------------------

@dataclass(frozen=True)
class ComplexIncrementStats:
    """Sample moments of the complex noise increment against their exact values."""

    mean_dz: complex
    mean_dz2: complex
    mean_dzdzbar: complex
    expected_dz2: complex
    expected_dzdzbar: complex


def _complex_blocks(b: float, bhat: float, dt: float, n_paths: int, m: int, seed: int, reduce,
                    counted: str = "n_paths"):
    """``reduce(dz, spare)`` of each block of whole paths, in block order, where ``dz`` holds
    the ``m`` increments ``dZ = (b xi + i bhat xi_hat) sqrt(dt) / (sqrt(2) sigma)`` along each
    path of the block, flat, and ``spare`` is complex scratch of its size.  A block draws its
    real normals ``xi``, then its imaginary ones ``xi_hat``; ``counted`` names ``n_paths`` in
    the block runner's error."""
    for name, value in (("noise amplitude b", b), ("noise amplitude bhat", bhat), ("dt", dt)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    sigma = np.sqrt((b**2 + bhat**2) / 2)

    def draw(_, n: int, rng, normals, dz):
        size = n * m
        real, imag, dz = normals[:size], normals[size : 2 * size], dz[:size]
        rng.standard_normal(out=real)
        rng.standard_normal(out=imag)
        np.multiply(b, real, out=dz.real)  # no mixed types, which ufuncs cast through buffers
        np.multiply(bhat, imag, out=dz.imag)
        dz *= np.sqrt(dt)
        dz /= np.sqrt(2) * sigma
        # the normals are spent: their buffer is the spare
        return reduce(dz, normals[: 2 * size].view(complex))

    def scratch(paths: int) -> tuple:
        return np.empty(2 * paths * m), np.empty(paths * m, complex)

    return _run_blocks(n_paths, m, seed, scratch, draw, counted)


def sample_complex_increments(
    b: float, bhat: float, dt: float, n_samples: int, seed: int
) -> ComplexIncrementStats:
    """Draw ``dZ`` increments and report the first two moments."""

    def reduce(dz, prod) -> np.ndarray:
        dz2 = np.multiply(dz, dz, out=prod).sum()
        dzdzbar = np.multiply(dz, np.conjugate(dz, out=prod), out=prod).sum()
        return np.array([dz.sum(), dz2, dzdzbar])

    # one-step paths
    totals = sum(_complex_blocks(b, bhat, dt, n_samples, 1, seed, reduce, "n_samples"))
    moments = [complex(total / n_samples) for total in totals]
    moments += [complex(dt * (b**2 - bhat**2) / (b**2 + bhat**2)), complex(dt)]  # the exact ones
    return ComplexIncrementStats(*moments)


def complex_path_sums(b: float, bhat: float, dt: float, n_paths: int, n_steps: int, seed: int):
    """The sum of ``n_steps`` increments ``dZ`` along each of ``n_paths`` paths."""

    def reduce(dz, _) -> np.ndarray:
        return dz.reshape(-1, n_steps).sum(axis=1)

    return np.concatenate(_complex_blocks(b, bhat, dt, n_paths, n_steps, seed, reduce))


# -- pathwise estimators ------------------------------------------------------

@dataclass(frozen=True)
class VelocityEstimate:
    """Binned conditional-increment velocities around one time step.

    ``forward_drift[i]`` estimates ``E[X(t+dt) - X(t) | X(t) in bin i] / dt``
    and ``backward_drift[i]`` the same with the backward difference; the
    current and osmotic velocities are their half-sum and half-difference.
    It holds only the bins with at least the ``min_count`` positions that
    ``estimate_velocities`` was given, in lattice order.
    """

    centers: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    forward_drift: np.ndarray = field(repr=False)
    backward_drift: np.ndarray = field(repr=False)
    current: np.ndarray = field(repr=False)
    osmotic: np.ndarray = field(repr=False)
    forward_stderr: np.ndarray = field(repr=False)
    backward_stderr: np.ndarray = field(repr=False)


def _require_unbatched(ens: PathEnsemble) -> None:
    """The estimators pool the paths of one ensemble; a batch has no single answer."""
    if ens.totals.ndim != 1:
        raise ValueError(
            f"the sums of {ens.n_paths} paths in a batch of shape {ens.totals.shape[1:]} have "
            "no single estimate: estimate each batch member separately"
        )


def estimate_velocities(ens: PathEnsemble, min_count: int) -> VelocityEstimate:
    """Estimate mean forward/backward velocities by conditional binning.

    Both differences are conditioned on the position at the *same* step
    ``k``: forward uses ``X(k+1) - X(k)``, backward uses ``X(k) - X(k-1)``.
    The steps of the window that ``simulate_forward`` was given are pooled,
    which is valid whenever the velocity fields are steady over it.  The
    bins are those of the lattice of width ``2 b sqrt(dt)`` anchored at 0
    that hold at least ``min_count >= 1`` pooled positions, possibly none;
    this only finishes the per-bin sums that the simulation kept.  The
    ensemble must not be batched.
    """
    _require_unbatched(ens)
    if not ens.bins.shape[1]:
        raise ValueError("the ensemble pools no step: simulate it with a window of steps")
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    kept = np.flatnonzero(ens.bins[0] >= min_count)
    counts, sums_f, sq_f, sums_b, sq_b = ens.bins[:, kept]
    centers = (ens.bin_first + 0.5 + kept) * _bin_width(ens.b, ens.dt)

    mean_f = sums_f / counts
    mean_b = sums_b / counts
    err_f = np.sqrt(np.maximum(sq_f / counts - mean_f**2, 0.0) / counts)
    err_b = np.sqrt(np.maximum(sq_b / counts - mean_b**2, 0.0) / counts)

    return VelocityEstimate(
        centers=centers,
        counts=counts.astype(np.intp),
        forward_drift=mean_f,
        backward_drift=mean_b,
        current=0.5 * (mean_f + mean_b),
        osmotic=0.5 * (mean_f - mean_b),
        forward_stderr=err_f,
        backward_stderr=err_b,
    )


def _mean_stderr(total, total_sq, n: int):
    """The mean of ``n`` samples and its standard error, from their sum and sum of squares."""
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    mean = total / n
    return mean, np.sqrt((total_sq - mean * total) / (n - 1)) / np.sqrt(n)


def estimate_diffusion(ens: PathEnsemble) -> tuple[float, float]:
    """Quadratic-variation estimate of ``b^2`` with its standard error.

    Averages ``(dX)^2 / dt`` over every step of every path.  The estimator
    carries an ``E[a^2] dt`` bias from the drift contribution, which is far
    below one standard error at the step sizes used here.  Finishes the
    ensemble's sums of ``q`` and ``q^2``.  A batched ensemble is an error.
    """
    _require_unbatched(ens)
    mean, stderr = _mean_stderr(*ens.totals[:2], ens.n_paths * ens.n_steps)
    return float(mean), float(stderr)


def discretized_action(ens: PathEnsemble) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    r"""Discretized kinetic action of a real ensemble.

    Computes :math:`E \sum_k [ (\Delta X_k)^2 / \Delta t - b^2 ]`, whose
    expectation is :math:`E \int a^2 dt` for Euler-Maruyama paths: the
    quadratic-variation contribution ``b^2`` per step is subtracted exactly.
    Returns the value with its standard error; finishes the ensemble's sums
    of the per-path action and its square.  A batched ensemble gives two
    arrays, one entry per batch member.
    """
    value, stderr = _mean_stderr(*ens.totals[2:], ens.n_paths)
    if ens.totals.ndim == 1:
        return float(value), float(stderr)
    return value, stderr


# -- density-based velocity constructions ------------------------------------

def osmotic_velocity_from_density(rho: ScalarField, b: float) -> ScalarField:
    r"""Osmotic velocity ``u = (b^2/2) d/dx log rho`` of a positive density."""
    vals = np.real(rho.values)
    if vals.min() <= 0:
        raise ValueError("density must be strictly positive to take log")
    return ScalarField(rho.grid, 0.5 * b**2 * _spectral_derivative(np.log(vals), rho.grid, 0, 1))


def backward_drift_from_forward(model: DiffusionModel, rho: ScalarField) -> np.ndarray:
    """The backward drift ``a_b = a - 2u`` of the forward model and a density,
    tabulated on the density's grid."""
    u = np.real(osmotic_velocity_from_density(rho, model.b).values)
    return model.drift_on(rho.grid) - 2 * u
