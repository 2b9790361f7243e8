"""Path sampling and pathwise statistics for real diffusions and complex noise.

Real processes follow ``dX = a(X) dt + b dW``, with a drift of position
alone, and are integrated with forward Euler-Maruyama in one loop,
``simulate_forward``, on the steps of ``fields.time_steps``.  It streams: it
stores only the window of time columns the caller asks for (by default all
of them), and keeps per-path running sums of ``q = (dX)^2 / dt`` and
``q^2`` over every step, which is all the quadratic-variation and action
estimators read.  A drift may broadcast the state to a leading batch axis,
such as one member per parameter of a sweep; the members share the initial
samples and every per-step draw, so each trajectory is bit-identical to a
separate run.

A drift must be pointwise along the path axis: ``drift(x)[..., p]`` reads
only ``x[..., p]``.  Each step then goes over blocks of paths that hold,
batch included, ``BLOCK_VALUES // 4`` values (128 KiB an array), so that
the nine or so arrays a block touches stay in a core's L2 cache instead of
streaming whole-ensemble arrays through memory.  Each step the caller's
thread hands one task to each helper of a thread pool, one helper per
further CPU the process may use (``os.sched_getaffinity``); the caller and
the helpers claim the blocks of the step from one shared iterator, and the
caller waits for every task before the next step.  The caller's thread
alone draws the normals, in the order of one whole-array draw per step,
one step ahead into a second buffer, so the draws overlap the arithmetic.
Every element sees the same ufunc sequence whatever the blocks and the
number of threads, so the output is the same bit for bit on any machine.
All buffers are allocated once, on the caller's thread; with one CPU or
one block no helper starts, and none outlives the call.  An error in a
helper is raised in the caller.

``estimate_velocities`` conditions the forward difference and the backward
one, ``X(t) - X(t - dt)``, on the position at the same step.  It reads one
block of paths at a time, of up to ``BLOCK_VALUES`` pooled values, in two
passes: the first keeps the 0.5% tails of the pooled positions, whose
order statistics give the bin range exactly as ``np.quantile`` would, and
the second bins.  Beyond the stored window it holds only block-sized
arrays and those tails.

The complex noise ``dZ = (b dW + i bhat dW') / (sqrt(2) sigma)`` mixes two
independent Wiener processes, with ``sigma^2 = (b^2 + bhat^2) / 2``.  Its
defining moments are ``E[dZ dZ*] = dt`` and
``E[dZ^2] = dt (b^2 - bhat^2) / (b^2 + bhat^2)``, which vanishes in the
balanced case ``b = bhat``; ``sample_complex_increments`` returns the
sample means of ``dZ``, ``dZ^2`` and ``dZ dZ*`` beside these exact values.
``complex_increment_blocks`` holds the formula for ``dZ`` once: it draws the
real normals whole and the imaginary ones a block of rows at a time, and
gives every value bit for bit as one whole-array draw would.  The means
are reduced block by block, each block a whole subtree of the pairwise sum
that ``dZ.mean()`` would take, and the block sums are added up that tree;
so they equal the whole-array means bit for bit, while a run holds the
real normals and block-sized buffers but no whole ``dZ``.

All randomness flows through a counter-based Philox generator keyed by an
explicit integer seed; repeated runs are bit-identical.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fields import GridSpec, ScalarField, _spectral_derivative, time_steps

__all__ = [
    "DiffusionModel",
    "PathEnsemble",
    "ComplexIncrementStats",
    "VelocityEstimate",
    "make_rng",
    "simulate_forward",
    "complex_increment_blocks",
    "sample_complex_increments",
    "estimate_velocities",
    "estimate_diffusion",
    "discretized_action",
    "osmotic_velocity_from_density",
    "backward_drift_from_forward",
]


#: values per block of a blocked pass over paths or increments
BLOCK_VALUES = 2**16


def make_rng(seed: int) -> np.random.Generator:
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
    """A bundle of forward sample paths of ``n_steps`` steps of ``dt``.

    ``paths[..., p, j]`` is path ``p`` after ``first + j`` steps: only the
    columns the simulation was asked to keep are stored.  Any leading axes
    are batch axes (one per drift of a batched sweep).  ``q_sum[..., p]`` and
    ``q2_sum[..., p]`` are the sums over *every* step of ``q = (dX)^2 / dt``
    and of ``q^2`` along path ``p``.
    """

    paths: np.ndarray = field(repr=False)
    q_sum: np.ndarray = field(repr=False)
    q2_sum: np.ndarray = field(repr=False)
    dt: float
    n_steps: int
    b: float
    first: int

    def __post_init__(self):
        n_stored = self.paths.shape[-1]
        if self.paths.ndim < 2 or not 0 <= self.first <= self.first + n_stored <= self.n_steps + 1:
            raise ValueError("paths must be (..., n_paths, n_stored) within the time mesh")
        if self.q_sum.shape != self.paths.shape[:-1] or self.q2_sum.shape != self.q_sum.shape:
            raise ValueError("running sums must be (..., n_paths)")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[-2]


def _initial_samples(x0, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Accept a constant or ('gaussian', mean, std)."""
    if isinstance(x0, tuple) and len(x0) == 3 and x0[0] == "gaussian":
        return x0[1] + x0[2] * rng.standard_normal(n_paths)
    return np.full(n_paths, float(x0))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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

    The run takes the ``n`` steps of ``time_steps(t_final, dt)``.  Only the
    time columns with step indices in ``window = (first, stop)``
    (half open; default all) are stored, while the running sums of
    ``(dX)^2 / dt`` and its square cover every step.  The drift may
    broadcast the state to leading batch axes, e.g. ``theta[:, None] *
    sin(x)``: every batch member then sees the same initial samples and the
    same per-step draws, so its trajectory is bit-identical to a separate
    run with that member's drift.  The drift must be pointwise along the
    path axis: ``drift(x)[..., p]`` reads only ``x[..., p]``.
    """
    m, dt = time_steps(t_final, dt)
    first, stop = (0, m + 1) if window is None else window
    if not 0 <= first <= stop <= m + 1:
        raise ValueError(f"window {window} is not within the {m + 1} mesh columns")
    rng = make_rng(seed)
    start = _initial_samples(x0, n_paths, rng)
    drift, scale = model.drift, model.b * np.sqrt(dt)
    # one path's drift fixes the batch shape, so that all memory is
    # allocated here, on the caller's thread: buffers that helper threads
    # allocate stay resident in glibc's per-thread arenas
    batch = np.shape(drift(start[:1]))[:-1]
    x = np.empty(batch + (n_paths,))
    paths = np.empty(batch + (n_paths, stop - first))
    q_sum = np.zeros(x.shape)
    q2_sum = np.zeros(x.shape)
    # paths a block: a quarter of BLOCK_VALUES keeps a block's arrays in L2
    width = max(1, BLOCK_VALUES // 4 // max(1, math.prod(batch)))
    blocks = [slice(p, min(p + width, n_paths)) for p in range(0, n_paths, width)]
    n_threads = max(1, min(_cpu_count(), len(blocks)))
    scratch = [np.empty((3,) + batch + (min(width, n_paths),)) for _ in range(n_threads)]
    noise, ahead = np.empty(n_paths), np.empty(n_paths)
    rng.standard_normal(out=noise)

    def step_blocks(k: int, claim: Iterator[slice], noise, buffers) -> None:
        for cols in claim:
            nxt, q, q2 = buffers[..., : cols.stop - cols.start]
            here = start[cols] if k == 0 else x[..., cols]
            # x + drift(x) dt + b sqrt(dt) noise, in that order; the product
            # goes to scratch, since a drift may return its argument
            np.multiply(drift(here), dt, out=nxt)
            nxt += here
            dw = noise[cols]
            dw *= scale
            nxt += dw
            if first <= k < stop:
                paths[..., cols, k - first] = here
            np.subtract(nxt, here, out=q)
            np.square(q, out=q)
            q /= dt
            q_sum[..., cols] += q
            np.multiply(q, q, out=q2)
            q2_sum[..., cols] += q2
            x[..., cols] = nxt

    # imported here, not at the top: concurrent.futures loads logging, which
    # a CLI start-up that never simulates would pay for
    from concurrent.futures import ThreadPoolExecutor

    # one copy of the caller's context per helper, so that numpy's errstate
    # holds there too
    contexts = [contextvars.copy_context() for _ in scratch[1:]]
    with ThreadPoolExecutor(max(1, n_threads - 1)) as pool:
        for k in range(m):
            claim = iter(blocks)
            helpers = [
                pool.submit(context.run, step_blocks, k, claim, noise, buffers)
                for context, buffers in zip(contexts, scratch[1:])
            ]
            if k + 1 < m:  # the next step's normals, while helpers work
                rng.standard_normal(out=ahead)
            step_blocks(k, claim, noise, scratch[0])
            for helper in helpers:
                helper.result()
            noise, ahead = ahead, noise
    if first <= m < stop:
        paths[..., m - first] = x
    return PathEnsemble(
        paths=paths, q_sum=q_sum, q2_sum=q2_sum, dt=dt, n_steps=m, b=model.b, first=first
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


def complex_increment_blocks(
    b: float,
    bhat: float,
    dt: float,
    shape: tuple[int, ...],
    rng: np.random.Generator,
    lengths: Sequence[int] | None = None,
) -> Iterator[tuple[slice, np.ndarray]]:
    """The increments ``dZ`` of one ``shape`` draw, by blocks of leading rows.

    Yields ``(rows, dz)`` in row order, where ``dz`` holds the increments of
    ``rows``, a slice of the leading axis; ``dz`` is a buffer that the next
    block overwrites.  ``lengths`` gives the row count of each block, in
    order; by default a block holds about ``BLOCK_VALUES`` values.  The real
    draws ``xi`` of the whole shape come first from ``rng``, then the
    imaginary ones ``xi_hat``, a block at a time, so every value equals the
    one of a single ``(b xi + i bhat xi_hat) sqrt(dt) / (sqrt(2) sigma)``
    over the whole shape, bit for bit.
    """
    sigma = np.sqrt((b**2 + bhat**2) / 2)
    xi = rng.standard_normal(shape)
    n_rows = shape[0]
    if lengths is None:
        step = max(1, BLOCK_VALUES // max(1, math.prod(shape[1:])))
        lengths = [min(step, n_rows - start) for start in range(0, n_rows, step)]
    xi_hat = np.empty((max(lengths, default=0),) + shape[1:])
    real = np.empty_like(xi_hat)
    dz = np.empty(xi_hat.shape, dtype=complex)
    start = 0
    for size in lengths:
        rows = slice(start, start + size)
        start += size
        rng.standard_normal(out=xi_hat[:size])
        out = dz[:size]
        np.multiply(1j * bhat, xi_hat[:size], out=out)
        out += np.multiply(b, xi[rows], out=real[:size])
        out *= np.sqrt(dt)
        out /= np.sqrt(2) * sigma
        yield rows, out


def _pairwise_lengths(n: int, most: int) -> list[int]:
    """The lengths, in order, of the subtrees of numpy's pairwise sum over
    ``n`` contiguous complex values, split until each holds at most ``most``
    (at least 64, the most numpy adds in one leaf): a node splits at
    ``(n - n % 8) // 2``."""
    if n <= most:
        return [n]
    half = (n - n % 8) // 2
    return _pairwise_lengths(half, most) + _pairwise_lengths(n - half, most)


def _pairwise_total(n: int, most: int, sums: Iterator):
    """Add the sums of the subtrees of ``_pairwise_lengths(n, most)``, taken
    in order from ``sums``, as numpy's pairwise sum adds them."""
    if n <= most:
        return next(sums)
    half = (n - n % 8) // 2
    return _pairwise_total(half, most, sums) + _pairwise_total(n - half, most, sums)


def sample_complex_increments(
    b: float, bhat: float, dt: float, n_samples: int, seed: int
) -> ComplexIncrementStats:
    """Draw ``dZ`` increments and report the first two moments."""
    for name, amplitude in (("b", b), ("bhat", bhat)):
        if not 0 < amplitude < np.inf:
            raise ValueError(f"noise amplitude {name} must be positive and finite, got {amplitude}")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    # each block is a whole subtree of the pairwise sum that dz.mean() would
    # take, so adding the block sums up the tree gives its means bit for bit
    most = max(BLOCK_VALUES, 64)
    lengths = _pairwise_lengths(n_samples, most)
    tmp = np.empty(max(lengths), dtype=complex)
    sums = []
    for _, dz in complex_increment_blocks(b, bhat, dt, (n_samples,), make_rng(seed), lengths):
        prod = tmp[: dz.size]
        dz_sum = np.add.reduce(dz)
        dz2_sum = np.add.reduce(np.multiply(dz, dz, out=prod))
        # conj(dz) dz, the operand order numpy gives dz * conj(dz) when it
        # reuses the conjugate's temporary; the fused complex product is not
        # commutative
        dzdzbar_sum = np.add.reduce(np.multiply(np.conjugate(dz, out=prod), dz, out=prod))
        sums.append(np.array([dz_sum, dz2_sum, dzdzbar_sum]))
    totals = _pairwise_total(n_samples, most, iter(sums))
    # the scalar division of ndarray.mean
    mean_dz, mean_dz2, mean_dzdzbar = (complex(total / np.intp(n_samples)) for total in totals)
    return ComplexIncrementStats(
        mean_dz=mean_dz,
        mean_dz2=mean_dz2,
        mean_dzdzbar=mean_dzdzbar,
        expected_dz2=complex(dt * (b**2 - bhat**2) / (b**2 + bhat**2)),
        expected_dzdzbar=complex(dt),
    )


# -- pathwise estimators ------------------------------------------------------

@dataclass(frozen=True)
class VelocityEstimate:
    """Binned conditional-increment velocities around one time step.

    ``forward_drift[i]`` estimates ``E[X(t+dt) - X(t) | X(t) in bin i] / dt``
    and ``backward_drift[i]`` the same with the backward difference; the
    current and osmotic velocities are their half-sum and half-difference.
    Bins with fewer than ``min_count`` samples keep their counts but carry
    NaN estimates.
    """

    centers: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    forward_drift: np.ndarray = field(repr=False)
    backward_drift: np.ndarray = field(repr=False)
    current: np.ndarray = field(repr=False)
    osmotic: np.ndarray = field(repr=False)
    forward_stderr: np.ndarray = field(repr=False)
    backward_stderr: np.ndarray = field(repr=False)

    def valid(self) -> np.ndarray:
        return np.isfinite(self.forward_drift) & np.isfinite(self.backward_drift)


def _require_unbatched(ens: PathEnsemble) -> None:
    """The estimators pool the paths of one ensemble; a batch has no single answer."""
    if ens.paths.ndim != 2:
        raise ValueError(
            f"paths of shape {ens.paths.shape} are batched; the estimator needs "
            "(n_paths, n_stored): estimate each batch member separately"
        )


def _keep_extreme(tail: np.ndarray, block: np.ndarray, k: int, largest: bool) -> np.ndarray:
    """The ``k`` smallest (or largest) values of ``tail`` and ``block``, unordered;
    once ``tail`` holds ``k``, only the block's values past its extreme enter."""
    if tail.size == k:
        block = block[block > tail.min()] if largest else block[block < tail.max()]
    merged = np.concatenate((tail, block), axis=None)
    if merged.size <= k:
        return merged
    return np.partition(merged, -k)[-k:] if largest else np.partition(merged, k - 1)[:k]


def _pooled_quantiles(blocks: Iterable[np.ndarray], n: int, qs) -> np.ndarray:
    """``np.quantile`` of the ``n`` values of ``blocks`` at the levels ``qs``,
    bit for bit, holding only the order statistics that it reads.

    numpy's default (linear) method reads the values of ranks ``floor(v)``
    and ``floor(v) + 1``, with ``v = (n - 1) q`` (both the last value where
    ``v >= n - 1``), and lerps between them by ``v - floor(v)``.  Each
    level takes the nearer tail: the smallest values up to its upper rank,
    or the largest down to its lower one; the tails are kept block by block.
    Any NaN makes every quantile NaN, as in numpy.
    """
    qs = np.asarray(qs, dtype=float)
    virtual = (n - 1) * qs
    last = virtual >= n - 1
    prev = np.where(last, -1.0, np.floor(virtual))  # numpy's index of the last value is -1
    gamma = virtual - prev
    ranks = np.where(last, n - 1, np.stack([prev, prev + 1])).astype(np.intp)
    low = ranks[1] + 1 <= n - ranks[0]  # the levels read from the lower tail
    k_low = int(ranks[1][low].max(initial=-1)) + 1
    k_high = int(n - ranks[0][~low].min(initial=n))
    smallest, largest = np.empty(0), np.empty(0)
    for block in blocks:
        if np.isnan(block.max()):
            return np.full(qs.shape, np.nan)
        if k_low:
            smallest = _keep_extreme(smallest, block, k_low, largest=False)
        if k_high:
            largest = _keep_extreme(largest, block, k_high, largest=True)
    smallest.sort()
    largest.sort()
    a, b = order = np.empty(ranks.shape)
    order[:, low] = smallest[ranks[:, low]]
    order[:, ~low] = largest[ranks[:, ~low] - (n - k_high)]
    # numpy's _lerp: from the lower value below a weight of 1/2, else from the upper
    d = b - a
    out = a + d * gamma
    np.subtract(b, d * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def estimate_velocities(ens: PathEnsemble, min_count: int = 40) -> VelocityEstimate:
    """Estimate mean forward/backward velocities by conditional binning.

    Both differences are conditioned on the position at the *same* step
    ``k``: forward uses ``X(k+1) - X(k)``, backward uses ``X(k) - X(k-1)``.
    Every stored step whose two neighbours are also stored is pooled, which
    is valid whenever the velocity fields are steady over the stored window;
    the caller picks that window when it simulates.  The ensemble must not be
    batched.  The bins span the 0.5% to 99.5% quantiles of the pooled
    positions; their width ``2 b sqrt(dt)`` keeps the single-step diffusive
    blur below the bin scale.  The quantiles equal ``np.quantile``'s bit
    for bit.  Both passes over the paths go by blocks, so beyond the stored
    window the call holds block-sized arrays and the two 0.5% tails of the
    pooled positions that the quantiles read, but no copy of the pooled
    positions.
    """
    _require_unbatched(ens)
    dt, paths = ens.dt, ens.paths
    if paths.shape[-1] < 3:
        raise ValueError(
            f"{paths.shape[-1]} stored steps from step {ens.first} hold no interior step; "
            "store at least 3"
        )

    # the quantiles and the binning each go over the paths by blocks
    step = max(1, BLOCK_VALUES // (paths.shape[1] - 2))
    starts = range(0, paths.shape[0], step)
    pooled = paths[:, 1:-1]
    lo, hi = _pooled_quantiles((pooled[s : s + step] for s in starts), pooled.size, [0.005, 0.995])
    width = 2 * ens.b * np.sqrt(dt)
    n_bins = max(4, int(np.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    # bins 0 and n_bins + 1 collect the samples outside [lo, hi) and are
    # dropped; np.add.at adds in element order, as one weighted bincount does
    counts = np.zeros(n_bins + 2, dtype=np.intp)
    sums_f, sq_f, sums_b, sq_b = np.zeros((4, n_bins + 2))
    for start in starts:
        block = paths[start : start + step]
        here = block[:, 1:-1]
        idx = np.digitize(here, edges).ravel()
        counts += np.bincount(idx, minlength=n_bins + 2)
        for sums, squares, later, earlier in (
            (sums_f, sq_f, block[:, 2:], here), (sums_b, sq_b, here, block[:, :-2])
        ):
            diffs = ((later - earlier) / dt).ravel()
            np.add.at(sums, idx, diffs)
            np.add.at(squares, idx, diffs**2)
    counts, sums_f, sq_f, sums_b, sq_b = (a[1:-1] for a in (counts, sums_f, sq_f, sums_b, sq_b))

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_f = sums_f / counts
        mean_b = sums_b / counts
        var_f = np.maximum(sq_f / counts - mean_f**2, 0.0)
        var_b = np.maximum(sq_b / counts - mean_b**2, 0.0)
        err_f = np.sqrt(var_f / counts)
        err_b = np.sqrt(var_b / counts)
    thin = counts < min_count
    for arr in (mean_f, mean_b, err_f, err_b):
        arr[thin] = np.nan

    return VelocityEstimate(
        centers=centers,
        counts=counts,
        forward_drift=mean_f,
        backward_drift=mean_b,
        current=0.5 * (mean_f + mean_b),
        osmotic=0.5 * (mean_f - mean_b),
        forward_stderr=err_f,
        backward_stderr=err_b,
    )


def estimate_diffusion(ens: PathEnsemble) -> tuple[float, float]:
    """Quadratic-variation estimate of ``b^2`` with its standard error.

    Averages ``(dX)^2 / dt`` over every step of every path.  The estimator
    carries an ``E[a^2] dt`` bias from the drift contribution, which is far
    below one standard error at the step sizes used here.  Reads the
    ensemble's running sums, so it needs no stored columns.  A batched
    ensemble is an error.
    """
    _require_unbatched(ens)
    n = ens.n_paths * ens.n_steps
    total = ens.q_sum.sum()
    mean = total / n
    var = (ens.q2_sum.sum() - mean * total) / (n - 1)
    return float(mean), float(np.sqrt(var) / np.sqrt(n))


def discretized_action(ens: PathEnsemble) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    r"""Discretized kinetic action of a real ensemble.

    Computes :math:`E \sum_k [ (\Delta X_k)^2 / \Delta t - b^2 ]`, whose
    expectation is :math:`E \int a^2 dt` for Euler-Maruyama paths: the
    quadratic-variation contribution ``b^2`` per step is subtracted exactly.
    Returns the value with its standard error; reads the running sums.  A
    batched ensemble gives two arrays, one entry per batch member.
    """
    per_path = ens.q_sum - ens.n_steps * ens.b**2
    value = per_path.mean(axis=-1)
    stderr = per_path.std(axis=-1, ddof=1) / np.sqrt(ens.n_paths)
    if per_path.ndim == 1:
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
