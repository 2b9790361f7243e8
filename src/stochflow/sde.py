"""Path sampling and pathwise statistics for real diffusions and complex noise.

Real processes follow ``dX = a(X, t) dt + b dW`` and are integrated with
forward Euler-Maruyama in one loop, ``simulate_forward``.  It streams: it
stores only the window of time columns the caller asks for (by default all
of them), and keeps per-path running sums of ``q = (dX)^2 / dt`` and
``q^2`` over every step, which is all the quadratic-variation and action
estimators read.  A drift may broadcast the state to a leading batch axis,
such as one member per parameter of a sweep; the members share the initial
samples and every per-step draw, so each trajectory is bit-identical to a
separate run.  The backward velocity is estimated from the same forward
paths, by the backward difference ``X(t) - X(t - dt)``.

The complex noise ``dZ = (b dW + i bhat dW') / (sqrt(2) sigma)`` mixes two
independent Wiener processes, with ``sigma^2 = (b^2 + bhat^2) / 2``.  Its
defining moments are ``E[dZ dZ*] = dt`` and
``E[dZ^2] = dt (b^2 - bhat^2) / (b^2 + bhat^2)``, which vanishes in the
balanced case ``b = bhat``; ``sample_complex_increments`` returns the
sample means of ``dZ``, ``dZ^2`` and ``dZ dZ*`` beside these exact values.

All randomness flows through a counter-based Philox generator keyed by an
explicit integer seed; repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import ScalarField, derivative

__all__ = [
    "DiffusionModel",
    "PathEnsemble",
    "ComplexIncrementStats",
    "VelocityEstimate",
    "ActionEstimate",
    "make_rng",
    "simulate_forward",
    "sample_complex_increments",
    "estimate_velocities",
    "estimate_diffusion",
    "discretized_action",
    "osmotic_velocity_from_density",
    "backward_drift_from_forward",
]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the sole source of randomness in the package."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class DiffusionModel:
    """Drift-diffusion model ``dX = drift(x, t) dt + b dW`` with constant noise scale."""

    drift: Callable[[np.ndarray, float], np.ndarray]
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("noise amplitude b must be positive")


@dataclass(frozen=True)
class PathEnsemble:
    """A bundle of forward sample paths on a shared uniform time mesh.

    ``times`` is the whole mesh.  ``paths[..., p, j]`` is path ``p`` at
    ``times[first + j]``: only the columns the simulation was asked to keep
    are stored.  Any leading axes are batch axes (one per drift of a batched
    sweep).  ``q_sum[..., p]`` and ``q2_sum[..., p]`` are the sums over
    *every* step of ``q = (dX)^2 / dt`` and of ``q^2`` along path ``p``.
    """

    times: np.ndarray = field(repr=False)
    paths: np.ndarray = field(repr=False)
    q_sum: np.ndarray = field(repr=False)
    q2_sum: np.ndarray = field(repr=False)
    b: float = 1.0
    first: int = 0

    def __post_init__(self):
        n_stored = self.paths.shape[-1]
        if self.paths.ndim < 2 or not 0 <= self.first <= self.first + n_stored <= self.times.size:
            raise ValueError("paths must be (..., n_paths, n_stored) within the time mesh")
        if self.q_sum.shape != self.paths.shape[:-1] or self.q2_sum.shape != self.q_sum.shape:
            raise ValueError("running sums must be (..., n_paths)")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[-2]

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _time_mesh(t_final: float, dt: float) -> np.ndarray:
    if dt <= 0 or t_final <= 0:
        raise ValueError("t_final and dt must be positive")
    m = int(round(t_final / dt))
    if m < 1 or abs(m * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final} is not an integer multiple of dt={dt}")
    return dt * np.arange(m + 1)


def _initial_samples(x0, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Accept a constant, an array of samples, or ('gaussian', mean, std)."""
    if isinstance(x0, tuple) and len(x0) == 3 and x0[0] == "gaussian":
        return x0[1] + x0[2] * rng.standard_normal(n_paths)
    arr = np.asarray(x0, dtype=float)
    if arr.ndim == 0:
        return np.full(n_paths, float(arr))
    if arr.shape != (n_paths,):
        raise ValueError("x0 array must have one entry per path")
    return arr.copy()


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

    Only the time columns with mesh indices in ``window = (first, stop)``
    (half open; default all) are stored, while the running sums of
    ``(dX)^2 / dt`` and its square cover every step.  The drift may
    broadcast the state to leading batch axes, e.g. ``theta[:, None] *
    sin(x)``: every batch member then sees the same initial samples and the
    same per-step draws, so its trajectory is bit-identical to a separate
    run with that member's drift.
    """
    rng = make_rng(seed)
    times = _time_mesh(t_final, dt)
    first, stop = (0, times.size) if window is None else window
    if not 0 <= first <= stop <= times.size:
        raise ValueError(f"window {window} is not within the {times.size} mesh columns")
    x = _initial_samples(x0, n_paths, rng)
    root_dt = np.sqrt(dt)
    m = times.size - 1
    for k in range(m):
        x_next = x + model.drift(x, float(times[k])) * dt + model.b * root_dt * rng.standard_normal(n_paths)
        if k == 0:  # the first step fixes the batch shape
            paths = np.empty(x_next.shape + (stop - first,))
            q_sum = np.zeros(x_next.shape)
            q2_sum = np.zeros(x_next.shape)
        if first <= k < stop:
            paths[..., k - first] = x
        q = (x_next - x) ** 2 / dt
        q_sum += q
        q2_sum += q * q
        x = x_next
    if first <= m < stop:
        paths[..., m - first] = x
    return PathEnsemble(
        times=times, paths=paths, q_sum=q_sum, q2_sum=q2_sum,
        b=model.b, first=first,
    )


# -- complex noise -----------------------------------------------------------

@dataclass(frozen=True)
class ComplexIncrementStats:
    """Sample moments of the complex noise increment against their exact values."""

    n_samples: int
    mean_dz: complex
    mean_dz2: complex
    mean_dzdzbar: complex
    expected_dz2: complex
    expected_dzdzbar: complex


def sample_complex_increments(
    b: float, bhat: float, dt: float, n_samples: int, seed: int
) -> ComplexIncrementStats:
    """Draw ``dZ`` increments and report the first two moments."""
    if b <= 0 or bhat <= 0:
        raise ValueError("both noise amplitudes must be positive")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rng = make_rng(seed)
    sigma = np.sqrt((b**2 + bhat**2) / 2)
    xi = rng.standard_normal(n_samples)
    xi_hat = rng.standard_normal(n_samples)
    dz = (b * xi + 1j * bhat * xi_hat) * np.sqrt(dt) / (np.sqrt(2) * sigma)
    del xi, xi_hat
    return ComplexIncrementStats(
        n_samples=n_samples,
        mean_dz=complex(dz.mean()),
        mean_dz2=complex((dz * dz).mean()),
        mean_dzdzbar=complex((dz * np.conj(dz)).mean()),
        expected_dz2=complex(dt * (b**2 - bhat**2) / (b**2 + bhat**2)),
        expected_dzdzbar=complex(dt),
    )


# -- pathwise estimators ------------------------------------------------------

@dataclass(frozen=True)
class VelocityEstimate:
    """Binned conditional-increment velocities around one time slice.

    ``forward_drift[i]`` estimates ``E[X(t+dt) - X(t) | X(t) in bin i] / dt``
    and ``backward_drift[i]`` the same with the backward difference; the
    current and osmotic velocities are their half-sum and half-difference.
    Bins with fewer than ``min_count`` samples keep their counts but carry
    NaN estimates.
    """

    t: float
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


def estimate_velocities(
    ens: PathEnsemble,
    t_index: int | None = None,
    half_window: int = 0,
    min_count: int = 40,
) -> VelocityEstimate:
    """Estimate mean forward/backward velocities by conditional binning.

    Both differences are conditioned on the position at the *same* step
    ``k``: forward uses ``X(k+1) - X(k)``, backward uses ``X(k) - X(k-1)``.
    Steps ``k`` in ``t_index +- half_window`` are pooled, which is valid
    whenever the velocity fields are steady over the window; the ensemble
    must have stored the columns ``k_lo - 1 .. k_hi + 1`` this needs, and
    must not be batched.  The bins span the 0.5% to 99.5% quantiles of the
    pooled positions; their width ``2 b sqrt(dt)`` keeps the single-step
    diffusive blur below the bin scale.
    """
    _require_unbatched(ens)
    dt = ens.dt
    m = ens.n_steps
    if t_index is None:
        t_index = m // 2
    k_lo = max(1, t_index - half_window)
    k_hi = min(m - 1, t_index + half_window)
    if k_lo > k_hi:
        raise ValueError("time window has no interior steps")
    c = k_lo - ens.first  # stored column of step k_lo
    w = k_hi - k_lo + 1
    if c < 1 or c + w >= ens.paths.shape[-1]:
        stored = (ens.first, ens.first + ens.paths.shape[-1] - 1)
        raise ValueError(
            f"steps {k_lo - 1}..{k_hi + 1} are needed but only {stored[0]}..{stored[1]} are stored"
        )

    here = ens.paths[:, c : c + w]
    x_here = here.ravel()
    lo, hi = np.quantile(x_here, [0.005, 0.995])
    width = 2 * ens.b * np.sqrt(dt)
    n_bins = max(4, int(np.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    # bins 0 and n_bins + 1 collect the samples outside [lo, hi) and are dropped
    idx = np.digitize(x_here, edges)
    del x_here

    def binned(weights=None) -> np.ndarray:
        return np.bincount(idx, weights=weights, minlength=n_bins + 2)[1:-1]

    counts = binned()
    fwd = ((ens.paths[:, c + 1 : c + 1 + w] - here) / dt).ravel()
    sums_f, sq_f = binned(fwd), binned(fwd**2)
    del fwd
    bwd = ((here - ens.paths[:, c - 1 : c - 1 + w]) / dt).ravel()
    sums_b, sq_b = binned(bwd), binned(bwd**2)
    del bwd

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
        t=float(ens.times[t_index]),
        centers=centers,
        counts=counts,
        forward_drift=mean_f,
        backward_drift=mean_b,
        current=0.5 * (mean_f + mean_b),
        osmotic=0.5 * (mean_f - mean_b),
        forward_stderr=err_f,
        backward_stderr=err_b,
    )


@dataclass(frozen=True)
class ActionEstimate:
    """Monte-Carlo action value with its standard error (arrays for a batch)."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    n_paths: int


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


def discretized_action(ens: PathEnsemble) -> ActionEstimate:
    r"""Discretized kinetic action of a real ensemble.

    Computes :math:`E \sum_k [ (\Delta X_k)^2 / \Delta t - b^2 ]`, whose
    expectation is :math:`E \int a^2 dt` for Euler-Maruyama paths: the
    quadratic-variation contribution ``b^2`` per step is subtracted exactly.
    Reads the running sums; a batched ensemble gives arrays with one value
    and one stderr per batch member.
    """
    per_path = ens.q_sum - ens.n_steps * ens.b**2
    value = per_path.mean(axis=-1)
    stderr = per_path.std(axis=-1, ddof=1) / np.sqrt(ens.n_paths)
    if per_path.ndim == 1:
        value, stderr = float(value), float(stderr)
    return ActionEstimate(value=value, stderr=stderr, n_paths=ens.n_paths)


# -- density-based velocity constructions ------------------------------------

def osmotic_velocity_from_density(rho: ScalarField, b: float) -> ScalarField:
    r"""Osmotic velocity ``u = (b^2/2) d/dx log rho`` of a positive density."""
    vals = np.real(rho.values)
    if vals.min() <= 0:
        raise ValueError("density must be strictly positive to take log")
    log_rho = ScalarField(rho.grid, np.log(vals))
    d = derivative(log_rho, 0)
    return ScalarField(rho.grid, 0.5 * b**2 * d.values)


def backward_drift_from_forward(
    model: DiffusionModel, rho: ScalarField
) -> DiffusionModel:
    """Backward-drift model ``a_b = a - 2u`` built from the forward model and density.

    The drift is tabulated on the density's grid and linearly interpolated
    (periodically) off-grid; the returned model is time-independent, which
    matches its use on stationary or slowly varying densities.
    """
    grid = rho.grid
    x = grid.axis
    u = np.real(osmotic_velocity_from_density(rho, model.b).values)
    a_fwd = np.real(np.asarray(model.drift(x, 0.0), dtype=np.complex128))
    table = a_fwd - 2 * u
    period = grid.length

    def drift(y: np.ndarray, t: float) -> np.ndarray:
        y_wrapped = (np.asarray(y) - x[0]) % period + x[0]
        return np.interp(y_wrapped, x, table, period=period)

    return DiffusionModel(drift=drift, b=model.b)
