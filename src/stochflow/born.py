"""The quadratic-density pipeline: wave function -> velocities -> transported density.

The central claim verified here: if ``F`` solves the wave equation and the
complex velocity ``V = -i b^2 (grad F)/F = v - i u`` is read off from it,
then the *real* density transported by the ordinary continuity equation

    ``rho_t + (v rho)_x = 0``

starting from ``rho(0) = F F* / q(0)`` coincides with ``F F* / q(t)`` for
all later times, where ``q(t) = integral F F*`` (constant under the
unitary evolution).  No quadratic form is assumed by the transport step;
the modulus-squared rule is an output, not an input.

The pipeline streams the evolution through plain arrays in chunks of K =
:data:`CHUNK_STEPS` steps (evolve, extract the velocities with one batched
FFT, transport, compare), so memory is O(K n) on n points, not O(steps n).

Supporting pieces:

* node-aware extraction of ``V`` with a relative floor on ``|F|`` and a
  coverage report, so near-zeros of ``F`` are masked instead of silently
  amplified;
* the inverse (Madelung) construction ``F = sqrt(rho) exp(i theta)`` with
  ``theta' = v / b^2``, including the winding number of a nonzero mean
  velocity on the circle;
* the scale/phase gauge ``F -> h F / sqrt(|h|^2 q)`` under which the
  pipeline is exactly invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Norms, ScalarField, antiderivative, derivative, integrate, spectral_multiplier
from .fokker_planck import (
    complex_fp_residual,
    continuity_residual,
    osmotic_constraint_residual,
)
# unused ``evolve`` kept: bench/spans.py traces it as ``stochflow.born.evolve``
from .schrodinger import SchrodingerProblem, _stepper, evolve  # noqa: F401

__all__ = [
    "VelocityDecomposition",
    "BornReport",
    "velocity_from_wavefunction",
    "conjugate_velocity_from_wavefunction",
    "density_from_wavefunction",
    "normalize_wavefunction",
    "madelung_wavefunction",
    "evolve_density_continuity",
    "born_pipeline",
]

NODE_FLOOR_REL = 1e-12

#: steps per chunk of the streamed pipeline; a chunk buffer of 128 points is 2 MB
CHUNK_STEPS = 1024


@dataclass(frozen=True)
class VelocityDecomposition:
    """Complex velocity of a wave function and its real/imaginary split.

    ``mask`` is True where ``|F|`` clears the relative node floor; at
    masked-out points all velocities are set to zero (the transported flux
    ``v rho`` vanishes there anyway, since ``rho = |F|^2``).
    """

    complex_velocity: ScalarField
    current: ScalarField
    osmotic: ScalarField
    mask: np.ndarray = field(repr=False)
    coverage: float


def _log_derivative(values: np.ndarray, dvalues: np.ndarray, coef: complex, floor_rel: float):
    """``coef * dvalues / values`` for ``(rows, n)`` arrays, zero at the nodes, and the
    mask of non-nodes: points where ``|values|`` clears ``floor_rel`` times its row maximum."""
    mag = np.abs(values)
    mask = mag > floor_rel * mag.max(axis=1, keepdims=True)
    out = np.zeros(values.shape, dtype=np.complex128)
    out[mask] = coef * dvalues[mask] / values[mask]
    return out, mask


def _decomposition(
    f: ScalarField, coef: complex, scheme: str, floor_rel: float
) -> VelocityDecomposition:
    grid = f.grid
    df = derivative(f, 0, scheme).values
    v, mask = _log_derivative(f.values.reshape(1, -1), df.reshape(1, -1), coef, floor_rel)
    v, mask = v.reshape(grid.shape), mask.reshape(grid.shape)
    return VelocityDecomposition(
        complex_velocity=ScalarField(grid, v),
        current=ScalarField(grid, np.real(v)),
        osmotic=ScalarField(grid, -np.imag(v)),
        mask=mask,
        coverage=float(mask.mean()),
    )


def velocity_from_wavefunction(
    psi: ScalarField,
    b: float,
    scheme: str = "spectral",
    floor_rel: float = NODE_FLOOR_REL,
) -> VelocityDecomposition:
    """Extract ``V = -i b^2 (grad psi)/psi`` with node masking."""
    return _decomposition(psi, -1j * b**2, scheme, floor_rel)


def density_from_wavefunction(psi: ScalarField) -> ScalarField:
    """Quadratic density ``F F*`` (not normalized)."""
    return psi.abs2()


def conjugate_velocity_from_wavefunction(
    g: ScalarField,
    b: float,
    scheme: str = "spectral",
    floor_rel: float = NODE_FLOOR_REL,
) -> VelocityDecomposition:
    """Extract ``U = +i b^2 (grad G)/G`` from the conjugated wave function.

    For ``G = F*`` this gives ``U = V*``, so the current velocity (and with
    it the transported density series) is *identical* to the forward
    extraction while the osmotic part flips sign.  The decomposition keeps
    the forward conventions: ``current = Re U``, ``osmotic = -Im U``.
    """
    return _decomposition(g, 1j * b**2, scheme, floor_rel)


def normalize_wavefunction(psi: ScalarField, h: complex = 1.0) -> tuple[ScalarField, float]:
    """Gauge map ``F -> h F / sqrt(|h|^2 q)`` with ``q = integral F F*``.

    Returns the unit-norm representative and ``q``.  Any complex ``h != 0``
    gives the same density, which is what makes the pipeline well defined
    on rays rather than on individual wave functions.
    """
    if h == 0:
        raise ValueError("gauge factor h must be nonzero")
    q = float(np.real(integrate(psi.abs2())))
    if q <= 0:
        raise ValueError("wave function has zero norm")
    scaled = (h / np.sqrt(abs(h) ** 2 * q)) * psi.values
    return ScalarField(psi.grid, scaled), q


def madelung_wavefunction(rho: ScalarField, current: ScalarField, b: float) -> ScalarField:
    """Reassemble ``F = sqrt(rho) exp(i theta)`` from density and current velocity.

    The phase gradient is ``theta' = v / b^2``.  On the circle the mean of
    ``v`` must correspond to an integer winding number
    ``m = mean(v) L / (2 pi b^2)``; the integer part is applied as the
    exact Fourier mode ``exp(i 2 pi m x / L)`` and the fluctuating part is
    integrated spectrally.
    """
    grid = rho.grid
    if grid.dim != 1:
        raise ValueError("the reconstruction is one-dimensional")
    rho_vals = np.real(rho.values)
    if rho_vals.min() < 0:
        raise ValueError("density must be nonnegative")
    v_vals = np.real(current.values)
    v_mean = float(v_vals.mean())
    winding = v_mean * grid.length / (2 * np.pi * b**2)
    m = round(winding)
    if abs(winding - m) > 1e-6:
        raise ValueError(
            f"mean velocity corresponds to non-integer winding {winding:.6f}; "
            "no single-valued wave function exists on this circle"
        )
    fluct = ScalarField(grid, (v_vals - v_mean) / b**2)
    theta = np.real(antiderivative(fluct, 0).values)
    x = grid.axis
    carrier = np.exp(1j * (2 * np.pi * m / grid.length) * x)
    return ScalarField(grid, np.sqrt(rho_vals) * np.exp(1j * theta) * carrier)


def evolve_density_continuity(
    rho0: ScalarField,
    velocity_snapshots: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Transport a density by ``rho_t = -(v rho)_x`` with Heun time stepping.

    ``velocity_snapshots`` has shape ``(n_steps + 1, n)``: the real current
    velocity at every step boundary.  Returns the density history with the
    same shape.  The flux derivative is spectral, so the discrete mass
    ``sum(rho) dx`` is conserved to round-off.
    """
    mult = spectral_multiplier(rho0.grid)
    history = np.empty(velocity_snapshots.shape)
    rho = history[0] = np.real(rho0.values)

    def flux_div(v_vals: np.ndarray, rho_vals: np.ndarray) -> np.ndarray:
        flux = (v_vals * rho_vals).astype(np.complex128)
        return np.real(np.fft.ifft(np.fft.fft(flux) * mult))

    for k in range(velocity_snapshots.shape[0] - 1):
        d1 = flux_div(velocity_snapshots[k], rho)
        predictor = rho - dt * d1
        d2 = flux_div(velocity_snapshots[k + 1], predictor)
        rho = history[k + 1] = rho - 0.5 * dt * (d1 + d2)
    return history


@dataclass(frozen=True)
class BornReport:
    """Outcome of one pipeline run; all errors are absolute.

    ``sup_density_error`` is the worst pointwise gap over all compared
    snapshots between the continuity-transported density and the
    normalized quadratic density of the evolved wave function.
    """

    t_final: float
    dt: float
    method: str
    q_initial: float
    sup_density_error: float
    sup_relative_error: float
    final_density_error: float
    final_density_l2: float
    mass_drift: float
    norm_drift: float
    min_coverage: float
    fp_forward: Norms
    fp_conjugate: Norms
    continuity: Norms
    osmotic: Norms
    #: columns (t, sup gap, relative gap), one row per stored snapshot
    discrepancy_series: np.ndarray = field(repr=False, default=None)
    #: transported and quadratic densities at the final time, shape (2, n)
    final_profiles: np.ndarray = field(repr=False, default=None)


def born_pipeline(
    problem: SchrodingerProblem,
    t_final: float,
    dt: float,
    method: str = "splitstep",
) -> BornReport:
    """Run the full verification loop on one one-dimensional wave-equation problem.

    The evolution is streamed in chunks of K = :data:`CHUNK_STEPS` steps,
    so memory is O(K n), not O(steps n).  Per chunk the current velocity of
    every state is extracted, the density carried over from the chunk before
    is transported by the continuity equation alone, and every step is
    compared against ``F F* / q``; non-finite states or densities raise
    ``ValueError``.  The complex density-transport residuals are evaluated
    at the midpoint snapshot triple, the only states kept beyond a chunk.
    """
    key, n_steps, dt, step = _stepper(problem, t_final, dt, method)
    mid = n_steps // 2
    if mid == 0:
        raise ValueError("need at least three stored snapshots for the residual checks")
    grid, b = problem.grid, problem.b
    mult = spectral_multiplier(grid)
    q0 = float(np.real(integrate(problem.psi0.abs2())))
    rho = np.real(problem.psi0.abs2().values) / q0
    # per step: t, gap, relative gap, transported mass, norm, node coverage
    stats = np.empty((n_steps + 1, 6))
    kept = {}
    buf = np.empty((CHUNK_STEPS + 1, grid.n), dtype=np.complex128)
    buf[0] = problem.psi0.values

    for i0 in range(0, n_steps, CHUNK_STEPS):
        m = min(CHUNK_STEPS, n_steps - i0)
        for r in range(1, m + 1):
            buf[r] = step(buf[r - 1])
        states = buf[: m + 1]  # steps i0 .. i0 + m
        dpsi = np.fft.ifft(np.fft.fft(states, axis=1) * mult, axis=1)
        velocity, mask = _log_derivative(states, dpsi, -1j * b**2, NODE_FLOOR_REL)
        history = evolve_density_continuity(ScalarField(grid, rho), np.real(velocity), dt)
        if not (np.isfinite(states).all() and np.isfinite(history).all()):
            raise ValueError("field contains non-finite entries")

        abs2 = np.real(states * np.conj(states))
        q = np.real(np.sum(abs2.astype(np.complex128), axis=1) * grid.cell_volume)
        target = abs2 / q[:, None]
        gap = np.max(np.abs(history - target), axis=1)
        stats[i0 : i0 + m + 1] = np.column_stack([
            dt * np.arange(i0, i0 + m + 1, dtype=float), gap, gap / target.max(axis=1),
            history.sum(axis=1) * grid.dx, np.sqrt(q), mask.mean(axis=1),
        ])
        for k in range(max(i0, mid - 1), min(i0 + m, mid + 1) + 1):
            kept[k] = ScalarField(grid, states[k - i0].copy())
        rho, buf[0] = history[-1], buf[m]

    rho_tri = [
        ScalarField(grid, np.real(kept[k].abs2().values) / q0) for k in (mid - 1, mid, mid + 1)
    ]
    dec = velocity_from_wavefunction(kept[mid], b)
    return BornReport(
        t_final=dt * n_steps,
        dt=dt,
        method=key,
        q_initial=q0,
        sup_density_error=float(stats[:, 1].max()),
        sup_relative_error=float(stats[:, 2].max()),
        final_density_error=float(gap[-1]),
        final_density_l2=float(np.sqrt(np.sum((rho - target[-1]) ** 2) * grid.dx)),
        mass_drift=float(np.max(np.abs(stats[:, 3] - stats[0, 3]))),
        norm_drift=float(np.max(np.abs(stats[:, 4] - stats[0, 4]))),
        min_coverage=float(stats[:, 5].min()),
        fp_forward=complex_fp_residual(*rho_tri, dec.complex_velocity, b, dt, variant="forward"),
        fp_conjugate=complex_fp_residual(*rho_tri, dec.complex_velocity, b, dt, variant="conjugate"),
        continuity=continuity_residual(*rho_tri, dec.current, dt),
        osmotic=osmotic_constraint_residual(rho_tri[1], dec.osmotic, b),
        discrepancy_series=stats[:, :3].copy(),
        final_profiles=np.stack([rho, target[-1]]),
    )
