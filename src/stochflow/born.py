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
``max(1, CHUNK_POINTS // n)`` steps on n points (:func:`born_pipeline`), so
memory is O(K n), not O(steps n), with the chunk scratch allocated once.  It
takes ``round(t_final/dt)`` split steps of :mod:`stochflow.schrodinger`, the
same as ``evolve``, at four row FFT calls (``fields._row_fft``) per step.

Supporting pieces:

* node-aware extraction of ``V`` with the fixed relative floor
  ``NODE_FLOOR_REL`` on ``|F|`` (:func:`stochflow.fields.log_derivative`)
  and a coverage report, so near-zeros of ``F`` are masked instead of
  silently amplified;
* the inverse (Madelung) construction ``F = sqrt(rho) exp(i theta)`` with
  ``theta' = v / b^2``, including the winding number of a nonzero mean
  velocity on the circle;
* the scale/phase gauge ``F -> h F / sqrt(|h|^2 q)`` under which the
  pipeline is exactly invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Norms,
    ScalarField,
    _row_fft,
    _row_ifft,
    antiderivative,
    derivative,
    integrate,
    log_derivative,
    spectral_multiplier,
)
from .fokker_planck import (
    complex_fp_residual,
    continuity_residual,
    osmotic_constraint_residual,
)
# unused ``evolve`` kept: bench/spans.py traces it as ``stochflow.born.evolve``
from .schrodinger import SchrodingerProblem, _split_factors, _stepper, evolve  # noqa: F401

__all__ = [
    "VelocityDecomposition",
    "BornReport",
    "velocity_from_wavefunction",
    "normalize_wavefunction",
    "madelung_wavefunction",
    "evolve_density_continuity",
    "born_pipeline",
]

#: points per chunk of the pipeline: K = max(1, CHUNK_POINTS // n) steps, 1 MB per state buffer
CHUNK_POINTS = 2**16


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


def velocity_from_wavefunction(psi: ScalarField, b: float) -> VelocityDecomposition:
    """Extract ``V = -i b^2 (grad psi)/psi``, masking the nodes of ``psi``
    (:data:`~stochflow.fields.NODE_FLOOR_REL`)."""
    grid = psi.grid
    dpsi = derivative(psi, 0).values
    v, mask = log_derivative(psi.values.reshape(1, -1), dpsi.reshape(1, -1), -1j * b**2)
    v, mask = v.reshape(grid.shape), mask.reshape(grid.shape)
    return VelocityDecomposition(
        complex_velocity=ScalarField(grid, v),
        current=ScalarField(grid, np.real(v)),
        osmotic=ScalarField(grid, -np.imag(v)),
        mask=mask,
        coverage=float(mask.mean()),
    )


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


def _flux_div(v: np.ndarray, rho: np.ndarray, mult: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The spectral ``(v rho)_x`` in ``work[2]``: complex rows for the flux, spectrum and inverse."""
    np.multiply(v, rho, out=work[0])
    np.multiply(_row_fft(work[0], out=work[1]), mult, out=work[1])
    return _row_ifft(work[1], out=work[2]).real


def _heun(rho, d1, v_next, dt, mult, work, out) -> None:
    """A Heun step of ``rho_t = -(v rho)_x`` into ``out``, given ``d1 = (v rho)_x`` and ``v_next``."""
    np.subtract(rho, np.multiply(dt, d1, out=out), out=out)
    d2 = _flux_div(v_next, out, mult, work)
    np.subtract(rho, np.multiply(0.5 * dt, np.add(d1, d2, out=out), out=out), out=out)


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
    work = np.empty((3, 2, rho0.grid.n), dtype=np.complex128)  # column 1 holds d1
    history = np.empty(velocity_snapshots.shape)
    history[0] = np.real(rho0.values)
    for k in range(len(history) - 1):
        d1 = _flux_div(velocity_snapshots[k], history[k], mult, work[:, 1])
        _heun(history[k], d1, velocity_snapshots[k + 1], dt, mult, work[:, 0], history[k + 1])
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
    sup_density_error: float
    sup_relative_error: float
    final_density_error: float
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
) -> BornReport:
    """Run the full verification loop on one one-dimensional wave-equation problem.

    The evolution is streamed in chunks of K = ``max(1, CHUNK_POINTS // n)``
    steps, so memory is O(K n), not O(steps n).  One loop evolves chunk c
    while it transports the density through chunk c - 1 by the continuity
    equation alone, with the velocities of that chunk's states extracted by
    one batched FFT; where both run, the evolution step and the first flux
    share one two-row FFT pair.  Every step is compared against ``F F* / q``;
    non-finite states or densities raise ``ValueError``.  The complex
    density-transport residuals are evaluated at the midpoint snapshot
    triple, the only states kept beyond a chunk.
    """
    n_steps, dt, step = _stepper(problem, t_final, dt)
    mid = n_steps // 2
    if mid == 0:
        raise ValueError("need at least three stored snapshots for the residual checks")
    grid, b = problem.grid, problem.b
    mult = spectral_multiplier(grid)
    half_pot, kin = _split_factors(problem, dt)
    q0 = float(np.real(integrate(problem.psi0.abs2())))
    # per step: t, gap, relative gap, transported mass, norm, node coverage
    stats = np.empty((n_steps + 1, 6))
    kept = {}
    n_rows = max(1, CHUNK_POINTS // grid.n)
    bufs = np.empty((2, n_rows + 1, grid.n), dtype=np.complex128)
    hist = np.empty((n_rows + 1, grid.n))
    work = np.empty((3, 2, grid.n), dtype=np.complex128)  # rows as in _flux_div; d1 in work[2, 1]
    cwork, rwork = np.empty_like(bufs), np.empty((2, *hist.shape))  # extract and compare scratch
    bufs[0, 0] = problem.psi0.values
    hist[0] = np.real(problem.psi0.abs2().values) / q0
    i_old = m_old = 0

    # stage c evolves chunk c (steps i0 .. i0 + m_new) while it transports chunk c - 1
    for c, i0 in enumerate([*range(0, n_steps, n_rows), n_steps]):
        new, m_new = bufs[c % 2], min(n_rows, n_steps - i0)
        for r in range(1, max(m_new, m_old) + 1):
            shared = r <= min(m_new, m_old)
            if r <= m_new and not shared:
                new[r] = step(new[r - 1])
            if r <= m_old:
                if shared:  # the split step and the first flux in one two-row FFT pair
                    np.multiply(half_pot, new[r - 1], out=work[0, 0])
                    np.multiply(vel[r - 1], hist[r - 1], out=work[0, 1])
                    spec = _row_fft(work[0], out=work[1])
                    # operand orders as in step and _flux_div: complex products do not commute bitwise
                    np.multiply(kin, spec[0], out=spec[0])
                    np.multiply(spec[1], mult, out=spec[1])
                    np.multiply(half_pot, _row_ifft(spec, out=work[2])[0], out=new[r])
                else:
                    _flux_div(vel[r - 1], hist[r - 1], mult, work[:, 1])
                _heun(hist[r - 1], work[2, 1].real, vel[r], dt, mult, work[:, 0], hist[r])

        if m_old:  # compare chunk c - 1
            states, history = old[: m_old + 1], hist[: m_old + 1]
            prod, target, diff = cwork[0, : m_old + 1], rwork[0, : m_old + 1], rwork[1, : m_old + 1]
            if not (np.isfinite(states).all() and np.isfinite(history).all()):
                raise ValueError("field contains non-finite entries")
            np.multiply(states, np.conjugate(states, out=prod), out=prod)
            # the real part of a complex sum reads only the real parts, |F|^2
            q = np.real(np.sum(prod, axis=1) * grid.cell_volume)
            np.divide(prod.real, q[:, None], out=target)
            gap = np.max(np.abs(np.subtract(history, target, out=diff), out=diff), axis=1)
            stats[i_old : i_old + m_old + 1] = np.column_stack([
                dt * np.arange(i_old, i_old + m_old + 1, dtype=float), gap,
                gap / target.max(axis=1), history.sum(axis=1) * grid.dx, np.sqrt(q), coverage,
            ])
            for k in range(max(i_old, mid - 1), min(i_old + m_old, mid + 1) + 1):
                kept[k] = ScalarField(grid, states[k - i_old].copy())
            rho = hist[0] = history[-1].copy()
        if m_new:  # the velocities of chunk c, for its transport in stage c + 1
            states, spec, dpsi = new[: m_new + 1], cwork[0, : m_new + 1], cwork[1, : m_new + 1]
            np.multiply(_row_fft(states, out=spec), mult, out=spec)
            velocity, mask = log_derivative(states, _row_ifft(spec, out=dpsi), -1j * b**2)
            vel, coverage = np.real(velocity), mask.mean(axis=1)
            bufs[(c + 1) % 2, 0] = new[m_new]
        old, i_old, m_old = new, i0, m_new

    rho_tri = [
        ScalarField(grid, np.real(kept[k].abs2().values) / q0) for k in (mid - 1, mid, mid + 1)
    ]
    dec = velocity_from_wavefunction(kept[mid], b)
    return BornReport(
        t_final=dt * n_steps,
        dt=dt,
        sup_density_error=float(stats[:, 1].max()),
        sup_relative_error=float(stats[:, 2].max()),
        final_density_error=float(gap[-1]),
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
