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
``max(1, CHUNK_POINTS // n)`` steps on n points (:func:`born_pipeline`), 64
steps at n = 128 and 16 at n = 512.  Its memory is the chunk scratch, O(K n)
and allocated once, whatever the step count: the gap maxima, drifts and node
coverage are reduced chunk by chunk, and the gap series keeps under 1,024 rows
(:data:`SERIES_ROWS`).  It takes ``round(t_final/dt)`` split steps of
:mod:`stochflow.schrodinger`, the same as ``evolve``, in one loop that evolves
and transports at every step.  The transport is third-order Adams-Bashforth
(:data:`AB3`): one new flux increment ``g_j = (dt/12) (v_j rho_j)_x`` a step,
``rho_{j+1} = rho_j - 23 g_j + 16 g_{j-1} - 5 g_{j-2}``, with the increments of
the two steps before kept in a three-row ring.  Its increment shares the
evolution step's two-row FFT pair, so a step is two row-FFT gufunc and eleven
ufunc calls and nothing else: no step converts a Python float, casts float to
complex or views an array.  At n = 128 on a 2-core host the loop takes 12 us a
step, the calls' fixed cost, and the whole pipeline 17 us (best of repeated
in-process 4,000-step runs; 18 and 23 us with the two flux evaluations of
Heun's method).  AB3 is stable on the imaginary axis while
``theta = k_max |v| dt <= 0.72``, with ``k_max`` the highest wavenumber below
Nyquist; Heun's amplification there is about ``1 + theta^4 / 8`` a step, so its
top modes grow at any ``dt``.  The increment history starts as ``g_0`` three
times (one extra FFT pair a run), so the first steps are Euler-like and the
global order stays two.  Every chunk runs K steps: the transport before
chunk 0's velocities and the evolution past the last state are padding, at
most 2K - 1 steps a run, whose rows are never read.  A chunk's velocity
extraction and comparison add a few dozen batched calls, whatever K is; at
K = 64 that is under one call per step against the 13, while the scratch
(0.85 MB at n = 128) stays within a 2 MB L2 cache.  Larger chunks only spend
memory.

The velocity ``V`` is extracted with the fixed relative floor
``NODE_FLOOR_REL`` on ``|F|`` (:func:`stochflow.fields.log_derivative`), so
near-zeros of ``F`` are masked instead of silently amplified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle

import numpy as np
from numpy import add as _add, multiply as _mul, subtract as _sub  # bound once for the step loops

from .fields import (
    Norms,
    ScalarField,
    _fft,
    _ifft,
    _spectral_derivative,
    integrate,
    log_derivative,
    spectral_multiplier,
    time_steps,
)
from .fokker_planck import (
    complex_fp_residual,
    continuity_residual,
    osmotic_constraint_residual,
)
# unused ``evolve`` kept: bench/spans.py traces it as ``stochflow.born.evolve``
from .schrodinger import SchrodingerProblem, _split_factors, evolve  # noqa: F401

__all__ = [
    "VelocityDecomposition",
    "BornReport",
    "velocity_from_wavefunction",
    "evolve_density_continuity",
    "born_pipeline",
]

#: points per chunk, K = max(1, CHUNK_POINTS // n) steps: the knee of the peak memory against
#: chunk size at flat wall time; the per-chunk calls stay amortised over K steps
CHUNK_POINTS = 2**13
#: the gap series keeps every stride-th step's row, stride = max(1, (n_steps + 1) // SERIES_ROWS)
SERIES_ROWS = 512
#: third-order Adams-Bashforth weights of the flux increments ``g = (dt/12) (v rho)_x`` of
#: steps j, j - 1 and j - 2: ``rho_{j+1} = rho_j - 23 g_j + 16 g_{j-1} - 5 g_{j-2}``
AB3 = (23.0, 16.0, 5.0)


@dataclass(frozen=True)
class VelocityDecomposition:
    """Complex velocity of a wave function and its real/imaginary split.

    At the points where ``|F|`` falls below the relative node floor all
    velocities are zero (the transported flux ``v rho`` vanishes there
    anyway, since ``rho = |F|^2``).
    """

    complex_velocity: ScalarField
    current: ScalarField
    osmotic: ScalarField


def velocity_from_wavefunction(psi: ScalarField, b: float) -> VelocityDecomposition:
    """Extract ``V = -i b^2 (grad psi)/psi``, masking the nodes of ``psi``
    (:data:`~stochflow.fields.NODE_FLOOR_REL`)."""
    grid = psi.grid
    dpsi = _spectral_derivative(psi.values, grid, 0, 1)
    v = log_derivative(psi.values.reshape(1, -1), dpsi.reshape(1, -1), -1j * b**2)[0]
    v = v.reshape(grid.shape)
    return VelocityDecomposition(
        complex_velocity=ScalarField(grid, v),
        current=ScalarField(grid, np.real(v)),
        osmotic=ScalarField(grid, -np.imag(v)),
    )


def _ab3_weights() -> tuple:
    """:data:`AB3` as 0-d float arrays, bound once per run so that no step converts a float."""
    return tuple(np.array(float(w)) for w in AB3)


def _flux_increment(v, rho, gmult, flux, spec, out) -> np.ndarray:
    """``g = ifft(fft(v rho) gmult)`` in one-row calls into the complex row ``out``, returned
    as its real part; only the real part of the complex row ``flux`` is written, so its
    imaginary part must be zero."""
    _mul(v, rho, flux.real)
    _mul(_fft(flux, 1.0, spec), gmult, spec)
    return _ifft(spec, 1 / out.shape[-1], out).real


def _ab3_step(rho, g, g1, g2, weights, tmp, out) -> None:
    """``rho - w0 g + w1 g1 - w2 g2`` into ``out``, left to right, given the flux increments
    ``g`` of this step and ``g1``, ``g2`` of the two before it (:data:`AB3`)."""
    w0, w1, w2 = weights
    _sub(rho, _mul(w0, g, out), out)
    _add(out, _mul(w1, g1, tmp), out)
    _sub(out, _mul(w2, g2, tmp), out)


def evolve_density_continuity(
    rho0: ScalarField,
    velocity_snapshots: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Transport a density by ``rho_t = -(v rho)_x`` with third-order Adams-Bashforth steps.

    ``velocity_snapshots`` has shape ``(n_steps + 1, n)``: the real current
    velocity at every step boundary.  Step j reads row j only, so the last row
    is not read.  Returns the density history with the same shape.  This is
    the per-snapshot oracle of :func:`born_pipeline`: the same kernels in the
    same operation order, one row at a time.  The history of flux increments
    starts as ``g_0`` three times, so the first step is Euler's.  The flux
    derivative is spectral, so the discrete mass ``sum(rho) dx`` is conserved
    to round-off.
    """
    gmult = spectral_multiplier(rho0.grid) * (dt / 12)
    flux, spec = np.zeros((2, rho0.grid.n), dtype=np.complex128)
    ring = np.zeros((3, rho0.grid.n), dtype=np.complex128)
    tmp = np.empty(rho0.grid.n)
    history = np.empty(velocity_snapshots.shape)
    history[0] = np.real(rho0.values)
    _flux_increment(velocity_snapshots[0], history[0], gmult, flux, spec, ring[0])
    ring[1:] = ring[0]
    # step j writes ring[j % 3], after ring[(j - 1) % 3] and ring[(j - 2) % 3]
    phases = cycle([(ring[s], ring[s - 1].real, ring[s - 2].real) for s in range(3)])
    weights = _ab3_weights()
    for h, h1, v, (g, g1, g2) in zip(history, history[1:], velocity_snapshots, phases):
        _ab3_step(h, _flux_increment(v, h, gmult, flux, spec, g), g1, g2, weights, tmp, h1)
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
    continuity: Norms
    osmotic: Norms
    #: the largest ``theta = k_max |v| dt`` over the run, ``k_max`` the highest wavenumber below
    #: Nyquist and ``v`` the extracted current velocity: the AB3 transport is stable while
    #: ``theta <= 0.72``, and its top modes grow past that
    ab3_theta: float
    #: columns (t, sup gap, relative gap) of every stride-th step, under 1,024 rows (SERIES_ROWS)
    discrepancy_series: np.ndarray = field(repr=False)
    #: transported and quadratic densities at the final time, shape (2, n)
    final_profiles: np.ndarray = field(repr=False)


def born_pipeline(
    problem: SchrodingerProblem,
    t_final: float,
    dt: float,
) -> BornReport:
    """Run the full verification loop on one one-dimensional wave-equation problem.

    The evolution is streamed in chunks of K = ``max(1, CHUNK_POINTS // n)``
    steps, so memory is O(K n) of scratch, whatever the step count: the gap
    maxima, drifts and least node coverage are running extremes, updated once
    per chunk (a NaN gap stays NaN), the gap series keeps the row of every
    stride-th step (:data:`SERIES_ROWS`), and a chunk's velocities are kept
    real, their complex form freed once extracted.  One loop evolves chunk c
    while it transports the density through chunk c - 1 by the continuity
    equation alone, with the velocities of that chunk's states extracted by one
    batched FFT, each state's once: a chunk's last state is the next one's
    first.  The transport takes third-order Adams-Bashforth steps
    (:data:`AB3`, stable while ``k_max |v| dt <= 0.72``, whose largest value
    over the run the report holds as ``ab3_theta``), so at every step the
    evolution step and the step's one flux increment share one two-row FFT
    pair: 2 gufunc and 11 ufunc calls on operands, views and 0-d scalars bound
    before the loop, the increment rows cycled through prebuilt view tuples.
    Once chunk 0's velocities are known, the increment history is filled with
    ``g_0``.  Each stage runs K steps; the velocities before chunk 0's and past
    a partial chunk are zero, so padded transport steps read no stale velocity,
    and no padded row is read.  Every step is compared against ``F F* / q``;
    non-finite states or densities raise ``ValueError``.  The complex
    density-transport residual is evaluated at the midpoint snapshot triple,
    the only states kept beyond a chunk.
    """
    n_steps, dt = time_steps(t_final, dt)
    mid = n_steps // 2
    if mid == 0:
        raise ValueError("need at least three stored snapshots for the residual checks")
    grid, b = problem.grid, problem.b
    mult = spectral_multiplier(grid)
    gmult = mult * (dt / 12)  # g = (dt/12) (v rho)_x in one multiply
    half_pot, kin = _split_factors(problem, dt)
    q0 = float(np.real(integrate(problem.psi0.abs2())))
    stride = max(1, (n_steps + 1) // SERIES_ROWS)
    gaps = np.empty((n_steps // stride + 1, 2))  # gap, relative gap of every stride-th step
    sup_gap = sup_rel = mass_drift = norm_drift = v_max = 0.0
    min_coverage, kept = 1.0, {}
    n_rows = max(1, CHUNK_POINTS // grid.n)
    bufs = np.empty((2, n_rows + 1, grid.n), dtype=np.complex128)
    cwork = np.empty_like(bufs[0])  # compare products, then extraction spectra
    hist, targets, diffs = np.empty((3, n_rows + 1, grid.n))
    vels = np.zeros((n_rows + 1, grid.n))  # zero before chunk 0's: transport then copies hist[0]
    pair_in, pair_spec = np.zeros((2, 2, grid.n), dtype=np.complex128)  # rows (psi, flux)
    (evo_in, flux_in), (evo_spec, flux_spec) = pair_in, pair_spec
    flux_re = flux_in.real  # its imaginary part stays zero
    # the inverses: row 0 the evolution's, rows 1-3 a ring of the last three flux increments;
    # step j writes row s = 1 + j % 3, paired with row 0 in the view outs[::s][:2]
    outs = np.zeros((4, grid.n), dtype=np.complex128)
    evo_out, ring = outs[0], outs[1:]
    phases = cycle([
        (outs[::s][:2], ring[s - 1].real, ring[s - 2].real, ring[s - 3].real) for s in (1, 2, 3)
    ])
    weights, tmp = _ab3_weights(), np.empty(grid.n)
    one, inv_n = np.array(1.0), np.array(1 / grid.n)
    psis, hs, vs = [list(buf) for buf in bufs], list(hist), list(vels)  # row views, built once
    bufs[0, 0] = problem.psi0.values
    hist[0] = np.real(problem.psi0.abs2().values) / q0
    i_old = m_old = 0

    # stage c evolves chunk c (steps i0 .. i0 + m_new) while it transports chunk c - 1
    for c, i0 in enumerate([*range(0, n_steps, n_rows), n_steps]):
        new, m_new, psi_rows = bufs[c % 2], min(n_rows, n_steps - i0), psis[c % 2]
        # all K steps evolve and transport in one two-row FFT pair, with the operand orders of
        # evolve and _flux_increment (complex products do not commute bitwise); the rows past
        # m_new and m_old are padding, never read
        for psi, psi1, h, h1, v, (pair_out, g, g1, g2) in zip(
            psi_rows, psi_rows[1:], hs, hs[1:], vs, phases
        ):
            _mul(half_pot, psi, evo_in)
            _mul(v, h, flux_re)
            _fft(pair_in, one, pair_spec)
            _mul(kin, evo_spec, evo_spec)
            _mul(flux_spec, gmult, flux_spec)
            _ifft(pair_spec, inv_n, pair_out)
            _mul(half_pot, evo_out, psi1)
            _ab3_step(h, g, g1, g2, weights, tmp, h1)

        if m_old:  # compare chunk c - 1, reducing its drifts to the running extremes
            states, history, prod = old[: m_old + 1], hist[: m_old + 1], cwork[: m_old + 1]
            target, diff = targets[: m_old + 1], diffs[: m_old + 1]
            if not (np.isfinite(states).all() and np.isfinite(history).all()):
                raise ValueError("field contains non-finite entries")
            np.multiply(states, np.conjugate(states, out=prod), out=prod)
            # the real part of a complex sum reads only the real parts, |F|^2
            q = np.real(np.sum(prod, axis=1) * grid.cell_volume)
            np.divide(prod.real, q[:, None], out=target)
            gap = np.max(np.abs(np.subtract(history, target, out=diff), out=diff), axis=1)
            rel = gap / target.max(axis=1)
            sup_gap, sup_rel = np.maximum(sup_gap, gap.max()), np.maximum(sup_rel, rel.max())
            lo, hi = -(-i_old // stride), (i_old + m_old) // stride + 1  # this chunk's series rows
            rows = slice(lo * stride - i_old, None, stride)
            gaps[lo:hi, 0], gaps[lo:hi, 1] = gap[rows], rel[rows]
            mass, norm = history.sum(axis=1) * grid.dx, np.sqrt(q)
            if i_old == 0:
                mass0, norm0 = mass[0], norm[0]
            mass_drift = max(mass_drift, float(np.max(np.abs(mass - mass0))))
            norm_drift = max(norm_drift, float(np.max(np.abs(norm - norm0))))
            for k in range(max(i_old, mid - 1), min(i_old + m_old, mid + 1) + 1):
                kept[k] = ScalarField(grid, states[k - i_old].copy())
            rho = hist[0] = history[-1].copy()
        if m_new:  # the real velocities of chunk c, for its transport in stage c + 1
            # the transport reads rows 0 to m_new - 1; the last state is the next chunk's row 0,
            # extracted there, so only the final chunk extracts it, for its node coverage
            rows = m_new + 1 if i0 + m_new == n_steps else m_new
            states, spec = new[:rows], cwork[:rows]
            _mul(_fft(states, one, spec), mult, spec)
            velocity, mask = log_derivative(states, _ifft(spec, inv_n, spec), -1j * b**2)
            vels[:rows] = velocity.real
            vels[rows:] = 0  # padded transport steps then read no stale velocity
            min_coverage = min(min_coverage, float(mask.mean(axis=1).min()))
            v_max = max(v_max, float(vels[:rows].max()), -float(vels[:rows].min()))
            del velocity, mask  # no complex velocity outlives its extraction: transport reads v
            bufs[(c + 1) % 2, 0] = new[m_new]
            if i0 == 0:  # the flux history starts as g_0 three times: the first step is Euler's
                _flux_increment(vels[0], hist[0], gmult, flux_in, flux_spec, ring[0])
                ring[1:] = ring[0]
        old, i_old, m_old = new, i0, m_new

    rho_tri = [
        ScalarField(grid, np.real(kept[k].abs2().values) / q0) for k in (mid - 1, mid, mid + 1)
    ]
    dec = velocity_from_wavefunction(kept[mid], b)
    return BornReport(
        t_final=dt * n_steps,
        dt=dt,
        sup_density_error=float(sup_gap),
        sup_relative_error=float(sup_rel),
        final_density_error=float(gap[-1]),
        mass_drift=mass_drift,
        norm_drift=norm_drift,
        min_coverage=min_coverage,
        fp_forward=complex_fp_residual(*rho_tri, dec.complex_velocity, b, dt),
        continuity=continuity_residual(*rho_tri, dec.current, dt),
        osmotic=osmotic_constraint_residual(rho_tri[1], dec.osmotic, b),
        ab3_theta=float(np.abs(mult).max()) * v_max * dt,
        discrepancy_series=np.column_stack([np.arange(0, n_steps + 1, stride) * dt, gaps]),
        final_profiles=np.stack([rho, target[-1]]),
    )
