"""Quadratic-density pipeline: velocity extraction, the gauge symmetry,
phase reconstruction, and continuity-only transport."""

import dataclasses

import numpy as np
import pytest

from oracles import node_mask, split_step_states, wavefunction_norm
from stochflow.analytic import FreePacket
from stochflow.born import (
    CHUNK_POINTS,
    BornReport,
    _flux_div,
    _heun,
    born_pipeline,
    evolve_density_continuity,
    madelung_wavefunction,
    normalize_wavefunction,
    velocity_from_wavefunction,
)
from stochflow.fields import GridSpec, ScalarField, integrate, spectral_multiplier
from stochflow.fokker_planck import (
    complex_fp_residual,
    continuity_residual,
    osmotic_constraint_residual,
)
from stochflow.schrodinger import SchrodingerProblem


@pytest.fixture(scope="module")
def packet_setup():
    grid = GridSpec(dim=1, length=24.0, n=256)
    pk = FreePacket(b=1.0, x0=11.0, s=1.0, k0=2 * np.pi * 4 / 24.0)
    return grid, pk


def test_velocity_extraction_matches_analytic(packet_setup):
    grid, pk = packet_setup
    t = 0.4
    psi = ScalarField(grid, pk.psi(grid.axis, t))
    dec = velocity_from_wavefunction(psi, pk.b)
    m = node_mask(psi)
    assert m.mean() > 0.5
    # compare away from the node floor, where the 1/|psi| amplification of
    # round-off in the spectral derivative is negligible
    safe = np.abs(psi.values) > 1e-4 * np.abs(psi.values).max()
    assert np.max(np.abs(dec.current.values[safe] - pk.current_velocity(grid.axis, t)[safe])) < 1e-9
    assert np.max(np.abs(dec.osmotic.values[safe] - pk.osmotic_velocity(grid.axis, t)[safe])) < 1e-9
    # masked-out points carry zero velocity by policy
    assert np.all(dec.complex_velocity.values[~m] == 0)


def test_normalization_gauge_branch(packet_setup):
    # h F / sqrt(|h|^2 q) has unit norm and the same density for any h != 0
    grid, pk = packet_setup
    raw = ScalarField(grid, 2.3 * pk.psi(grid.axis, 0.0))
    base, q = normalize_wavefunction(raw)
    assert q == pytest.approx(2.3**2, rel=1e-10)
    assert float(np.real(integrate(base.abs2()))) == pytest.approx(1.0, abs=1e-12)
    for h in (1.0, -2.0, 0.5 + 1.2j):
        gauged, _ = normalize_wavefunction(raw, h)
        assert np.max(np.abs(gauged.abs2().values - base.abs2().values)) < 1e-12


def test_madelung_roundtrip(packet_setup):
    # at t = 0 the packet's current velocity is the constant b^2 k0, whose
    # circulation is the exact integer winding k0 L / 2 pi = 4
    grid, pk = packet_setup
    x = grid.axis
    rho = ScalarField(grid, pk.density(x, 0.0))
    v = ScalarField(grid, pk.current_velocity(x, 0.0).astype(np.complex128))
    rebuilt = madelung_wavefunction(rho, v, pk.b)
    # density is reproduced exactly, the current velocity spectrally
    assert np.max(np.abs(rebuilt.abs2().values - rho.values)) < 1e-13
    dec = velocity_from_wavefunction(rebuilt, pk.b)
    safe = np.abs(rebuilt.values) > 1e-6 * np.abs(rebuilt.values).max()
    assert np.max(np.abs(dec.current.values[safe] - v.values[safe].real)) < 1e-8
    assert dec.current.values[safe].mean() == pytest.approx(pk.b**2 * pk.k0, rel=1e-8)


def test_madelung_rejects_fractional_winding(packet_setup):
    grid, pk = packet_setup
    rho = ScalarField(grid, np.full(grid.n, 1.0 / grid.length))
    bad_v = ScalarField(grid, np.full(grid.n, 0.37))  # not a whole mode
    with pytest.raises(ValueError):
        madelung_wavefunction(rho, bad_v, 1.0)


def test_continuity_transport_uniform_advection():
    # constant velocity translates the profile: rho(x, t) = rho0(x - ct)
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    c, T, dt = 0.8, 1.0, 1e-3
    n_steps = round(T / dt)
    rho0 = ScalarField(grid, 1 + 0.5 * np.cos(x))
    v = np.full((n_steps + 1, grid.n), c)
    history = evolve_density_continuity(rho0, v, dt)
    exact = 1 + 0.5 * np.cos(x - c * T)
    assert np.max(np.abs(history[-1] - exact)) < 1e-6
    mass = history.sum(axis=1) * grid.dx
    assert np.max(np.abs(mass - mass[0])) < 1e-12


def test_transport_kernels_equal_the_public_fft_formulas_bit_for_bit(packet_setup):
    # the pipeline and _reference_report share these kernels, so they are tied to
    # numpy's public FFT here, in the operation order of the public-API code
    grid, pk = packet_setup
    x, dt = grid.axis, 1 / 1024
    mult = spectral_multiplier(grid)
    v0, v1 = pk.current_velocity(x, 0.1), pk.current_velocity(x, 0.1 + dt)
    rho = pk.density(x, 0.1)
    work = np.empty((2, 3, grid.n), dtype=np.complex128)  # rows of _flux_div, per flux

    def flux(v, r):
        return np.fft.ifft(np.fft.fft(v * r) * mult).real

    d1 = _flux_div(v0, rho, mult, work[1])
    assert (d1 == flux(v0, rho)).all()
    out = np.empty(grid.n)
    _heun(rho, d1, v1, dt, mult, work[0], out)
    assert (out == rho - 0.5 * dt * (d1 + flux(v1, rho - dt * d1))).all()


def test_born_pipeline_free_packet_small(packet_setup):
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=pk.b, psi0=psi0)
    rep = born_pipeline(prob, 0.25, 1 / 1024)
    assert rep.sup_relative_error < 1e-4
    assert rep.mass_drift < 1e-10
    assert rep.norm_drift < 1e-10
    assert rep.fp_forward.l_inf < 1e-3
    assert rep.fp_conjugate.l_inf < 1e-3
    assert rep.osmotic.l_inf < 1e-3
    assert rep.min_coverage > 0.5
    # the discrepancy series starts at zero and stays bounded
    assert rep.discrepancy_series[0, 1] < 1e-14
    assert rep.discrepancy_series.shape[1] == 3


def test_born_pipeline_requires_enough_snapshots(packet_setup):
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=pk.b, psi0=psi0)
    with pytest.raises(ValueError):
        born_pipeline(prob, 1e-3, 1e-3)  # a single step cannot be analysed


def _reference_report(problem, t_final, dt):
    """The Born pipeline as a per-snapshot loop over every state of the split-step run."""
    dt_eff, states = split_step_states(problem, t_final, dt)
    times = dt_eff * np.arange(len(states), dtype=float)
    grid = problem.grid
    q0 = float(np.real(integrate(states[0].abs2())))
    decs = [velocity_from_wavefunction(state, problem.b) for state in states]
    velocities = np.array([np.real(dec.current.values) for dec in decs])
    rho0 = ScalarField(grid, np.real(states[0].abs2().values) / q0)
    history = evolve_density_continuity(rho0, velocities, dt_eff)
    series = np.empty((len(states), 3))
    for k, state in enumerate(states):
        target = np.real(state.abs2().values) / float(np.real(integrate(state.abs2())))
        gap = float(np.max(np.abs(history[k] - target)))
        series[k] = (times[k], gap, gap / float(target.max()))
    final = states[-1]
    target_final = np.real(final.abs2().values) / float(np.real(integrate(final.abs2())))
    mid = (len(states) - 1) // 2
    tri = [
        ScalarField(grid, np.real(states[k].abs2().values) / q0) for k in (mid - 1, mid, mid + 1)
    ]
    dec = decs[mid]
    mass = history.sum(axis=1) * grid.dx
    norms = [wavefunction_norm(state) for state in states]
    return BornReport(
        t_final=float(times[-1]),
        dt=dt_eff,
        sup_density_error=float(series[:, 1].max()),
        sup_relative_error=float(series[:, 2].max()),
        final_density_error=float(np.max(np.abs(history[-1] - target_final))),
        mass_drift=float(np.max(np.abs(mass - float(history[0].sum() * grid.dx)))),
        norm_drift=max(abs(norm - norms[0]) for norm in norms),
        min_coverage=min(float(node_mask(state).mean()) for state in states),
        fp_forward=complex_fp_residual(*tri, dec.complex_velocity, problem.b, dt_eff, variant="forward"),
        fp_conjugate=complex_fp_residual(
            *tri, dec.complex_velocity, problem.b, dt_eff, variant="conjugate"
        ),
        continuity=continuity_residual(*tri, dec.current, dt_eff),
        osmotic=osmotic_constraint_residual(tri[1], dec.osmotic, problem.b),
        discrepancy_series=series,
        final_profiles=np.stack([history[-1], target_final]),
    )


def _assert_matches_reference(packet_setup, n_steps):
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=pk.b, psi0=psi0)
    dt = 1 / 1024
    rep = born_pipeline(prob, n_steps * dt, dt)
    ref = _reference_report(prob, n_steps * dt, dt)
    assert rep.discrepancy_series.shape == (n_steps + 1, 3)
    for f in dataclasses.fields(BornReport):
        got, want = getattr(rep, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


def test_born_pipeline_matches_per_snapshot_reference(packet_setup):
    # the step count crosses two chunk boundaries and ends inside a third
    # chunk, which pins the density and velocity carried across chunks
    chunk = CHUNK_POINTS // packet_setup[0].n
    _assert_matches_reference(packet_setup, 2 * chunk + 37)


@pytest.mark.parametrize("chunks", ["single", "last-full"])
def test_born_pipeline_matches_reference_at_chunk_edges(packet_setup, chunks):
    # one partial chunk only (no stage evolves and transports at once), and a
    # last chunk that is exactly full (the final stage transports a whole chunk)
    chunk = CHUNK_POINTS // packet_setup[0].n
    _assert_matches_reference(packet_setup, 37 if chunks == "single" else 2 * chunk)


def test_born_pipeline_rejects_non_finite_evolution(packet_setup):
    # an infinite wall turns the split-step state into NaN on its support
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(
        b=pk.b, psi0=psi0, potential=lambda x: np.where(x > 20.0, np.inf, 0.0)
    )
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        born_pipeline(prob, 0.25, 1 / 1024)
