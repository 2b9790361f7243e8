"""Split-step wave-equation evolution: dispersion, unitarity, and energy."""

import numpy as np
import pytest

from oracles import (
    dispersion_omega,
    energy,
    harmonic_energy,
    harmonic_psi,
    split_step_states,
    wavefunction_norm,
)
from stochflow.analytic import FreePacket, HarmonicState
from stochflow.fields import GridSpec, ScalarField
from stochflow.schrodinger import SchrodingerProblem, _split_factors, evolve


def _plane_wave_problem(n=64, b=1.0, k_mode=3):
    grid = GridSpec(dim=1, length=2 * np.pi, n=n)
    k = float(k_mode)
    psi0 = ScalarField(grid, np.exp(1j * k * grid.axis) / np.sqrt(2 * np.pi))
    return grid, k, SchrodingerProblem(b=b, psi0=psi0)


def test_splitstep_plane_wave_phase_exact():
    grid, k, prob = _plane_wave_problem()
    T = 0.7
    out = evolve(prob, T, 1e-2)
    omega = dispersion_omega(k, prob.b)
    exact = prob.psi0.values * np.exp(-1j * omega * T)
    assert np.max(np.abs(out.values - exact)) < 1e-12


def test_free_packet_splitstep_spectrally_exact():
    grid = GridSpec(dim=1, length=24.0, n=256)
    pk = FreePacket(b=1.0, x0=11.0, s=1.0, k0=2 * np.pi * 3 / 24.0)
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=1.0, psi0=psi0)
    out = evolve(prob, 1.0, 1e-3)
    exact = pk.psi(grid.axis, 1.0)
    assert np.max(np.abs(out.values - exact)) < 1e-11


def test_harmonic_ground_state_phase():
    grid = GridSpec(dim=1, length=16.0, n=128)
    state = HarmonicState(b=1.0, omega=1.0, centre=8.0)
    psi0 = ScalarField(grid, state.eigenfunction(grid.axis, 0).astype(np.complex128))
    prob = SchrodingerProblem(b=1.0, psi0=psi0, potential=state.potential)
    T = 1.0
    out = evolve(prob, T, 1e-4)
    exact = harmonic_psi(state, grid.axis, T, 0)
    assert np.max(np.abs(out.values - exact)) < 1e-8


def test_evolve_equals_the_public_fft_formula_bit_for_bit():
    # the oracles copy this step; this ties it to the formula written out with numpy's FFT
    grid = GridSpec(dim=1, length=16.0, n=128)
    state = HarmonicState(b=1.0, omega=1.0, centre=8.0)
    psi0 = state.eigenfunction(grid.axis, 1) * np.exp(0.3j * grid.axis)
    prob = SchrodingerProblem(b=1.0, psi0=ScalarField(grid, psi0), potential=state.potential)
    dt = 2.0**-10  # 5 dt / 5 is dt exactly, so evolve keeps this step
    half_pot, kin = _split_factors(prob, dt)
    want = psi0
    for _ in range(5):
        want = half_pot * np.fft.ifft(kin * np.fft.fft(half_pot * want))
    assert (evolve(prob, 5 * dt, dt).values == want).all()


def test_splitstep_norm_preserved():
    grid = GridSpec(dim=1, length=16.0, n=128)
    state = HarmonicState(b=1.0, omega=1.0, centre=8.0)
    vals = (state.eigenfunction(grid.axis, 0) + 0.5 * state.eigenfunction(grid.axis, 2)) / np.sqrt(1.25)
    prob = SchrodingerProblem(
        b=1.0, psi0=ScalarField(grid, vals.astype(np.complex128)),
        potential=state.potential,
    )
    _, states = split_step_states(prob, 2.0, 1e-3)
    norms = np.array([wavefunction_norm(f) for f in states])
    assert np.max(np.abs(norms - norms[0])) < 1e-13


def test_energy_conserved_by_splitstep():
    grid = GridSpec(dim=1, length=16.0, n=128)
    state = HarmonicState(b=1.0, omega=1.0, centre=8.0)
    vals = (state.eigenfunction(grid.axis, 0) + state.eigenfunction(grid.axis, 1)) / np.sqrt(2)
    prob = SchrodingerProblem(
        b=1.0, psi0=ScalarField(grid, vals.astype(np.complex128)),
        potential=state.potential,
    )
    _, states = split_step_states(prob, 1.0, 1e-3)
    pot = prob.potential_values()
    energies = [energy(f, 1.0, pot) for f in states[::250]]
    exact = 0.5 * (harmonic_energy(state, 0) + harmonic_energy(state, 1))
    assert abs(energies[0] - exact) < 1e-10
    assert max(abs(e - energies[0]) for e in energies) < 1e-8


def test_energy_of_eigenstate_matches_ladder():
    grid = GridSpec(dim=1, length=20.0, n=256)
    state = HarmonicState(b=1.0, omega=1.0, centre=10.0)
    for n in (0, 1, 2):
        f = ScalarField(grid, state.eigenfunction(grid.axis, n).astype(np.complex128))
        e = energy(f, 1.0, state.potential(grid.axis))
        assert e == pytest.approx(harmonic_energy(state, n), abs=1e-9)


def test_problem_rejects_a_grid_that_is_not_one_dimensional():
    grid = GridSpec(dim=3, length=2 * np.pi, n=8)
    with pytest.raises(ValueError, match="one-dimensional"):
        SchrodingerProblem(b=1.0, psi0=ScalarField(grid, np.ones(grid.shape)))
