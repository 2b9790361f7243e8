"""Validate the closed-form reference solutions by substituting them back
into the equations they claim to solve (symbolically where practical,
numerically otherwise).  Everything else in the suite leans on these
oracles, so they are checked first and independently."""


import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import stochflow
from oracles import dispersion_omega, harmonic_energy, harmonic_psi
from stochflow.analytic import (
    FreePacket,
    HarmonicState,
    burgers_single_mode,
    burgers_tanh_wave,
    gaussian_density,
    ou_mean_variance,
)
from stochflow.burgers import heat_evolve_spectral
from stochflow.fields import GridSpec, ScalarField

X, T = sp.symbols("x t", real=True)
NU, C, K, EPS, B, THETA = sp.symbols("nu c k epsilon b theta", positive=True)


# ---------------------------------------------------------------------------
# symbolic substitution checks
# ---------------------------------------------------------------------------

def test_single_mode_solves_viscous_velocity_equation():
    # a_t + a a_x = nu a_xx, checked symbolically for the mode family
    decay = EPS * sp.exp(-NU * K**2 * T)
    a = 2 * NU * K * decay * sp.sin(K * X) / (1 + decay * sp.cos(K * X))
    residual = sp.diff(a, T) + a * sp.diff(a, X) - NU * sp.diff(a, X, 2)
    assert sp.simplify(residual) == 0


def test_tanh_wave_solves_viscous_velocity_equation():
    a = C * (1 - sp.tanh(C * (X - C * T) / (2 * NU)))
    residual = sp.diff(a, T) + a * sp.diff(a, X) - NU * sp.diff(a, X, 2)
    assert sp.simplify(residual) == 0


def test_heat_kernel_solves_heat_equation():
    var = sp.Symbol("v0", positive=True) + B**2 * T
    rho = sp.exp(-X**2 / (2 * var)) / sp.sqrt(2 * sp.pi * var)
    residual = sp.diff(rho, T) - B**2 / 2 * sp.diff(rho, X, 2)
    assert sp.simplify(residual) == 0


def test_ou_moments_solve_moment_odes():
    # dm/dt = -theta m ; dv/dt = -2 theta v + b^2
    m0, v0 = sp.symbols("m0 v0", positive=True)
    decay = sp.exp(-THETA * T)
    mean = m0 * decay
    var = v0 * decay**2 + B**2 / (2 * THETA) * (1 - decay**2)
    assert sp.simplify(sp.diff(mean, T) + THETA * mean) == 0
    assert sp.simplify(sp.diff(var, T) + 2 * THETA * var - B**2) == 0
    # the coded values agree with the symbolic expressions
    got = ou_mean_variance(0.7, 1.3, 0.9, 2.0, 0.25)
    sub = {T: 0.7, THETA: 1.3, B: 0.9, m0: 2.0, v0: 0.25}
    assert got[0] == pytest.approx(float(mean.subs(sub)))
    assert got[1] == pytest.approx(float(var.subs(sub)))


def test_plane_wave_dispersion():
    # e^{i(kx - omega t)} solves i b^2 F_t = -(b^4/2) F_xx iff omega = b^2 k^2/2
    omega = sp.Symbol("omega", positive=True)
    F = sp.exp(sp.I * (K * X - omega * T))
    residual = sp.I * B**2 * sp.diff(F, T) + B**4 / 2 * sp.diff(F, X, 2)
    solved = sp.solve(sp.simplify(residual / F), omega)
    assert sp.simplify(solved[0] - B**2 * K**2 / 2) == 0
    assert dispersion_omega(3.0, 2.0) == pytest.approx(4.0 * 9.0 / 2)


# ---------------------------------------------------------------------------
# free Gaussian packet
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def packet():
    return FreePacket(b=1.2, x0=10.0, s=0.8, k0=1.5)


def test_packet_solves_wave_equation(packet):
    # i b^2 F_t = -(b^4/2) F_xx; the centred-stencil residual must sit on
    # the O(dx^2) floor and shrink accordingly under refinement
    def residual_sup(n: int) -> float:
        x = np.linspace(0.0, 24.0, n, endpoint=False)
        t, dt = 0.6, 1e-5
        ft = (packet.psi(x, t + dt) - packet.psi(x, t - dt)) / (2 * dt)
        dx = x[1] - x[0]
        psi = packet.psi(x, t)
        fxx = (np.roll(psi, -1) - 2 * psi + np.roll(psi, 1)) / dx**2
        residual = 1j * packet.b**2 * ft + packet.b**4 / 2 * fxx
        return float(np.max(np.abs(residual)))

    coarse, fine = residual_sup(1536), residual_sup(3072)
    assert fine < 1e-4
    assert coarse / fine > 3.0  # second-order stencil artifact, not a defect


def test_packet_density_normalized_and_consistent(packet):
    x = np.linspace(0.0, 24.0, 4096, endpoint=False)
    for t in (0.0, 0.8):
        rho = packet.density(x, t)
        assert abs(np.trapezoid(rho, x) - 1.0) < 1e-10
        assert np.max(np.abs(rho - np.abs(packet.psi(x, t)) ** 2)) < 1e-14


def test_packet_velocities_match_log_derivative(packet):
    # v - iu must equal -i b^2 psi'/psi
    x = np.linspace(6.0, 14.0, 20001)
    t = 0.45
    dx = x[1] - x[0]
    psi = packet.psi(x, t)
    dpsi = np.gradient(psi, dx, edge_order=2)
    v_complex = -1j * packet.b**2 * dpsi / psi
    got = packet.complex_velocity(x, t)
    inner = slice(100, -100)
    assert np.max(np.abs(got[inner] - v_complex[inner])) < 1e-5
    assert np.max(np.abs(
        packet.current_velocity(x, t) - 1j * packet.osmotic_velocity(x, t) - got
    )) < 1e-13


def test_packet_spreading_law(packet):
    # Var(t) = |s^2 + i b^2 t / 2|^2 / s^2
    x = np.linspace(0.0, 40.0, 8192, endpoint=False)
    t = 1.3
    rho = packet.density(x, t)
    mean = np.trapezoid(x * rho, x)
    var = np.trapezoid((x - mean) ** 2 * rho, x)
    gamma2 = packet.s**4 + (packet.b**2 * t / 2) ** 2
    assert var == pytest.approx(gamma2 / packet.s**2, rel=1e-8)
    assert mean == pytest.approx(packet.x0 + packet.b**2 * packet.k0 * t, rel=1e-10)


# ---------------------------------------------------------------------------
# harmonic trap
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trap():
    return HarmonicState(b=1.0, omega=1.0, centre=8.0)


def test_eigenfunctions_solve_stationary_equation(trap):
    # -(b^4/2) phi'' + U phi = E phi with E = b^2 omega (n + 1/2)
    x = np.linspace(2.0, 14.0, 3001)
    dx = x[1] - x[0]
    for n in (0, 1, 3):
        phi = trap.eigenfunction(x, n)
        lap = (np.roll(phi, -1) - 2 * phi + np.roll(phi, 1)) / dx**2
        lhs = -trap.b**4 / 2 * lap + trap.potential(x) * phi
        e_n = harmonic_energy(trap, n)
        inner = slice(200, -200)
        scale = np.max(np.abs(phi))
        assert np.max(np.abs(lhs[inner] - e_n * phi[inner])) < 5e-5 * scale


def test_eigenfunctions_match_numpy_hermval():
    # numpy's Clenshaw evaluation as the oracle: the same floats at n = 0 and 1, where
    # both give 1 and 2y, and within 1e-13 of the largest value up to n = 8
    from numpy.polynomial.hermite import hermval

    state = HarmonicState(b=0.8, omega=1.7, centre=1.0)
    x = np.linspace(-6.0, 8.0, 1401)
    y = np.sqrt(state.omega) * (x - state.centre) / state.b
    for n in range(9):
        norm = (state.omega / (np.pi * state.b**2)) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
        want = norm * hermval(y, np.eye(n + 1)[n]) * np.exp(-(y**2) / 2)
        got = state.eigenfunction(x, n)
        if n <= 1:
            assert np.array_equal(got, want), n
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n


def test_eigenfunction_loads_no_numpy_polynomial():
    env = dict(os.environ, PYTHONPATH=str(Path(stochflow.__file__).parents[1]))
    code = (
        "import sys, numpy as np; from stochflow.analytic import HarmonicState; "
        "HarmonicState(b=1.0, omega=1.0).eigenfunction(np.linspace(-3.0, 3.0, 7), 4); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eigenfunctions_orthonormal(trap):
    x = np.linspace(-4.0, 20.0, 12001)
    for m in range(4):
        for n in range(4):
            inner = np.trapezoid(trap.eigenfunction(x, m) * trap.eigenfunction(x, n), x)
            assert inner == pytest.approx(1.0 if m == n else 0.0, abs=1e-9)


def test_energy_ladder(trap):
    for n in range(5):
        assert harmonic_energy(trap, n) == pytest.approx(trap.b**2 * trap.omega * (n + 0.5))


def test_superposition_phases(trap):
    # the two-level superposition density oscillates at the level spacing
    x = np.linspace(2.0, 14.0, 1501)
    period = 2 * np.pi * trap.b**2 / (harmonic_energy(trap, 1) - harmonic_energy(trap, 0))

    def rho(t: float) -> np.ndarray:
        both = harmonic_psi(trap, x, t, 0) + harmonic_psi(trap, x, t, 1)
        return np.abs(both / math.sqrt(2)) ** 2

    assert np.max(np.abs(rho(period) - rho(0.0))) < 1e-10
    # half a period mirrors the density about the centre
    assert np.max(np.abs(rho(period / 2) - rho(0.0)[::-1])) < 1e-10


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_gaussian_density_normalization():
    x = np.linspace(-20, 20, 20001)
    rho = gaussian_density(x, 1.5, 0.7)
    assert np.trapezoid(rho, x) == pytest.approx(1.0, abs=1e-12)


def test_heat_kernel_spreads_variance():
    # the exact Fourier heat propagator turns a Gaussian of variance v0 into
    # the heat kernel of variance v0 + b^2 t
    grid = GridSpec(dim=1, length=60.0, n=1024)
    x = grid.axis
    b, t, var0 = 1.1, 2.0, 0.5
    rho0 = ScalarField(grid, gaussian_density(x, 30.0, var0))
    rho = np.real(heat_evolve_spectral(rho0, b**2 / 2, t).values)
    assert np.max(np.abs(rho - gaussian_density(x, 30.0, var0 + b**2 * t))) < 1e-12
    var = np.sum((x - 30.0) ** 2 * rho) * grid.dx
    assert var == pytest.approx(var0 + b**2 * t, rel=1e-10)


def test_ou_stationary_density_matches_moment_limit():
    # long after the start the OU law is the normal of variance b^2 / (2 theta)
    mean, var = ou_mean_variance(50.0, 2.0, 1.5, 0.7, 0.1)
    x = np.linspace(-10, 10, 10001)
    rho = gaussian_density(x, mean, var)
    assert np.trapezoid(x**2 * rho, x) == pytest.approx(1.5**2 / (2 * 2.0), rel=1e-10)
