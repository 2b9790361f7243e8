"""Nonlinear velocity equations and the linearizing substitution."""

import numpy as np
import pytest
import sympy as sp

from stochflow.analytic import burgers_single_mode
from stochflow.burgers import (
    VARIANTS,
    BurgersProblem,
    geodesic_residual,
    heat_evolve_spectral,
    inversion_diagnostic,
    real_chain_residual,
    solve_burgers,
)
from stochflow.fields import GridSpec, ScalarField, derivative, log_derivative
from stochflow.schrodinger import SchrodingerProblem, evolve


# ---------------------------------------------------------------------------
# variant table and the linearization condition
# ---------------------------------------------------------------------------

def test_viscosity_table():
    b = 1.3
    assert BurgersProblem(b, "forward").nu == -0.5 * b**2
    assert BurgersProblem(b, "reversed").nu == +0.5 * b**2
    assert BurgersProblem(b, "complex").nu == +0.5j * b**2
    assert BurgersProblem(b, "complex-conjugate").nu == -0.5j * b**2
    assert BurgersProblem(b).variant == "reversed"
    with pytest.raises(ValueError, match="unknown variant"):
        BurgersProblem(b, "diagonal")


def test_linearization_roots_exact():
    b = 1.1
    assert BurgersProblem(b, "reversed").lam == -(b**2)
    assert BurgersProblem(b, "forward").lam == b**2
    assert BurgersProblem(b, "complex").lam == -1j * b**2
    assert BurgersProblem(b, "complex-conjugate").lam == 1j * b**2
    for variant in VARIANTS:
        problem = BurgersProblem(b, variant)
        lam, nu = problem.lam, problem.nu
        assert lam != 0 and lam**2 + 2 * nu * lam == 0  # exact, no tolerance


@pytest.mark.parametrize("b", [0.0, -1.0, float("inf"), float("nan")])
def test_problem_rejects_b_outside_the_positive_reals(b):
    with pytest.raises(ValueError, match="b must be positive and finite"):
        BurgersProblem(b)


def test_substitution_linearizes_symbolically():
    # substituting a = lam F_x / F with lam = -2 nu into
    # a_t + a a_x - nu a_xx collapses onto the heat-equation residual
    x, t, nu = sp.symbols("x t nu")
    F = sp.Function("F", positive=True)(x, t)
    lam = -2 * nu
    a = lam * sp.diff(F, x) / F
    residual = sp.diff(a, t) + a * sp.diff(a, x) - nu * sp.diff(a, x, 2)
    heat = sp.diff(F, t) - nu * sp.diff(F, x, 2)
    # residual must equal lam * d/dx (heat / F): zero precisely on solutions
    target = lam * sp.diff(heat / F, x)
    assert sp.simplify(residual - target) == 0


def test_real_chain_identity_symbolically():
    # a = b^2 (log u)_x turns the reverse-time heat equation for u into the
    # antidiffusive velocity equation:
    # a_t + a a_x + (b^2/2) a_xx = b^2 d/dx [ (u_t + (b^2/2) u_xx) / u ]
    x, t, b = sp.symbols("x t b", positive=True)
    u = sp.Function("u", positive=True)(x, t)
    a = b**2 * sp.diff(sp.log(u), x)
    lhs = sp.diff(a, t) + a * sp.diff(a, x) + b**2 / 2 * sp.diff(a, x, 2)
    rhs = b**2 * sp.diff((sp.diff(u, t) + b**2 / 2 * sp.diff(u, x, 2)) / u, x)
    assert sp.simplify(lhs - rhs) == 0


# ---------------------------------------------------------------------------
# direct solver vs closed forms
# ---------------------------------------------------------------------------

def test_solver_matches_single_mode():
    b = 1.0
    nu = 0.5 * b**2
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    a0 = ScalarField(grid, burgers_single_mode(x, 0.0, nu, 1.0, 0.5))
    problem = BurgersProblem(b=b, variant="reversed")
    out = solve_burgers(problem, a0, 1.0, 1e-3)
    exact = burgers_single_mode(x, 1.0, nu, 1.0, 0.5)
    assert np.max(np.abs(out.values - exact)) < 1e-6


def test_one_problem_solves_fields_on_two_grids():
    # the grid is the initial field's: each solve returns on the grid it was given
    problem = BurgersProblem(b=1.0)
    for length, n in ((2 * np.pi, 64), (4 * np.pi, 128)):
        grid = GridSpec(dim=1, length=length, n=n)
        k = 2 * np.pi / length
        a0 = ScalarField(grid, burgers_single_mode(grid.axis, 0.0, problem.nu.real, k, 0.5))
        out = solve_burgers(problem, a0, 0.5, 1e-3)
        assert out.grid == grid
        exact = burgers_single_mode(grid.axis, 0.5, problem.nu.real, k, 0.5)
        assert np.max(np.abs(out.values - exact)) < 1e-6


def test_solver_rejects_antidiffusive_marching():
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    a0 = ScalarField(grid, np.sin(grid.axis))
    problem = BurgersProblem(b=1.0, variant="forward")
    with pytest.raises(ValueError):
        solve_burgers(problem, a0, 0.1, 1e-3)


def test_complex_variant_with_potential_matches_wave_route():
    # with a potential the complex velocity equation picks up the forcing
    # -U_x; the wave-equation route provides an independent solution
    grid = GridSpec(dim=1, length=2 * np.pi, n=256)
    x = grid.axis
    b, T, dt = 1.0, 0.5, 2.5e-4

    def potential(xx):
        return 0.3 * np.cos(xx)

    f0 = ScalarField(grid, (1 + 0.4 * np.cos(x)).astype(np.complex128))
    wave = SchrodingerProblem(b=b, psi0=f0, potential=potential)
    f_T = evolve(wave, T, dt)
    problem = BurgersProblem(b=b, variant="complex", potential=potential)
    v_route = problem.to_velocity(f_T)[0]

    v0 = ScalarField(grid, problem.to_velocity(f0)[0])
    v_direct = solve_burgers(problem, v0, T, dt).values
    assert np.max(np.abs(v_direct - v_route)) < 1e-5


def test_heat_evolution_exact_mode_decay():
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    x = grid.axis
    F0 = ScalarField(grid, 1 + 0.5 * np.cos(3 * x))
    out = heat_evolve_spectral(F0, 0.25, 2.0)
    exact = 1 + 0.5 * np.exp(-0.25 * 9 * 2.0) * np.cos(3 * x)
    assert np.max(np.abs(out.values - exact)) < 1e-14


# ---------------------------------------------------------------------------
# the substitution map
# ---------------------------------------------------------------------------

def test_velocity_roundtrip_with_boost():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    problem = BurgersProblem(b=1.2, variant="reversed")
    a = ScalarField(grid, 0.7 + 0.3 * np.sin(x) - 0.1 * np.cos(2 * x))
    F, boost = problem.from_velocity(a)
    assert boost == pytest.approx(0.7)
    (back,) = problem.to_velocity(F)
    assert np.max(np.abs(back + boost - a.values)) < 1e-12


def test_node_guard_raises():
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    F = ScalarField(grid, np.cos(grid.axis))  # vanishes on the grid region
    with pytest.raises(ValueError, match="node"):
        BurgersProblem(b=1.0, variant="complex").to_velocity(F)


def test_gauge_freedom_of_substitution():
    # F and 3.7 * F produce the identical velocity
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    F = ScalarField(grid, np.exp(0.3 * np.sin(grid.axis)))
    problem = BurgersProblem(b=1.0, variant="reversed")
    v1 = problem.to_velocity(F)
    v2 = problem.to_velocity(ScalarField(grid, 3.7 * F.values))
    assert np.max(np.abs(v1 - v2)) < 1e-13


@pytest.mark.parametrize("variant", VARIANTS)
def test_velocity_of_a_1d_field_is_the_derivative_ratio_bit_for_bit(variant):
    # the n-D map on a 1-D grid is lam F_x / F, computed from derivative(F, 0)
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    F = ScalarField(grid, np.exp(0.3 * np.sin(grid.axis) + 0.2j * np.cos(2 * grid.axis)))
    problem = BurgersProblem(b=1.3, variant=variant)
    ratio, mask = log_derivative(
        F.values.reshape(1, -1), derivative(F, 0).values.reshape(1, -1), problem.lam
    )
    assert mask.all()
    v = problem.to_velocity(F)
    assert v.shape == (1, grid.n) and np.array_equal(v, ratio)


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------

def test_geodesic_residual_manufactured():
    # a(x, t) = e^{-t} cos x has residual
    # e^{-t} [ -cos x - e^{-t} sin x cos x + nu cos x ]
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    t0, dt = 0.3, 1e-4
    problem = BurgersProblem(b=1.0, variant="reversed")

    def a_at(t):
        return ScalarField(grid, np.exp(-t) * np.cos(x))

    res = geodesic_residual(problem, a_at(t0 - dt), a_at(t0), a_at(t0 + dt), dt)
    decay = np.exp(-t0)
    exact = decay * (-np.cos(x) - decay * np.sin(x) * np.cos(x) + 0.5 * np.cos(x))
    assert np.max(np.abs(res.values - exact)) < 1e-8


def test_chain_residual_on_reverse_heat_solution():
    grid = GridSpec(dim=1, length=2 * np.pi, n=256)
    x = grid.axis
    b, t0, dt = 1.0, 0.25, 5e-4

    def u_at(t):
        return ScalarField(grid, 1 + 0.2 * np.exp(0.5 * t) * np.cos(x))

    out = real_chain_residual(u_at(t0 - dt), u_at(t0), u_at(t0 + dt), b, dt)
    assert out["geodesic"].l_inf < 1e-5
    assert out["chain"].l_inf < 1e-5
    assert out["difference"].l_inf < 1e-8


def test_inversion_diagnostic_flags_degeneracy():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    assert inversion_diagnostic(ScalarField(grid, np.ones(128))) == 0.0
    # degenerate only near the two extrema of a
    assert 0.9 <= inversion_diagnostic(ScalarField(grid, 2 + np.sin(x))) < 1.0
