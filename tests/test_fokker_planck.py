"""Density transport: conservation laws, fixed points, residual structure."""

import numpy as np
import pytest
from oracles import upwind_step

from stochflow import fokker_planck
from stochflow.analytic import FreePacket, gaussian_density, ou_mean_variance
from stochflow.fields import GridSpec, ScalarField, integrate
from stochflow.fokker_planck import (
    cfl_timestep,
    complex_fp_residual,
    continuity_residual,
    discrete_stationary_density,
    osmotic_constraint_residual,
    solve_backward,
    solve_forward,
)
from stochflow.sde import DiffusionModel


def _sine_model(c=1.0, b=1.0):
    return DiffusionModel(drift=lambda y: -c * np.sin(y), b=b)


def test_cfl_timestep_bounds():
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    model = _sine_model(c=2.0, b=1.5)
    dt = cfl_timestep(model, grid)
    dx = grid.dx
    assert dt <= 0.4 * dx / 2.0 + 1e-15
    assert dt <= 0.4 * dx**2 / 1.5**2 + 1e-15


def test_step_conserves_mass_and_positivity():
    rng = np.random.default_rng(5)
    n, dx = 128, 2 * np.pi / 128
    rho = np.abs(rng.standard_normal(n)) + 0.1
    a = np.sin(np.arange(n) * dx) * 1.3
    dt = 0.4 * min(dx / 1.3, dx**2)
    total0 = rho.sum()
    for _ in range(50):
        rho = upwind_step(rho, a, 1.0, dt, dx)
    assert abs(rho.sum() - total0) < 1e-10 * total0
    assert rho.min() >= 0.0


def test_discrete_stationary_is_one_step_fixed_point():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    model = _sine_model()
    rho = discrete_stationary_density(model, grid)
    dt = cfl_timestep(model, grid)
    out = solve_forward(model, rho, dt)
    gap = np.max(np.abs(out.values.real - rho.values.real))
    assert gap / np.max(rho.values.real) < 1e-13


def test_discrete_stationary_normalized():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    rho = discrete_stationary_density(_sine_model(), grid)
    assert float(np.real(integrate(rho))) == pytest.approx(1.0, abs=1e-12)
    assert np.min(rho.values.real) > 0


def test_forward_matches_linear_drift_analytic():
    # OU-type drift towards the domain centre; compare with the exact
    # Gaussian evolution away from the (exponentially small) tails
    grid = GridSpec(dim=1, length=12.0, n=512)
    xc = 6.0
    theta, b = 1.0, 1.0
    model = DiffusionModel(drift=lambda y: -theta * (y - xc), b=b)
    rho0 = ScalarField(grid, gaussian_density(grid.axis, xc - 1.0, 0.25))
    out = solve_forward(model, rho0, 1.0)
    mean_t, var_t = ou_mean_variance(1.0, theta, b, -1.0, 0.25)
    exact = gaussian_density(grid.axis, xc + mean_t, var_t)
    assert np.max(np.abs(out.values.real - exact)) < 1e-2


def test_backward_pure_diffusion_mirrors_forward():
    # with zero drift the density equation is symmetric under time
    # reflection, so both solvers must produce the identical smoothing
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    flat = DiffusionModel(drift=lambda y: 0.0 * y, b=1.0)
    rho0 = ScalarField(grid, 1 + 0.5 * np.cos(grid.axis))
    fwd = solve_forward(flat, rho0, 0.3)
    bwd = solve_backward(flat, rho0, 0.3)
    assert np.max(np.abs(fwd.values - bwd.values)) < 1e-13


def test_backward_fixed_point_at_stationarity():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    c, b = 1.0, 1.0
    rho = discrete_stationary_density(_sine_model(c, b), grid)
    reversed_model = DiffusionModel(drift=lambda y: c * np.sin(y), b=b)
    dt = cfl_timestep(reversed_model, grid)
    out = solve_backward(reversed_model, rho, 50 * dt)
    gap = np.max(np.abs(out.values.real - rho.values.real))
    assert gap / np.max(rho.values.real) < 1e-12


def test_step_count_is_the_fewest_steps_no_longer_than_dt(monkeypatch):
    # on this grid 100 * dt / dt rounds to 100.00000000000001, whose ceil is 101
    grid = GridSpec(dim=1, length=2 * np.pi, n=256)
    model = _sine_model()
    dt = cfl_timestep(model, grid)
    assert 100 * dt / dt > 100
    steps = []
    face_step = fokker_planck._face_step

    def counted_step(rho, a_face, from_left, b, step, dx, rho_right, flux_left):
        steps.append(step)
        return face_step(rho, a_face, from_left, b, step, dx, rho_right, flux_left)

    monkeypatch.setattr(fokker_planck, "_face_step", counted_step)
    rho = discrete_stationary_density(model, grid)
    for solve in (solve_forward, solve_backward):
        for t_final, n_steps in ((100 * dt, 100), (100.5 * dt, 101), (100 * dt * (1 + 1e-9), 101)):
            steps.clear()
            solve(model, rho, t_final)
            assert len(steps) == n_steps, (solve.__name__, t_final / dt)
            assert max(steps) <= dt * (1 + 1e-12)


def test_solvers_equal_a_loop_of_the_reference_step_bit_for_bit():
    # the solvers derive the face drift and the upwind side once per run and
    # shift through scratch rows; the reference step derives them every step
    # and shifts with np.roll, on a drift whose faces take both signs
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    model = _sine_model(c=1.3)
    rho0 = ScalarField(grid, 1 + 0.5 * np.cos(grid.axis - 0.3))
    n_steps = 60
    t_final = n_steps * cfl_timestep(model, grid)
    for solve, sign in ((solve_forward, 1.0), (solve_backward, -1.0)):
        a = sign * model.drift(grid.axis)
        a_face = 0.5 * (a + np.roll(a, -1))
        assert (a_face > 0).any() and (a_face < 0).any()
        rho = rho0.values.real.copy()
        for _ in range(n_steps):
            rho = upwind_step(rho, a, model.b, t_final / n_steps, grid.dx)
        assert (solve(model, rho0, t_final).values.real == rho).all(), solve.__name__


def test_solvers_take_a_real_one_dimensional_density():
    model = _sine_model()
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    for solve in (solve_forward, solve_backward):
        with pytest.raises(ValueError, match="real"):
            solve(model, ScalarField(grid, 1 + 0.1j * np.sin(grid.axis)), 0.1)
        with pytest.raises(ValueError, match="one-dimensional"):
            solve(model, ScalarField(GridSpec(dim=3, length=1.0, n=8), np.ones((8, 8, 8))), 0.1)


@pytest.fixture(scope="module")
def packet_triple():
    grid = GridSpec(dim=1, length=24.0, n=256)
    pk = FreePacket(b=1.0, x0=11.0, s=1.0, k0=2 * np.pi * 4 / 24.0)
    t, dt = 0.5, 1e-3

    def rho_at(tt):
        return ScalarField(grid, pk.density(grid.axis, tt))

    return grid, pk, rho_at(t - dt), rho_at(t), rho_at(t + dt), t, dt


def test_continuity_residual_on_packet(packet_triple):
    grid, pk, rm, rc, rp, t, dt = packet_triple
    v = ScalarField(grid, pk.current_velocity(grid.axis, t).astype(np.complex128))
    res = continuity_residual(rm, rc, rp, v, dt)
    assert res.l_inf < 1e-5


def test_osmotic_residual_on_packet(packet_triple):
    grid, pk, rm, rc, rp, t, dt = packet_triple
    u = ScalarField(grid, pk.osmotic_velocity(grid.axis, t).astype(np.complex128))
    res = osmotic_constraint_residual(rc, u, pk.b)
    assert res.l_inf < 1e-9


def test_complex_residual_variants_on_packet(packet_triple):
    grid, pk, rm, rc, rp, t, dt = packet_triple
    vc = ScalarField(grid, pk.complex_velocity(grid.axis, t))
    assert complex_fp_residual(rm, rc, rp, vc, pk.b, dt).l_inf < 1e-3


def test_complex_residual_flags_the_conjugate_velocity(packet_triple):
    # the forward residual alone tells V from V*: with the flipped root the
    # transport term loses the osmotic current that cancels the imaginary
    # diffusion, so the residual is the whole diffusion term (b^2 rho)_xx
    from stochflow.fields import derivative

    grid, pk, rm, rc, rp, t, dt = packet_triple
    vc = ScalarField(grid, pk.complex_velocity(grid.axis, t))
    floor = complex_fp_residual(rm, rc, rp, vc, pk.b, dt).l_inf
    flipped = complex_fp_residual(rm, rc, rp, ScalarField(grid, np.conj(vc.values)), pk.b, dt).l_inf
    diffusion = np.max(np.abs(derivative(ScalarField(grid, pk.b**2 * rc.values), 0, order=2).values))
    assert flipped > 1e5 * floor
    assert abs(flipped - diffusion) <= floor


def test_complex_residual_halves_recover_continuity(packet_triple):
    # averaging the forward and conjugate equations eliminates the
    # imaginary diffusion term and leaves continuity in v = Re V; the
    # half-difference isolates the osmotic constraint.  Verify the
    # algebraic relation between the residual evaluators themselves, and
    # that for a real density the conjugate residual is the complex
    # conjugate of the forward one, which is why only the forward is kept.
    grid, pk, rm, rc, rp, t, dt = packet_triple
    x = grid.axis
    vc = ScalarField(grid, pk.complex_velocity(x, t))
    v = ScalarField(grid, pk.current_velocity(x, t).astype(np.complex128))

    from stochflow.fields import derivative

    d_rho_dt = (rp.values - rm.values) / (2 * dt)

    def transport(vel):
        return derivative(ScalarField(grid, vel * rc.values), 0).values

    res_f = d_rho_dt + transport(vc.values) + 0.5j * derivative(
        ScalarField(grid, pk.b**2 * rc.values), 0, order=2
    ).values
    res_c = d_rho_dt + transport(np.conj(vc.values)) - 0.5j * derivative(
        ScalarField(grid, pk.b**2 * rc.values), 0, order=2
    ).values
    assert np.max(np.abs(res_c - np.conj(res_f))) < 1e-12
    half_sum = (res_f + res_c) / 2
    cont = d_rho_dt + transport(v.values)
    assert np.max(np.abs(half_sum - cont)) < 1e-12
