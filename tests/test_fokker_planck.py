"""Density transport: conservation laws, fixed points, residual structure."""

import numpy as np
import pytest

from stochflow.analytic import FreePacket, gaussian_density, ou_mean_variance
from stochflow.fields import GridSpec, ScalarField, integrate
from stochflow.fokker_planck import (
    DensityState,
    cfl_timestep,
    complex_fp_residual,
    continuity_residual,
    discrete_stationary_density,
    osmotic_constraint_residual,
    solve_backward,
    solve_forward,
    step_density,
)
from stochflow.sde import DiffusionModel


def _sine_model(c=1.0, b=1.0):
    return DiffusionModel(drift=lambda y, t: -c * np.sin(y), b=b)


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
        rho = step_density(rho, a, 1.0, dt, dx)
    assert abs(rho.sum() - total0) < 1e-10 * total0
    assert rho.min() >= 0.0


def test_discrete_stationary_is_one_step_fixed_point():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    model = _sine_model()
    rho = discrete_stationary_density(model, grid)
    dt = cfl_timestep(model, grid)
    out = solve_forward(model, DensityState(field=rho, t=0.0), dt, dt=dt)
    gap = np.max(np.abs(out.field.values.real - rho.values.real))
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
    model = DiffusionModel(drift=lambda y, t: -theta * (y - xc), b=b)
    rho0 = ScalarField(grid, gaussian_density(grid.axis, xc - 1.0, 0.25))
    out = solve_forward(model, DensityState(field=rho0, t=0.0), 1.0)
    mean_t, var_t = ou_mean_variance(1.0, theta, b, -1.0, 0.25)
    exact = gaussian_density(grid.axis, xc + mean_t, var_t)
    assert np.max(np.abs(out.field.values.real - exact)) < 1e-2
    assert out.t == pytest.approx(1.0)


def test_backward_pure_diffusion_mirrors_forward():
    # with zero drift the density equation is symmetric under time
    # reflection, so both solvers must produce the identical smoothing
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    flat = DiffusionModel(drift=lambda y, t: 0.0 * y, b=1.0)
    rho0 = ScalarField(grid, 1 + 0.5 * np.cos(grid.axis))
    fwd = solve_forward(flat, DensityState(field=rho0, t=0.0), 0.3, dt=1e-3)
    bwd = solve_backward(flat, DensityState(field=rho0, t=0.3), 0.3, dt=1e-3)
    assert np.max(np.abs(fwd.field.values - bwd.field.values)) < 1e-13
    assert bwd.t == pytest.approx(0.0)


def test_backward_fixed_point_at_stationarity():
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    c, b = 1.0, 1.0
    rho = discrete_stationary_density(_sine_model(c, b), grid)
    reversed_model = DiffusionModel(drift=lambda y, t: c * np.sin(y), b=b)
    dt = cfl_timestep(reversed_model, grid)
    out = solve_backward(reversed_model, DensityState(field=rho, t=1.0), 50 * dt, dt=dt)
    gap = np.max(np.abs(out.field.values.real - rho.values.real))
    assert gap / np.max(rho.values.real) < 1e-12


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
    for variant in ("forward", "conjugate"):
        res = complex_fp_residual(rm, rc, rp, vc, pk.b, dt, variant)
        assert res.l_inf < 1e-3, variant
    with pytest.raises(ValueError):
        complex_fp_residual(rm, rc, rp, vc, pk.b, dt, "sideways")


def test_complex_residual_halves_recover_continuity(packet_triple):
    # averaging the forward and conjugate equations eliminates the
    # imaginary diffusion term and leaves continuity in v = Re V; the
    # half-difference isolates the osmotic constraint.  Verify the
    # algebraic relation between the residual evaluators themselves.
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
    half_sum = (res_f + res_c) / 2
    cont = d_rho_dt + transport(v.values)
    assert np.max(np.abs(half_sum - cont)) < 1e-12


def test_density_state_mass(packet_triple):
    grid, pk, rm, rc, rp, t, dt = packet_triple
    st = DensityState(field=rc, t=t)
    assert st.mass == pytest.approx(1.0, abs=1e-10)
