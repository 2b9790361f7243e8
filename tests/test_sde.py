"""Monte Carlo engine: path statistics checked against exact diffusion laws."""

import numpy as np
import pytest

from stochflow.analytic import ou_mean_variance
from stochflow.fields import GridSpec, ScalarField
from stochflow.sde import (
    DiffusionModel,
    backward_drift_from_forward,
    discretized_action,
    estimate_diffusion,
    estimate_velocities,
    make_rng,
    osmotic_velocity_from_density,
    sample_complex_increments,
    simulate_forward,
)

OU = DiffusionModel(drift=lambda x, t: -x, b=1.0)


def test_rng_reproducible():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    assert np.array_equal(a, b)


def test_time_mesh_must_divide():
    with pytest.raises(ValueError):
        simulate_forward(OU, 0.0, 1.0, 0.3, 10, 0)


def test_brownian_endpoint_moments():
    flat = DiffusionModel(drift=lambda x, t: 0.0 * x, b=1.4)
    ens = simulate_forward(flat, 0.0, 0.25, 1 / 256, 40_000, 11)
    xT = ens.paths[:, -1]
    var_exact = 1.4**2 * 0.25
    z_mean = abs(xT.mean()) / (np.sqrt(var_exact / xT.size))
    # sample variance of a normal has stderr var * sqrt(2/n)
    z_var = abs(xT.var() - var_exact) / (var_exact * np.sqrt(2 / xT.size))
    assert z_mean < 5
    assert z_var < 5


def test_ou_transient_moments():
    t_final, dt = 0.5, 1e-3
    ens = simulate_forward(OU, ("gaussian", 1.0, 0.2), t_final, dt, 30_000, 23)
    mean_exact, var_exact = ou_mean_variance(t_final, 1.0, 1.0, 1.0, 0.04)
    xT = ens.paths[:, -1]
    # Euler bias is O(dt); allow it on top of the Monte Carlo band
    assert abs(xT.mean() - mean_exact) < 5 * np.sqrt(var_exact / xT.size) + 2 * dt
    assert abs(xT.var() - var_exact) < 5 * var_exact * np.sqrt(2 / xT.size) + 2 * dt


def test_estimate_diffusion_recovers_b2():
    model = DiffusionModel(drift=lambda x, t: -x, b=1.7)
    ens = simulate_forward(model, 0.0, 0.2, 1e-3, 5_000, 77)
    b2, err = estimate_diffusion(ens)
    assert abs(b2 - 1.7**2) < 5 * err


def test_velocity_estimates_stationary_ou():
    # at stationarity: current velocity v = 0, osmotic velocity u = -theta x
    ens = simulate_forward(OU, ("gaussian", 0.0, np.sqrt(0.5)), 1.0, 5e-3, 20_000, 99)
    est = estimate_velocities(ens, half_window=20, min_count=400)
    ok = (est.counts >= 400) & est.valid()
    assert ok.sum() >= 5
    stderr = 0.5 * (est.forward_stderr[ok] + est.backward_stderr[ok])
    assert np.max(np.abs(est.osmotic[ok] - (-est.centers[ok])) / stderr) < 5
    assert np.max(np.abs(est.current[ok]) / stderr) < 5


def test_velocity_estimate_marks_thin_bins_invalid():
    ens = simulate_forward(OU, 0.0, 0.1, 1e-2, 50, 3)
    est = estimate_velocities(ens, min_count=10_000)
    assert not est.valid().any()
    assert np.isnan(est.forward_drift).all()


def test_velocity_estimate_time_window_bounds():
    ens = simulate_forward(OU, 0.0, 0.1, 1e-2, 100, 4)
    with pytest.raises(ValueError):
        estimate_velocities(ens, t_index=0)  # no backward difference there


def test_estimators_reject_a_batched_ensemble():
    # a batch of three drifts has no single b^2 or velocity profile to pool
    rates = np.array([0.5, 1.0, 2.0])
    batch = DiffusionModel(drift=lambda x, t: -rates[:, None] * x, b=1.0)
    ens = simulate_forward(batch, 0.0, 0.1, 1e-2, 200, 8)
    assert ens.paths.shape == (3, 200, 11)
    for estimate in (estimate_diffusion, estimate_velocities):
        with pytest.raises(ValueError, match=r"\(3, 200, 11\)"):
            estimate(ens)


def test_action_constant_drift_value():
    # S = E sum[(dX)^2/dt - b^2] estimates integral a^2 dt = c^2 T
    model = DiffusionModel(drift=lambda x, t: np.full_like(x, 1.5), b=1.0)
    ens = simulate_forward(model, 0.0, 1.0, 1e-2, 20_000, 13)
    act = discretized_action(ens)
    assert abs(act.value - 1.5**2 * 1.0) < 5 * act.stderr


def test_action_zero_drift_centers_at_zero():
    flat = DiffusionModel(drift=lambda x, t: 0.0 * x, b=1.0)
    ens = simulate_forward(flat, 0.0, 1.0, 1e-2, 20_000, 17)
    act = discretized_action(ens)
    assert abs(act.value) < 5 * act.stderr


def test_complex_increment_moments_and_guards():
    stats = sample_complex_increments(1.0, 1.0, 0.01, 200_000, 21)
    assert stats.expected_dz2 == 0  # balanced case, exact
    assert stats.expected_dzdzbar == pytest.approx(0.01)
    tol = 3 / np.sqrt(stats.n_samples)
    assert abs(stats.mean_dz) < tol
    assert abs(stats.mean_dz2) < tol
    assert abs(stats.mean_dzdzbar - 0.01) < tol
    with pytest.raises(ValueError):
        sample_complex_increments(1.0, 0.0, 0.01, 100, 0)
    with pytest.raises(ValueError, match="dt must be positive"):
        sample_complex_increments(1.0, 1.0, 0.0, 100, 0)


def test_complex_increment_unbalanced_second_moment():
    stats = sample_complex_increments(2.0, 1.0, 0.02, 200_000, 29)
    expected = 0.02 * (4 - 1) / (4 + 1)
    assert stats.expected_dz2 == pytest.approx(expected)
    assert abs(stats.mean_dz2 - expected) < 3 / np.sqrt(stats.n_samples)


def test_osmotic_velocity_from_density_von_mises():
    # rho ~ exp(kappa cos x): u = (b^2/2) (log rho)' = -(b^2 kappa / 2) sin x
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    kappa, b = 1.6, 1.1
    rho = ScalarField(grid, np.exp(kappa * np.cos(x)))
    u = osmotic_velocity_from_density(rho, b)
    exact = -(b**2 * kappa / 2) * np.sin(x)
    assert np.max(np.abs(u.values - exact)) < 1e-12


def test_backward_drift_from_forward_at_stationarity():
    # stationarity means v = 0, so the backward drift is exactly -a
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    c, b = 1.0, 1.0
    model = DiffusionModel(drift=lambda y, t: -c * np.sin(y), b=b)
    kappa = 2 * c / b**2
    rho = ScalarField(grid, np.exp(kappa * np.cos(x)) / (2 * np.pi))
    back = backward_drift_from_forward(model, rho)
    assert np.max(np.abs(back.drift(x, 0.0) - c * np.sin(x))) < 1e-10


# -- streaming against full-path references -----------------------------------

def _reference_diffusion(paths, dt):
    samples = (np.diff(paths, axis=1) ** 2 / dt).ravel()
    return samples.mean(), samples.std(ddof=1) / np.sqrt(samples.size)


def _reference_action(paths, dt, b):
    per_path = (np.diff(paths, axis=1) ** 2 / dt - b**2).sum(axis=1)
    return per_path.mean(), per_path.std(ddof=1) / np.sqrt(per_path.size)


def _reference_velocities(paths, dt, b, t_index, half_window):
    """Binned means on the full path array, with fancy indexing and masks."""
    ks = np.arange(t_index - half_window, t_index + half_window + 1)
    x_here = paths[:, ks].ravel()
    fwd = ((paths[:, ks + 1] - paths[:, ks]) / dt).ravel()
    bwd = ((paths[:, ks] - paths[:, ks - 1]) / dt).ravel()
    lo, hi = np.quantile(x_here, [0.005, 0.995])
    n_bins = max(4, int(np.ceil((hi - lo) / (2 * b * np.sqrt(dt)))))
    idx = np.digitize(x_here, np.linspace(lo, hi, n_bins + 1)) - 1
    inside = (idx >= 0) & (idx < n_bins)
    idx, fwd, bwd = idx[inside], fwd[inside], bwd[inside]
    counts = np.bincount(idx, minlength=n_bins)
    out = {"counts": counts}
    for name, diffs in (("forward", fwd), ("backward", bwd)):
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.bincount(idx, weights=diffs, minlength=n_bins) / counts
            var = np.maximum(np.bincount(idx, weights=diffs**2, minlength=n_bins) / counts - mean**2, 0.0)
        out[name] = mean
        out[name + "_stderr"] = np.sqrt(var / counts)
    return out


def test_streaming_estimators_match_full_path_references():
    t_final, dt, n_paths, seed = 0.4, 1e-2, 3_001, 19
    t_index, half_window = 20, 4
    full = simulate_forward(OU, ("gaussian", 0.3, 0.5), t_final, dt, n_paths, seed)
    window = (t_index - half_window - 1, t_index + half_window + 2)
    ens = simulate_forward(OU, ("gaussian", 0.3, 0.5), t_final, dt, n_paths, seed, window=window)
    assert ens.first == window[0]
    assert np.array_equal(ens.paths, full.paths[:, window[0] : window[1]])

    ref = _reference_velocities(full.paths, dt, OU.b, t_index, half_window)
    est = estimate_velocities(ens, t_index=t_index, half_window=half_window, min_count=0)
    assert np.array_equal(est.counts, ref["counts"])
    for name in ("forward", "backward"):
        assert np.array_equal(getattr(est, name + "_drift"), ref[name], equal_nan=True)
        assert np.array_equal(getattr(est, name + "_stderr"), ref[name + "_stderr"], equal_nan=True)

    # the running sums add in another order than np.diff + sum
    act = discretized_action(ens)
    want = _reference_action(full.paths, dt, OU.b)
    assert (act.value, act.stderr) == pytest.approx(want, rel=1e-12, abs=0)
    want = _reference_diffusion(full.paths, dt)
    assert estimate_diffusion(ens) == pytest.approx(want, rel=1e-12, abs=0)


def test_batched_sweep_equals_separate_runs_bit_for_bit():
    thetas = np.linspace(-1.0, 1.0, 5)
    family = DiffusionModel(drift=lambda x, t: thetas[:, None] * np.sin(x), b=1.0)
    args = (("gaussian", np.pi, 1.0), 0.3, 1e-2, 1_001, 8)
    full = simulate_forward(family, *args)
    windowed = simulate_forward(family, *args, window=(7, 12))
    sweep = discretized_action(windowed)
    assert full.paths.shape == (5, 1_001, 31) and windowed.paths.shape == (5, 1_001, 5)
    for i, theta in enumerate(thetas):
        single = simulate_forward(
            DiffusionModel(drift=lambda x, t: theta * np.sin(x), b=1.0), *args
        )
        assert np.array_equal(full.paths[i], single.paths)
        assert np.array_equal(windowed.paths[i], single.paths[:, 7:12])
        assert np.array_equal(windowed.q_sum[i], single.q_sum)
        assert np.array_equal(windowed.q2_sum[i], single.q2_sum)
        act = discretized_action(single)
        assert (sweep.value[i], sweep.stderr[i]) == (act.value, act.stderr)


def test_window_must_cover_the_estimate():
    ens = simulate_forward(OU, 0.0, 0.2, 1e-2, 200, 4, window=(5, 16))
    estimate_velocities(ens, t_index=10, half_window=4)  # needs columns 5..15
    for t_index, half_window in ((10, 5), (11, 4), (9, 4)):
        with pytest.raises(ValueError, match="stored"):
            estimate_velocities(ens, t_index=t_index, half_window=half_window)
    for window in ((-1, 3), (4, 3), (0, 22)):
        with pytest.raises(ValueError, match="window"):
            simulate_forward(OU, 0.0, 0.2, 1e-2, 10, 4, window=window)
