"""Monte Carlo engine: path statistics checked against exact diffusion laws."""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from oracles import MB, peak_bytes
from stochflow import sde
from stochflow.analytic import ou_mean_variance
from stochflow.experiments import _velocity_window
from stochflow.fields import GridSpec, ScalarField, time_steps
from stochflow.sde import (
    DiffusionModel,
    backward_drift_from_forward,
    complex_increment_blocks,
    discretized_action,
    estimate_diffusion,
    estimate_velocities,
    make_rng,
    osmotic_velocity_from_density,
    sample_complex_increments,
    simulate_forward,
)

OU = DiffusionModel(drift=lambda x: -x, b=1.0)


def test_rng_reproducible():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    assert np.array_equal(a, b)


def test_duration_off_the_step_lands_on_t_final():
    # 1.0 is no whole number of 0.3: the run takes round(1.0 / 0.3) = 3 steps of 1/3
    t_final, dt, half_window = 1.0, 0.3, 0
    ens = simulate_forward(OU, 0.0, t_final, dt, 10, 0)
    assert ens.n_steps == 3 and ens.paths.shape == (10, 4)
    assert ens.n_steps * ens.dt == pytest.approx(t_final, rel=1e-15)
    # the columns the experiment keeps are the ones the estimate reads
    first, stop = _velocity_window(t_final, dt, half_window)
    assert 0 <= first < stop <= ens.n_steps + 1
    windowed = simulate_forward(OU, 0.0, t_final, dt, 10, 0, window=(first, stop))
    assert np.array_equal(windowed.paths, ens.paths[:, first:stop])
    estimate_velocities(windowed, min_count=0)


def test_brownian_endpoint_moments():
    flat = DiffusionModel(drift=lambda x: 0.0 * x, b=1.4)
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
    model = DiffusionModel(drift=lambda x: -x, b=1.7)
    ens = simulate_forward(model, 0.0, 0.2, 1e-3, 5_000, 77)
    b2, err = estimate_diffusion(ens)
    assert abs(b2 - 1.7**2) < 5 * err


def test_velocity_estimates_stationary_ou():
    # at stationarity: current velocity v = 0, osmotic velocity u = -theta x
    x0, window = ("gaussian", 0.0, np.sqrt(0.5)), _velocity_window(1.0, 5e-3, 20)
    ens = simulate_forward(OU, x0, 1.0, 5e-3, 20_000, 99, window=window)
    est = estimate_velocities(ens, min_count=400)
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
    # one step: step 0 has no backward difference and step 1 no forward one
    ens = simulate_forward(OU, 0.0, 0.01, 1e-2, 100, 4)
    with pytest.raises(ValueError, match="2 stored steps from step 0 hold no interior step"):
        estimate_velocities(ens)


def test_estimators_reject_a_batched_ensemble():
    # a batch of three drifts has no single b^2 or velocity profile to pool
    rates = np.array([0.5, 1.0, 2.0])
    batch = DiffusionModel(drift=lambda x: -rates[:, None] * x, b=1.0)
    ens = simulate_forward(batch, 0.0, 0.1, 1e-2, 200, 8)
    assert ens.paths.shape == (3, 200, 11)
    for estimate in (estimate_diffusion, estimate_velocities):
        with pytest.raises(ValueError, match=r"\(3, 200, 11\)"):
            estimate(ens)


def test_action_constant_drift_value():
    # S = E sum[(dX)^2/dt - b^2] estimates integral a^2 dt = c^2 T
    model = DiffusionModel(drift=lambda x: np.full_like(x, 1.5), b=1.0)
    ens = simulate_forward(model, 0.0, 1.0, 1e-2, 20_000, 13)
    value, stderr = discretized_action(ens)
    assert abs(value - 1.5**2 * 1.0) < 5 * stderr


def test_action_zero_drift_centers_at_zero():
    flat = DiffusionModel(drift=lambda x: 0.0 * x, b=1.0)
    ens = simulate_forward(flat, 0.0, 1.0, 1e-2, 20_000, 17)
    value, stderr = discretized_action(ens)
    assert abs(value) < 5 * stderr


def test_complex_increment_moments_and_guards():
    stats = sample_complex_increments(1.0, 1.0, 0.01, 200_000, 21)
    assert stats.expected_dz2 == 0  # balanced case, exact
    assert stats.expected_dzdzbar == pytest.approx(0.01)
    tol = 3 / np.sqrt(200_000)
    assert abs(stats.mean_dz) < tol
    assert abs(stats.mean_dz2) < tol
    assert abs(stats.mean_dzdzbar - 0.01) < tol
    with pytest.raises(ValueError):
        sample_complex_increments(1.0, 0.0, 0.01, 100, 0)
    with pytest.raises(ValueError, match="dt must be positive"):
        sample_complex_increments(1.0, 1.0, 0.0, 100, 0)


@pytest.mark.parametrize("amplitude", [0.0, -1.0, np.inf, np.nan])
def test_noise_amplitudes_must_be_positive_and_finite(amplitude):
    with pytest.raises(ValueError, match="noise amplitude b must be positive and finite"):
        DiffusionModel(drift=np.zeros_like, b=amplitude)
    with pytest.raises(ValueError, match="noise amplitude b must be positive and finite"):
        sample_complex_increments(amplitude, 1.0, 0.01, 10, 0)
    with pytest.raises(ValueError, match="noise amplitude bhat must be positive and finite"):
        sample_complex_increments(1.0, amplitude, 0.01, 10, 0)


def test_complex_increment_unbalanced_second_moment():
    stats = sample_complex_increments(2.0, 1.0, 0.02, 200_000, 29)
    expected = 0.02 * (4 - 1) / (4 + 1)
    assert stats.expected_dz2 == pytest.approx(expected)
    assert abs(stats.mean_dz2 - expected) < 3 / np.sqrt(200_000)


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
    model = DiffusionModel(drift=lambda y: -c * np.sin(y), b=b)
    kappa = 2 * c / b**2
    rho = ScalarField(grid, np.exp(kappa * np.cos(x)) / (2 * np.pi))
    back = backward_drift_from_forward(model, rho)
    assert np.max(np.abs(back - c * np.sin(x))) < 1e-10


# -- streaming against full-path references -----------------------------------

def _reference_diffusion(paths, dt):
    samples = (np.diff(paths, axis=1) ** 2 / dt).ravel()
    return samples.mean(), samples.std(ddof=1) / np.sqrt(samples.size)


def _reference_action(paths, dt, b):
    per_path = (np.diff(paths, axis=1) ** 2 / dt - b**2).sum(axis=1)
    return per_path.mean(), per_path.std(ddof=1) / np.sqrt(per_path.size)


def _reference_velocities(paths, dt, b, ks):
    """Binned means at steps ``ks`` of the full path array, with fancy indexing and masks."""
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
    half_window = 4
    full = simulate_forward(OU, ("gaussian", 0.3, 0.5), t_final, dt, n_paths, seed)
    window = _velocity_window(t_final, dt, half_window)
    ens = simulate_forward(OU, ("gaussian", 0.3, 0.5), t_final, dt, n_paths, seed, window=window)
    assert ens.first == window[0]
    assert np.array_equal(ens.paths, full.paths[:, window[0] : window[1]])

    # the experiment's window: the steps 20 +- half_window about the middle of the 40,
    # and one neighbour on each side
    ks = np.arange(20 - half_window, 20 + half_window + 1)
    assert window == (ks[0] - 1, ks[-1] + 2)
    ref = _reference_velocities(full.paths, dt, OU.b, ks)
    est = estimate_velocities(ens, min_count=0)
    assert np.array_equal(est.counts, ref["counts"])
    for name in ("forward", "backward"):
        assert np.array_equal(getattr(est, name + "_drift"), ref[name], equal_nan=True)
        assert np.array_equal(getattr(est, name + "_stderr"), ref[name + "_stderr"], equal_nan=True)

    # the running sums add in another order than np.diff + sum
    want = _reference_action(full.paths, dt, OU.b)
    assert discretized_action(ens) == pytest.approx(want, rel=1e-12, abs=0)
    want = _reference_diffusion(full.paths, dt)
    assert estimate_diffusion(ens) == pytest.approx(want, rel=1e-12, abs=0)


def test_batched_sweep_equals_separate_runs_bit_for_bit():
    thetas = np.linspace(-1.0, 1.0, 5)
    family = DiffusionModel(drift=lambda x: thetas[:, None] * np.sin(x), b=1.0)
    args = (("gaussian", np.pi, 1.0), 0.3, 1e-2, 1_001, 8)
    full = simulate_forward(family, *args)
    windowed = simulate_forward(family, *args, window=(7, 12))
    values, errors = discretized_action(windowed)
    assert full.paths.shape == (5, 1_001, 31) and windowed.paths.shape == (5, 1_001, 5)
    for i, theta in enumerate(thetas):
        single = simulate_forward(
            DiffusionModel(drift=lambda x: theta * np.sin(x), b=1.0), *args
        )
        assert np.array_equal(full.paths[i], single.paths)
        assert np.array_equal(windowed.paths[i], single.paths[:, 7:12])
        assert np.array_equal(windowed.q_sum[i], single.q_sum)
        assert np.array_equal(windowed.q2_sum[i], single.q2_sum)
        assert (values[i], errors[i]) == discretized_action(single)


def test_window_must_cover_the_estimate():
    estimate_velocities(simulate_forward(OU, 0.0, 0.2, 1e-2, 200, 4, window=(5, 8)))
    for window in ((5, 5), (5, 6), (5, 7)):
        ens = simulate_forward(OU, 0.0, 0.2, 1e-2, 200, 4, window=window)
        with pytest.raises(ValueError, match="from step 5 hold no interior step"):
            estimate_velocities(ens)
    for window in ((-1, 3), (4, 3), (0, 22)):
        with pytest.raises(ValueError, match="window"):
            simulate_forward(OU, 0.0, 0.2, 1e-2, 10, 4, window=window)


def test_blocked_estimator_equals_reference_bit_for_bit(monkeypatch):
    # blocks of 7 paths: the 1_003 paths make 143 whole blocks and a ragged one of 2
    t_final, dt, n_paths, seed, half_window = 0.2, 1e-2, 1_003, 31, 3
    window = _velocity_window(t_final, dt, half_window)
    n_interior = window[1] - window[0] - 2
    monkeypatch.setattr(sde, "BLOCK_VALUES", 7 * n_interior + 3)
    full = simulate_forward(OU, ("gaussian", 0.0, 0.4), t_final, dt, n_paths, seed)
    ens = simulate_forward(OU, ("gaussian", 0.0, 0.4), t_final, dt, n_paths, seed, window=window)
    ks = np.arange(window[0] + 1, window[1] - 1)
    ref = _reference_velocities(full.paths, dt, OU.b, ks)
    est = estimate_velocities(ens, min_count=0)
    assert np.array_equal(est.counts, ref["counts"]) and est.counts.sum() > 0
    for name in ("forward", "backward"):
        assert np.array_equal(getattr(est, name + "_drift"), ref[name], equal_nan=True)
        assert np.array_equal(getattr(est, name + "_stderr"), ref[name + "_stderr"], equal_nan=True)


@pytest.mark.parametrize("shape", [(1_003,), (205, 7)])
def test_complex_increment_blocks_equal_one_draw_bit_for_bit(monkeypatch, shape):
    # blocks of 10 values: 100 whole blocks and a ragged one of 3 values,
    # or 68 blocks of 3 rows of 7 and a ragged one of 1 row
    monkeypatch.setattr(sde, "BLOCK_VALUES", 10 if len(shape) == 1 else 23)
    b, bhat, dt = 2.0, 0.5, 0.01
    rng = make_rng(5)
    xi, xi_hat = rng.standard_normal(shape), rng.standard_normal(shape)
    sigma = np.sqrt((b**2 + bhat**2) / 2)
    want = (b * xi + 1j * bhat * xi_hat) * np.sqrt(dt) / (np.sqrt(2) * sigma)
    got = np.full(shape, np.nan, dtype=complex)
    sizes = []
    for rows, dz in complex_increment_blocks(b, bhat, dt, shape, make_rng(5)):
        got[rows] = dz
        sizes.append(dz.size)
    assert len(sizes) > 2 and sizes[-1] < sizes[0]
    assert np.array_equal(got, want)


def _whole_dz(b, bhat, dt, n, seed):
    rng = make_rng(seed)
    xi, xi_hat = rng.standard_normal(n), rng.standard_normal(n)
    sigma = np.sqrt((b**2 + bhat**2) / 2)
    return (b * xi + 1j * bhat * xi_hat) * np.sqrt(dt) / (np.sqrt(2) * sigma)


@pytest.mark.parametrize("block_values", [2**16, 64, 1_000])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 8_191, 8_193, 65_537, 300_001])
def test_blocked_complex_means_equal_whole_array_means_bit_for_bit(monkeypatch, n, block_values):
    # the blocks are whole subtrees of the pairwise sum of dz.mean(), down to
    # numpy's leaves of 64 values; 1_000 is not a power of two
    monkeypatch.setattr(sde, "BLOCK_VALUES", block_values)
    dz = _whole_dz(2.0, 0.5, 0.01, n, 11)
    stats = sample_complex_increments(2.0, 0.5, 0.01, n, 11)
    assert stats.mean_dz == dz.mean()
    tmp = np.multiply(dz, dz)
    assert stats.mean_dz2 == tmp.mean()
    # in place: numpy takes another loop for the product when its output is an
    # operand, and the two differ in the last bit
    assert stats.mean_dzdzbar == np.multiply(np.conjugate(dz, out=tmp), dz, out=tmp).mean()


def _blocks(values, step):
    return [values[i : i + step] for i in range(0, values.shape[0], step)]


@pytest.mark.parametrize("qs", [[0.005, 0.995], [0.1, 0.5], [0.995, 0.5, 0.005, 0.1]])
def test_streamed_quantiles_equal_numpy_bit_for_bit(qs):
    rng = make_rng(3)
    for n in range(2, 401):
        values = rng.standard_normal(n)
        if n % 3 == 0:
            values = np.round(values, 1)  # ties
        for step in (7, 64):
            got = sde._pooled_quantiles(_blocks(values, step), n, qs)
            assert np.array_equal(got, np.quantile(values, qs)), (n, step)
    # the pooled interior columns of a path array, by blocks of 1_000 paths
    # and a ragged last block of 7
    pooled = rng.standard_normal((10_007, 23))[:, 1:-1]
    got = sde._pooled_quantiles(_blocks(pooled, 1_000), pooled.size, qs)
    assert np.array_equal(got, np.quantile(pooled, qs))
    pooled[9_000, 4] = np.nan
    got = sde._pooled_quantiles(_blocks(pooled, 1_000), pooled.size, qs)
    assert np.isnan(got).all() and np.isnan(np.quantile(pooled, qs)).all()


def _euler_maruyama_reference(drift, b, x0, t_final, dt, n_paths, seed):
    """The step x + drift(x) dt + b sqrt(dt) noise as one whole-array
    expression, with every column stored and the running sums of
    q = (dX)^2 / dt and q^2; ``x0`` is a constant or ('gaussian', mean,
    std), and a drift may broadcast the state to leading batch axes."""
    m, dt = time_steps(t_final, dt)
    rng = make_rng(seed)
    if isinstance(x0, tuple):
        x = x0[1] + x0[2] * rng.standard_normal(n_paths)
    else:
        x = np.full(n_paths, x0)
    columns, q_sum, q2_sum = [x], 0.0, 0.0
    for _ in range(m):
        x_next = x + drift(x) * dt + b * np.sqrt(dt) * rng.standard_normal(n_paths)
        q = (x_next - x) ** 2 / dt
        q_sum, q2_sum = q_sum + q, q2_sum + q * q
        x = x_next
        columns.append(x)
    return np.stack(np.broadcast_arrays(*columns), axis=-1), q_sum, q2_sum


@pytest.mark.parametrize(
    "drift", [lambda x: x, lambda x: x[...], lambda x: x[::-1]], ids=["argument", "view", "reversed"]
)
def test_in_place_step_is_safe_for_a_drift_that_returns_its_argument(drift):
    # the step adds into scratch, so a drift that returns x (or a view of
    # it) is not overwritten before it is read; the reversed drift reads
    # other paths, which the contract forbids, and matches the reference
    # only because the 101 paths fit in one block
    args = (0.5, 0.2, 1e-2, 101, 12)
    ens = simulate_forward(DiffusionModel(drift=drift, b=1.3), *args)
    paths, q_sum, q2_sum = _euler_maruyama_reference(drift, 1.3, *args)
    assert np.array_equal(ens.paths, paths)
    assert np.array_equal(ens.q_sum, q_sum)
    assert np.array_equal(ens.q2_sum, q2_sum)


THETAS = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "drift", [lambda x: -x, lambda x: THETAS[:, None] * np.sin(x)], ids=["unbatched", "batched"]
)
@pytest.mark.parametrize(
    "t_final, window", [(0.2, (0, 0)), (0.2, None), (0.2, (7, 12)), (0.01, None)],
    ids=["no-columns", "full", "interior", "one-step"],
)
def test_blocked_threaded_steps_equal_the_reference_bit_for_bit(
    monkeypatch, workers, drift, t_final, window
):
    # 140 // 4 values a block: 103 paths make 2 blocks of 35 and a ragged
    # one of 33, or 14 blocks of 7 paths by 5 drifts and a ragged one of 5
    monkeypatch.setattr(sde, "BLOCK_VALUES", 140)
    monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
    callers = set()

    def pausing(x):
        # the caller's thread pauses, so that helpers claim blocks too
        callers.add(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            time.sleep(1e-3)
        return drift(x)

    args = (("gaussian", 0.5, 1.0), t_final, 1e-2, 103, 41)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter often
    try:
        ens = simulate_forward(DiffusionModel(drift=pausing, b=1.3), *args, window=window)
    finally:
        sys.setswitchinterval(interval)
    paths, q_sum, q2_sum = _euler_maruyama_reference(drift, 1.3, *args)
    first, stop = window or (0, paths.shape[-1])
    assert ens.paths.shape == paths[..., first:stop].shape
    assert np.array_equal(ens.paths, paths[..., first:stop])
    assert np.array_equal(ens.q_sum, q_sum)
    assert np.array_equal(ens.q2_sum, q2_sum)
    assert (len(callers) > 1) == (workers > 1)
    assert threading.active_count() == before


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_an_error_in_a_step_is_raised_in_the_caller(monkeypatch, capfd, raiser):
    class Broken(Exception):
        pass

    # 8 blocks a step and one probe call before the first
    monkeypatch.setattr(sde, "BLOCK_VALUES", 4 * 25)
    monkeypatch.setattr(sde, "_cpu_count", lambda: 3)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    calls = itertools.count()

    def drift(x):
        step = (next(calls) - 1) // 8
        if (threading.current_thread() is caller) != (raiser == "caller"):
            time.sleep(1e-4)  # so that the raising side claims blocks
        elif step >= 3:
            raise Broken(f"step {step}")
        return -x

    raised = []

    def call():
        with pytest.raises(Broken):
            simulate_forward(DiffusionModel(drift=drift, b=1.0), 0.0, 0.5, 1e-2, 200, 3)
        raised.append(True)

    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and raised == [True]
    assert threading.active_count() == before
    assert hooked == []
    assert capfd.readouterr().err == ""


def test_helpers_step_under_the_callers_errstate(monkeypatch):
    # the CLI runs every experiment under one np.errstate, which must hold
    # on the helper threads too
    monkeypatch.setattr(sde, "BLOCK_VALUES", 4 * 25)
    monkeypatch.setattr(sde, "_cpu_count", lambda: 2)

    def drift(x):
        if threading.current_thread() is threading.main_thread():
            time.sleep(1e-4)  # so that the helper claims blocks
            return -x
        return np.sqrt(-1 - x * x)

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        simulate_forward(DiffusionModel(drift=drift, b=1.0), 0.0, 0.5, 1e-2, 200, 3)


def test_batched_steps_hold_no_whole_batch_temporary(monkeypatch):
    # the variational sweep: 21 drifts over 20,000 paths, only running sums
    # kept; the state and the two sums, the initial samples and two noise
    # buffers, and a few block-sized arrays per thread
    n_theta, n_paths, workers = 21, 20_000, 2
    monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
    thetas = np.linspace(-1.0, 1.0, n_theta)
    family = DiffusionModel(drift=lambda x: thetas[:, None] * np.sin(x), b=1.0)
    peak = peak_bytes(
        lambda: simulate_forward(family, ("gaussian", np.pi, 1.0), 0.05, 1e-2, n_paths, 5, window=(0, 0))
    )
    bound = 8 * (3 * n_theta * n_paths + 3 * n_paths + 2 * workers * sde.BLOCK_VALUES) + 64 * 1024
    assert peak <= bound, (peak, bound)


def test_complex_increments_hold_no_copy_of_dz():
    # the real draws xi whole, and four block-sized buffers: the imaginary
    # draws, b xi, dZ and one product of it
    n = 1_000_000
    peak = peak_bytes(lambda: sample_complex_increments(1.0, 0.5, 0.01, n, 3))
    bound = 8 * n + 4 * 16 * sde.BLOCK_VALUES
    assert peak <= bound, (peak, bound)


def test_velocity_estimate_holds_no_pooled_copy():
    # both passes go over the paths by blocks, and the quantiles keep only
    # the two 0.5% tails of the pooled positions: the peak is block-sized
    # arrays, whatever the path count
    window = _velocity_window(0.05, 1e-3, 10)
    for n_paths in (25_000, 100_000):
        ens = simulate_forward(OU, 0.0, 0.05, 1e-3, n_paths, 5, window=window)
        pooled = ens.paths[:, 1:-1].nbytes
        peak = peak_bytes(lambda: estimate_velocities(ens, min_count=500))
        bound = 5 * 8 * sde.BLOCK_VALUES
        assert peak <= bound < pooled, (n_paths, peak, bound, pooled)
