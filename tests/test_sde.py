"""Monte Carlo engine: path statistics checked against exact diffusion laws."""

import collections
import itertools
import json
import sys
import threading
import time

import numpy as np
import pytest

from oracles import (
    blocked_velocity_bin_sums,
    complex_increment_means,
    complex_increments,
    euler_maruyama_paths,
    peak_bytes,
    velocity_bin_sums,
)
from stochflow import sde
from stochflow.analytic import ou_mean_variance
from stochflow.experiments import EXPERIMENTS, _velocity_window, run_experiment
from stochflow.fields import GridSpec, ScalarField
from stochflow.output import jsonable
from stochflow.sde import (
    DiffusionModel,
    backward_drift_from_forward,
    complex_path_sums,
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
    assert ens.n_steps == 3 and ens.n_paths == 10 and ens.totals.shape == (4,)
    assert ens.n_steps * ens.dt == pytest.approx(t_final, rel=1e-15)
    # the experiment pools the middle step, which has both neighbours
    window = _velocity_window(t_final, dt, half_window)
    assert window == (1, 2)
    windowed = simulate_forward(OU, 0.0, t_final, dt, 10, 0, window=window)
    assert np.array_equal(windowed.totals, ens.totals)
    assert estimate_velocities(windowed, min_count=1).counts.sum() == 10


# the endpoint laws are read from the oracle's paths, which are the ones
# simulate_forward runs: the tests further down compare their sums bit for bit

def test_brownian_endpoint_moments():
    xT = euler_maruyama_paths(np.zeros_like, 1.4, 0.0, 0.25, 1 / 256, 40_000, 11, last_only=True)[0][:, -1]
    var_exact = 1.4**2 * 0.25
    z_mean = abs(xT.mean()) / (np.sqrt(var_exact / xT.size))
    # sample variance of a normal has stderr var * sqrt(2/n)
    z_var = abs(xT.var() - var_exact) / (var_exact * np.sqrt(2 / xT.size))
    assert z_mean < 5
    assert z_var < 5


def test_ou_transient_moments():
    t_final, dt = 0.5, 1e-3
    x0 = ("gaussian", 1.0, 0.2)
    xT = euler_maruyama_paths(OU.drift, OU.b, x0, t_final, dt, 30_000, 23, last_only=True)[0][:, -1]
    mean_exact, var_exact = ou_mean_variance(t_final, 1.0, 1.0, 1.0, 0.04)
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
    assert est.counts.size >= 5 and (est.counts >= 400).all()
    stderr = 0.5 * (est.forward_stderr + est.backward_stderr)
    assert np.max(np.abs(est.osmotic - (-est.centers)) / stderr) < 5
    assert np.max(np.abs(est.current) / stderr) < 5


def test_velocity_estimate_keeps_no_thin_bin():
    ens = simulate_forward(OU, 0.0, 0.1, 1e-2, 50, 3, window=(1, 10))
    est = estimate_velocities(ens, min_count=10_000)
    for name in ("centers", "counts", "forward_drift", "backward_drift", "current", "osmotic",
                 "forward_stderr", "backward_stderr"):
        assert getattr(est, name).shape == (0,), name


@pytest.mark.parametrize("min_count", [0, -3])
def test_velocity_estimate_needs_a_bin_count_of_at_least_one(min_count):
    # a bin of no position has no mean to estimate
    ens = simulate_forward(OU, 0.0, 0.1, 1e-2, 50, 3, window=(1, 10))
    with pytest.raises(ValueError, match=rf"min_count must be at least 1, got {min_count}"):
        estimate_velocities(ens, min_count=min_count)


def test_velocity_estimate_time_window_bounds():
    # one step: step 0 has no backward difference and step 1 no forward one
    with pytest.raises(ValueError, match=r"window \(1, 2\) is not within the steps 1 to 0"):
        simulate_forward(OU, 0.0, 0.01, 1e-2, 100, 4, window=(1, 2))
    with pytest.raises(ValueError, match="the ensemble pools no step"):
        estimate_velocities(simulate_forward(OU, 0.0, 0.01, 1e-2, 100, 4), min_count=40)


def test_estimators_reject_a_batched_ensemble():
    # a batch of three drifts has no single b^2 or velocity profile to pool
    rates = np.array([0.5, 1.0, 2.0])
    batch = DiffusionModel(drift=lambda x: -rates[:, None] * x, b=1.0)
    ens = simulate_forward(batch, 0.0, 0.1, 1e-2, 200, 8)
    assert ens.totals.shape == (4, 3) and ens.n_paths == 200
    for estimate in (estimate_diffusion, lambda e: estimate_velocities(e, min_count=40)):
        with pytest.raises(ValueError, match=r"200 paths in a batch of shape \(3,\)"):
            estimate(ens)
    with pytest.raises(ValueError, match=r"a batch of shape \(3,\) has no single velocity profile"):
        simulate_forward(batch, 0.0, 0.1, 1e-2, 200, 8, window=(1, 5))


@pytest.mark.parametrize("n_paths", [0, -5])
def test_simulate_rejects_path_counts_below_one(n_paths):
    # no path gives no estimate, and a negative count no arrays to allocate
    with pytest.raises(ValueError, match=rf"n_paths must be at least 1, got {n_paths}"):
        simulate_forward(OU, 0.0, 0.1, 1e-2, n_paths, 3)


def test_one_path_has_a_diffusion_estimate_and_no_action_stderr():
    # one path of ten steps gives ten samples of (dX)^2 / dt but one action
    ens = simulate_forward(OU, 0.0, 0.1, 1e-2, 1, 3)
    value, stderr = estimate_diffusion(ens)
    assert np.isfinite(value) and np.isfinite(stderr)
    with pytest.raises(ValueError, match="a standard error needs at least 2 samples, got 1"):
        discretized_action(ens)
    with pytest.raises(ValueError, match="a standard error needs at least 2 samples, got 1"):
        estimate_diffusion(simulate_forward(OU, 0.0, 1e-2, 1e-2, 1, 3))


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


def test_streaming_estimators_match_full_path_references(monkeypatch):
    # blocks of 1_000 paths: 3 whole blocks and a ragged one of 1
    monkeypatch.setattr(sde, "BLOCK_VALUES", 1_000)
    t_final, dt, n_paths, seed = 0.4, 1e-2, 3_001, 19
    half_window = 4
    x0 = ("gaussian", 0.3, 0.5)
    window = _velocity_window(t_final, dt, half_window)
    # the experiment's window: the steps 20 +- half_window about the middle of the 40
    assert window == (20 - half_window, 20 + half_window + 1)
    ens = simulate_forward(OU, x0, t_final, dt, n_paths, seed, window=window)
    paths, totals = euler_maruyama_paths(OU.drift, OU.b, x0, t_final, dt, n_paths, seed)
    assert np.array_equal(ens.totals, totals)

    # the lattice sums add by block and step, the reference over all pooled values at once
    first, bins = velocity_bin_sums(paths, dt, OU.b, window)
    assert ens.bin_first == first and ens.bins.shape == bins.shape
    assert np.array_equal(ens.bins[0], bins[0]) and bins[0].sum() == n_paths * 9
    scale = np.abs(bins).max(axis=1, keepdims=True)
    assert np.all(np.abs(ens.bins - bins) <= 1e-13 * scale)

    est = estimate_velocities(ens, min_count=1)
    full = bins[0] >= 1
    counts, sums_f, _, sums_b, _ = bins[:, full]
    width = 2 * OU.b * np.sqrt(dt)
    assert np.array_equal(est.centers, (first + 0.5 + np.flatnonzero(full)) * width)
    assert np.array_equal(est.counts, counts)
    assert est.forward_drift == pytest.approx(sums_f / counts, rel=1e-12)
    assert est.backward_drift == pytest.approx(sums_b / counts, rel=1e-12)

    # the block sums add in another order than np.diff + sum
    want = _reference_action(paths, dt, OU.b)
    assert discretized_action(ens) == pytest.approx(want, rel=1e-12, abs=0)
    want = _reference_diffusion(paths, dt)
    assert estimate_diffusion(ens) == pytest.approx(want, rel=1e-12, abs=0)


def test_blocked_estimator_equals_reference_bit_for_bit(monkeypatch):
    # blocks of 7 paths: the 1_003 paths make 143 whole blocks and a ragged one of 2
    monkeypatch.setattr(sde, "BLOCK_VALUES", 7)
    t_final, dt, n_paths, seed = 0.2, 1e-2, 1_003, 31
    x0 = ("gaussian", 0.0, 0.4)
    window = _velocity_window(t_final, dt, 3)
    ens = simulate_forward(OU, x0, t_final, dt, n_paths, seed, window=window)
    paths, _ = euler_maruyama_paths(OU.drift, OU.b, x0, t_final, dt, n_paths, seed)
    first, bins = blocked_velocity_bin_sums(paths, dt, OU.b, window, 7)
    assert ens.bin_first == first and np.array_equal(ens.bins, bins)

    est = estimate_velocities(ens, min_count=30)
    full = bins[0] >= 30
    assert 0 < full.sum() < full.size
    counts, sums_f, sq_f, sums_b, sq_b = bins[:, full]
    assert np.array_equal(est.counts, counts)
    width = 2 * OU.b * np.sqrt(dt)
    assert np.array_equal(est.centers, (first + 0.5 + np.flatnonzero(full)) * width)
    for name, sums, squares in (("forward", sums_f, sq_f), ("backward", sums_b, sq_b)):
        mean = sums / counts
        stderr = np.sqrt(np.maximum(squares / counts - mean**2, 0.0) / counts)
        assert np.array_equal(getattr(est, name + "_drift"), mean)
        assert np.array_equal(getattr(est, name + "_stderr"), stderr)


def test_batched_sweep_equals_separate_runs_bit_for_bit():
    # 1_001 paths in blocks of 16_384 // 5 = 3_276: one block, one stream
    thetas = np.linspace(-1.0, 1.0, 5)
    family = DiffusionModel(drift=lambda x: thetas[:, None] * np.sin(x), b=1.0)
    args = (("gaussian", np.pi, 1.0), 0.3, 1e-2, 1_001, 8)
    sweep = simulate_forward(family, *args)
    values, errors = discretized_action(sweep)
    per_block = sde.BLOCK_VALUES // thetas.size
    for i, theta in enumerate(thetas):
        # a separate run of one member, in the sweep's blocks
        _, totals = euler_maruyama_paths(
            lambda x: theta * np.sin(x), 1.0, *args, per_block=per_block
        )
        assert np.array_equal(sweep.totals[:, i], totals)
        single = sde.PathEnsemble(
            totals=totals, n_paths=sweep.n_paths, bins=sweep.bins, bin_first=0, dt=sweep.dt,
            n_steps=sweep.n_steps, b=1.0,
        )
        assert (values[i], errors[i]) == discretized_action(single)


def test_window_must_cover_the_estimate():
    # 20 steps: a pooled step k needs steps k - 1 and k + 1
    estimate_velocities(simulate_forward(OU, 0.0, 0.2, 1e-2, 200, 4, window=(1, 20)), min_count=40)
    estimate_velocities(simulate_forward(OU, 0.0, 0.2, 1e-2, 200, 4, window=(5, 6)), min_count=40)
    for window in ((0, 3), (5, 5), (5, 4), (19, 21)):
        with pytest.raises(ValueError, match=r"is not within the steps 1 to 19 of the 20-step run"):
            simulate_forward(OU, 0.0, 0.2, 1e-2, 10, 4, window=window)


@pytest.mark.parametrize("shape", [(1_003, 1), (205, 7)])
def test_complex_path_sums_equal_the_row_sums_of_one_draw_bit_for_bit(monkeypatch, shape):
    # blocks of 10 values: 100 whole blocks and a ragged one of 3 paths of
    # one step, whose sums are the increments themselves; or 68 blocks of 3
    # paths of 7 steps and a ragged one of 1 path
    monkeypatch.setattr(sde, "BLOCK_VALUES", 10 if shape[1] == 1 else 23)
    want = complex_increments(2.0, 0.5, 0.01, shape, 5).sum(axis=1)
    assert np.array_equal(complex_path_sums(2.0, 0.5, 0.01, *shape, 5), want)


@pytest.mark.parametrize("draw, message", [
    (lambda: complex_path_sums(1.0, 1.0, 0.01, 0, 5, 1), "n_paths must be at least 1, got 0"),
    (lambda: complex_path_sums(1.0, 1.0, 0.01, -1, 5, 1), "n_paths must be at least 1, got -1"),
    (lambda: complex_path_sums(1.0, 1.0, 0.01, 5, 0, 1), "values per path must be at least 1, got 0"),
    (lambda: complex_path_sums(1.0, 1.0, 0.01, 5, -1, 1), "values per path must be at least 1, got -1"),
    (lambda: sample_complex_increments(1.0, 1.0, 0.01, 0, 1), "n_paths must be at least 1, got 0"),
    (lambda: sample_complex_increments(1.0, 1.0, 0.01, -1, 1), "n_paths must be at least 1, got -1"),
])
def test_complex_draws_need_a_path_of_at_least_one_step(draw, message):
    # the block runner checks the counts of every draw, before any buffer is sized by them;
    # no path or no step leaves no block
    with pytest.raises(ValueError, match=message):
        draw()


@pytest.mark.parametrize("block_values", [2**16, 64, 1_000])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 8_191, 8_193, 65_537, 300_001])
def test_blocked_complex_means_equal_whole_array_means_bit_for_bit(monkeypatch, n, block_values):
    # one block, whole blocks and a ragged last one, down to a single value
    monkeypatch.setattr(sde, "BLOCK_VALUES", block_values)
    stats = sample_complex_increments(2.0, 0.5, 0.01, n, 11)
    want = complex_increment_means(2.0, 0.5, 0.01, n, 11)
    assert (stats.mean_dz, stats.mean_dz2, stats.mean_dzdzbar) == want


def test_complex_means_are_the_means_of_the_blocks(monkeypatch):
    # blocks of 1_000 values and a ragged one of 1
    monkeypatch.setattr(sde, "BLOCK_VALUES", 1_000)
    n = 20_001
    dz = complex_increments(2.0, 0.5, 0.01, (n, 1), 11).ravel()
    stats = sample_complex_increments(2.0, 0.5, 0.01, n, 11)
    assert stats.mean_dz == pytest.approx(dz.mean(), rel=1e-12, abs=1e-18)
    assert stats.mean_dz2 == pytest.approx((dz * dz).mean(), rel=1e-12)
    assert stats.mean_dzdzbar == pytest.approx((dz * np.conj(dz)).mean(), rel=1e-12)


@pytest.mark.parametrize(
    "drift", [lambda x: x, lambda x: x[...], lambda x: x[::-1]], ids=["argument", "view", "reversed"]
)
def test_in_place_step_is_safe_for_a_drift_that_returns_its_argument(drift):
    # the step adds into scratch, so a drift that returns x (or a view of
    # it) is not overwritten before it is read; the reversed drift reads
    # other paths, which the contract forbids, and matches the oracle
    # only because the 101 paths fit in one block
    args = (0.5, 0.2, 1e-2, 101, 12)
    ens = simulate_forward(DiffusionModel(drift=drift, b=1.3), *args)
    _, totals = euler_maruyama_paths(drift, 1.3, *args)
    assert np.array_equal(ens.totals, totals)


THETAS = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "drift", [lambda x: -x, lambda x: THETAS[:, None] * np.sin(x)], ids=["unbatched", "batched"]
)
@pytest.mark.parametrize(
    "t_final, window", [(0.2, None), (0.2, (1, 20)), (0.2, (7, 12)), (0.01, None)],
    ids=["no-columns", "full", "interior", "one-step"],
)
def test_blocked_threaded_steps_equal_the_reference_bit_for_bit(
    monkeypatch, workers, drift, t_final, window
):
    # 35 values a block: 103 paths make 2 blocks of 35 and a ragged one of
    # 33, or 14 blocks of 7 paths by 5 drifts and a ragged one of 5
    monkeypatch.setattr(sde, "BLOCK_VALUES", 35)
    if np.ndim(drift(np.zeros(1))) > 1:
        window = None  # a batch pools no step
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
    monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
    try:
        ens = simulate_forward(DiffusionModel(drift=pausing, b=1.3), *args, window=window)
    finally:
        sys.setswitchinterval(interval)
    paths, totals = euler_maruyama_paths(drift, 1.3, *args)
    assert np.array_equal(ens.totals, totals)
    if window is None:
        assert ens.bins.shape == (5, 0)
    else:
        first, bins = velocity_bin_sums(paths, 1e-2, 1.3, window)
        assert ens.bin_first == first and np.array_equal(ens.bins[0], bins[0])
    # the block sums merge in block order, whichever thread ran a block
    monkeypatch.setattr(sde, "_cpu_count", lambda: 1)
    serial = simulate_forward(DiffusionModel(drift=drift, b=1.3), *args, window=window)
    assert np.array_equal(ens.bins, serial.bins) and ens.bin_first == serial.bin_first
    assert (len(callers) > 1) == (workers > 1)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "name, params",
    [
        ("sde-estimators", {"n_paths_short": 20_000, "n_paths_long": 5_000}),
        ("variational", {"n_paths": 2_000}),
        ("complex-increments", {"n_samples": 20_000}),
    ],
)
def test_outputs_do_not_depend_on_the_cpu_count(monkeypatch, name, params):
    # blocks of 4_096 values: 5 of them in run (a) and in each complex draw,
    # so that 3 threads all claim some
    monkeypatch.setattr(sde, "BLOCK_VALUES", 4_096)
    outputs = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
        out = run_experiment(name, dict(EXPERIMENTS[name].defaults, **params), 1234)
        outputs.add(json.dumps(jsonable({"summary": out["summary"], "csvs": out["csvs"]})))
    assert len(outputs) == 1


@pytest.mark.parametrize("theta", [3_000.0, 1e6])
def test_unstable_steps_name_euler_maruyama(theta):
    # theta dt = 3 doubles the paths each step, past any bin at the pooled steps;
    # theta dt = 1e3 overflows them before the run ends
    model = DiffusionModel(drift=lambda x: -theta * x, b=1.0)
    message = "Euler-Maruyama steps of dt = 0.001 are unstable for this drift"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
        simulate_forward(model, ("gaussian", 0.0, 0.3), 0.2, 1e-3, 1_000, 1, window=(90, 111))
    if theta == 1e6:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            simulate_forward(model, ("gaussian", 0.0, 0.3), 0.2, 1e-3, 1_000, 1)


def _hooked_draw(monkeypatch, draw: str, hook) -> None:
    """Run a draw of 25-value blocks whose steps call ``hook(x)`` on the thread
    that claimed the block: as the drift of 8 blocks of paths, after one probe
    call of one value, or on each normal draw of 80 blocks of complex increments."""
    monkeypatch.setattr(sde, "BLOCK_VALUES", 25)
    if draw == "paths":
        simulate_forward(DiffusionModel(drift=hook, b=1.0), 0.0, 0.5, 1e-2, 200, 3)
        return

    class Hooked:
        def __init__(self, stream):
            self.rng = np.random.Generator(np.random.Philox(stream))

        def standard_normal(self, out):
            self.rng.standard_normal(out=out)
            out[...] = hook(out)

    monkeypatch.setattr(sde, "make_rng", Hooked)
    sample_complex_increments(1.0, 0.5, 0.01, 2_000, 3)


@pytest.mark.parametrize("draw", ["paths", "complex"])
@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_an_error_in_a_step_is_raised_in_the_caller(monkeypatch, capfd, raiser, draw):
    class Broken(Exception):
        pass

    monkeypatch.setattr(sde, "_cpu_count", lambda: 3)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    calls = itertools.count()
    failed = threading.Event()
    late = collections.Counter()  # thread -> steps it began after the error

    def step(x):
        if x.size == 1:
            return -x
        if (threading.current_thread() is caller) != (raiser == "caller"):
            if failed.is_set():
                late[threading.get_ident()] += 1
            time.sleep(1e-4)  # so that the raising side claims blocks
        elif next(calls) >= 3:
            failed.set()
            raise Broken("step 3")
        return -x

    raised = []

    def call():
        with pytest.raises(Broken):
            _hooked_draw(monkeypatch, draw, step)
        raised.append(True)

    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and raised == [True]
    assert threading.active_count() == before
    assert hooked == []
    assert capfd.readouterr().err == ""
    # the others finish the block they are in, of 50 steps of paths or 2 normal
    # draws, and claim none of the blocks left
    assert max(late.values(), default=0) <= {"paths": 50, "complex": 2}[draw], late


@pytest.mark.parametrize("draw", ["paths", "complex"])
def test_helpers_step_under_the_callers_errstate(monkeypatch, draw):
    # run_experiment runs every experiment under one np.errstate, which must
    # hold on the helper threads too
    monkeypatch.setattr(sde, "_cpu_count", lambda: 2)

    def step(x):
        if threading.current_thread() is threading.main_thread():
            time.sleep(1e-4)  # so that the helper claims blocks
            return -x
        return np.sqrt(-1 - x * x)

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _hooked_draw(monkeypatch, draw, step)


def test_batched_steps_hold_no_whole_batch_temporary(monkeypatch):
    # the variational sweep: 21 drifts over 20,000 paths; each block reduces
    # its own sums, so a thread holds five block-sized rows of states and
    # running sums and the drift's two temporaries, whatever the path count
    n_theta, n_paths, workers = 21, 20_000, 2
    monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
    thetas = np.linspace(-1.0, 1.0, n_theta)
    family = DiffusionModel(drift=lambda x: thetas[:, None] * np.sin(x), b=1.0)
    peak = peak_bytes(
        lambda: simulate_forward(family, ("gaussian", np.pi, 1.0), 0.05, 1e-2, n_paths, 5)
    )
    bound = 8 * workers * 8 * sde.BLOCK_VALUES + 256 * 1024
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("workers", [1, 3])
def test_complex_increments_hold_no_copy_of_dz(monkeypatch, workers):
    # each thread's scratch only, the real and imaginary normals and dZ, 32
    # bytes a value, and the three block sums of each block: no copy of the
    # draw, whatever the sample count
    monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
    n = 1_000_000
    peak = peak_bytes(lambda: sample_complex_increments(1.0, 0.5, 0.01, n, 3))
    n_blocks = -(-n // sde.BLOCK_VALUES)
    bound = workers * 32 * sde.BLOCK_VALUES + n_blocks * 3 * 16 + 256 * 1024
    assert peak <= bound, (peak, bound)


def test_velocity_estimate_holds_no_pooled_copy(monkeypatch):
    # no path window is stored, and no per-path sum outlives its block: the
    # peak of a run is block-sized scratch (five rows of states and running
    # sums, four lines, an index row and the drift's result) and small bin
    # sums, whatever the path count, the pooled window or the step count
    monkeypatch.setattr(sde, "_cpu_count", lambda: 1)
    n_paths, dt = 20_000, 1e-3
    peaks = []
    for t_final in (0.25, 0.5):
        for half_window in (10, 100):
            window = _velocity_window(t_final, dt, half_window)
            peaks.append(peak_bytes(
                lambda: simulate_forward(OU, 0.0, t_final, dt, n_paths, 5, window=window)
            ))
    assert max(peaks) <= 8 * 12 * sde.BLOCK_VALUES, peaks
    assert max(peaks) - min(peaks) <= 64 * 1024, peaks
