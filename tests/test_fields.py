"""Grid and derivative operators checked against closed-form calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import peak_bytes
from stochflow.born import CHUNK_POINTS
from stochflow.fields import (
    GridMismatchError,
    GridSpec,
    ScalarField,
    _fft,
    _ifft,
    _laplacian,
    _norms,
    _spectral_derivative,
    antiderivative,
    derivative,
    field_from_function,
    integrate,
    laplacian,
    log_derivative,
    norms,
    time_steps,
)


def test_grid_axis_and_spacing():
    grid = GridSpec(dim=1, length=4.0, n=16)
    assert grid.dx == pytest.approx(0.25)
    x = grid.axis
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(4.0 - 0.25)  # half-open domain [0, L)
    assert np.allclose(np.diff(x), 0.25)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=2, length=1.0, n=16)
    with pytest.raises(ValueError):
        GridSpec(dim=1, length=1.0, n=4)
    with pytest.raises(ValueError):
        GridSpec(dim=1, length=-1.0, n=16)


def test_cell_volume_3d():
    grid = GridSpec(dim=3, length=2.0, n=8)
    assert grid.cell_volume == pytest.approx(0.25**3)
    assert grid.shape == (8, 8, 8)


def test_scalar_field_rejects_nonfinite():
    grid = GridSpec(dim=1, length=1.0, n=8)
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, bad)


def test_grid_mismatch_raises():
    g1 = GridSpec(dim=1, length=1.0, n=8)
    g2 = GridSpec(dim=1, length=1.0, n=16)
    f1 = ScalarField(g1, np.ones(8))
    f2 = ScalarField(g2, np.ones(16))
    with pytest.raises(GridMismatchError):
        _ = f1 + f2


def test_spectral_derivative_exact_on_trig():
    # oracle: d/dx [sin(3x) + 0.5 cos(5x)] = 3 cos(3x) - 2.5 sin(5x)
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    x = grid.axis
    f = ScalarField(grid, np.sin(3 * x) + 0.5 * np.cos(5 * x))
    df = derivative(f, 0)
    exact = 3 * np.cos(3 * x) - 2.5 * np.sin(5 * x)
    assert np.max(np.abs(df.values - exact)) < 1e-12


def test_second_derivative_exact_on_trig():
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    x = grid.axis
    f = ScalarField(grid, np.cos(4 * x))
    d2 = derivative(f, 0, order=2)
    assert np.max(np.abs(d2.values + 16 * np.cos(4 * x))) < 1e-11


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=12),
    amp=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_spectral_derivative_single_mode_property(k, amp):
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    x = grid.axis
    f = ScalarField(grid, amp * np.sin(k * x))
    df = derivative(f, 0)
    assert np.max(np.abs(df.values - amp * k * np.cos(k * x))) < 1e-10 * amp * k


def test_gradient_components_3d():
    grid = GridSpec(dim=3, length=2 * np.pi, n=16)
    f = field_from_function(grid, lambda x, y, z: np.sin(x) * np.cos(y) + z * 0)
    gx, gy, gz = (derivative(f, axis).values for axis in range(3))
    xs = grid.coords()
    assert np.max(np.abs(gx - np.cos(xs[0]) * np.cos(xs[1]))) < 1e-12
    assert np.max(np.abs(gy + np.sin(xs[0]) * np.sin(xs[1]))) < 1e-12
    assert np.max(np.abs(gz)) < 1e-13


@pytest.mark.parametrize("dim", [1, 3])
def test_coords_are_broadcastable_axes(dim):
    # the j-th coordinate holds the n axis values along dimension j only
    grid = GridSpec(dim=dim, length=2.0, n=16)
    xs = grid.coords()
    assert len(xs) == dim
    for j, x in enumerate(xs):
        assert x.shape == tuple(grid.n if i == j else 1 for i in range(dim))
        assert np.array_equal(x.ravel(), grid.axis)
    assert np.broadcast_shapes(*(x.shape for x in xs)) == grid.shape


def test_field_from_function_broadcasts_to_the_grid():
    grid = GridSpec(dim=3, length=2 * np.pi, n=8)
    f = field_from_function(grid, lambda x, y, z: np.cos(y))
    assert f.values.shape == grid.shape and f.values.flags.writeable
    assert np.array_equal(f.values, np.broadcast_to(np.cos(grid.coords()[1]), grid.shape))
    constant = field_from_function(grid, lambda x, y, z: 2.0)
    assert np.array_equal(constant.values, np.full(grid.shape, 2.0))


def test_spectral_derivative_holds_one_complex_buffer():
    # the spectrum is multiplied and inverse-transformed in place: a call holds
    # one field of n^3 complex values and the FFT's scratch, along every axis
    grid = GridSpec(dim=3, length=2 * np.pi, n=32)
    f = field_from_function(grid, lambda x, y, z: np.sin(x) * np.cos(y) + np.sin(2 * z))
    field_bytes = 16 * grid.n**3
    for axis in range(3):
        peak = peak_bytes(lambda: _spectral_derivative(f.values, grid, axis, 1))
        assert peak <= 1.5 * field_bytes, (axis, peak / field_bytes)


def test_k_squared_is_the_laplacian_symbol():
    grid = GridSpec(dim=3, length=2 * np.pi, n=16)
    f = field_from_function(grid, lambda x, y, z: np.sin(x) + np.cos(2 * y) + np.sin(3 * z))
    lap = np.fft.ifftn(-grid.k_squared() * np.fft.fftn(f.values))
    assert np.max(np.abs(lap - laplacian(f).values)) < 1e-11
    k = grid.wavenumbers()
    assert grid.k_squared()[1, 2, 3] == k[1] ** 2 + k[2] ** 2 + k[3] ** 2


def test_log_derivative_masks_nodes_per_row():
    values = np.array([[2.0, 1e-14, 4.0], [1.0, 1.0, 0.0]], dtype=np.complex128)
    dvalues = np.ones_like(values)
    ratio, mask = log_derivative(values, dvalues, 3.0)
    assert mask.tolist() == [[True, False, True], [True, True, False]]
    assert ratio.tolist() == [[1.5, 0.0, 0.75], [3.0, 3.0, 0.0]]


def test_log_derivative_equals_the_masked_formula_bit_for_bit():
    # rows with nodes below the floor, a row that is all nodes, and complex data
    rng = np.random.default_rng(7)
    values = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    values[:, ::5] *= 1e-14
    values[3] = 0.0
    dvalues = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    ratio, mask = log_derivative(values, dvalues, -0.7j)
    want = np.zeros(values.shape, dtype=np.complex128)
    want[mask] = -0.7j * dvalues[mask] / values[mask]
    assert mask[:3].sum() == 3 * 51 and not mask[3].any()
    assert (ratio == want).all()


def test_laplacian_matches_mode_eigenvalue():
    grid = GridSpec(dim=3, length=2 * np.pi, n=16)
    f = field_from_function(grid, lambda x, y, z: np.sin(x) + np.cos(2 * y) + np.sin(3 * z))
    lap = laplacian(f)
    xs = grid.coords()
    exact = -np.sin(xs[0]) - 4 * np.cos(2 * xs[1]) - 9 * np.sin(3 * xs[2])
    assert np.max(np.abs(lap.values - exact)) < 1e-11


def test_integrate_constant_and_mode():
    grid = GridSpec(dim=1, length=3.0, n=32)
    one = ScalarField(grid, np.ones(32))
    assert integrate(one) == pytest.approx(3.0)
    # any whole Fourier mode integrates to zero exactly on the periodic grid
    x = grid.axis
    mode = ScalarField(grid, np.sin(2 * np.pi * x / 3.0))
    assert abs(integrate(mode)) < 1e-14


def test_antiderivative_roundtrip():
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    x = grid.axis
    f = ScalarField(grid, np.cos(2 * x) - 0.3 * np.sin(5 * x))
    F = antiderivative(f)
    back = derivative(F, 0)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_antiderivative_rejects_nonzero_mean():
    grid = GridSpec(dim=1, length=2 * np.pi, n=32)
    f = ScalarField(grid, np.ones(32))
    with pytest.raises(ValueError):
        antiderivative(f)


def test_norms_and_residual():
    grid = GridSpec(dim=1, length=1.0, n=16)
    f = ScalarField(grid, np.full(16, 2.0))
    nm = norms(f)
    assert nm.l_inf == pytest.approx(2.0)
    assert nm.l2 == pytest.approx(2.0)  # rms-style norm of a constant
    g = ScalarField(grid, np.full(16, 2.5))
    assert norms(g - f).l_inf == pytest.approx(0.5)


@pytest.mark.parametrize("dim, n", [(1, 64), (3, 12)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_array_kernels_equal_the_scalar_field_api_bit_for_bit(dim, n, kind):
    # the package's evaluators call the kernels on their own arrays, real float64 ones
    # among them, where a ScalarField cast them to complex; the values must not move
    grid = GridSpec(dim=dim, length=2 * np.pi, n=n)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(grid.shape)
    if kind == "complex":
        values = values + 1j * rng.standard_normal(grid.shape)
    f = ScalarField(grid, values)
    for axis in range(dim):
        for order in (1, 2):
            kernel = _spectral_derivative(values, grid, axis, order)
            assert np.array_equal(kernel, derivative(f, axis, order).values)
    assert np.array_equal(_laplacian(values, grid), laplacian(f).values)
    assert _norms(values, grid) == norms(f)


def test_nyquist_mode_removed_in_odd_derivative():
    # the sawtooth-like Nyquist mode has no meaningful first derivative;
    # it must map to zero rather than to a spurious imaginary signal
    grid = GridSpec(dim=1, length=2 * np.pi, n=16)
    x = grid.axis
    f = ScalarField(grid, np.cos(8 * x))  # k = n/2
    df = derivative(f, 0)
    assert np.max(np.abs(df.values)) < 1e-13


def test_time_steps_land_on_the_final_time():
    assert time_steps(1.0, 0.3) == (3, 1.0 / 3)
    assert time_steps(0.01, 1.0) == (1, 0.01)  # at least one step
    for t_final, dt in [(1.0, 0.0), (0.0, 0.1), (-1.0, 0.1), (1.0, -0.1),
                        (float("nan"), 0.1), (1.0, float("inf")), (1.0, 5e-324)]:
        with pytest.raises(ValueError, match="positive and finite"):
            time_steps(t_final, dt)


@pytest.mark.parametrize("n", [128, 256, 512])  # the grids of born-harmonic, born-free and burgers
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_row_transforms_equal_numpy_fft_bit_for_bit(n, kind):
    # the Born and Burgers step loops call numpy's private pocketfft gufuncs; a numpy
    # release that changes them must fail here rather than move the stored summaries
    rng = np.random.default_rng(n)
    for shape in [(n,), (2, n), (CHUNK_POINTS // n + 1, n)]:
        a = rng.standard_normal(shape)
        if kind == "complex":
            a = a + 1j * rng.standard_normal(shape)
        rows = a.size // n
        for gufunc, fct, public in ((_fft, 1.0, np.fft.fft), (_ifft, 1 / n, np.fft.ifft)):
            want = public(a)
            # into rows in the middle of a larger buffer, which does not alias the input
            buf = np.full((3 * rows, n), np.nan, dtype=np.complex128)
            got = gufunc(a, fct, out=buf[rows : 2 * rows].reshape(shape))
            assert np.shares_memory(got, buf)
            assert (buf[rows : 2 * rows].reshape(shape) == want).all()
            assert np.isnan(buf[:rows]).all() and np.isnan(buf[2 * rows :]).all()
            # out= the input itself, as the Born extraction transforms its spectra in place
            inplace = a.astype(np.complex128)
            assert gufunc(inplace, fct, out=inplace) is inplace and (inplace == want).all()
