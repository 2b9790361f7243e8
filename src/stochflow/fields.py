"""Uniform periodic grids, complex scalar fields and discrete calculus.

Everything downstream (Fokker-Planck, Burgers, Schrodinger, the Born
pipeline) works on fields sampled on a uniform periodic grid ``[0, L)^dim``
with ``dim`` equal to 1 or 3.  Derivatives are spectral: FFT-based, exact (to
round-off) for band-limited data, with the Nyquist mode zeroed for odd orders
so that the derivative of a real field stays real.  The package's calculus is
array kernels on a values array and its grid (``_spectral_derivative``,
``_laplacian``, ``_norms``), which its evaluators call on the arrays they
compute; :func:`derivative`, :func:`laplacian` and :func:`norms` are the
:class:`ScalarField` API over them, bit for bit the same values.  A spectral
derivative holds one complex buffer, transformed in place.  The grid supplies
``|k|^2`` for the exact Fourier propagators, :func:`log_derivative` is the one
Cole-Hopf ratio ``lam (grad F) / F`` with node masking, and :func:`time_steps`
is the step rule of the wave, Burgers and SDE integrators.
The Born and Burgers step loops call numpy's pocketfft gufuncs ``_fft``/``_ifft``
(numpy >= 2.0), which ``np.fft.fft``/``ifft`` end in: bit for bit equal, at 2.5 us
for 128 points (positional, 0-d scale) against 7 us on a 2-core host.

Fields store complex values uniformly; a "real" field is simply one whose
imaginary part is negligible.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft  # (a, fct, out), last axis

#: relative floor on ``|F|`` below which :func:`log_derivative` treats a point as a node
NODE_FLOOR_REL = 1e-12

__all__ = [
    "GridSpec",
    "ScalarField",
    "Norms",
    "GridMismatchError",
    "derivative",
    "laplacian",
    "integrate",
    "norms",
    "antiderivative",
    "log_derivative",
    "spectral_multiplier",
    "field_from_function",
    "require_same_grid",
    "time_steps",
]


class GridMismatchError(ValueError):
    """Raised when an operation combines fields living on different grids."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on ``[0, L)^dim``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 3.
    length : float
        Domain length ``L`` per axis; the topology is periodic, so the
        point at ``L`` is identified with the point at ``0``.
    n : int
        Number of points per axis (``n >= 8``; powers of two keep the
        FFTs fast).
    """

    dim: int
    length: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 points per axis, got {self.n}")
        if self.length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis: ``0, dx, ..., L - dx``."""
        return np.arange(self.n) * self.dx

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate axes: the ``j``-th holds :attr:`axis` along dimension ``j``."""
        return tuple(np.meshgrid(*([self.axis] * self.dim), indexing="ij", sparse=True))

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers ``k_j = 2*pi*m/L`` along one axis (FFT order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def k_squared(self) -> np.ndarray:
        """``|k|^2`` on the grid shape (FFT order): the Fourier symbol of ``-lap``."""
        axes = np.meshgrid(*([self.wavenumbers()] * self.dim), indexing="ij", sparse=True)
        return sum(k_j**2 for k_j in axes)


@dataclass(frozen=True)
class ScalarField:
    """Complex samples of a scalar function on a :class:`GridSpec`.

    Real-valued quantities (densities, real velocities) are carried with a
    zero imaginary part; use :meth:`real_values` to extract them with a
    consistency check.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("field contains non-finite entries")
        object.__setattr__(self, "values", vals)

    # -- lightweight arithmetic -------------------------------------------
    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, ScalarField):
            require_same_grid(self, other)
            return other.values
        return np.asarray(other)

    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def conj(self) -> "ScalarField":
        return ScalarField(self.grid, np.conj(self.values))

    def abs2(self) -> "ScalarField":
        """Pointwise squared modulus ``|f|^2`` (real field)."""
        return ScalarField(self.grid, (self.values * np.conj(self.values)).real)

    def is_real(self, tol: float = 1e-12) -> bool:
        scale = np.max(np.abs(self.values)) or 1.0
        return float(np.max(np.abs(self.values.imag))) <= tol * scale

    def real_values(self, tol: float = 1e-10) -> np.ndarray:
        """Return the real part, checking the imaginary part is negligible."""
        if not self.is_real(tol):
            raise ValueError("field has a non-negligible imaginary part")
        return self.values.real.copy()


@dataclass(frozen=True)
class Norms:
    """Grid-weighted field norms: ``l2**2 = sum |f_i|^2 * cell_volume``."""

    l_inf: float
    l2: float


def require_same_grid(a: ScalarField, b: ScalarField) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


def field_from_function(grid: GridSpec, fn: Callable[..., np.ndarray]) -> ScalarField:
    """Sample ``fn(x)`` (1-D) or ``fn(x, y, z)`` (3-D) on the grid, broadcast to its shape."""
    vals = np.broadcast_to(fn(*grid.coords()), grid.shape)
    return ScalarField(grid, vals.astype(np.complex128, order="C"))


def spectral_multiplier(grid: GridSpec, order: int = 1) -> np.ndarray:
    """Fourier multiplier ``(i k)^order`` of the spectral derivative, in FFT order."""
    mult = (1j * grid.wavenumbers()) ** order
    if order % 2 == 1 and grid.n % 2 == 0:
        # the Nyquist mode has no well-defined odd derivative on a real grid
        mult[grid.n // 2] = 0.0
    return mult


def _spectral_derivative(values: np.ndarray, grid: GridSpec, axis: int, order: int) -> np.ndarray:
    """``d^order values / dx_axis^order`` in one complex buffer, transformed in place."""
    shape = [1] * values.ndim
    shape[axis] = grid.n
    fk = np.fft.fft(values, axis=axis)
    fk *= spectral_multiplier(grid, order).reshape(shape)
    return np.fft.ifft(fk, axis=axis, out=fk)


def derivative(f: ScalarField, axis: int = 0, order: int = 1) -> ScalarField:
    """Partial derivative ``d^order f / dx_axis^order`` on the periodic grid."""
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    return ScalarField(f.grid, _spectral_derivative(f.values, f.grid, axis, order))


def _laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    return sum(_spectral_derivative(values, grid, axis, 2) for axis in range(grid.dim))


def laplacian(f: ScalarField) -> ScalarField:
    r"""Laplacian :math:`\sum_j \partial^2_{x_j} f`."""
    return ScalarField(f.grid, _laplacian(f.values, f.grid))


def integrate(f: ScalarField) -> complex:
    """Periodic trapezoid rule: the plain Riemann sum times the cell volume."""
    return complex(np.sum(f.values) * f.grid.cell_volume)


def _norms(values: np.ndarray, grid: GridSpec) -> Norms:
    mag = np.abs(values)
    l_inf = float(mag.max())
    np.square(mag, out=mag)  # in the one buffer of magnitudes, once its max is read
    return Norms(l_inf=l_inf, l2=float(np.sqrt(np.sum(mag) * grid.cell_volume)))


def norms(f: ScalarField) -> Norms:
    return _norms(f.values, f.grid)


def antiderivative(f: ScalarField, axis: int = 0) -> ScalarField:
    """Periodic spectral antiderivative along ``axis`` (zero-mean input).

    A periodic antiderivative exists only when the line average of ``f``
    along the axis vanishes (to ``1e-9`` of ``max(1, max|f|)``); otherwise
    the primitive would grow secularly.  The returned primitive has zero
    mean along the axis.
    """
    k = f.grid.wavenumbers()
    fk = np.fft.fft(f.values, axis=axis)
    shape = [1] * f.values.ndim
    shape[axis] = f.grid.n
    mean_amp = np.max(np.abs(np.take(fk, 0, axis=axis))) / f.grid.n
    scale = np.max(np.abs(f.values)) or 1.0
    if mean_amp > 1e-9 * max(scale, 1.0):
        raise ValueError(
            "field has a non-zero mean along the axis; no periodic antiderivative exists"
        )
    inv = np.zeros_like(k, dtype=np.complex128)
    inv[1:] = 1.0 / (1j * k[1:])
    out = np.fft.ifft(fk * inv.reshape(shape), axis=axis)
    return ScalarField(f.grid, out)


def log_derivative(values: np.ndarray, dvalues: np.ndarray, coef: complex,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``coef * dvalues / values`` for ``(rows, points)`` arrays, zero at the nodes, and
    the mask of non-nodes: points where ``|values|`` clears :data:`NODE_FLOOR_REL` times
    its row maximum.  With ``values = F`` and ``dvalues = grad F`` this is the Cole-Hopf
    ratio.  ``values`` may be one row that serves every row of ``dvalues``; the mask then
    is that one row.  The ratio goes to a new array, or to ``out``, which may be
    ``dvalues`` itself."""
    mag = np.abs(values)
    mask = mag > NODE_FLOOR_REL * mag.max(axis=1, keepdims=True)
    if out is None:
        out = np.zeros(dvalues.shape, dtype=np.complex128)
    else:
        np.copyto(out, 0, where=~mask)
    np.multiply(coef, dvalues, out=out, where=mask)
    np.divide(out, values, out=out, where=mask)
    return out, mask


def time_steps(t_final: float, dt: float) -> tuple[int, float]:
    """The step rule of the wave, Burgers and SDE integrators: ``n = max(1, round(t_final/dt))``
    steps of ``t_final / n``, so that the last lands on ``t_final``.  ``t_final``,
    ``dt`` and their ratio must be positive and finite."""
    if not (0 < t_final < np.inf and 0 < dt < np.inf and t_final / dt < np.inf):
        raise ValueError(f"t_final and dt must be positive and finite, got {t_final} and {dt}")
    n = max(1, int(round(t_final / dt)))
    return n, t_final / n
