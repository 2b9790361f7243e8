"""Uniform periodic grids, complex scalar fields and discrete calculus.

Everything downstream (Fokker-Planck, Burgers, Schrodinger, the Born
pipeline) works on fields sampled on a uniform periodic grid ``[0, L)^dim``
with ``dim`` equal to 1 or 3.  Two derivative schemes are provided:

``spectral``
    FFT-based differentiation, exact (to round-off) for band-limited data.
    The Nyquist mode is zeroed for odd derivative orders so that the
    derivative of a real field stays real.
``central2``
    Second-order centred finite differences with periodic wrap-around.

Fields store complex values uniformly; a "real" field is simply one whose
imaginary part is negligible.  All operations are pure: they return new
objects and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

SCHEMES = ("central2", "spectral")

__all__ = [
    "GridSpec",
    "ScalarField",
    "Norms",
    "GridMismatchError",
    "derivative",
    "laplacian",
    "gradient_components",
    "integrate",
    "norms",
    "residual_norm",
    "antiderivative",
    "spectral_multiplier",
    "field_from_function",
    "require_same_grid",
]


class GridMismatchError(ValueError):
    """Raised when an operation combines fields living on different grids."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on ``[0, L)^dim`` plus time-step metadata.

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
    dt : float
        Default time step used by solvers constructed on this grid.
    t_final : float
        Default time horizon.
    """

    dim: int
    length: float
    n: int
    dt: float = 1e-3
    t_final: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 points per axis, got {self.n}")
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")

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
        """Meshgrid coordinate arrays (``indexing='ij'``), one per axis."""
        return tuple(np.meshgrid(*([self.axis] * self.dim), indexing="ij"))

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers ``k_j = 2*pi*m/L`` along one axis (FFT order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


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
    """Sample ``fn(x)`` (1-D) or ``fn(x, y, z)`` (3-D) on the grid."""
    return ScalarField(grid, np.asarray(fn(*grid.coords()), dtype=np.complex128))


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def spectral_multiplier(grid: GridSpec, order: int = 1) -> np.ndarray:
    """Fourier multiplier ``(i k)^order`` of the spectral derivative, in FFT order."""
    mult = (1j * grid.wavenumbers()) ** order
    if order % 2 == 1 and grid.n % 2 == 0:
        # the Nyquist mode has no well-defined odd derivative on a real grid
        mult[grid.n // 2] = 0.0
    return mult


def _spectral_derivative(values: np.ndarray, grid: GridSpec, axis: int, order: int) -> np.ndarray:
    shape = [1] * values.ndim
    shape[axis] = grid.n
    fk = np.fft.fft(values, axis=axis)
    return np.fft.ifft(fk * spectral_multiplier(grid, order).reshape(shape), axis=axis)


def _central_derivative(values: np.ndarray, grid: GridSpec, axis: int, order: int) -> np.ndarray:
    up = np.roll(values, -1, axis=axis)
    down = np.roll(values, 1, axis=axis)
    if order == 1:
        return (up - down) / (2.0 * grid.dx)
    if order == 2:
        return (up - 2.0 * values + down) / grid.dx**2
    raise ValueError("central2 supports derivative orders 1 and 2 only")


def derivative(f: ScalarField, axis: int = 0, scheme: str = "spectral", order: int = 1) -> ScalarField:
    """Partial derivative ``d^order f / dx_axis^order`` on the periodic grid."""
    _check_scheme(scheme)
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    if scheme == "spectral":
        out = _spectral_derivative(f.values, f.grid, axis, order)
    else:
        out = _central_derivative(f.values, f.grid, axis, order)
    return ScalarField(f.grid, out)


def gradient_components(f: ScalarField, scheme: str = "spectral") -> tuple[ScalarField, ...]:
    """All first partial derivatives of ``f``, one ScalarField per axis."""
    return tuple(derivative(f, axis, scheme) for axis in range(f.grid.dim))


def laplacian(f: ScalarField, scheme: str = "spectral") -> ScalarField:
    r"""Laplacian :math:`\sum_j \partial^2_{x_j} f`."""
    _check_scheme(scheme)
    total = np.zeros_like(f.values)
    for axis in range(f.grid.dim):
        if scheme == "spectral":
            total += _spectral_derivative(f.values, f.grid, axis, 2)
        else:
            total += _central_derivative(f.values, f.grid, axis, 2)
    return ScalarField(f.grid, total)


def integrate(f: ScalarField) -> complex:
    """Periodic trapezoid rule: the plain Riemann sum times the cell volume."""
    return complex(np.sum(f.values) * f.grid.cell_volume)


def norms(f: ScalarField) -> Norms:
    mag = np.abs(f.values)
    return Norms(
        l_inf=float(mag.max()),
        l2=float(np.sqrt(np.sum(mag**2) * f.grid.cell_volume)),
    )


def residual_norm(lhs: ScalarField, rhs: ScalarField) -> Norms:
    """Norms of ``lhs - rhs``; the fields must share a grid."""
    require_same_grid(lhs, rhs)
    return norms(lhs - rhs)


def antiderivative(f: ScalarField, axis: int = 0, mean_tol: float = 1e-9) -> ScalarField:
    """Periodic spectral antiderivative along ``axis`` (zero-mean input).

    A periodic antiderivative exists only when the line average of ``f``
    along the axis vanishes; otherwise the primitive would grow secularly.
    The returned primitive has zero mean along the axis.
    """
    k = f.grid.wavenumbers()
    fk = np.fft.fft(f.values, axis=axis)
    shape = [1] * f.values.ndim
    shape[axis] = f.grid.n
    mean_amp = np.max(np.abs(np.take(fk, 0, axis=axis))) / f.grid.n
    scale = np.max(np.abs(f.values)) or 1.0
    if mean_amp > mean_tol * max(scale, 1.0):
        raise ValueError(
            "field has a non-zero mean along the axis; no periodic antiderivative exists"
        )
    inv = np.zeros_like(k, dtype=np.complex128)
    inv[1:] = 1.0 / (1j * k[1:])
    out = np.fft.ifft(fk * inv.reshape(shape), axis=axis)
    return ScalarField(f.grid, out)
