"""Dense Cl(3) multivector arithmetic and grid-based geometric calculus.

The algebra is generated by three orthonormal Euclidean vectors
``e1, e2, e3`` with ``e_i e_i = 1`` and ``e_i e_j = -e_j e_i``.  A single
element, :class:`Multivector`, is stored densely as 8 complex coefficients
over the blade basis

    ``{1, e1, e2, e3, e12, e13, e23, e123}``

(the reciprocal basis coincides with the basis, so index placement never
matters here).  Blades are encoded as bitmasks (bit ``j`` set means
``e_{j+1}`` is a factor); the geometric product of blades is then an XOR
of masks with a sign from counting transpositions.

The :class:`Multivector` products are reached only by the unit tests and by
the benchmark's tracer, which wraps them where ``stochflow.experiments``
imports them; no experiment calls them.  They stay until the benchmark no
longer traces them (ROADMAP item 18).

The calculus on grids needs vector fields only (gradients, velocities), so
a vector field is a plain complex array of its components, shaped
``(dim,) + grid.shape``; ``grad_wedge`` yields the three bivector
components of a derivative one at a time.  The evaluators hand each residual
component to the norms before the next one is made, so they hold a few
``grid.shape`` fields, never a stack of residuals.  Coefficients are complex throughout: the vectorized Cole-Hopf
transform stretches gradients by the imaginary constant ``-i b^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .fields import (
    GridSpec, Norms, ScalarField, _laplacian, _norms, _spectral_derivative, laplacian,
)

__all__ = [
    "BLADE_NAMES",
    "Multivector",
    "StretchSpec",
    "geometric_product",
    "scalar_product",
    "wedge",
    "contraction",
    "gradient",
    "grad_wedge",
    "stretched_gradient",
    "check_prop_identities",
    "linearization_cancellation",
]

BLADE_NAMES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
_INDEX_TO_MASK = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
_MASK_TO_INDEX = {m: i for i, m in enumerate(_INDEX_TO_MASK)}
GRADES = tuple(bin(m).count("1") for m in _INDEX_TO_MASK)


def _reorder_sign(a: int, b: int) -> int:
    """Sign from reordering the blade product ``e_A e_B`` into canonical form."""
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return 1 - 2 * (swaps & 1)


def _build_tables():
    target = np.zeros((8, 8), dtype=np.intp)
    sign = np.zeros((8, 8), dtype=np.float64)
    for i, mi in enumerate(_INDEX_TO_MASK):
        for j, mj in enumerate(_INDEX_TO_MASK):
            target[i, j] = _MASK_TO_INDEX[mi ^ mj]
            sign[i, j] = _reorder_sign(mi, mj)
    return target, sign


_TARGET, _SIGN = _build_tables()
# grade-selection masks for the derived products
_WEDGE_KEEP = np.zeros((8, 8), dtype=bool)
_CONTRACT_KEEP = np.zeros((8, 8), dtype=bool)
for _i in range(8):
    for _j in range(8):
        _gi, _gj = GRADES[_i], GRADES[_j]
        _gt = GRADES[_TARGET[_i, _j]]
        _WEDGE_KEEP[_i, _j] = _gt == _gi + _gj
        # Hestenes contraction: scalars contract to zero by convention
        _CONTRACT_KEEP[_i, _j] = _gi > 0 and _gj > 0 and _gt == abs(_gi - _gj)


def _product(a: np.ndarray, b: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Blade-table product of coefficient stacks shaped ``(8, ...)``."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    for i in range(8):
        for j in range(8):
            if keep is not None and not keep[i, j]:
                continue
            out[_TARGET[i, j]] += _SIGN[i, j] * a[i] * b[j]
    return out


@dataclass(frozen=True)
class Multivector:
    """A single Cl(3) element: 8 complex blade coefficients."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (8,):
            raise ValueError("a multivector has exactly 8 blade coefficients")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def scalar(cls, value: complex) -> "Multivector":
        c = np.zeros(8, dtype=np.complex128)
        c[0] = value
        return cls(c)

    @classmethod
    def basis(cls, name: str) -> "Multivector":
        c = np.zeros(8, dtype=np.complex128)
        c[BLADE_NAMES.index(name)] = 1.0
        return cls(c)

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.coeffs - other.coeffs)


def geometric_product(A: Multivector, B: Multivector) -> Multivector:
    """Associative bilinear Clifford product via the blade table."""
    return Multivector(_product(A.coeffs, B.coeffs))


def scalar_product(A: Multivector, B: Multivector) -> complex:
    """Symmetric scalar product ``A * B = <AB>_0``."""
    return complex(_product(A.coeffs, B.coeffs)[0])


def wedge(A: Multivector, B: Multivector) -> Multivector:
    """Grade-raising exterior product: keeps the grade ``r + s`` parts."""
    return Multivector(_product(A.coeffs, B.coeffs, _WEDGE_KEEP))


def contraction(A: Multivector, B: Multivector) -> Multivector:
    """Hestenes contraction: grade ``|r - s|`` parts; scalars contract to 0."""
    return Multivector(_product(A.coeffs, B.coeffs, _CONTRACT_KEEP))


# -- geometric calculus on grids -------------------------------------------

def gradient(f: ScalarField) -> np.ndarray:
    r"""Geometric gradient :math:`\nabla f = e^j \partial_{x_j} f` as its
    ``(dim,) + grid.shape`` component stack, filled one component at a time."""
    out = np.empty((f.grid.dim,) + f.grid.shape, dtype=np.complex128)
    for axis in range(f.grid.dim):
        out[axis] = _spectral_derivative(f.values, f.grid, axis, 1)
    return out


def grad_wedge(grid: GridSpec, w: np.ndarray) -> Iterator[np.ndarray]:
    r"""Wedge part :math:`\nabla \wedge w` of the derivative of a vector field.

    ``w`` is a ``(dim,) + grid.shape`` component stack.  Yields the ``e12, e13,
    e23`` coefficients one at a time, each a ``grid.shape`` array: the ``e_ij``
    one is :math:`\partial_{x_i} w_j - \partial_{x_j} w_i` (zero for an axis
    the grid lacks).  They vanish exactly when the field is irrotational.  Each
    blade is formed in its first derivative's buffer and dropped before the next
    one is made, so a consumer that drops it too holds one blade at a time.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if max(i, j) >= grid.dim:
            yield np.zeros(grid.shape, dtype=np.complex128)
            continue
        blade = _spectral_derivative(w[j], grid, i, 1)
        blade -= _spectral_derivative(w[i], grid, j, 1)
        yield blade
        del blade


@dataclass(frozen=True)
class StretchSpec:
    """Spatially constant stretch coefficients for the anisotropic gradient."""

    c: tuple[complex, complex, complex]

    def __post_init__(self):
        if len(self.c) != 3:
            raise ValueError("stretch spec carries exactly 3 coefficients")
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))

    @classmethod
    def isotropic(cls, lam: complex) -> "StretchSpec":
        return cls((lam, lam, lam))


def stretched_gradient(f: ScalarField, s: StretchSpec) -> np.ndarray:
    r"""Stretched gradient :math:`C(\nabla) f = c_k e^k \partial_{x_k} f` as its
    component stack.

    Only constant stretch vectors are supported; the commutation identities
    below are false otherwise.
    """
    out = gradient(f)
    for axis in range(f.grid.dim):
        out[axis] = s.c[axis] * out[axis]
    return out


def _vector_norms(components, grid: GridSpec) -> Norms:
    """The largest ``l_inf`` and the largest ``l2`` over the components of a
    vector field, read one at a time from any iterable: each is dropped before
    the next is asked for, so a generator of them holds one component at once.
    A NaN norm of any component is the result's."""
    per_component = []
    for comp in components:
        per_component.append(_norms(comp, grid))
        del comp
    return Norms(float(np.max([n.l_inf for n in per_component])),
                 float(np.max([n.l2 for n in per_component])))


def check_prop_identities(f: ScalarField, s: StretchSpec) -> dict[str, Norms]:
    r"""Discrete residuals of the stretched-gradient identities.

    Three identities are evaluated on the test field ``f``:

    ``time_commutation``
        :math:`[\partial_t, C(\nabla)] = 0` on the separable series
        ``f(x) cos(t)`` with a centred time difference.
    ``laplacian_commutation``
        :math:`[\nabla^2, C(\nabla)] f = 0`, componentwise.
    ``convective_gradient``
        :math:`(w \cdot \nabla) w = \tfrac12 \nabla (w \cdot w)` with
        ``w = C(\nabla) f``.

    Notes
    -----
    The convective identity requires ``w`` to be irrotational,
    :math:`\partial_{x_i} w_j = \partial_{x_j} w_i`.  With
    ``w_j = c_j \partial_j f`` this holds exactly when
    ``(c_i - c_j) \partial_i \partial_j f = 0`` for every pair -- e.g. for
    isotropic stretches (the Cole-Hopf case), or for additively separable
    ``f``.  For anisotropic stretches on fields with mixed second
    derivatives the residual is genuinely nonzero, and this function
    reports it honestly.
    """
    grid, c = f.grid, s.c
    # each identity drops its fields before the next starts, and its residual reaches the
    # norms one component at a time, so that the peak is a few fields, never a stack

    def stretched(values: np.ndarray, axis: int) -> np.ndarray:
        """Component ``axis`` of the stretched gradient of ``values``."""
        return c[axis] * _spectral_derivative(values, grid, axis, 1)

    # 1. commutation with the time derivative on f(x) * cos(t), at t = 0 and 2 h
    h = 0.1
    g_first, g_last = (np.cos(m * h) for m in (0, 2))
    rate = f.values * ((g_last - g_first) / (2 * h))
    first, last = f.values * g_first, f.values * g_last
    r_time = _vector_norms(
        (
            stretched(rate, axis) - (stretched(last, axis) - stretched(first, axis)) / (2 * h)
            for axis in range(grid.dim)
        ),
        grid,
    )
    del rate, first, last

    # 2. commutation with the Laplacian
    lap = laplacian(f).values
    w = stretched_gradient(f, s)
    r_lap = _vector_norms(
        (stretched(lap, axis) - _laplacian(w[axis], grid) for axis in range(grid.dim)), grid
    )
    del lap

    # 3. convective identity (w . grad) w = 1/2 grad(w . w)
    w_sq = np.zeros(grid.shape, dtype=np.complex128)
    for comp in w:
        w_sq += comp * comp

    def convective_residual(j: int) -> np.ndarray:
        acc = np.zeros(grid.shape, dtype=np.complex128)
        for k in range(grid.dim):
            acc += w[k] * _spectral_derivative(w[j], grid, k, 1)
        return acc - 0.5 * _spectral_derivative(w_sq, grid, j, 1)

    r_conv = _vector_norms((convective_residual(j) for j in range(grid.dim)), grid)

    return {
        "time_commutation": r_time,
        "laplacian_commutation": r_lap,
        "convective_gradient": r_conv,
    }


def linearization_cancellation(F: ScalarField, b: float, lam: complex) -> Norms:
    r"""Residual of the exact-linearization identity of the Cole-Hopf proof.

    Evaluates, with ``w = \nabla \log F`` and the isotropic stretch
    ``C(\nabla) = lam \nabla``,

    .. math::

        \nabla (C(\nabla) \log F)^2 + i b^2\, C(\nabla) (\nabla \log F)^2

    term by term.  For ``lam`` solving :math:`\lambda^2 + i b^2 \lambda = 0`
    (i.e. ``lam = -i b^2``, the ``complex`` root of :data:`stochflow.burgers.VARIANTS`) the
    two terms cancel identically and the discrete residual sits at spectral round-off.
    """
    grid = F.grid
    if np.abs(F.values).min() <= 0:
        raise ValueError("log F undefined: F has a zero node")
    log_f = np.log(F.values)

    stretched_sq = np.zeros(grid.shape, dtype=np.complex128)
    plain_sq = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        g = _spectral_derivative(log_f, grid, axis, 1)
        plain_sq += g * g
        stretched_sq += np.square(np.multiply(lam, g, out=g), out=g)
    del log_f, g

    c = 1j * b**2 * lam

    def residual(axis: int) -> np.ndarray:
        """Component ``axis``, formed in its first derivative's buffer."""
        d1 = _spectral_derivative(stretched_sq, grid, axis, 1)
        d2 = _spectral_derivative(plain_sq, grid, axis, 1)
        return np.add(d1, np.multiply(c, d2, out=d2), out=d1)

    return _vector_norms((residual(axis) for axis in range(grid.dim)), grid)
