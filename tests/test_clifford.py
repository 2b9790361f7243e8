"""Multivector algebra: axioms exact on integers, calculus identities on fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import peak_bytes
from stochflow.clifford import (
    BLADE_NAMES,
    Multivector,
    StretchSpec,
    check_prop_identities,
    contraction,
    geometric_product,
    grad_wedge,
    gradient,
    linearization_cancellation,
    scalar_product,
    stretched_gradient,
    wedge,
)
from stochflow.experiments import EXPERIMENTS, run_experiment
from stochflow.fields import GridSpec, ScalarField, field_from_function

int_coeffs = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=8, max_size=8
)


def mv(coeffs) -> Multivector:
    return Multivector(np.asarray(coeffs, dtype=np.complex128))


def vec(components) -> Multivector:
    """The vector ``c_1 e1 + c_2 e2 + c_3 e3``."""
    return mv([0, *components, 0, 0, 0, 0])


def is_zero(m: Multivector) -> bool:
    return bool(np.all(m.coeffs == 0))


# ---------------------------------------------------------------------------
# blade relations (all exact)
# ---------------------------------------------------------------------------

def test_basis_squares():
    for name, square in [("e1", 1), ("e2", 1), ("e3", 1),
                         ("e12", -1), ("e13", -1), ("e23", -1),
                         ("e123", -1)]:
        e = Multivector.basis(name)
        assert is_zero(geometric_product(e, e) - Multivector.scalar(square)), name


def test_vector_anticommutation():
    e1, e2 = Multivector.basis("e1"), Multivector.basis("e2")
    assert is_zero(geometric_product(e1, e2) + geometric_product(e2, e1))
    assert is_zero(geometric_product(e1, e2) - Multivector.basis("e12"))


def test_pseudoscalar_is_central():
    i3 = Multivector.basis("e123")
    for name in BLADE_NAMES:
        e = Multivector.basis(name)
        assert is_zero(geometric_product(i3, e) - geometric_product(e, i3)), name


def test_wedge_of_orthogonal_vectors_builds_bivector():
    e1, e23 = Multivector.basis("e1"), Multivector.basis("e23")
    assert is_zero(wedge(e1, e23) - Multivector.basis("e123"))
    # wedge with a blade containing the same vector vanishes
    assert is_zero(wedge(e1, Multivector.basis("e12")))


def test_contraction_examples():
    e1, e2, e12 = (Multivector.basis(k) for k in ("e1", "e2", "e12"))
    assert is_zero(contraction(e1, e12) - e2)
    assert is_zero(contraction(e2, e12) + e1)
    # scalar contraction of two vectors is their dot product
    a = vec([2, 3, 0])
    b = vec([5, -1, 4])
    assert contraction(a, b).coeffs[0] == pytest.approx(10 - 3 + 0)


def test_scalar_product_signature():
    assert scalar_product(Multivector.basis("e1"), Multivector.basis("e1")) == 1
    assert scalar_product(Multivector.basis("e12"), Multivector.basis("e12")) == -1
    assert scalar_product(Multivector.basis("e1"), Multivector.basis("e2")) == 0


# ---------------------------------------------------------------------------
# ring axioms, exact on small integer coefficients
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(a=int_coeffs, b=int_coeffs, c=int_coeffs)
def test_associativity_exact(a, b, c):
    A, B, C = mv(a), mv(b), mv(c)
    lhs = geometric_product(geometric_product(A, B), C)
    rhs = geometric_product(A, geometric_product(B, C))
    assert is_zero(lhs - rhs)


@settings(max_examples=60, deadline=None)
@given(a=int_coeffs, b=int_coeffs, c=int_coeffs)
def test_distributivity_exact(a, b, c):
    A, B, C = mv(a), mv(b), mv(c)
    lhs = geometric_product(A, B + C)
    rhs = geometric_product(A, B) + geometric_product(A, C)
    assert is_zero(lhs - rhs)


@settings(max_examples=60, deadline=None)
@given(a=int_coeffs, b=int_coeffs)
def test_vector_product_splits_into_dot_plus_wedge(a, b):
    # for vectors u, v: uv = u.v + u^v, exactly
    u = vec(a[:3])
    v = vec(b[:3])
    total = geometric_product(u, v)
    split = contraction(u, v) + wedge(u, v)
    assert is_zero(total - split)


@settings(max_examples=40, deadline=None)
@given(a=int_coeffs, b=int_coeffs)
def test_wedge_antisymmetric_on_vectors(a, b):
    u = vec(a[:3])
    v = vec(b[:3])
    assert is_zero(wedge(u, v) + wedge(v, u))
    assert is_zero(wedge(u, u))


# ---------------------------------------------------------------------------
# field-level calculus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid():
    return GridSpec(dim=3, length=2 * np.pi, n=16)


def test_gradient_is_vector_of_partials(grid):
    f = field_from_function(grid, lambda x, y, z: np.sin(x) * np.cos(2 * y) + np.sin(z))
    g = gradient(f)
    assert g.shape == (3,) + grid.shape
    xs = grid.coords()
    gx, gy, gz = g
    assert np.max(np.abs(gx - np.cos(xs[0]) * np.cos(2 * xs[1]))) < 1e-11
    assert np.max(np.abs(gy + 2 * np.sin(xs[0]) * np.sin(2 * xs[1]))) < 1e-11
    assert np.max(np.abs(gz - np.cos(xs[2]))) < 1e-12


def test_gradient_of_gradient_has_no_bivector_part(grid):
    # the curl of a gradient vanishes: grad ^ grad f = 0
    f = field_from_function(grid, lambda x, y, z: np.sin(x + 2 * y) * np.cos(z))
    assert np.max(np.abs(grad_wedge(grid, gradient(f)))) < 1e-10


def test_grad_wedge_components_are_the_curl(grid):
    # w = (-sin y, sin x, 0): the e12 part is d_x w_y - d_y w_x = cos x + cos y,
    # and the e13 and e23 parts vanish
    xs = grid.coords()
    w = np.stack(np.broadcast_arrays(-np.sin(xs[1]), np.sin(xs[0]), np.zeros(grid.shape)))
    e12, e13, e23 = grad_wedge(grid, w)
    assert np.max(np.abs(e12 - (np.cos(xs[0]) + np.cos(xs[1])))) < 1e-12
    assert np.max(np.abs(e13)) < 1e-12 and np.max(np.abs(e23)) < 1e-12


def test_stretched_gradient_scales_components(grid):
    f = field_from_function(grid, lambda x, y, z: np.sin(x) + np.cos(y) + np.sin(2 * z))
    s = StretchSpec((2.0, -1.0, 0.5j))
    sg = stretched_gradient(f, s)
    plain = gradient(f)
    got = sg
    for i, c in enumerate((2.0, -1.0, 0.5j)):
        assert np.max(np.abs(got[i] - c * plain[i])) < 1e-13


def test_prop_identities_isotropic(grid):
    f = field_from_function(
        grid, lambda x, y, z: np.sin(x) * np.cos(y) + 0.3 * np.cos(z)
    )
    out = check_prop_identities(f, StretchSpec.isotropic(-1j))
    for key, val in out.items():
        assert val.l_inf < 1e-10, key


def test_prop_identities_anisotropic_additive(grid):
    # fields of the form f1(x)+f2(y)+f3(z) keep every identity valid even
    # for unequal stretches, because the mixed second derivatives vanish
    f = field_from_function(
        grid, lambda x, y, z: np.sin(x) + np.cos(y) + 0.5 * np.sin(2 * z)
    )
    out = check_prop_identities(f, StretchSpec((1.0, 2.0, 3.0)))
    for key, val in out.items():
        assert val.l_inf < 1e-10, key


def test_convective_identity_needs_irrotational_field(grid):
    # the convective form (w.grad)w = (1/2) grad(w.w) requires grad^w = 0;
    # an anisotropic stretch of a field with mixed second derivatives
    # breaks that, and the residual must be visibly nonzero
    f = field_from_function(
        grid, lambda x, y, z: np.sin(x) * np.cos(y) + 0.3 * np.cos(z)
    )
    out = check_prop_identities(f, StretchSpec((1.0, 2.0, 3.0)))
    assert out["convective_gradient"].l_inf > 1e-3


def test_linearization_cancellation_zero_at_root(grid):
    rng = np.random.default_rng(7)
    xs = grid.coords()
    g = sum(
        0.1 * rng.standard_normal() * np.cos(k * xs[i] + rng.uniform(0, 6))
        for i in range(3)
        for k in (1, 2)
    )
    F = ScalarField(grid, np.exp(g))
    res = linearization_cancellation(F, b=1.3)
    assert res.l_inf < 1e-10


def test_linearization_cancellation_nonzero_off_root(grid):
    f = field_from_function(grid, lambda x, y, z: np.exp(0.3 * np.sin(x)))
    res = linearization_cancellation(f, b=1.0, lam=0.5 - 0.5j)
    assert res.l_inf > 1e-3


@pytest.mark.parametrize("n", [16, 24])
def test_identity_residuals_hold_a_few_fields_not_stacks(n):
    # the residual components go to the norms one at a time, from generators, so
    # that a few fields of n^3 complex values are held at once; residuals built as
    # stacks of their three components hold several such stacks
    grid = GridSpec(dim=3, length=2 * np.pi, n=n)
    field_bytes = 16 * n**3
    f = field_from_function(
        grid,
        lambda x, y, z: np.sin(x) * np.cos(y) + 0.3 * np.cos(z) + 0.2 * np.sin(x) * np.sin(z),
    )
    positive = ScalarField(grid, np.exp(0.25 * np.real(f.values)))
    identities = peak_bytes(lambda: check_prop_identities(f, StretchSpec.isotropic(-1j)))
    cancellation = peak_bytes(lambda: linearization_cancellation(positive, 1.0))
    assert identities <= 10.5 * field_bytes, identities / field_bytes
    assert cancellation <= 6.5 * field_bytes, cancellation / field_bytes


def test_colehopf_3d_holds_a_few_fields_not_stacks():
    # the experiment holds one velocity stack and its wedge stack at most: the
    # coordinates broadcast, each random field goes before the next is built,
    # and the conjugate gap reaches its norm one component at a time
    params = dict(EXPERIMENTS["colehopf-3d"].defaults)
    peak = peak_bytes(lambda: run_experiment("colehopf-3d", params, 1234))
    field_bytes = 16 * params["n"] ** 3
    assert peak <= 9 * field_bytes, peak / field_bytes
