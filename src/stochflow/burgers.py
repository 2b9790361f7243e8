"""Viscous Burgers equations of drift fields and their exact linearization.

Three variants of ``a_t + a a_x = nu a_xx (+ forcing)`` appear, differing
only in the effective viscosity:

================  ==================  =========================================
variant           nu                  notes
================  ==================  =========================================
forward           ``-b^2/2``          antidiffusive; well-posed as a
                                      *final-value* problem
reversed          ``+b^2/2``          ordinary viscous Burgers
complex           ``+i b^2/2``        complex velocity field, optional
                                      potential forcing ``-U_x``
complex-conjugate ``-i b^2/2``        conjugated complex field
================  ==================  =========================================

Each is linearized by the substitution ``a = lam (grad F)/F`` where ``lam``
is the nonzero root of ``lam^2 + 2 nu lam = 0``, i.e. ``lam = -2 nu``:

* reversed: ``lam = -b^2``, ``F`` solves the heat equation
  ``F_t = (b^2/2) F_xx``;
* forward: ``lam = +b^2``, ``F`` solves the reverse-time heat equation;
* complex: ``lam = -i b^2``, ``F`` solves
  ``i b^2 F_t = -(b^4/2) F_xx + U F`` (the wave equation of
  :mod:`stochflow.schrodinger`);
* complex-conjugate: ``lam = +i b^2`` with ``F`` conjugated.

The quadratic root condition is exactly the coefficient cancellation
checked by :func:`stochflow.clifford.linearization_cancellation`.

A direct pseudo-spectral solver (integrating-factor Heun) provides the
independent reference that the transform is verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clifford import gradient
from .fields import (
    GridSpec,
    Norms,
    ScalarField,
    _row_fft,
    _row_ifft,
    antiderivative,
    derivative,
    log_derivative,
    norms,
    time_steps,
)

__all__ = [
    "VARIANTS",
    "BurgersProblem",
    "ColeHopfMap",
    "effective_viscosity",
    "solve_linearization_condition",
    "solve_burgers",
    "heat_evolve_spectral",
    "geodesic_residual",
    "real_chain_residual",
    "inversion_diagnostic",
]

VARIANTS = ("forward", "reversed", "complex", "complex-conjugate")


def effective_viscosity(variant: str, b: float) -> complex:
    """Viscosity ``nu`` of the named variant; see the module table."""
    if not 0 < b < np.inf:
        raise ValueError(f"noise amplitude b must be positive and finite, got {b}")
    table = {
        "forward": -0.5 * b**2,
        "reversed": +0.5 * b**2,
        "complex": +0.5j * b**2,
        "complex-conjugate": -0.5j * b**2,
    }
    if variant not in table:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return complex(table[variant])


def solve_linearization_condition(variant: str, b: float) -> complex:
    """Nonzero root of ``lam^2 + 2 nu lam = 0`` for the variant's viscosity.

    The quadratic factors as ``lam (lam + 2 nu)``, so the nonzero root is
    exactly ``-2 nu`` -- no numerical root finding, and the residual of the
    condition vanishes identically in floating point.
    """
    nu = effective_viscosity(variant, b)
    lam = -2.0 * nu
    if lam * lam + 2.0 * nu * lam != 0:
        raise AssertionError("cancellation condition violated by the selected root")
    return complex(lam)


@dataclass(frozen=True)
class BurgersProblem:
    """Grid, noise scale, variant, and optional potential ``U`` (complex variants)."""

    grid: GridSpec
    b: float
    variant: str = "reversed"
    potential: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.b > 0:
            raise ValueError("b must be positive")
        if self.potential is not None and self.variant not in ("complex", "complex-conjugate"):
            raise ValueError("potential forcing applies to the complex variants only")

    @property
    def nu(self) -> complex:
        return effective_viscosity(self.variant, self.b)

    def forcing_values(self) -> np.ndarray | None:
        """Static forcing ``-U_x`` evaluated on the grid, or None."""
        if self.potential is None:
            return None
        u_vals = np.asarray(self.potential(*self.grid.coords()), dtype=np.complex128)
        du = derivative(ScalarField(self.grid, u_vals), 0).values
        return -du


@dataclass(frozen=True)
class ColeHopfMap:
    """The substitution ``a = lam (grad F) / F`` for one variant.

    ``to_velocity`` uses the ratio form (no logarithm), so complex ``F``
    needs no branch tracking; both velocity maps raise ``ValueError`` at a
    node of ``F``.  ``from_velocity`` integrates the zero-mean
    part of the velocity; the mean is returned as a Galilean boost that the
    caller must account for (a nonzero-mean periodic velocity has no
    single-valued ``F``).
    """

    b: float
    variant: str = "reversed"

    @property
    def lam(self) -> complex:
        return solve_linearization_condition(self.variant, self.b)

    def to_velocity(self, F: ScalarField) -> ScalarField:
        return ScalarField(F.grid, self._ratio(F, derivative(F, 0).values))

    def to_velocity_vector(self, F: ScalarField) -> np.ndarray:
        """Vector form ``lam (grad F)/F`` on grids of any dimension, as its
        ``(dim,) + grid.shape`` component stack."""
        return np.stack([self._ratio(F, c) for c in gradient(F)])

    def from_velocity(self, a: ScalarField) -> tuple[ScalarField, complex]:
        mean = complex(np.mean(a.values))
        fluct = ScalarField(a.grid, a.values - mean)
        log_f = antiderivative(fluct, 0) * (1.0 / self.lam)
        return ScalarField(a.grid, np.exp(log_f.values)), mean

    def _ratio(self, F: ScalarField, dF: np.ndarray) -> np.ndarray:
        """``lam dF / F`` on the grid shape; a node of ``F`` is an error."""
        ratio, mask = log_derivative(F.values.reshape(1, -1), dF.reshape(1, -1), self.lam)
        if not mask.all():
            raise ValueError("F has a node; the velocity ratio is undefined there")
        return ratio.reshape(F.grid.shape)


# -- direct nonlinear solver --------------------------------------------------

def _if_heun_step(a_hat, nonlin_hat, decay, forcing_hat, dt):
    """One integrating-factor Heun step in Fourier space."""
    n1 = nonlin_hat(a_hat)
    if forcing_hat is not None:
        n1 = n1 + forcing_hat
    predictor = decay * (a_hat + dt * n1)
    n2 = nonlin_hat(predictor)
    if forcing_hat is not None:
        n2 = n2 + forcing_hat
    return decay * (a_hat + 0.5 * dt * n1) + 0.5 * dt * n2


def solve_burgers(
    problem: BurgersProblem,
    a0: ScalarField,
    t_final: float,
    dt: float,
) -> ScalarField:
    """Pseudo-spectral integrating-factor Heun solve of the problem variant;
    returns the field at ``t_final``, reached in ``round(t_final/dt)`` equal
    steps (see :func:`stochflow.fields.time_steps`).

    Stable forward in time for the ``reversed`` and both complex variants
    (the integrating factor of the imaginary viscosities is a pure phase).
    The antidiffusive ``forward`` variant is a final-value problem and is
    rejected.
    """
    if problem.variant == "forward":
        raise ValueError("the forward variant is a final-value problem, not solved forward in time")
    if problem.grid.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    grid = problem.grid
    nu = problem.nu
    k = grid.wavenumbers()
    ik = 1j * k
    n_steps, dt = time_steps(t_final, dt)
    decay = np.exp(-nu * grid.k_squared() * dt)
    # dealiasing by the 2/3 rule keeps the quadratic term clean
    keep = np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))

    forcing = problem.forcing_values()
    forcing_hat = np.fft.fft(forcing) if forcing is not None else None

    def nonlin_hat(a_hat):
        a_vals = _row_ifft(a_hat * keep)
        return -0.5 * ik * _row_fft(a_vals * a_vals) * keep

    a_hat = _row_fft(a0.values)
    for _ in range(n_steps):
        a_hat = _if_heun_step(a_hat, nonlin_hat, decay, forcing_hat, dt)
    return ScalarField(grid, _row_ifft(a_hat))


def heat_evolve_spectral(F0: ScalarField, kappa: complex, t: float) -> ScalarField:
    """Exact Fourier evolution of ``F_t = kappa F_xx`` for band-limited data.

    With ``Re(kappa) < 0`` (reverse-time heat) high modes are amplified by
    ``exp(|kappa| k^2 t)``; callers must keep the data band-limited.
    """
    grid = F0.grid
    axes = tuple(range(grid.dim))
    factor = np.exp(-kappa * grid.k_squared() * t)
    return ScalarField(grid, np.fft.ifftn(factor * np.fft.fftn(F0.values, axes=axes), axes=axes))


# -- residual evaluators -------------------------------------------------------

def geodesic_residual(
    problem: BurgersProblem,
    a_minus: ScalarField,
    a_center: ScalarField,
    a_plus: ScalarField,
    dt: float,
) -> ScalarField:
    """Pointwise residual ``a_t + a a_x - nu a_xx + U_x`` on a snapshot triple.

    The time derivative is the centred difference of the outer snapshots.
    For a steady field pass the same snapshot three times (the time term
    then vanishes identically): e.g. the linear field ``a = x`` gives
    residual ``x`` for every variant.  Returns the full residual field so
    callers can window or mask before taking norms.
    """
    grid = a_center.grid
    da_dt = (a_plus.values - a_minus.values) / (2 * dt)
    da_dx = derivative(a_center, 0).values
    d2a = derivative(a_center, 0, order=2).values
    res = da_dt + a_center.values * da_dx - problem.nu * d2a
    forcing = problem.forcing_values()
    if forcing is not None:
        res = res - forcing
    return ScalarField(grid, res)


def real_chain_residual(
    u_minus: ScalarField,
    u_center: ScalarField,
    u_plus: ScalarField,
    b: float,
    dt: float,
) -> dict[str, Norms]:
    r"""Two sides of the real substitution chain, evaluated independently.

    For a strictly positive scalar ``u(x, t)`` define the drift
    ``a = b^2 (log u)_x``.  Then, identically in ``u``,

    .. math::

        a_t + a a_x + \tfrac{b^2}{2} a_{xx}
        \;=\; b^2 \,\partial_x\!\Big[\frac{u_t + \tfrac{b^2}{2} u_{xx}}{u}\Big],

    so the drift solves the antidiffusive (``forward``) equation exactly
    when ``u`` solves the reverse-time heat equation.  Both sides are
    computed from the snapshots (centred time differences) and returned
    along with their difference, which measures only discretization error.
    """
    grid = u_center.grid
    for u in (u_minus, u_center, u_plus):
        if np.min(np.real(u.values)) <= 0 or not u.is_real():
            raise ValueError("the chain applies to strictly positive real fields")

    def drift_of(u: ScalarField) -> ScalarField:
        log_u = ScalarField(grid, np.log(np.real(u.values)))
        return ScalarField(grid, b**2 * derivative(log_u, 0).values)

    a_m, a_c, a_p = drift_of(u_minus), drift_of(u_center), drift_of(u_plus)
    problem = BurgersProblem(grid=grid, b=b, variant="forward")
    lhs = geodesic_residual(problem, a_m, a_c, a_p, dt)

    u_t = (u_plus.values - u_minus.values) / (2 * dt)
    u_xx = derivative(u_center, 0, order=2).values
    inner = (u_t + 0.5 * b**2 * u_xx) / u_center.values
    rhs_vals = b**2 * derivative(ScalarField(grid, inner), 0).values
    rhs = ScalarField(grid, rhs_vals)

    return {
        "geodesic": norms(lhs),
        "chain": norms(rhs),
        "difference": norms(lhs - rhs),
    }


def inversion_diagnostic(a: ScalarField) -> float:
    """The share of the grid where the literal inversion ``u = (log a)_x`` is defined.

    The substitution maps ``u`` to ``a = b^2 (log u)_x``; reading the map
    backwards as ``u = (log a)_x`` only makes sense where ``a`` is positive
    and non-constant, and it degenerates wherever ``a_x`` vanishes.  A point
    counts as defined where ``a`` and ``|a_x|`` clear ``1e-10 max|a|``, which
    makes the degeneracy visible instead of hiding it.
    """
    vals = np.real(a.values)
    da = np.real(derivative(a, 0).values)
    floor = 1e-10 * max(np.max(np.abs(vals)), 1e-300)
    return float(((vals > floor) & (np.abs(da) > floor)).mean())
