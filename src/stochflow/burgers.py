"""Viscous Burgers equations of drift fields and their exact linearization.

Four variants of ``a_t + a a_x = nu a_xx (+ forcing)`` appear, differing
only in the effective viscosity (:data:`VARIANTS` holds its column):

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

A :class:`BurgersProblem` is one variant at one ``b``: it gives ``nu``,
``lam`` and both directions of the substitution.  It holds no grid; the
solver and the residuals take the grid of the field they are given, so one
problem serves fields on any grid.  A direct pseudo-spectral solver
(integrating-factor Heun) provides the independent reference that the
transform is verified against.
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
    "solve_burgers",
    "heat_evolve_spectral",
    "geodesic_residual",
    "real_chain_residual",
    "inversion_diagnostic",
]

#: variant -> its viscosity ``nu`` in units of ``b^2``; see the module table
VARIANTS = {"forward": -0.5, "reversed": +0.5, "complex": +0.5j, "complex-conjugate": -0.5j}


@dataclass(frozen=True)
class BurgersProblem:
    """One velocity equation: noise scale, variant, and optional potential ``U``
    (complex variants), with the substitution ``a = lam (grad F) / F`` that
    linearizes it.

    ``to_velocity`` uses the ratio form (no logarithm), so complex ``F``
    needs no branch tracking, and raises ``ValueError`` at a node of ``F``.
    ``from_velocity`` integrates the zero-mean part of a 1-D velocity; the
    mean is returned as a Galilean boost that the caller must account for
    (a nonzero-mean periodic velocity has no single-valued ``F``).
    """

    b: float
    variant: str = "reversed"
    potential: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {tuple(VARIANTS)}")
        if not 0 < self.b < np.inf:
            raise ValueError(f"noise amplitude b must be positive and finite, got {self.b}")
        if self.potential is not None and self.variant not in ("complex", "complex-conjugate"):
            raise ValueError("potential forcing applies to the complex variants only")

    @property
    def nu(self) -> complex:
        return complex(VARIANTS[self.variant] * self.b**2)

    @property
    def lam(self) -> complex:
        """The nonzero root of ``lam^2 + 2 nu lam = lam (lam + 2 nu) = 0``, exactly."""
        return -2.0 * self.nu

    def to_velocity(self, F: ScalarField) -> np.ndarray:
        """``lam (grad F)/F`` as its ``(dim,) + grid.shape`` component stack."""
        dF = gradient(F).reshape(F.grid.dim, -1)
        values = np.broadcast_to(F.values.reshape(1, -1), dF.shape)
        ratio, mask = log_derivative(values, dF, self.lam)
        if not mask.all():
            raise ValueError("F has a node; the velocity ratio is undefined there")
        return ratio.reshape((F.grid.dim,) + F.grid.shape)

    def from_velocity(self, a: ScalarField) -> tuple[ScalarField, complex]:
        mean = complex(np.mean(a.values))
        fluct = ScalarField(a.grid, a.values - mean)
        log_f = antiderivative(fluct, 0) * (1.0 / self.lam)
        return ScalarField(a.grid, np.exp(log_f.values)), mean

    def forcing_values(self, grid: GridSpec) -> np.ndarray | None:
        """Static forcing ``-U_x`` evaluated on ``grid``, or None."""
        if self.potential is None:
            return None
        u_vals = np.asarray(self.potential(*grid.coords()), dtype=np.complex128)
        du = derivative(ScalarField(grid, u_vals), 0).values
        return -du


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
    grid = a0.grid
    if grid.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    nu = problem.nu
    k = grid.wavenumbers()
    ik = 1j * k
    n_steps, dt = time_steps(t_final, dt)
    decay = np.exp(-nu * grid.k_squared() * dt)
    # dealiasing by the 2/3 rule keeps the quadratic term clean
    keep = np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))

    forcing = problem.forcing_values(grid)
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
    forcing = problem.forcing_values(grid)
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
    problem = BurgersProblem(b=b, variant="forward")
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
