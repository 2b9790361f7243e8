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
from numpy import add as _add, multiply as _mul  # bound once for the step loop

from .clifford import gradient
from .fields import (
    GridSpec, Norms, ScalarField, _fft, _ifft, _norms, _spectral_derivative,
    antiderivative, derivative, log_derivative, norms, time_steps,
)

__all__ = [
    "VARIANTS",
    "BurgersProblem",
    "solve_burgers",
    "heat_evolve_spectral",
    "geodesic_residual",
    "real_chain_residual",
]

#: variant -> its viscosity ``nu`` in units of ``b^2``, the one place of each root ``lam = -2 nu``
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
        return self._ratio(F, gradient(F))

    def velocity_component(self, F: ScalarField, axis: int) -> np.ndarray:
        """Component ``axis`` of :meth:`to_velocity`, computed alone."""
        return self._ratio(F, _spectral_derivative(F.values, F.grid, axis, 1))

    def _ratio(self, F: ScalarField, dF: np.ndarray) -> np.ndarray:
        """``lam dF / F``, in place, for one derivative of ``F`` or a stack of them."""
        rows = dF.reshape(-1, F.values.size)
        if not log_derivative(F.values.reshape(1, -1), rows, self.lam, out=rows)[1].all():
            raise ValueError("F has a node; the velocity ratio is undefined there")
        return dF

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
        return -_spectral_derivative(u_vals, grid, 0, 1)


# -- direct nonlinear solver --------------------------------------------------

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
    rejected.  A step writes into five rows allocated once, with every
    constant bound before the loop.
    """
    if problem.variant == "forward":
        raise ValueError("the forward variant is a final-value problem, not solved forward in time")
    grid = a0.grid
    if grid.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    k = grid.wavenumbers()
    n_steps, dt = time_steps(t_final, dt)
    decay = np.exp(-problem.nu * grid.k_squared() * dt)
    # dealiasing by the 2/3 rule keeps the quadratic term clean; a complex mask multiplies
    # bit for bit as numpy's cast of the boolean one does
    keep = (np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))).astype(np.complex128)
    minus_half_ik = -0.5 * (1j * k)
    forcing = problem.forcing_values(grid)
    forcing_hat = np.fft.fft(forcing) if forcing is not None else None
    dt_a, half_dt = np.array(dt), np.array(0.5 * dt)
    one, inv_n = np.array(1.0), np.array(1 / grid.n)

    a_hat = np.fft.fft(a0.values)
    n1, pred, n2, vals = np.empty((4, grid.n), dtype=np.complex128)
    for _ in range(n_steps):
        # Heun in Fourier space: n = -(i k / 2) FFT(a^2), dealiased, plus the forcing; the
        # predictor decay (a_hat + dt n1), then decay (a_hat + dt/2 n1) + dt/2 n2
        for a, nl in ((a_hat, n1), (pred, n2)):
            _ifft(_mul(a, keep, vals), inv_n, vals)
            _mul(_mul(minus_half_ik, _fft(_mul(vals, vals, vals), one, nl), nl), keep, nl)
            if forcing_hat is not None:
                _add(nl, forcing_hat, nl)
            if nl is n1:
                _mul(decay, _add(a_hat, _mul(dt_a, n1, pred), pred), pred)
        _mul(decay, _add(a_hat, _mul(half_dt, n1, n1), n1), n1)
        _add(n1, _mul(half_dt, n2, n2), a_hat)
    return ScalarField(grid, np.fft.ifft(a_hat))


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
    da_dx = _spectral_derivative(a_center.values, grid, 0, 1)
    d2a = _spectral_derivative(a_center.values, grid, 0, 2)
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
        return ScalarField(grid, b**2 * _spectral_derivative(np.log(np.real(u.values)), grid, 0, 1))

    a_m, a_c, a_p = drift_of(u_minus), drift_of(u_center), drift_of(u_plus)
    problem = BurgersProblem(b=b, variant="forward")
    lhs = geodesic_residual(problem, a_m, a_c, a_p, dt)

    u_t = (u_plus.values - u_minus.values) / (2 * dt)
    u_xx = derivative(u_center, 0, order=2).values
    inner = (u_t + 0.5 * b**2 * u_xx) / u_center.values
    rhs = b**2 * _spectral_derivative(inner, grid, 0, 1)
    return {
        "geodesic": norms(lhs),
        "chain": _norms(rhs, grid),
        "difference": _norms(lhs.values - rhs, grid),
    }
