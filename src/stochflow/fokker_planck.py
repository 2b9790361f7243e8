"""Density transport: forward/backward Fokker-Planck and the complex density equation.

The forward equation ``rho_t + (a rho)_x = (b^2/2) rho_xx`` of the diffusion
``dX = a(X) dt + b dW`` is integrated with a conservative finite-volume step
(upwind advective flux, central diffusive flux) on the periodic grid, so
mass is conserved to round-off.  Densities are real 1-D ``ScalarField``s.
The solvers take the fewest equal steps to ``t_final`` within ``cfl_timestep``.

The time-reversed density equation uses the backward drift ``a_b`` and an
antidiffusion term; stepped from the final time toward 0 it is again a
well-posed forward diffusion with advection ``-a_b``, which is how
``solve_backward`` treats it.

``discrete_stationary_density`` builds the *exact* stationary point of the
discrete update by zeroing every interface flux of the same update; this
is the right object to test fixed-point claims against, since the analytic
stationary density is only an O(dx) stationary point of an upwind update.

The complex-velocity density equations

    ``rho_t + (V rho)_x + (i/2) (b^2 rho)_xx = 0``        (forward)
    ``rho_t + (V* rho)_x - (i/2) (b^2 rho)_xx = 0``       (conjugate)

hold for ``rho = F F*`` with ``V = -i b^2 F_x / F``; their half-sum is the
ordinary continuity equation in the current velocity ``v = Re V`` and
their half-difference is the osmotic constraint
``(u rho)_x = (b^2/2) rho_xx`` with ``u = -Im V``.  For a real ``rho`` the
conjugate residual is the complex conjugate of the forward one, so only the
forward equation is evaluated.  It, the continuity equation and the osmotic
constraint are residual evaluators over density snapshots, and all three take
the complex velocity ``V``: the convention ``V = v - i u`` lives here alone.
"""

from __future__ import annotations

import numpy as np

from .fields import GridSpec, Norms, ScalarField, _norms, _spectral_derivative, integrate
from .sde import DiffusionModel

__all__ = [
    "cfl_timestep",
    "solve_forward",
    "solve_backward",
    "discrete_stationary_density",
    "complex_fp_residual",
    "continuity_residual",
    "osmotic_constraint_residual",
]


def cfl_timestep(model: DiffusionModel, grid: GridSpec) -> float:
    """Stable explicit step for the drift: ``0.4 min(dx / max|a|, dx^2 / b^2)``."""
    a_max = float(np.abs(model.drift_on(grid)).max())
    dx = grid.dx
    limits = [dx**2 / model.b**2]
    if a_max > 0:
        limits.append(dx / a_max)
    return 0.4 * min(limits)


def _face_drift(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.roll(a, -1))


def _face_step(rho, a_face, from_left, b, dt, dx, rho_right, flux_left) -> np.ndarray:
    """One conservative finite-volume update of ``rho`` on periodic cells.

    Face ``i`` sits between cells ``i`` and ``i+1``; advection is upwinded
    on the face-averaged drift ``a_face`` (from the left where ``from_left``),
    diffusion is a central difference.  ``rho_right`` and ``flux_left`` are
    scratch rows of the grid's size.
    """
    rho_right[:-1], rho_right[-1] = rho[1:], rho[0]
    upwind = np.where(from_left, rho, rho_right)
    flux = a_face * upwind - (b**2 / 2) * (rho_right - rho) / dx
    flux_left[1:], flux_left[0] = flux[:-1], flux[-1]
    return rho - (dt / dx) * (flux - flux_left)


def _run(model: DiffusionModel, rho0: ScalarField, t_final: float,
         drift_sign: float) -> ScalarField:
    grid = rho0.grid
    if grid.dim != 1:
        raise ValueError("density solvers are one-dimensional")
    if not rho0.is_real():
        raise ValueError("densities are real-valued")
    if not 0 < t_final < np.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    dt = cfl_timestep(model, grid)
    # the fewest steps that exceed dt by round-off at most: an explicit step must obey the CFL
    n_steps = max(1, int(np.ceil(t_final / dt * (1 - 1e-12))))
    dt = t_final / n_steps
    a_face = _face_drift(drift_sign * model.drift_on(grid))
    from_left, (rho_right, flux_left) = a_face >= 0, np.empty((2, grid.n))
    rho = np.real(rho0.values).copy()
    for _ in range(n_steps):
        rho = _face_step(rho, a_face, from_left, model.b, dt, grid.dx, rho_right, flux_left)
    return ScalarField(grid, rho)


def solve_forward(model: DiffusionModel, rho0: ScalarField, t_final: float) -> ScalarField:
    """Integrate the forward equation over ``t_final`` time units from the density ``rho0``."""
    return _run(model, rho0, t_final, +1.0)


def solve_backward(
    backward_model: DiffusionModel, rho_final: ScalarField, t_final: float
) -> ScalarField:
    """Integrate the time-reversed density equation back over ``t_final`` time units
    from the final density ``rho_final``.

    ``backward_model.drift`` is the backward drift; stepped toward earlier
    times the equation is a forward diffusion with advection by its
    negative, which is what gets stepped.
    """
    return _run(backward_model, rho_final, t_final, -1.0)


def discrete_stationary_density(model: DiffusionModel, grid: GridSpec) -> ScalarField:
    """Exact zero-flux fixed point of the solvers' step for the model's drift.

    Zeroing the upwind/central interface flux gives the two-term recurrence

        ``rho[i+1] = rho[i] * (1 + a_f dx / D)``            if ``a_f >= 0``
        ``rho[i+1] = rho[i] / (1 - a_f dx / D)``            otherwise

    with ``D = b^2/2`` and ``a_f`` the face drift.  The recurrence is
    accumulated in log space and the result normalized to unit mass.  For a
    drift whose periodic closure is inconsistent (nonzero loop circulation)
    the seam face keeps a residual flux; the defect is proportional to
    ``exp(circulation) - 1`` and lands at the density minimum.
    """
    if grid.dim != 1:
        raise ValueError("stationary construction is one-dimensional")
    a_face = _face_drift(model.drift_on(grid))
    d_over_dx = (model.b**2 / 2) / grid.dx
    ratio = a_face / d_over_dx
    log_factor = np.where(ratio >= 0, np.log1p(ratio), -np.log1p(-ratio))
    log_rho = np.concatenate([[0.0], np.cumsum(log_factor[:-1])])
    log_rho -= log_rho.max()
    rho = np.exp(log_rho)
    field = ScalarField(grid, rho)
    mass = float(np.real(integrate(field)))
    return ScalarField(grid, rho / mass)


def complex_fp_residual(
    rho_minus: ScalarField,
    rho_center: ScalarField,
    rho_plus: ScalarField,
    velocity: ScalarField,
    b: float,
    dt: float,
) -> Norms:
    """Residual of the forward complex density equation on three consecutive snapshots.

    ``rho_minus/center/plus`` are densities at ``t - dt, t, t + dt``;
    ``velocity`` is the complex velocity at ``t``.  The time derivative is
    the centred difference, so the residual carries an O(dt^2) floor.
    """
    grid, rho = rho_center.grid, rho_center.values
    d_rho_dt = (rho_plus.values - rho_minus.values) / (2 * dt)
    transport = _spectral_derivative(velocity.values * rho, grid, 0, 1)
    diff = _spectral_derivative(b**2 * rho, grid, 0, 2)
    return _norms(d_rho_dt + transport + 1j / 2 * diff, grid)


def continuity_residual(
    rho_minus: ScalarField,
    rho_center: ScalarField,
    rho_plus: ScalarField,
    velocity: ScalarField,
    dt: float,
) -> Norms:
    """Residual of ``rho_t + (v rho)_x = 0``, ``v = Re V`` of the complex velocity ``velocity``,
    with a centred time difference."""
    grid = rho_center.grid
    d_rho_dt = (rho_plus.values - rho_minus.values) / (2 * dt)
    transport = _spectral_derivative(velocity.values.real * rho_center.values, grid, 0, 1)
    return _norms(d_rho_dt + transport, grid)


def osmotic_constraint_residual(rho: ScalarField, velocity: ScalarField, b: float) -> Norms:
    """Residual of the instantaneous constraint ``(u rho)_x = (b^2/2) rho_xx``, ``u = -Im V``
    of the complex velocity ``velocity``."""
    grid = rho.grid
    lhs = _spectral_derivative(-velocity.values.imag * rho.values, grid, 0, 1)
    rhs = 0.5 * _spectral_derivative(b**2 * rho.values, grid, 0, 2)
    return _norms(lhs - rhs, grid)
