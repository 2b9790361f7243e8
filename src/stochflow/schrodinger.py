"""Wave-function evolution ``i b^2 F_t = -(b^4/2) F_xx + U F`` on periodic 1-D grids.

The integrator is Strang splitting (split-step Fourier) with the kinetic
factor applied exactly in Fourier space (phase ``exp(-i b^2 k^2 dt / 2)``,
matching the free dispersion ``omega = b^2 k^2 / 2``) and the potential
applied pointwise.  For ``U = 0`` a single step is exact to round-off
regardless of ``dt``.  A step transforms with ``np.fft.fft``/``ifft``, bit for
bit equal to the pocketfft gufuncs of the Born pipeline's own step loop.

Dividing the equation by ``b^2`` shows the effective propagator is
``exp(-i t H / b^2)`` with ``H = -(b^4/2) d^2/dx^2 + U``; every factor of a step
is a pure phase, so the L2 norm is preserved to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import GridSpec, ScalarField, time_steps

__all__ = ["SchrodingerProblem", "evolve"]


@dataclass(frozen=True)
class SchrodingerProblem:
    """Noise scale, initial state, and (static) potential for the wave equation
    on the 1-D grid of the initial state."""

    b: float
    psi0: ScalarField
    potential: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if not 0 < self.b < np.inf:
            raise ValueError(f"noise amplitude b must be positive and finite, got {self.b}")
        if self.grid.dim != 1:
            raise ValueError("the split-step integrator is one-dimensional")

    @property
    def grid(self) -> GridSpec:
        return self.psi0.grid

    def potential_values(self) -> np.ndarray:
        if self.potential is None:
            return np.zeros(self.grid.shape)
        vals = np.asarray(self.potential(*self.grid.coords()), dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError("potential has the wrong shape")
        return vals


def _split_factors(problem: SchrodingerProblem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``(half_pot, kin)``: the half-step potential and full-step kinetic phases of a split step."""
    half_pot = np.exp(-0.5j * problem.potential_values() * dt / problem.b**2)
    return half_pot, np.exp(-0.5j * problem.b**2 * problem.grid.k_squared() * dt)


def evolve(problem: SchrodingerProblem, t_final: float, dt: float) -> ScalarField:
    """The state after ``t_final``: ``round(t_final/dt)`` steps, with ``dt``
    adjusted to land on ``t_final`` exactly."""
    n_steps, dt = time_steps(t_final, dt)
    half_pot, kin = _split_factors(problem, dt)
    psi = problem.psi0.values
    for _ in range(n_steps):
        psi = half_pot * np.fft.ifft(kin * np.fft.fft(half_pot * psi))
    return ScalarField(problem.grid, psi)
