"""Wave-function evolution ``i b^2 F_t = -(b^4/2) lap F + U F`` on periodic grids.

The integrator is Strang splitting (split-step Fourier) with the kinetic
factor applied exactly in Fourier space (phase ``exp(-i b^2 k^2 dt / 2)``,
matching the free dispersion ``omega = b^2 k^2 / 2``) and the potential
applied pointwise.  For ``U = 0`` a single step is exact to round-off
regardless of ``dt``.  On one axis a step transforms with the row FFTs of
:mod:`stochflow.fields`, which skip numpy's per-call argument handling.

Dividing the equation by ``b^2`` shows the effective propagator is
``exp(-i t H / b^2)`` with ``H = -(b^4/2) lap + U``; every factor of a step
is a pure phase, so the L2 norm is preserved to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import GridSpec, ScalarField, _row_fft, _row_ifft, integrate, time_steps

__all__ = [
    "SchrodingerProblem",
    "SchrodingerResult",
    "evolve",
    "wavefunction_norm",
    "energy",
]


@dataclass(frozen=True)
class SchrodingerProblem:
    """Initial state, noise scale, and (static) potential for the wave equation."""

    grid: GridSpec
    b: float
    psi0: ScalarField
    potential: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("b must be positive")
        if self.psi0.grid != self.grid:
            raise ValueError("psi0 lives on a different grid")

    def potential_values(self) -> np.ndarray:
        if self.potential is None:
            return np.zeros(self.grid.shape)
        vals = np.asarray(self.potential(*self.grid.coords()), dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError("potential has the wrong shape")
        return vals


@dataclass(frozen=True)
class SchrodingerResult:
    """Stored snapshots of an evolution run."""

    times: np.ndarray = field(repr=False)
    states: tuple[ScalarField, ...] = field(repr=False)

    def final(self) -> ScalarField:
        return self.states[-1]

    def norm_drift(self) -> float:
        """Largest deviation of the L2 norm from its initial value."""
        n0 = wavefunction_norm(self.states[0])
        return max(abs(wavefunction_norm(s) - n0) for s in self.states)


def wavefunction_norm(psi: ScalarField) -> float:
    return float(np.sqrt(np.real(integrate(psi.abs2()))))


def energy(psi: ScalarField, b: float, potential_values: np.ndarray | None = None) -> float:
    """Expectation of ``H = -(b^4/2) lap + U`` (per unit norm squared)."""
    grid = psi.grid
    kinetic = np.zeros(grid.shape)
    vals = psi.values
    for axis in range(grid.dim):
        k = grid.wavenumbers()
        shape = [1] * grid.dim
        shape[axis] = grid.n
        d = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(vals, axis=axis), axis=axis)
        kinetic += np.abs(d) ** 2
    density = (b**4 / 2) * kinetic
    if potential_values is not None:
        density = density + potential_values * np.abs(vals) ** 2
    total = float(np.real(integrate(ScalarField(grid, density.astype(np.complex128)))))
    norm_sq = float(np.real(integrate(psi.abs2())))
    return total / norm_sq


def _split_factors(problem: SchrodingerProblem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``(half_pot, kin)``: the half-step potential and full-step kinetic phases of a split step."""
    half_pot = np.exp(-0.5j * problem.potential_values() * dt / problem.b**2)
    return half_pot, np.exp(-0.5j * problem.b**2 * problem.grid.k_squared() * dt)


def _stepper(problem: SchrodingerProblem, t_final: float, dt: float):
    """``(n_steps, dt, step)`` of a split-step run: the steps of
    :func:`~stochflow.fields.time_steps` and the map from a state array to the state one
    step later (the argument is kept)."""
    n_steps, dt = time_steps(t_final, dt)
    half_pot, kin = _split_factors(problem, dt)
    # on one axis the row transforms skip numpy's argument handling, half the cost of a small FFT
    fft, ifft = (_row_fft, _row_ifft) if problem.grid.dim == 1 else (np.fft.fftn, np.fft.ifftn)

    def step(psi: np.ndarray) -> np.ndarray:
        return half_pot * ifft(kin * fft(half_pot * psi))

    return n_steps, dt, step


def evolve(
    problem: SchrodingerProblem,
    t_final: float,
    dt: float,
    store_every: int | None = None,
) -> SchrodingerResult:
    """Integrate for ``t_final`` and return snapshots every ``store_every`` steps.

    ``store_every=None`` stores only the initial and final states.  The
    final time is always included; the step count is ``round(t_final/dt)``
    with ``dt`` adjusted to land on ``t_final`` exactly.
    """
    n_steps, dt, step = _stepper(problem, t_final, dt)
    stride = n_steps if store_every is None else max(1, int(store_every))
    psi = problem.psi0.values
    stored, states = [0], [ScalarField(problem.grid, psi.copy())]
    for k in range(1, n_steps + 1):
        psi = step(psi)
        if k % stride == 0 or k == n_steps:
            stored.append(k)
            states.append(ScalarField(problem.grid, psi))
    return SchrodingerResult(times=dt * np.asarray(stored, dtype=float), states=tuple(states))
