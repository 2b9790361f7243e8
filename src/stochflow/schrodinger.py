"""Wave-function evolution ``i b^2 F_t = -(b^4/2) lap F + U F`` on periodic grids.

Two independent integrators are provided so they can cross-check each
other:

``splitstep``
    Strang splitting with the kinetic factor applied exactly in Fourier
    space (phase ``exp(-i b^2 k^2 dt / 2)``, matching the free dispersion
    ``omega = b^2 k^2 / 2``) and the potential applied pointwise.  For
    ``U = 0`` a single step is exact to round-off regardless of ``dt``.

``cn``
    Crank-Nicolson with a second-order periodic finite-difference
    Laplacian, solved by a sparse LU factorization computed once.  The
    method is unitary because the discrete Hamiltonian is Hermitian.

Dividing the equation by ``b^2`` shows the effective propagator is
``exp(-i t H / b^2)`` with ``H = -(b^4/2) lap + U``; both methods preserve
the L2 norm to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import GridSpec, ScalarField, integrate, time_steps

__all__ = [
    "SchrodingerProblem",
    "SchrodingerResult",
    "evolve",
    "wavefunction_norm",
    "energy",
    "METHODS",
]

METHODS = ("splitstep", "cn")


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
    method: str = "splitstep"

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


def _cn_matrices(problem: SchrodingerProblem, dt: float):
    import scipy.sparse as sp  # only cn needs scipy; it stays out of start-up
    import scipy.sparse.linalg as spla
    grid = problem.grid
    if grid.dim != 1:
        raise ValueError("the cn method is one-dimensional; use splitstep in 3-D")
    n, dx = grid.n, grid.dx
    u = problem.potential_values()
    main = (problem.b**2 / dx**2) + u / problem.b**2
    off = -(problem.b**2 / 2) / dx**2 * np.ones(n)
    h = sp.diags([off[:-1], main, off[:-1]], offsets=[-1, 0, 1], format="lil")
    h[0, n - 1] = off[0]
    h[n - 1, 0] = off[0]
    h = h.tocsc()
    eye = sp.identity(n, format="csc", dtype=np.complex128)
    a = (eye + 0.5j * dt * h).tocsc()
    b_mat = (eye - 0.5j * dt * h).tocsr()
    return spla.splu(a), b_mat


def _stepper(problem: SchrodingerProblem, t_final: float, dt: float, method: str):
    """``(n_steps, dt, step)`` of a run of ``method``, one of :data:`METHODS`: the steps of
    :func:`~stochflow.fields.time_steps` and the map from a state array to the state one
    step later (the argument is kept)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    n_steps, dt = time_steps(t_final, dt)
    if method == "splitstep":
        half_pot, kin = _split_factors(problem, dt)
        # the 1-D transforms skip the n-D argument handling, a large share of a small FFT
        fft, ifft = (np.fft.fft, np.fft.ifft) if problem.grid.dim == 1 else (np.fft.fftn, np.fft.ifftn)

        def step(psi: np.ndarray) -> np.ndarray:
            return half_pot * ifft(kin * fft(half_pot * psi))

    else:
        solver, b_mat = _cn_matrices(problem, dt)

        def step(psi: np.ndarray) -> np.ndarray:
            return solver.solve(b_mat @ psi)

    return n_steps, dt, step


def evolve(
    problem: SchrodingerProblem,
    t_final: float,
    dt: float,
    method: str = "splitstep",
    store_every: int | None = None,
) -> SchrodingerResult:
    """Integrate for ``t_final`` and return snapshots every ``store_every`` steps.

    ``store_every=None`` stores only the initial and final states.  The
    final time is always included; the step count is ``round(t_final/dt)``
    with ``dt`` adjusted to land on ``t_final`` exactly.
    """
    n_steps, dt, step = _stepper(problem, t_final, dt, method)
    stride = n_steps if store_every is None else max(1, int(store_every))
    psi = problem.psi0.values
    stored, states = [0], [ScalarField(problem.grid, psi.copy())]
    for k in range(1, n_steps + 1):
        psi = step(psi)
        if k % stride == 0 or k == n_steps:
            stored.append(k)
            states.append(ScalarField(problem.grid, psi))
    return SchrodingerResult(times=dt * np.asarray(stored, dtype=float), states=tuple(states), method=method)
