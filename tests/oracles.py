"""Oracles that only the tests read: closed forms and quantities the experiments
never compute, kept out of the package.

They are the free dispersion relation, the trap's energy ladder and time
factor, the energy and norm of a wave function, every state of a split-step
run, the node mask of the velocity extraction, one step of the density
solvers and the Burgers solve as one allocating step at a time; and the most
memory a call holds at once, for the memory guards.
"""

import tracemalloc

import numpy as np

from stochflow.analytic import HarmonicState
from stochflow.fields import ScalarField, _row_fft, _row_ifft, integrate, log_derivative, time_steps
from stochflow.schrodinger import SchrodingerProblem, _split_factors


def dispersion_omega(k, b: float):
    """Free dispersion relation ``omega = b^2 k^2 / 2`` of the wave equation."""
    return b**2 * np.asarray(k) ** 2 / 2


def harmonic_energy(state: HarmonicState, n: int) -> float:
    """Level-``n`` eigenvalue ``E_n = b^2 omega (n + 1/2)`` of the trap."""
    return state.b**2 * state.omega * (n + 0.5)


def harmonic_psi(state: HarmonicState, x: np.ndarray, t: float, n: int) -> np.ndarray:
    """Level ``n`` at time ``t``: the eigenfunction times ``exp(-i E_n t / b^2)``."""
    return state.eigenfunction(x, n) * np.exp(-1j * state.omega * (n + 0.5) * t)


def wavefunction_norm(psi: ScalarField) -> float:
    return float(np.sqrt(np.real(integrate(psi.abs2()))))


def energy(psi: ScalarField, b: float, potential_values: np.ndarray) -> float:
    """Expectation of ``H = -(b^4/2) d^2/dx^2 + U`` per unit norm squared, on a 1-D grid."""
    vals = psi.values
    d = np.fft.ifft(1j * psi.grid.wavenumbers() * np.fft.fft(vals))
    density = (b**4 / 2) * np.abs(d) ** 2 + potential_values * np.abs(vals) ** 2
    return float(np.sum(density) / np.sum(np.abs(vals) ** 2))


def split_step_states(problem: SchrodingerProblem, t_final: float, dt: float):
    """``(dt, states)``: the adjusted step and every state of the split-step run
    that ``schrodinger.evolve`` takes, the initial one first."""
    n_steps, dt = time_steps(t_final, dt)
    half_pot, kin = _split_factors(problem, dt)
    states = [problem.psi0.values]
    for _ in range(n_steps):
        states.append(half_pot * _row_ifft(kin * _row_fft(half_pot * states[-1])))
    return dt, [ScalarField(problem.grid, psi) for psi in states]


def burgers_solve_allocating(problem, a0: ScalarField, t_final: float, dt: float) -> np.ndarray:
    """The values of ``burgers.solve_burgers`` at ``t_final``, one allocating
    integrating-factor Heun step at a time on ``np.fft``, in its operation order."""
    grid = a0.grid
    k = grid.wavenumbers()
    ik = 1j * k
    n_steps, dt = time_steps(t_final, dt)
    decay = np.exp(-problem.nu * grid.k_squared() * dt)
    keep = np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))
    forcing = problem.forcing_values(grid)
    forcing_hat = None if forcing is None else np.fft.fft(forcing)

    def nonlin_hat(a_hat):
        a_vals = np.fft.ifft(a_hat * keep)
        n = -0.5 * ik * np.fft.fft(a_vals * a_vals) * keep
        return n if forcing_hat is None else n + forcing_hat

    a_hat = np.fft.fft(a0.values)
    for _ in range(n_steps):
        n1 = nonlin_hat(a_hat)
        n2 = nonlin_hat(decay * (a_hat + dt * n1))
        a_hat = decay * (a_hat + 0.5 * dt * n1) + 0.5 * dt * n2
    return np.fft.ifft(a_hat)


def upwind_step(rho: np.ndarray, a: np.ndarray, b: float, dt: float, dx: float) -> np.ndarray:
    """One conservative finite-volume step of ``rho_t + (a rho)_x = (b^2/2) rho_xx``
    on periodic cells, on ``np.roll`` and ``np.where``.

    Face ``i`` sits between cells ``i`` and ``i+1``, with the mean drift of the
    two; advection is upwinded on it and diffusion is a central difference.
    The arithmetic goes in the order of ``fokker_planck._face_step``.
    """
    a_face = 0.5 * (a + np.roll(a, -1))
    rho_right = np.roll(rho, -1)
    flux = a_face * np.where(a_face >= 0, rho, rho_right) - (b**2 / 2) * (rho_right - rho) / dx
    return rho - (dt / dx) * (flux - np.roll(flux, 1))


def node_mask(psi: ScalarField) -> np.ndarray:
    """Where ``|psi|`` clears the node floor of ``born.velocity_from_wavefunction``."""
    row = psi.values.reshape(1, -1)
    return log_derivative(row, row, 1.0)[1].reshape(psi.grid.shape)


MB = 2**20


def peak_bytes(run) -> int:
    """The most memory ``run()`` holds at once beyond what is allocated before;
    tracemalloc sees every numpy array buffer, so the count is deterministic.
    ``numpy.random`` loads first: numpy imports it lazily, on the first draw
    of a process, and its module objects are not the call's memory."""
    import numpy.random  # noqa: F401

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
