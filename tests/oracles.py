"""Oracles that only the tests read: closed forms and quantities the experiments
never compute, kept out of the package.

They are the free dispersion relation, the trap's energy ladder and time
factor, the energy and norm of a wave function, every state of a split-step
run, the node mask of the velocity extraction, one step of the density
solvers, the Burgers solve as one allocating step at a time, every path
of an Euler-Maruyama run with its velocity-bin sums, and every complex
noise increment of a draw with its means; and the most memory a call holds
at once, for the memory guards.
"""

import math
import tracemalloc

import numpy as np

from stochflow import sde
from stochflow.analytic import HarmonicState
from stochflow.fields import ScalarField, integrate, log_derivative, time_steps
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
        states.append(half_pot * np.fft.ifft(kin * np.fft.fft(half_pot * states[-1])))
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


def _euler_maruyama_block(drift, b, x0, n_steps, dt, n_paths, stream, last_only):
    """One block of paths from its own stream, as whole-array steps with every
    column kept, or the last only: ``(paths, q_sum, q2_sum)``."""
    rng = np.random.Generator(np.random.Philox(stream))
    if isinstance(x0, tuple):
        x = x0[1] + x0[2] * rng.standard_normal(n_paths)
    else:
        x = np.full(n_paths, float(x0))
    columns, q_sum, q2_sum = [x], 0.0, 0.0
    for _ in range(n_steps):
        x_next = x + drift(x) * dt + b * np.sqrt(dt) * rng.standard_normal(n_paths)
        q = (x_next - x) ** 2 / dt
        q_sum, q2_sum = q_sum + q, q2_sum + q * q
        x = x_next
        columns = [x] if last_only else columns + [x]
    return np.stack(np.broadcast_arrays(*columns), axis=-1), q_sum, q2_sum


def euler_maruyama_paths(drift, b, x0, t_final, dt, n_paths, seed, per_block=None, last_only=False):
    """Every path of ``sde.simulate_forward``'s run, with the totals its
    ``PathEnsemble`` holds: ``(paths, totals)``, where ``paths[..., p, k]`` is
    path ``p`` after ``k`` steps.

    Block ``j`` of ``per_block`` paths (by default ``sde.BLOCK_VALUES`` values,
    batch members included) is regenerated from its own stream, the ``j``-th
    child of ``SeedSequence(seed)``, as ``x + drift(x) dt + b sqrt(dt) noise``
    over the whole block.  ``x0`` is a constant or ('gaussian', mean, std), and
    a drift may broadcast the state to leading batch axes.  Each block sums
    its paths' running sums of ``q = (dX)^2 / dt`` and ``q^2``, and of the
    action ``s = sum_k q_k - n b^2`` and ``s^2``, and the block sums add up in
    block order.  With ``last_only`` only the final column is kept."""
    n_steps, dt = time_steps(t_final, dt)
    if per_block is None:
        batch = np.shape(drift(np.zeros(1)))[:-1]
        per_block = max(1, sde.BLOCK_VALUES // max(1, math.prod(batch)))
    starts = range(0, n_paths, per_block)
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    paths, totals = [], 0.0
    for start, stream in zip(starts, streams):
        block, q_sum, q2_sum = _euler_maruyama_block(
            drift, b, x0, n_steps, dt, min(per_block, n_paths - start), stream, last_only
        )
        action = q_sum - n_steps * b**2
        sums = [q_sum, q2_sum, action, action * action]
        paths.append(block)
        totals = totals + np.stack([s.sum(axis=-1) for s in sums])
    return np.concatenate(paths, axis=-2), totals


def velocity_bin_sums(paths, dt: float, b: float, window) -> tuple[int, np.ndarray]:
    """The velocity sums of the pooled steps ``window`` of unbatched full
    paths: the lattice index of the first bin and, per bin of width ``2 b
    sqrt(dt)``, the count and the sums of the forward and backward rates and
    of their squares."""
    ks = np.arange(*window)
    here = paths[:, ks].ravel()
    forward = ((paths[:, ks + 1] - paths[:, ks]) / dt).ravel()
    backward = ((paths[:, ks] - paths[:, ks - 1]) / dt).ravel()
    keys = np.floor(here / (2 * b * np.sqrt(dt))).astype(np.intp)
    idx = keys - keys.min()
    weights = (forward, forward**2, backward, backward**2)
    return int(keys.min()), np.stack([np.bincount(idx)] + [np.bincount(idx, w) for w in weights])


def blocked_velocity_bin_sums(paths, dt: float, b: float, window, per_block: int) -> tuple[int, np.ndarray]:
    """``velocity_bin_sums`` added in ``sde.simulate_forward``'s order: for
    each block of ``per_block`` paths, the sums of each pooled step in step
    order, and then the blocks' sums in block order; every sum spans all
    the bins."""
    ks = np.arange(*window)
    width = 2 * b * np.sqrt(dt)
    first = int(np.floor(paths[:, ks] / width).min())
    n_bins = int(np.floor(paths[:, ks] / width).max()) - first + 1
    total = np.zeros((5, n_bins))
    for start in range(0, paths.shape[0], per_block):
        block = paths[start : start + per_block]
        sums = np.zeros((5, n_bins))
        for k in ks:
            forward = (block[:, k + 1] - block[:, k]) / dt
            backward = (block[:, k] - block[:, k - 1]) / dt
            idx = np.floor(block[:, k] / width).astype(np.intp) - first
            weights = (forward, forward**2, backward, backward**2)
            sums += np.stack(
                [np.bincount(idx, minlength=n_bins)]
                + [np.bincount(idx, w, minlength=n_bins) for w in weights]
            )
        total += sums
    return first, total


def complex_increments(b: float, bhat: float, dt: float, shape: tuple[int, int], seed: int) -> np.ndarray:
    """Every increment ``dZ`` of the draw of ``shape`` (paths, steps) that
    ``sde.sample_complex_increments`` and ``sde.complex_path_sums`` make, as
    one array.  Block ``j`` of whole paths (``sde.BLOCK_VALUES`` values, at
    least one path) is regenerated from its own stream, the ``j``-th child
    of ``SeedSequence(seed)``: its real normals and then its imaginary ones.
    ``dZ`` is one whole-array expression of them."""
    xi, xi_hat = np.empty((2,) + shape)
    per_block = max(1, sde.BLOCK_VALUES // shape[1])
    starts = range(0, shape[0], per_block)
    for start, stream in zip(starts, np.random.SeedSequence(seed).spawn(len(starts))):
        rng = np.random.Generator(np.random.Philox(stream))
        rng.standard_normal(out=xi[start : start + per_block])
        rng.standard_normal(out=xi_hat[start : start + per_block])
    sigma = np.sqrt((b**2 + bhat**2) / 2)
    return (b * xi + 1j * bhat * xi_hat) * np.sqrt(dt) / (np.sqrt(2) * sigma)


def complex_increment_means(b: float, bhat: float, dt: float, n: int, seed: int) -> tuple[complex, ...]:
    """The means of ``dZ``, ``dZ^2`` and ``dZ dZ*`` over ``complex_increments``'
    draw of ``n`` one-step paths, each the sum of its blocks' sums in block
    order over ``n``."""
    dz = complex_increments(b, bhat, dt, (n, 1), seed).ravel()
    totals = np.zeros(3, dtype=complex)
    for start in range(0, n, sde.BLOCK_VALUES):
        block = dz[start : start + sde.BLOCK_VALUES]
        # the products a block at a time, and dZ dZ* in place, into the
        # conjugate, as the package takes them: numpy's loops can differ in
        # the last bit of an imaginary part between a whole array and its
        # blocks, and when the output is an operand
        conj = np.conjugate(block)
        totals += [block.sum(), (block * block).sum(), np.multiply(block, conj, out=conj).sum()]
    return tuple(complex(total / n) for total in totals)


MB = 2**20


def peak_bytes(run) -> int:
    """The most memory ``run()`` holds at once beyond what is allocated before;
    tracemalloc sees every numpy array buffer, so the count is deterministic.
    ``numpy.random`` and ``concurrent.futures`` load first: numpy imports the
    one on the first draw of a process and ``sde.simulate_forward`` the other
    on its first call, and their module objects are not the call's memory."""
    import concurrent.futures  # noqa: F401
    import numpy.random  # noqa: F401

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
