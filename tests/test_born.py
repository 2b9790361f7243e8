"""Quadratic-density pipeline: velocity extraction and continuity-only transport."""

import dataclasses

import numpy as np
import pytest

from oracles import MB, node_mask, peak_bytes, split_step_states, wavefunction_norm
from stochflow import born, burgers
from stochflow.analytic import FreePacket, HarmonicState
from stochflow.born import (
    AB3,
    CHUNK_POINTS,
    SERIES_ROWS,
    BornReport,
    born_pipeline,
    evolve_density_continuity,
    velocity_from_wavefunction,
)
from stochflow.experiments import EXPERIMENTS, run_experiment
from stochflow.fields import GridSpec, ScalarField, integrate, spectral_multiplier
from stochflow.fokker_planck import (
    complex_fp_residual,
    continuity_residual,
    osmotic_constraint_residual,
)
from stochflow.schrodinger import SchrodingerProblem


@pytest.fixture(scope="module")
def packet_setup():
    grid = GridSpec(dim=1, length=24.0, n=256)
    pk = FreePacket(b=1.0, x0=11.0, s=1.0, k0=2 * np.pi * 4 / 24.0)
    return grid, pk


def test_velocity_extraction_matches_analytic(packet_setup):
    grid, pk = packet_setup
    t = 0.4
    psi = ScalarField(grid, pk.psi(grid.axis, t))
    velocity = velocity_from_wavefunction(psi, pk.b).values
    m = node_mask(psi)
    assert m.mean() > 0.5
    # compare away from the node floor, where the 1/|psi| amplification of
    # round-off in the spectral derivative is negligible
    safe = np.abs(psi.values) > 1e-4 * np.abs(psi.values).max()
    assert np.max(np.abs(velocity.real[safe] - pk.current_velocity(grid.axis, t)[safe])) < 1e-9
    assert np.max(np.abs(-velocity.imag[safe] - pk.osmotic_velocity(grid.axis, t)[safe])) < 1e-9
    # masked-out points carry zero velocity by policy
    assert np.all(velocity[~m] == 0)


@pytest.mark.parametrize("b", [1.0, 0.7])
@pytest.mark.parametrize("root", ["table", "flipped"])
def test_extraction_is_the_complex_burgers_substitution_bit_for_bit(monkeypatch, b, root):
    # the Born side and the Burgers side read V off F by one formula with one root, the
    # complex row of burgers.VARIANTS, so a change of that row reaches both
    if root == "flipped":
        monkeypatch.setitem(burgers.VARIANTS, "complex", -burgers.VARIANTS["complex"])
    grid = GridSpec(dim=1, length=2 * np.pi, n=64)
    x = grid.axis
    psi = ScalarField(grid, (1 + 0.4 * np.cos(x)) * np.exp(1j * (np.sin(x) + 2 * x)))
    want = burgers.BurgersProblem(b, "complex").velocity_component(psi, 0)
    assert np.array_equal(velocity_from_wavefunction(psi, b).values, want)


def test_continuity_transport_uniform_advection():
    # constant velocity translates the profile: rho(x, t) = rho0(x - ct)
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    c, T, dt = 0.8, 1.0, 1e-3
    n_steps = round(T / dt)
    rho0 = ScalarField(grid, 1 + 0.5 * np.cos(x))
    v = np.full((n_steps + 1, grid.n), c)
    history = evolve_density_continuity(rho0, v, dt)
    exact = 1 + 0.5 * np.cos(x - c * T)
    assert np.max(np.abs(history[-1] - exact)) < 1e-6
    mass = history.sum(axis=1) * grid.dx
    assert np.max(np.abs(mass - mass[0])) < 1e-12


def test_transport_kernels_equal_the_public_fft_formulas_bit_for_bit(packet_setup):
    # the pipeline and _reference_report share these kernels, so they are tied to
    # numpy's public FFT here, in the operation order of the public-API code: flux
    # increments g = ifft(fft(v rho) (dt/12) i k), an Euler first step from g_0 three
    # times, then rho - 23 g_j + 16 g_{j-1} - 5 g_{j-2}
    grid, pk = packet_setup
    x, dt = grid.axis, 1 / 1024
    gmult = spectral_multiplier(grid) * (dt / 12)
    v = np.array([pk.current_velocity(x, 0.1 + j * dt) for j in range(6)])
    history = evolve_density_continuity(ScalarField(grid, pk.density(x, 0.1)), v, dt)

    def increment(j):
        return np.fft.ifft(np.fft.fft(v[j] * history[j]) * gmult).real

    g = [increment(0)] * 2
    for j in range(5):
        g.append(increment(j))
        want = history[j] - 23.0 * g[-1] + 16.0 * g[-2] - 5.0 * g[-3]
        assert (history[j + 1] == want).all(), j
    assert AB3 == (23.0, 16.0, 5.0)


def test_continuity_transport_is_stable_at_the_ab3_bound():
    # theta = k_max |v| dt = 63 * 1 * (0.6/63) = 0.6, inside AB3's |theta| <= 0.72 on the
    # imaginary axis; Heun's amplification 1 + theta^4/8 grows round-off in the high modes
    # to 1.6e53 by the last step
    grid = GridSpec(dim=1, length=2 * np.pi, n=128)
    x = grid.axis
    c, dt, n_steps = 1.0, 0.6 / 63, 10_000
    history = evolve_density_continuity(
        ScalarField(grid, 1 + 0.5 * np.cos(x)), np.full((n_steps + 1, grid.n), c), dt
    )
    assert np.isfinite(history).all()
    assert np.max(np.abs(history[-1] - (1 + 0.5 * np.cos(x - c * n_steps * dt)))) < 1e-4


def test_born_pipeline_free_packet_small(packet_setup):
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=pk.b, psi0=psi0)
    rep = born_pipeline(prob, 0.25, 1 / 1024)
    assert rep.sup_relative_error < 1e-4
    assert rep.mass_drift < 1e-10
    assert rep.norm_drift < 1e-10
    assert rep.fp_forward.l_inf < 1e-3
    assert rep.osmotic.l_inf < 1e-3
    assert rep.min_coverage > 0.5
    # the discrepancy series starts at zero and stays bounded
    assert rep.discrepancy_series[0, 1] < 1e-14
    assert rep.discrepancy_series.shape[1] == 3


def test_born_pipeline_requires_enough_snapshots(packet_setup):
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=pk.b, psi0=psi0)
    with pytest.raises(ValueError, match="need at least 2 steps, got 1$"):
        born_pipeline(prob, 1e-3, 1e-3)  # a single step cannot be analysed


def _reference_report(problem, t_final, dt):
    """The Born pipeline as a per-snapshot loop over every state of the split-step run; it keeps
    the gap of every state, and reports the rows of every stride-th step with the maxima of all."""
    dt_eff, states = split_step_states(problem, t_final, dt)
    times = dt_eff * np.arange(len(states), dtype=float)
    grid = problem.grid
    q0 = float(np.real(integrate(states[0].abs2())))
    complex_velocities = [velocity_from_wavefunction(state, problem.b) for state in states]
    velocities = np.array([np.real(vc.values) for vc in complex_velocities])
    rho0 = ScalarField(grid, np.real(states[0].abs2().values) / q0)
    history = evolve_density_continuity(rho0, velocities, dt_eff)
    series = np.empty((len(states), 3))
    for k, state in enumerate(states):
        target = np.real(state.abs2().values) / float(np.real(integrate(state.abs2())))
        gap = float(np.max(np.abs(history[k] - target)))
        series[k] = (times[k], gap, gap / float(target.max()))
    final = states[-1]
    target_final = np.real(final.abs2().values) / float(np.real(integrate(final.abs2())))
    mid = (len(states) - 1) // 2
    tri = [
        ScalarField(grid, np.real(states[k].abs2().values) / q0) for k in (mid - 1, mid, mid + 1)
    ]
    vc = complex_velocities[mid]
    mass = history.sum(axis=1) * grid.dx
    norms = [wavefunction_norm(state) for state in states]
    return BornReport(
        t_final=float(times[-1]),
        dt=dt_eff,
        sup_density_error=float(series[:, 1].max()),
        sup_relative_error=float(series[:, 2].max()),
        final_density_error=float(np.max(np.abs(history[-1] - target_final))),
        mass_drift=float(np.max(np.abs(mass - float(history[0].sum() * grid.dx)))),
        norm_drift=max(abs(norm - norms[0]) for norm in norms),
        min_coverage=min(float(node_mask(state).mean()) for state in states),
        fp_forward=complex_fp_residual(*tri, vc, problem.b, dt_eff),
        continuity=continuity_residual(*tri, vc, dt_eff),
        osmotic=osmotic_constraint_residual(tri[1], vc, problem.b),
        ab3_theta=float(np.abs(spectral_multiplier(grid)).max())
        * float(np.abs(velocities).max()) * dt_eff,
        discrepancy_series=series[:: max(1, len(states) // SERIES_ROWS)],
        final_profiles=np.stack([history[-1], target_final]),
    )


#: a free packet, and one in a trap, where the split step's potential phase
#: ``half_pot`` is not all ones, as on ``born-harmonic``
POTENTIALS = {"free": None, "harmonic": lambda x: 0.5 * (x - 12.0) ** 2}


def _assert_matches_reference(packet_setup, n_steps, potential):
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(b=pk.b, psi0=psi0, potential=POTENTIALS[potential])
    dt = 1 / 1024
    # padded steps run past the last state; they must not overflow or divide by zero either
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rep = born_pipeline(prob, n_steps * dt, dt)
    ref = _reference_report(prob, n_steps * dt, dt)
    for f in dataclasses.fields(BornReport):
        got, want = getattr(rep, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


@pytest.mark.parametrize("potential", POTENTIALS)
def test_born_pipeline_matches_per_snapshot_reference(packet_setup, potential):
    # the step count crosses two chunk boundaries and ends inside a third
    # chunk, which pins the density and velocity carried across chunks
    chunk = CHUNK_POINTS // packet_setup[0].n
    _assert_matches_reference(packet_setup, 2 * chunk + 37, potential)


@pytest.mark.parametrize(
    "chunks, potential",
    [
        ("single", "free"), ("last-full", "free"), ("last-one-step", "free"),
        ("single", "harmonic"), ("last-full", "harmonic"), ("last-one-step", "harmonic"),
    ],
    ids=[
        "single", "last-full", "last-one-step",
        "single-harmonic", "last-full-harmonic", "last-one-step-harmonic",
    ],
)
def test_born_pipeline_matches_reference_at_chunk_edges(packet_setup, chunks, potential):
    # one partial chunk only (the first stage transports nothing but padding and the
    # last evolves nothing but padding), a last chunk that is exactly full (the final
    # stage transports a whole chunk), and a last chunk of one step (all but one of
    # its stage's steps are padding)
    chunk = CHUNK_POINTS // packet_setup[0].n
    n_steps = {"single": chunk - 3, "last-full": 2 * chunk, "last-one-step": chunk + 1}[chunks]
    _assert_matches_reference(packet_setup, n_steps, potential)


def test_born_pipeline_matches_reference_at_a_series_stride(packet_setup):
    # 1,614 states keep every third row, so series rows fall at every offset within a chunk
    # and only some chunks end on one; the maxima still cover every step
    n_steps = 1613
    assert (n_steps + 1) // SERIES_ROWS == 3
    _assert_matches_reference(packet_setup, n_steps, "harmonic")


def _trapped_ground_state_problem():
    grid = GridSpec(dim=1, length=16.0, n=128)
    state = HarmonicState(b=1.0, omega=1.0, centre=8.0)
    psi0 = ScalarField(grid, state.eigenfunction(grid.axis, 0).astype(np.complex128))
    return SchrodingerProblem(b=1.0, psi0=psi0, potential=state.potential)


def _pipeline_peak(prob, n_steps, dt=1e-3):
    return peak_bytes(lambda: born_pipeline(prob, n_steps * dt, dt))


@pytest.mark.parametrize("chunks", [3, 9])
def test_born_pipeline_peaks_at_its_chunk_scratch(chunks):
    # per chunk of K + 1 rows it holds two state buffers and one row of compare and
    # extraction scratch, all complex, and the history, two rows of compare scratch and
    # the velocities, all real; while a chunk's velocities are extracted, its complex
    # velocities and |F| exist too.  Beyond them only the (t, gap, relative gap) series
    # is kept, under 1,024 rows at any step count.  Keeping a chunk's complex velocities
    # until the next chunk's are extracted (16 B a point more) fails it
    prob = _trapped_ground_state_problem()
    n = prob.grid.n
    k = CHUNK_POINTS // n
    scratch = (k + 1) * n * (4 * 16 + 5 * 8)
    series = 1024 * 3 * 8
    peak = _pipeline_peak(prob, chunks * k)
    assert peak <= scratch + series + MB // 8, (peak, scratch + series)


def test_born_pipeline_memory_does_not_grow_with_its_steps():
    # 20,000 more steps keep nothing that lives longer than a chunk: the series keeps
    # 520 rows of them instead of 257 (a row for each of them would be 480 KB)
    prob = _trapped_ground_state_problem()
    k = CHUNK_POINTS // prob.grid.n
    growth = _pipeline_peak(prob, 4 * k + 20_000) - _pipeline_peak(prob, 4 * k)
    assert growth <= MB // 16, growth


def test_born_pipeline_rejects_non_finite_evolution(packet_setup):
    # an infinite wall turns the split-step state into NaN on its support
    grid, pk = packet_setup
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    prob = SchrodingerProblem(
        b=pk.b, psi0=psi0, potential=lambda x: np.where(x > 20.0, np.inf, 0.0)
    )
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        born_pipeline(prob, 0.25, 1 / 1024)


def test_born_pipeline_makes_one_fft_pair_per_step(monkeypatch):
    # each step evolves and takes its one flux increment in one two-row fft and ifft; the
    # rest is per chunk (the velocity extraction) or per run (the first increment g_0), so
    # a run makes 2 calls per step, padding included, and 4 per chunk at most.  Two flux
    # evaluations a step (Heun) make 4 per step
    calls = []

    def counted(name):
        call = getattr(born, name)

        def counting(*args):
            calls.append(name)
            return call(*args)

        return counting

    for name in ("_fft", "_ifft"):
        monkeypatch.setattr(born, name, counted(name))
    prob = _trapped_ground_state_problem()
    k = CHUNK_POINTS // prob.grid.n
    n_steps = 10 * k + 5
    born_pipeline(prob, n_steps * 1e-3, 1e-3)
    stages = -(-n_steps // k) + 1  # every stage runs k steps
    assert calls.count("_fft") == calls.count("_ifft")
    assert 2 * k * stages <= len(calls) <= 2 * k * stages + 4 * stages, (len(calls), n_steps)


@pytest.mark.parametrize("n_steps", [29, 32, 33, 95, 96], ids=lambda n: f"{n}-steps")
def test_born_pipeline_extracts_each_state_once(monkeypatch, packet_setup, n_steps):
    # chunks of 32 steps at 256 points: a chunk's last state is the next one's first, and
    # only the final chunk extracts it; the residuals extract the midpoint state once more
    monkeypatch.setattr(born, "CHUNK_POINTS", 32 * 256)
    rows = []
    extract = born.log_derivative

    def counted(values, *args):
        rows.append(len(values))
        return extract(values, *args)

    monkeypatch.setattr(born, "log_derivative", counted)
    grid, pk = packet_setup
    prob = SchrodingerProblem(b=pk.b, psi0=ScalarField(grid, pk.psi(grid.axis, 0.0)))
    born_pipeline(prob, n_steps / 1024, 1 / 1024)
    assert rows[-1] == 1 and sum(rows[:-1]) == n_steps + 1, rows


@pytest.mark.parametrize("name", ["born-free", "born-harmonic"])
def test_default_born_runs_keep_the_transport_stable(name):
    # AB3 is stable on the imaginary axis while theta = k_max |v| dt <= 0.72
    out = run_experiment(name, dict(EXPERIMENTS[name].defaults), 1234)["summary"]
    assert out["pass"] and 0 <= out["metrics"]["ab3_theta"] < 0.72


def test_born_free_reports_the_theta_of_an_unstable_step():
    # one step per point at 20 cycles: theta passes 0.72, the top modes grow and the
    # density check FAILs; the metric names the cause
    params = dict(EXPERIMENTS["born-free"].defaults, k0_cycles=20, steps_per_point=1)
    out = run_experiment("born-free", params, 1234)["summary"]
    checks = {c["name"]: c for c in out["checks"]}
    assert not checks["relative_density_discrepancy"]["pass"]
    assert 1.0 < out["metrics"]["ab3_theta"] < 1.15
