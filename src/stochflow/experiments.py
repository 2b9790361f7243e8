"""The packaged verification experiments behind the ``stochflow`` CLI.

Each experiment is a deterministic function of ``(params, seed)``.  Its
runner reports through the :class:`_Run` that :func:`run_experiment` hands
it, as it computes each value: ``run.check(name, value)``, ``run.metric(name,
value)`` and ``run.csv(filename, header, rows)`` for a plot-ready table; it
returns nothing.  Its :class:`ExperimentSpec` declares the rest once: the
default parameters, one sentence on what is verified, each check's
comparison, threshold and meaning, and the parameter minimums.
``run.check`` judges each value when it is made: it passes when finite and ``value <comparison> threshold``.
:func:`run_experiment` is the whole run, the same for every caller.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic import (
    FreePacket, HarmonicState, burgers_single_mode, burgers_tanh_wave, gaussian_density,
    ou_mean_variance,
)
from .born import BornReport, born_pipeline
from .burgers import (
    BurgersProblem, heat_evolve_spectral, real_chain_residual, solve_burgers,
)
from .clifford import StretchSpec, check_prop_identities, grad_wedge, linearization_cancellation
from .fields import GridSpec, ScalarField, field_from_function, integrate, time_steps
from .fokker_planck import (
    cfl_timestep, complex_fp_residual, continuity_residual, discrete_stationary_density,
    osmotic_constraint_residual, solve_forward,
)
from .output import jsonable
from .schrodinger import SchrodingerProblem, evolve
from .sde import (
    DiffusionModel, backward_drift_from_forward, complex_path_sums, discretized_action,
    estimate_diffusion, estimate_velocities, make_rng, sample_complex_increments, simulate_forward,
)

# unused names kept: bench/spans.py traces them as ``stochflow.experiments.<name>``
from .clifford import contraction, geometric_product, scalar_product, wedge  # noqa: F401
from .fokker_planck import solve_backward  # noqa: F401

__all__ = ["EXPERIMENTS", "Check", "ExperimentSpec", "run_experiment"]

#: the comparisons a check or a parameter minimum may declare
COMPARATORS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt, "==": operator.eq,
               "!=": operator.ne}


@dataclass(frozen=True)
class Check:
    """A declared check, or the family of checks ``name[...]``: a run passes it
    when its value is finite and ``value <comparison> threshold``, the
    threshold being a number or a function of the params."""

    name: str
    comparison: str
    threshold: float | Callable[[dict], float]
    meaning: str

    def at(self, params: dict) -> float:
        return self.threshold(params) if callable(self.threshold) else self.threshold


@dataclass(frozen=True)
class ExperimentSpec:
    defaults: dict
    describe: str
    runner: Callable[[dict, int, _Run], None]
    checks: tuple[Check, ...]
    #: parameter -> (comparison, bound) that a configured value must satisfy
    minimums: dict = field(default_factory=dict)


class _Run:
    """What one run reports.  A check is judged when it is made, against the
    declared :class:`Check` of its family: the text of its name before any ``[``."""

    def __init__(self, spec: ExperimentSpec, params: dict):
        self.declared = {c.name: c for c in spec.checks}
        self.params = params
        self.checks: dict[str, dict] = {}  # name -> judged check, in the order made
        self.metrics: dict = {}
        self.csvs: dict = {}

    def check(self, name: str, value) -> None:
        declared = self.declared.get(name.split("[")[0])
        if declared is None:
            raise ValueError(f"the run makes check {name!r}, of no declared family")
        if name in self.checks:
            raise ValueError(f"the run makes check {name!r} twice")
        threshold, comparison = declared.at(self.params), declared.comparison
        # finite first, because -inf <= threshold and inf >= threshold hold
        passed = bool(np.isfinite(value)) and bool(COMPARATORS[comparison](value, threshold))
        self.checks[name] = {"name": name, "value": jsonable(value),
                             "threshold": jsonable(threshold), "comparison": comparison,
                             "pass": passed}

    def metric(self, name: str, value) -> None:
        self.metrics[name] = value

    def csv(self, filename: str, header: list[str], rows) -> None:
        self.csvs[filename] = (header, rows)


#: experiment name -> spec, in the order of this module
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _experiment(name: str, **declaration):
    """Register the decorated runner as experiment ``name``, declared by ``declaration``."""
    def register(runner):
        EXPERIMENTS[name] = ExperimentSpec(runner=runner, **declaration)
        return runner
    return register


# -- born-free --------------------------------------------------------------

def _free_packet_problem(n: int, p: dict) -> SchrodingerProblem:
    grid = GridSpec(dim=1, length=p["length"], n=n)
    pk = FreePacket(
        b=p["b"],
        x0=p["length"] / 2 + p["x0_offset"],
        s=p["s"],
        k0=2 * np.pi * p["k0_cycles"] / p["length"],
    )
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    return SchrodingerProblem(b=p["b"], psi0=psi0)


def _discrepancy_csv(rep: BornReport) -> tuple[list[str], list[tuple]]:
    """The Born report's gap series, kept thinned, in O(K n) memory at any step count."""
    return ["t", "sup_gap", "relative_gap"], [tuple(row) for row in rep.discrepancy_series]


@_experiment(
    "born-free",
    defaults={
        "n": 512, "length": 24.0, "b": 1.0, "t_final": 1.0,
        "s": 1.0, "x0_offset": -1.0, "k0_cycles": 4,
        "steps_per_point": 4,
    },
    describe="Free Gaussian packet: the density transported by the continuity equation "
    "alone, with the velocity read off the wave function, matches F F* (normalized).",
    checks=(
        Check("relative_density_discrepancy", "<=", 1e-2, "worst gap to F F*, per its peak"),
        Check("halving_resolution_error_ratio", ">=", 2.5, "that gap at n/2 points over at n"),
        Check("transport_mass_drift", "<=", 1e-8, "largest change of the transported mass"),
        Check("wavefunction_norm_drift", "<=", 1e-8, "largest change of the wave-function norm"),
        Check("complex_transport_residual_forward", "<=", 1e-3, "sup complex transport residual"),
        Check("osmotic_constraint_residual", "<=", 1e-3, "sup |(u rho)' - (b^2/2) rho''|"),
        Check("node_coverage", ">=", 0.5, "precondition of velocity extraction, not a claim: "
              "least fraction of points off the nodes of F"),
    ),
    # the run at n // 2 points needs a grid of at least 8
    minimums={"n": (">=", 16), "steps_per_point": (">=", 1), "s": (">", 0.0)},
)
def _run_born_free(p: dict, seed: int, run: _Run):
    reports = {}
    for n in (p["n"] // 2, p["n"]):
        prob = _free_packet_problem(n, p)
        dt = p["t_final"] / (p["steps_per_point"] * n)
        reports[n] = born_pipeline(prob, p["t_final"], dt)
    rep = reports[p["n"]]
    rep_half = reports[p["n"] // 2]

    run.check("relative_density_discrepancy", rep.sup_relative_error)
    run.check("halving_resolution_error_ratio",
              rep_half.sup_relative_error / rep.sup_relative_error)
    run.check("transport_mass_drift", rep.mass_drift)
    run.check("wavefunction_norm_drift", rep.norm_drift)
    run.check("complex_transport_residual_forward", rep.fp_forward.l_inf)
    run.check("osmotic_constraint_residual", rep.osmotic.l_inf)
    run.check("node_coverage", rep.min_coverage)
    run.metric("sup_density_error", rep.sup_density_error)
    run.metric("final_density_error", rep.final_density_error)
    run.metric("coarse_relative_error", rep_half.sup_relative_error)
    run.metric("dt_fine", rep.dt)
    run.metric("dt_coarse", rep_half.dt)
    run.metric("continuity_residual", rep.continuity.l_inf)
    # the AB3 transport is stable while k_max |v| dt <= 0.72; the larger of the two runs
    run.metric("ab3_theta", max(rep.ab3_theta, rep_half.ab3_theta))
    grid = GridSpec(dim=1, length=p["length"], n=p["n"])
    run.csv("discrepancy_series.csv", *_discrepancy_csv(rep))
    run.csv("final_density.csv", ["x", "rho_transport", "rho_quadratic"],
            list(zip(grid.axis, rep.final_profiles[0], rep.final_profiles[1])))


# -- born-harmonic ----------------------------------------------------------

@_experiment(
    "born-harmonic",
    defaults={
        "n": 128, "length": 16.0, "b": 1.0, "omega": 1.0,
        "t_final": 10.0, "dt": 2.5e-4,
    },
    describe="Trapped ground state: the extracted current velocity vanishes, so the "
    "transported density stays put and matches F F* throughout.",
    checks=(
        Check("stationary_density_discrepancy", "<=", 1e-6, "worst pointwise gap to F F*"),
        Check("wavefunction_norm_drift", "<=", 1e-8, "largest change of the wave-function norm"),
        Check("transport_mass_drift", "<=", 1e-8, "largest change of the transported mass"),
        Check("complex_transport_residual_forward", "<=", 1e-3, "sup complex transport residual"),
        Check("osmotic_constraint_residual", "<=", 1e-3, "sup |(u rho)' - (b^2/2) rho''|"),
    ),
    minimums={"omega": (">", 0.0)},
)
def _run_born_harmonic(p: dict, seed: int, run: _Run):
    grid = GridSpec(dim=1, length=p["length"], n=p["n"])
    state = HarmonicState(b=p["b"], omega=p["omega"], centre=p["length"] / 2)
    psi0 = ScalarField(grid, state.eigenfunction(grid.axis, 0).astype(np.complex128))
    prob = SchrodingerProblem(b=p["b"], psi0=psi0, potential=state.potential)
    rep = born_pipeline(prob, p["t_final"], p["dt"])

    run.check("stationary_density_discrepancy", rep.sup_density_error)
    run.check("wavefunction_norm_drift", rep.norm_drift)
    run.check("transport_mass_drift", rep.mass_drift)
    run.check("complex_transport_residual_forward", rep.fp_forward.l_inf)
    run.check("osmotic_constraint_residual", rep.osmotic.l_inf)
    run.metric("relative_discrepancy", rep.sup_relative_error)
    run.metric("min_coverage", rep.min_coverage)
    run.metric("t_final", rep.t_final)
    run.metric("dt", rep.dt)
    run.metric("ab3_theta", rep.ab3_theta)  # the AB3 transport is stable while k_max |v| dt <= 0.72
    run.csv("discrepancy_series.csv", *_discrepancy_csv(rep))


# -- colehopf-1d ------------------------------------------------------------

@_experiment(
    "colehopf-1d",
    defaults={
        "n": 512, "periods": 1, "b": 1.0, "eps": 0.4, "k_mode": 1,
        "t_final": 1.0, "dt": 1e-3,
    },
    describe="Complex-viscosity velocity equation: a direct pseudo-spectral solve, the "
    "substitution V = -i b^2 F'/F of the wave-equation evolution of F, and the closed form.",
    checks=(
        Check("direct_vs_transform_route", "<=", 1e-2, "sup |V_direct - V_route| at t_final"),
        Check("transform_route_vs_analytic", "<=", 1e-8, "sup |V_route - V_exact| at t_final"),
    ),
    minimums={"eps": (">", 0.0), "k_mode": (">=", 1)},
)
def _run_colehopf_1d(p: dict, seed: int, run: _Run):
    n, b, eps, k_mode, t_final = p["n"], p["b"], p["eps"], p["k_mode"], p["t_final"]
    grid = GridSpec(dim=1, length=2 * np.pi * p["periods"], n=n)
    x = grid.axis
    k = 2 * np.pi * k_mode / grid.length
    omega = b**2 * k**2 / 2

    def f_exact(t: float) -> np.ndarray:
        return 1 + eps * np.exp(-1j * omega * t) * np.cos(k * x)

    def v_exact(t: float) -> np.ndarray:
        return 1j * b**2 * k * eps * np.exp(-1j * omega * t) * np.sin(k * x) / f_exact(t)

    bp = BurgersProblem(b=b, variant="complex")

    # route 1: wave-equation evolution of F, then the substitution
    psi0 = ScalarField(grid, f_exact(0.0))
    prob = SchrodingerProblem(b=b, psi0=psi0)
    f_evolved = evolve(prob, t_final, t_final / 8)
    v_route = bp.to_velocity(f_evolved)[0]

    # route 2: direct nonlinear integration of the complex velocity equation
    v0 = ScalarField(grid, v_exact(0.0))
    v_direct = solve_burgers(bp, v0, t_final, p["dt"]).values

    v_final = v_exact(t_final)
    run.check("direct_vs_transform_route", float(np.max(np.abs(v_direct - v_route))))
    run.check("transform_route_vs_analytic", float(np.max(np.abs(v_route - v_final))))
    run.metric("direct_vs_analytic", float(np.max(np.abs(v_direct - v_final))))
    run.metric("lambda", bp.lam)
    run.metric("omega", omega)
    run.csv(
        "velocity_profiles.csv",
        ["x", "re_direct", "im_direct", "re_route", "im_route", "re_exact", "im_exact"],
        list(
            zip(
                x,
                v_direct.real, v_direct.imag,
                v_route.real, v_route.imag,
                v_final.real, v_final.imag,
            )
        ),
    )


# -- colehopf-3d ------------------------------------------------------------

def _random_log_field(grid: GridSpec, rng, n_terms: int, amp: float, kmax: int) -> np.ndarray:
    """Smooth band-limited real field: a few random cosine modes."""
    coords = grid.coords()
    g = np.zeros(grid.shape)
    base = 2 * np.pi / grid.length
    for _ in range(n_terms):
        kvec = rng.integers(-kmax, kmax + 1, size=3)
        if not np.any(kvec):
            kvec[0] = 1
        phase = rng.uniform(0, 2 * np.pi)
        a = amp * rng.standard_normal() / n_terms
        arg = base * sum(kvec[i] * coords[i] for i in range(3))
        g += a * np.cos(arg + phase)
    return g


@_experiment(
    "colehopf-3d",
    defaults={"n": 32, "b": 1.0, "n_random": 20, "amp": 0.4, "kmax": 2},
    describe="Vectorized substitution in three dimensions: separable velocities, irrotationality, "
    "the cancellation identity on random smooth positive F, and the conjugate map's mirror.",
    checks=(
        Check("separable_velocity_error", "<=", 1e-11, "sup gap to the single-axis closed form"),
        Check("velocity_irrotationality", "<=", 1e-10, "sup |grad ^ V| of the extracted velocity"),
        Check("cancellation_worst_linf", "<=", 1e-10, "worst cancellation residual of n_random F"),
        Check("conjugate_symmetry", "<=", 1e-13, "sup |conj(V[F]) - U[F*]|, U the conjugate map"),
    ),
    # from amp = 1e-3 up, the wrong root +i b^2 misses cancellation_worst_linf by 5,000x or more
    minimums={"n_random": (">=", 1), "amp": (">=", 1e-3), "kmax": (">=", 1)},
)
def _run_colehopf_3d(p: dict, seed: int, run: _Run):
    grid = GridSpec(dim=3, length=2 * np.pi, n=p["n"])
    b = p["b"]
    xs = grid.coords()

    # separable positive F: the velocity components are single-axis ratios
    eps = (0.3, 0.25, 0.2)
    phases = (0.4, 1.1, 2.0)
    factors = [1 + eps[i] * np.cos(xs[i] + phases[i]) for i in range(3)]
    f_vals = factors[0] * factors[1] * factors[2]
    F = ScalarField(grid, f_vals)

    bp = BurgersProblem(b=b, variant="complex")
    vel = bp.to_velocity(F)
    sep_err = 0.0
    for i in range(3):
        expected = bp.lam * (-eps[i] * np.sin(xs[i] + phases[i])) / factors[i]
        sep_err = max(sep_err, float(np.max(np.abs(vel[i] - expected))))
    run.check("separable_velocity_error", sep_err)

    del F, factors  # read; of the separable field only f_vals is kept, for the conjugate check
    run.check("velocity_irrotationality", float(np.max(np.abs(grad_wedge(grid, vel)))))
    del vel

    # cancellation identity on random smooth positive fields
    rng = make_rng(seed)
    worst_cancel = 0.0
    cancel_rows = []
    for trial in range(p["n_random"]):
        g = _random_log_field(grid, rng, n_terms=8, amp=p["amp"], kmax=p["kmax"])
        res = linearization_cancellation(ScalarField(grid, np.exp(g)), b)
        del g  # before the next field is built
        worst_cancel = max(worst_cancel, res.l_inf)
        cancel_rows.append((trial, res.l_inf, res.l2))
    run.check("cancellation_worst_linf", worst_cancel)
    run.csv("cancellation_residuals.csv", ["trial", "l_inf", "l2"], cancel_rows)

    bp_conj = BurgersProblem(b=b, variant="complex-conjugate")

    # conjugate symmetry, one component at a time: from F* the conjugate map mirrors V
    f_complex = ScalarField(grid, f_vals * np.exp(0.3j * np.sin(xs[0])))
    del xs, f_vals
    f_conj = f_complex.conj()
    conj_err = 0.0
    for axis in range(3):
        gap = np.conjugate(bp.velocity_component(f_complex, axis))
        gap -= bp_conj.velocity_component(f_conj, axis)
        conj_err = max(conj_err, float(np.max(np.abs(gap))))
    run.check("conjugate_symmetry", conj_err)
    run.metric("n_random_fields", p["n_random"])
    run.metric("lambda_forward", bp.lam)
    run.metric("lambda_conjugate", bp_conj.lam)


# -- burgers-direct-vs-ch ---------------------------------------------------

def _front_window_limit(p: dict) -> float:
    """The widest ``window_half_width`` that stays clear of the periodic seam.

    The front is not periodic: the seam holds a jump of ``2 c``, which opens
    a fan of width ``2 |c| front_t`` into the domain.  The window must end
    5 diffusion lengths ``sqrt(nu front_t)`` before it; across the front
    speeds, times and amplitudes probed, the window error at that distance
    read at most 3e-4, and 1e-2 at about 3.4 lengths.
    """
    t = p["front_t"]
    return p["front_length"] / 2 - 2 * abs(p["front_speed"]) * t - 5 * np.sqrt(p["b"] ** 2 / 2 * t)


@_experiment(
    "burgers-direct-vs-ch",
    defaults={
        "n": 256, "b": 1.0, "eps": 0.5, "t_final": 1.0, "dt": 1e-3,
        "front_length": 32.0, "front_n": 512, "front_speed": 1.0,
        "front_t": 1.5, "window_half_width": 2.5,
    },
    describe="Real-viscosity velocity equation: the substitution chain, and direct solves "
    "against closed forms and the heat-equation route.",
    checks=(
        Check("single_mode_direct_vs_analytic", "<=", 1e-6, "sup |direct - closed form|"),
        Check("heat_route_vs_analytic", "<=", 1e-8, "sup |heat route - closed form|"),
        Check("roundtrip_gauge_spread", "<=", 1e-10, "relative spread of F_route / F_analytic"),
        Check("travelling_front_window_error", "<=", 1e-2, "sup |direct - tanh front| in window"),
        Check("chain_geodesic_residual", "<=", 1e-5, "sup of the drift side of the chain"),
        Check("chain_rhs_residual", "<=", 1e-5, "sup of the heat side of the chain"),
        Check("chain_sides_difference", "<=", 1e-8, "sup difference of the two sides"),
    ),
    minimums={
        "eps": (">", 0.0), "window_half_width": (">", 0.0), "front_speed": ("!=", 0.0),
        "front_t": (">", 0.0),
    },
)
def _run_burgers_direct_vs_ch(p: dict, seed: int, run: _Run):
    limit = _front_window_limit(p)
    if p["window_half_width"] > limit:
        raise ValueError(
            f"window_half_width must be <= {limit:.6g}, so that the window stays clear of the "
            f"periodic seam, got {p['window_half_width']}"
        )
    b = p["b"]
    nu = b**2 / 2
    bp = BurgersProblem(b=b, variant="reversed")

    # (a) smooth periodic single-mode solution: direct solver vs closed form
    grid = GridSpec(dim=1, length=2 * np.pi, n=p["n"])
    x = grid.axis
    k_mode, eps, t_final = 1.0, p["eps"], p["t_final"]
    a0 = ScalarField(grid, burgers_single_mode(x, 0.0, nu, k_mode, eps))
    a_direct = solve_burgers(bp, a0, t_final, p["dt"])
    a_exact_T = burgers_single_mode(x, t_final, nu, k_mode, eps)
    run.check("single_mode_direct_vs_analytic", float(np.max(np.abs(a_direct.values - a_exact_T))))
    run.csv("single_mode_profiles.csv", ["x", "direct", "analytic"],
            list(zip(x, a_direct.values.real, a_exact_T)))

    # transform route: invert the velocity to F, evolve by the heat
    # equation exactly in Fourier space, map back
    f0, mean0 = bp.from_velocity(a0)
    run.metric("mean_velocity_boost", mean0)
    f_T = heat_evolve_spectral(f0, nu, t_final)
    a_route = bp.to_velocity(f_T)[0]
    run.check("heat_route_vs_analytic", float(np.max(np.abs(a_route - a_exact_T))))

    # round-trip gauge check: reconstructed F agrees with the analytic
    # kernel up to one multiplicative constant
    f_analytic = 1 + eps * np.exp(-nu * k_mode**2 * t_final) * np.cos(k_mode * x)
    ratio = f_T.values / f_analytic
    run.check("roundtrip_gauge_spread", float(np.std(ratio) / np.abs(np.mean(ratio))))

    # (b) travelling front on a wide domain, compared inside the causal window
    gw = GridSpec(dim=1, length=p["front_length"], n=p["front_n"])
    xw = gw.axis
    c = p["front_speed"]
    centre0 = p["front_length"] / 2 - c * p["front_t"]
    a0w = ScalarField(gw, burgers_tanh_wave(xw, 0.0, nu, c, centre0))
    aw = solve_burgers(bp, a0w, p["front_t"], p["dt"])
    exact_w = burgers_tanh_wave(xw, p["front_t"], nu, c, centre0)
    front_final = centre0 + c * p["front_t"]
    window = np.abs(xw - front_final) <= p["window_half_width"]
    gap = np.abs(aw.values - exact_w)
    run.check("travelling_front_window_error", float(np.max(gap[window])))
    run.metric("front_window_points", int(window.sum()))
    run.metric("front_error_global", float(np.max(gap)))
    run.csv("front_window.csv", ["x", "direct", "analytic"],
            list(zip(xw[window], aw.values.real[window], exact_w[window])))

    # (c) the real substitution chain on a reverse-time heat solution
    gc = GridSpec(dim=1, length=2 * np.pi, n=256)
    xc = gc.axis
    kc, ec, tc, dtc = 1.0, 0.2, 0.25, 5e-4

    def u_of(t: float) -> ScalarField:
        return ScalarField(gc, 1 + ec * np.exp(nu * kc**2 * t) * np.cos(kc * xc))

    chain = real_chain_residual(u_of(tc - dtc), u_of(tc), u_of(tc + dtc), b, dtc)
    run.check("chain_geodesic_residual", chain["geodesic"].l_inf)
    run.check("chain_rhs_residual", chain["chain"].l_inf)
    run.check("chain_sides_difference", chain["difference"].l_inf)


# -- sde-estimators ---------------------------------------------------------

#: least paths in a bin for its velocity estimate to count
BIN_PATHS = 500


def _velocity_window(t_final: float, dt: float, half_window: int) -> tuple[int, int]:
    """The steps that a velocity estimate pools: the middle step ``+- half_window``,
    from step 1 on."""
    t_index = time_steps(t_final, dt)[0] // 2
    return max(1, t_index - half_window), t_index + half_window + 1


def _full_bins(ens, p: dict, key: str):
    """The velocity estimate of the bins of ``ens`` that reach ``BIN_PATHS`` positions; a
    ValueError names ``key``, the parameter that sets the path count, when there is none."""
    est = estimate_velocities(ens, min_count=BIN_PATHS)
    if not est.counts.size:
        raise ValueError(f"no bin reaches {BIN_PATHS} paths with {key} = {p[key]}")
    return est


@_experiment(
    "sde-estimators",
    defaults={
        "theta": 1.0, "b": 1.0,
        "n_paths_short": 100_000, "dt_short": 1e-3, "t_short": 0.2,
        "half_window_short": 10, "x0_spread": 0.3,
        "n_paths_long": 20_000, "dt_long": 5e-3, "t_long": 2.0,
        "half_window_long": 20,
    },
    describe="Linear-drift diffusion: binned conditional increments recover the drift, the "
    "quadratic variation recovers b^2, and a stationary run separates v and u.",
    checks=(
        Check("drift_recovery_max_z", "<=", 5.0, "worst |drift + theta x| / stderr, transient"),
        Check("noise_recovery_z", "<=", 5.0, "|estimated b^2 - b^2| / stderr"),
        Check("osmotic_velocity_max_z", "<=", 5.0, "worst |u + theta x| / stderr, stationary"),
        Check("current_velocity_max_z", "<=", 5.0, "worst |v| / stderr, stationary"),
    ),
    minimums={
        "theta": (">", 0.0), "n_paths_short": (">=", 1), "n_paths_long": (">=", 1),
        "half_window_short": (">=", 0), "half_window_long": (">=", 0), "x0_spread": (">=", 0.0),
    },
)
def _run_sde_estimators(p: dict, seed: int, run: _Run):
    theta, b = p["theta"], p["b"]
    model = DiffusionModel(drift=lambda x: -theta * x, b=b)
    # both windows first, so that a bad time step of run (b) fails before run (a)
    window_a = _velocity_window(p["t_short"], p["dt_short"], p["half_window_short"])
    window_b = _velocity_window(p["t_long"], p["dt_long"], p["half_window_long"])

    # (a) transient run at the contract scale: drift and noise recovery
    ens_a = simulate_forward(
        model,
        ("gaussian", 0.0, p["x0_spread"]),
        p["t_short"],
        p["dt_short"],
        p["n_paths_short"],
        seed,
        window=window_a,
    )
    est_a = _full_bins(ens_a, p, "n_paths_short")
    z_drift = np.abs(est_a.forward_drift - (-theta * est_a.centers)) / est_a.forward_stderr
    run.check("drift_recovery_max_z", float(np.max(z_drift)))
    b2_est, b2_err = estimate_diffusion(ens_a)
    run.check("noise_recovery_z", float(abs(b2_est - b**2) / b2_err))
    run.metric("b2_estimate", b2_est)
    run.metric("b2_stderr", b2_err)
    run.metric("bins_used_transient", est_a.counts.size)
    del ens_a  # its running sums are not held through run (b)

    # (b) stationary run: current and osmotic velocities vs the exact
    # stationary answer (v = 0, u = -theta x)
    stat_spread = np.sqrt(b**2 / (2 * theta))
    ens_b = simulate_forward(
        model,
        ("gaussian", 0.0, stat_spread),
        p["t_long"],
        p["dt_long"],
        p["n_paths_long"],
        seed + 1,
        window=window_b,
    )
    est_b = _full_bins(ens_b, p, "n_paths_long")
    stderr_uv = 0.5 * (est_b.forward_stderr + est_b.backward_stderr)
    z_osmotic = np.abs(est_b.osmotic - (-theta * est_b.centers)) / stderr_uv
    run.check("osmotic_velocity_max_z", float(np.max(z_osmotic)))
    run.check("current_velocity_max_z", float(np.max(np.abs(est_b.current) / stderr_uv)))
    run.metric("bins_used_stationary", est_b.counts.size)
    run.metric("stationary_spread", stat_spread)
    run.csv(
        "velocity_bins.csv",
        ["center", "count", "forward", "backward", "current", "osmotic",
         "stderr_forward", "stderr_backward"],
        list(zip(est_b.centers, est_b.counts, est_b.forward_drift, est_b.backward_drift,
                 est_b.current, est_b.osmotic, est_b.forward_stderr, est_b.backward_stderr)),
    )


# -- complex-increments -----------------------------------------------------

def _mean_tolerance(p: dict) -> float:
    """Three standard errors of a unit-variance mean over ``n_samples`` draws."""
    return 3.0 / np.sqrt(p["n_samples"])


@_experiment(
    "complex-increments",
    defaults={"pairs": [[1.0, 1.0], [1.0, 0.5], [2.0, 1.0]], "dt": 0.01, "n_samples": 1_000_000},
    describe="Complex noise dZ = (b dW + i bhat dW')/(sqrt(2) sigma): sampled moments "
    "against their closed forms, for each (b, bhat) pair.",
    checks=(
        Check("mean_dz", "<=", _mean_tolerance, "|mean dZ| per pair, bound ~ 1/sqrt(n_samples)"),
        Check("mean_dz2", "<=", _mean_tolerance, "|mean dZ^2 - its closed form| per pair"),
        Check("mean_dzdzbar", "<=", _mean_tolerance, "|mean dZ dZ* - dt| per pair"),
    ),
    minimums={"n_samples": (">=", 1)},
)
def _run_complex_increments(p: dict, seed: int, run: _Run):
    rows = []
    for idx, (b, bhat) in enumerate(tuple(map(tuple, p["pairs"]))):
        stats = sample_complex_increments(b, bhat, p["dt"], p["n_samples"], seed + idx)
        tag = f"b={b:g},bhat={bhat:g}"
        run.check(f"mean_dz[{tag}]", abs(stats.mean_dz))
        run.check(f"mean_dz2[{tag}]", abs(stats.mean_dz2 - stats.expected_dz2))
        run.check(f"mean_dzdzbar[{tag}]", abs(stats.mean_dzdzbar - stats.expected_dzdzbar))
        rows.append((b, bhat, stats.mean_dz, stats.mean_dz2, stats.mean_dzdzbar,
                     stats.expected_dz2, stats.expected_dzdzbar))
    run.metric("n_samples", p["n_samples"])
    run.metric("dt", p["dt"])
    run.metric("tolerance", _mean_tolerance(p))
    run.csv(
        "moments.csv",
        ["b", "bhat", "re_mean_dz", "im_mean_dz", "re_mean_dz2", "im_mean_dz2",
         "re_mean_dzdzbar", "im_mean_dzdzbar", "re_expected_dz2", "im_expected_dz2",
         "re_expected_dzdzbar", "im_expected_dzdzbar"],
        rows,
    )


# -- variational ------------------------------------------------------------

@_experiment(
    "variational",
    defaults={
        "b": 1.0, "n_theta": 21, "n_paths": 20_000, "dt": 0.01,
        "t_final": 1.0, "t_complex": 0.5,
    },
    describe="Compensated kinetic action S = E sum[(dX)^2/dt - b^2] over the drifts "
    "theta sin(x), with common random numbers: S is least where theta vanishes, the true drift.",
    checks=(
        Check("sampled_argmin_at_zero", "<=", 1e-12, "|theta| of the least sampled action"),
        Check("quadratic_fit_minimum", "<=", 0.1, "|theta| at the minimum of a quadratic fit"),
        Check("quadratic_fit_curvature_positive", ">=", 0.0, "curvature of that fit"),
        Check("constant_drift_action_z", "<=", 5.0, "|S - T| / stderr for constant drift a = 1"),
        Check("complex_path_sum_squared", "<=", lambda p: 3.0 / np.sqrt(p["n_paths"]),
              "|E (sum dZ)^2| of balanced complex noise, bound ~ 1/sqrt(n_paths)"),
    ),
    minimums={"n_theta": (">=", 3), "n_paths": (">=", 2)},
)
def _run_variational(p: dict, seed: int, run: _Run):
    m, dt_complex = time_steps(p["t_complex"], p["dt"])
    b = p["b"]
    thetas = np.linspace(-1.0, 1.0, p["n_theta"])
    # the whole sweep as one batch: every theta sees the same initial samples
    # and per-step draws (common random numbers); only running sums are kept
    family = DiffusionModel(drift=lambda x: thetas[:, None] * np.sin(x), b=b)
    sweep = simulate_forward(
        family, ("gaussian", np.pi, 1.0), p["t_final"], p["dt"], p["n_paths"], seed
    )
    values, errors = discretized_action(sweep)
    run.csv("action_sweep.csv", ["theta", "action", "stderr"], list(zip(thetas, values, errors)))

    zero_idx = int(np.argmin(np.abs(thetas)))
    run.metric("action_at_zero", float(values[zero_idx]))
    run.metric("action_stderr_at_zero", float(errors[zero_idx]))
    run.check("sampled_argmin_at_zero", float(abs(thetas[int(np.argmin(values))])))
    coeffs = np.polyfit(thetas, values, 2)
    curvature = float(2 * coeffs[0])
    theta_hat = float(-coeffs[1] / (2 * coeffs[0]))
    run.check("quadratic_fit_minimum", abs(theta_hat))
    run.check("quadratic_fit_curvature_positive", curvature)
    run.metric("curvature", curvature)
    run.metric("theta_hat", theta_hat)

    # spot value: constant drift a = 1 gives S ~= a^2 T = 1
    const_model = DiffusionModel(drift=np.ones_like, b=b)
    const_ens = simulate_forward(const_model, 0.0, p["t_final"], p["dt"], p["n_paths"], seed + 1)
    const_value, const_err = discretized_action(const_ens)
    run.check("constant_drift_action_z", float(abs(const_value - p["t_final"]) / const_err))
    run.metric("constant_drift_action", float(const_value))

    # path-sum moment of the balanced complex noise: E (sum dZ)^2 ~ 0
    w = complex_path_sums(b, b, dt_complex, p["n_paths"], m, seed + 2)
    run.check("complex_path_sum_squared", abs(complex((w * w).mean())))


# -- ga-identities ----------------------------------------------------------

@_experiment(
    "ga-identities",
    defaults={"n": 24, "b": 1.0},
    describe="The stretched-gradient identities on trigonometric fields, with one documented "
    "way they fail.",
    checks=(
        Check("time_commutation", "<=", 1e-10, "sup [d_t, C(grad)] residual per valid stretch"),
        Check("laplacian_commutation", "<=", 1e-10, "sup [lap, C(grad)] residual, the same"),
        Check("convective_gradient", "<=", 1e-10, "sup |(w.grad) w - grad(w.w)/2|, the same"),
        Check("convective_gradient_requires_irrotational", ">=", 1e-3,
              "the same residual for an invalid stretch/field: it must fail"),
    ),
    minimums={"b": (">", 0.0)},  # b = 0: no stretch, nothing checked
)
def _run_ga_identities(p: dict, seed: int, run: _Run):
    # gradient identities on trigonometric-polynomial fields
    grid = GridSpec(dim=3, length=2 * np.pi, n=p["n"])
    b_scale = p["b"]
    f_general = field_from_function(
        grid,
        lambda x, y, z: np.sin(x) * np.cos(y) + 0.3 * np.cos(z) + 0.2 * np.sin(x) * np.sin(z),
    )
    f_additive = field_from_function(
        grid, lambda x, y, z: np.sin(x) + np.cos(y) + 0.5 * np.sin(2 * z)
    )
    iso = StretchSpec.isotropic(-1j * b_scale**2)
    aniso = StretchSpec((1.0, 2.0, 3.0))

    res_iso = check_prop_identities(f_general, iso)
    res_aniso = check_prop_identities(f_additive, aniso)
    res_invalid = check_prop_identities(f_general, aniso)

    for tag, res in (("isotropic", res_iso), ("anisotropic_additive", res_aniso)):
        for key, val in res.items():
            run.check(f"{key}[{tag}]", val.l_inf)
    # the convective identity genuinely fails without irrotationality;
    # a nonzero residual here is the documented precondition at work
    run.check("convective_gradient_requires_irrotational", res_invalid["convective_gradient"].l_inf)

    run.metric("invalid_combo_residual", res_invalid["convective_gradient"].l_inf)
    rows = []
    for tag, res in (
        ("isotropic", res_iso),
        ("anisotropic_additive", res_aniso),
        ("anisotropic_general", res_invalid),
    ):
        for key, val in res.items():
            rows.append((tag, key, val.l_inf, val.l2))
    run.csv("identity_residuals.csv", ["config", "identity", "l_inf", "l2"], rows)


# -- fp-consistency ---------------------------------------------------------

@_experiment(
    "fp-consistency",
    defaults={
        "b": 1.0, "n_stationary": 256, "drift_amp": 1.0, "n_fixed_steps": 100,
        "length_transient": 12.0, "n_transient": 512, "theta": 1.0,
        "t_transient": 1.0, "dt_residual": 1e-3,
    },
    describe="Density transport: the discrete stationary state is a fixed point, "
    "a transient keeps its mass and tracks the closed form, and an analytic packet "
    "splits into its residuals.",
    checks=(
        Check("stationary_fixed_point_one_step", "<=", 1e-12, "relative change after one step"),
        Check("stationary_fixed_point_many_steps", "<=", 1e-10, "the same after n_fixed_steps"),
        Check("mass_conservation", "<=", 1e-8, "mass change over the transient run"),
        Check("transient_vs_analytic", "<=", 2e-2, "sup gap to the linear-drift closed form"),
        Check("discrete_vs_analytic_stationary", "<=", 1e-2, "sup gap of rho* to von Mises"),
        Check("backward_drift_construction", "<=", 1e-10, "sup |osmotic backward drift - c sin x|"),
        Check("packet_continuity_residual", "<=", 1e-5, "sup continuity residual, packet"),
        Check("packet_osmotic_residual", "<=", 1e-9, "sup osmotic-constraint residual, packet"),
        Check("packet_complex_residual_forward", "<=", 1e-3, "sup complex transport residual"),
        Check("continuity_time_order_ratio", ">=", 3.0, "continuity residual at dt / at dt/2"),
    ),
    # a negative drift amplitude mirrors the drift; zero leaves five checks nothing to compare
    minimums={"theta": (">", 0.0), "dt_residual": (">", 0.0), "drift_amp": ("!=", 0.0)},
)
def _run_fp_consistency(p: dict, seed: int, run: _Run):
    b = p["b"]

    # (a) periodic sine drift: exact discrete stationary state
    grid = GridSpec(dim=1, length=2 * np.pi, n=p["n_stationary"])
    x = grid.axis
    c = p["drift_amp"]
    model = DiffusionModel(drift=lambda y: -c * np.sin(y), b=b)
    rho_star = discrete_stationary_density(model, grid)
    scale = float(np.max(np.real(rho_star.values)))
    dt = cfl_timestep(model, grid)

    one = solve_forward(model, rho_star, dt)
    fixed_1 = float(np.max(np.abs(one.values.real - rho_star.values.real))) / scale
    many = solve_forward(model, rho_star, p["n_fixed_steps"] * dt)
    fixed_n = float(np.max(np.abs(many.values.real - rho_star.values.real))) / scale

    # analytic stationary density (von Mises) for shape comparison
    kappa = 2 * c / b**2
    rho_vm = np.exp(kappa * np.cos(x)) / (2 * np.pi * np.i0(kappa))
    disc_vs_analytic = float(np.max(np.abs(rho_star.values.real - rho_vm)))

    # osmotic construction of the backward drift from the analytic density
    rho_vm_field = ScalarField(grid, rho_vm)
    back_drift = backward_drift_from_forward(model, rho_vm_field)
    back_drift_err = float(np.max(np.abs(back_drift - (c * np.sin(x)))))

    # (b) transient accuracy and mass conservation on a linear-drift problem
    gt = GridSpec(dim=1, length=p["length_transient"], n=p["n_transient"])
    xc = gt.length / 2
    theta = p["theta"]
    trans = DiffusionModel(drift=lambda y: -theta * (y - xc), b=b)
    rho0 = ScalarField(gt, gaussian_density(gt.axis, xc - 1.0, 0.25))
    out = solve_forward(trans, rho0, p["t_transient"])
    transient_mass = float(np.real(integrate(out)))
    mean_t, var_t = ou_mean_variance(p["t_transient"], theta, b, -1.0, 0.25)
    rho_exact = gaussian_density(gt.axis, xc + mean_t, var_t)
    transient_err = float(np.max(np.abs(out.values.real - rho_exact)))
    mass_drift = abs(transient_mass - float(np.real(integrate(rho0))))

    # (c) residual split on the analytic moving packet (manufactured solution)
    gp = GridSpec(dim=1, length=24.0, n=256)
    pk = FreePacket(b=b, x0=gp.length / 2 - 1.0, s=1.0, k0=2 * np.pi * 4 / gp.length)
    t_mid, dtp = 0.5, p["dt_residual"]

    def rho_at(t: float) -> ScalarField:
        return ScalarField(gp, pk.density(gp.axis, t))

    v_mid = ScalarField(gp, pk.current_velocity(gp.axis, t_mid).astype(np.complex128))
    u_mid = ScalarField(gp, pk.osmotic_velocity(gp.axis, t_mid).astype(np.complex128))
    vc_mid = ScalarField(gp, pk.complex_velocity(gp.axis, t_mid))

    rho_mid = rho_at(t_mid)
    tri = [rho_at(t_mid - dtp), rho_mid, rho_at(t_mid + dtp)]
    tri_half = [rho_at(t_mid - dtp / 2), rho_mid, rho_at(t_mid + dtp / 2)]
    cont = continuity_residual(*tri, v_mid, dtp)
    cont_half = continuity_residual(*tri_half, v_mid, dtp / 2)
    order_ratio = cont.l_inf / max(cont_half.l_inf, 1e-300)
    osm = osmotic_constraint_residual(rho_mid, u_mid, b)
    fp_f = complex_fp_residual(*tri, vc_mid, b, dtp)

    run.check("stationary_fixed_point_one_step", fixed_1)
    run.check("stationary_fixed_point_many_steps", fixed_n)
    run.check("mass_conservation", float(mass_drift))
    run.check("transient_vs_analytic", transient_err)
    run.check("discrete_vs_analytic_stationary", disc_vs_analytic)
    run.check("backward_drift_construction", back_drift_err)
    run.check("packet_continuity_residual", cont.l_inf)
    run.check("packet_osmotic_residual", osm.l_inf)
    run.check("packet_complex_residual_forward", fp_f.l_inf)
    run.check("continuity_time_order_ratio", float(order_ratio))
    run.metric("cfl_dt", dt)
    run.metric("kappa", kappa)
    run.metric("transient_mass", transient_mass)
    run.metric("continuity_residual_half_dt", cont_half.l_inf)
    run.csv("stationary_profiles.csv", ["x", "rho_discrete", "rho_analytic"],
            list(zip(x, rho_star.values.real, rho_vm)))


def _matches(value, default) -> bool:
    """Whether ``value`` has the type of ``default``: an int may stand for a float,
    a bool for nothing, and every element of a list must match the default's first."""
    expected = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, expected):
        return False
    if isinstance(default, list) and default:
        return all(_matches(v, default[0]) for v in value)
    return True


def _type_name(default) -> str:
    if isinstance(default, list) and default:
        return f"list of {_type_name(default[0])}"
    return type(default).__name__


def run_experiment(name: str, overrides: dict, seed: int) -> dict:
    """Execute one experiment; returns the full summary dict (no I/O).

    ``overrides``, which may be partial, is laid over a fresh copy of the
    defaults.  This is the one gate for a configuration, so the library and
    ``stochflow run`` reject the same inputs with the same reason: before
    the runner starts, a ValueError naming the key refuses a seed that is
    not a non-negative int, an unknown key, a value not of its default's
    type (:func:`_matches`), a non-finite float and a value past its
    declared minimum.  Each check name is judged at its ``run.check`` call,
    which raises one for a name of no declared family (the text before any
    ``[``) or a name already made; a declared family that the run never
    checks raises one once the runner returns.  The checks keep the order in
    which the runner made them.  The runner runs under
    ``np.errstate(all="ignore")``, whatever the caller's state.
    """
    spec = EXPERIMENTS[name]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"'seed' must be of type int, >= 0, got {json.dumps(seed, default=repr)}")
    params = dict(spec.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} (known: {', '.join(sorted(params))})")
        if not _matches(value, params[key]):
            got = json.dumps(value, default=repr)
            raise ValueError(f"{key!r} must be of type {_type_name(params[key])}, got {got}")
        if isinstance(params[key], float) and not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        params[key] = value
    for key, (comparison, bound) in spec.minimums.items():
        if not COMPARATORS[comparison](params[key], bound):
            raise ValueError(f"{key} must be {comparison} {bound}, got {params[key]}")
    run = _Run(spec, params)
    with np.errstate(all="ignore"):  # a non-finite value is caught, not warned about
        spec.runner(params, seed, run)
    unreported = run.declared.keys() - {key.split("[")[0] for key in run.checks}
    if unreported:
        raise ValueError(f"the run makes no check of the declared {sorted(unreported)}")
    checks = list(run.checks.values())
    summary = {
        "experiment": name,
        "seed": seed,
        "params": params,
        "checks": checks,
        "metrics": run.metrics,
        "pass": all(c["pass"] for c in checks),
    }
    return {"summary": summary, "csvs": run.csvs}
