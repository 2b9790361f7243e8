"""The packaged verification experiments behind the ``stochflow`` CLI.

Each experiment is a deterministic function of ``(params, seed)`` that
returns a measured value per check name, a dict of additional metrics,
and plot-ready CSV tables.  Its :class:`ExperimentSpec` declares the rest
once: the default parameters, one sentence on what is verified, each
check's comparison, threshold and meaning, and the parameter minimums.
:func:`run_experiment` judges the values against that declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic import (
    FreePacket, HarmonicState, burgers_single_mode, burgers_tanh_wave, gaussian_density,
    ou_mean_variance,
)
from .born import born_pipeline
from .burgers import (
    BurgersProblem, heat_evolve_spectral, inversion_diagnostic, real_chain_residual, solve_burgers,
)
from .clifford import (
    Multivector, StretchSpec, check_prop_identities, contraction, geometric_product, grad_wedge,
    linearization_cancellation, scalar_product, wedge,
)
from .fields import GridSpec, ScalarField, field_from_function, integrate, time_steps
from .fokker_planck import (
    cfl_timestep, complex_fp_residual, continuity_residual, discrete_stationary_density,
    osmotic_constraint_residual, solve_backward, solve_forward,
)
from .output import COMPARATORS, all_passed, check
from .schrodinger import SchrodingerProblem, evolve
from .sde import (
    DiffusionModel, backward_drift_from_forward, complex_increment_blocks, discretized_action,
    estimate_diffusion, estimate_velocities, make_rng, sample_complex_increments,
    simulate_forward,
)

__all__ = ["EXPERIMENTS", "Check", "ExperimentSpec", "run_experiment"]


@dataclass(frozen=True)
class Check:
    """A declared check, or the family of checks ``name[...]``: a run passes it
    when ``value <comparison> threshold``, the threshold being a number or a
    function of the params."""

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
    runner: Callable[[dict, int], tuple[dict, dict, dict]]
    checks: tuple[Check, ...]
    #: parameter -> (comparison, bound) that a configured value must satisfy
    minimums: dict = field(default_factory=dict)


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
        Check("complex_transport_residual_conjugate", "<=", 1e-3, "the same, conjugate variant"),
        Check("osmotic_constraint_residual", "<=", 1e-3, "sup |(u rho)' - (b^2/2) rho''|"),
        Check("node_coverage", ">=", 0.5, "least fraction of points off the nodes of F"),
    ),
    # the run at n // 2 points needs a grid of at least 8
    minimums={"n": (">=", 16), "steps_per_point": (">=", 1)},
)
def _run_born_free(p: dict, seed: int):
    reports = {}
    for n in (p["n"] // 2, p["n"]):
        prob = _free_packet_problem(n, p)
        dt = p["t_final"] / (p["steps_per_point"] * n)
        reports[n] = born_pipeline(prob, p["t_final"], dt)
    rep = reports[p["n"]]
    rep_half = reports[p["n"] // 2]
    ratio = rep_half.sup_relative_error / rep.sup_relative_error

    checks = {
        "relative_density_discrepancy": rep.sup_relative_error,
        "halving_resolution_error_ratio": ratio,
        "transport_mass_drift": rep.mass_drift,
        "wavefunction_norm_drift": rep.norm_drift,
        "complex_transport_residual_forward": rep.fp_forward.l_inf,
        "complex_transport_residual_conjugate": rep.fp_conjugate.l_inf,
        "osmotic_constraint_residual": rep.osmotic.l_inf,
        "node_coverage": rep.min_coverage,
    }
    metrics = {
        "sup_density_error": rep.sup_density_error,
        "final_density_error": rep.final_density_error,
        "coarse_relative_error": rep_half.sup_relative_error,
        "dt_fine": rep.dt,
        "dt_coarse": rep_half.dt,
        "continuity_residual": rep.continuity.l_inf,
    }
    grid = GridSpec(dim=1, length=p["length"], n=p["n"])
    series = rep.discrepancy_series
    stride = max(1, series.shape[0] // 512)
    csvs = {
        "discrepancy_series.csv": (
            ["t", "sup_gap", "relative_gap"],
            [tuple(row) for row in series[::stride]],
        ),
        "final_density.csv": (
            ["x", "rho_transport", "rho_quadratic"],
            list(zip(grid.axis, rep.final_profiles[0], rep.final_profiles[1])),
        ),
    }
    return checks, metrics, csvs


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
)
def _run_born_harmonic(p: dict, seed: int):
    grid = GridSpec(dim=1, length=p["length"], n=p["n"])
    state = HarmonicState(b=p["b"], omega=p["omega"], centre=p["length"] / 2)
    psi0 = ScalarField(grid, state.eigenfunction(grid.axis, 0).astype(np.complex128))
    prob = SchrodingerProblem(b=p["b"], psi0=psi0, potential=state.potential)
    rep = born_pipeline(prob, p["t_final"], p["dt"])

    checks = {
        "stationary_density_discrepancy": rep.sup_density_error,
        "wavefunction_norm_drift": rep.norm_drift,
        "transport_mass_drift": rep.mass_drift,
        "complex_transport_residual_forward": rep.fp_forward.l_inf,
        "osmotic_constraint_residual": rep.osmotic.l_inf,
    }
    metrics = {
        "relative_discrepancy": rep.sup_relative_error,
        "min_coverage": rep.min_coverage,
        "t_final": rep.t_final,
        "dt": rep.dt,
    }
    series = rep.discrepancy_series
    stride = max(1, series.shape[0] // 512)
    csvs = {
        "discrepancy_series.csv": (
            ["t", "sup_gap", "relative_gap"],
            [tuple(row) for row in series[::stride]],
        ),
    }
    return checks, metrics, csvs


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
        Check("lambda_root_residual", "==", 0.0, "|lambda^2 + i b^2 lambda| of the substitution"),
        Check("node_margin", ">=", lambda p: 0.5 * (1 - p["eps"]),
              "min |F| at t_final; the bound is half its closed form, 1 - eps"),
    ),
    minimums={"eps": (">", 0.0), "k_mode": (">=", 1)},
)
def _run_colehopf_1d(p: dict, seed: int):
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
    lam = bp.lam
    lam_residual = abs(lam**2 + 1j * b**2 * lam)

    # route 1: wave-equation evolution of F, then the substitution
    psi0 = ScalarField(grid, f_exact(0.0))
    prob = SchrodingerProblem(b=b, psi0=psi0)
    f_evolved = evolve(prob, t_final, t_final / 8)
    v_route = bp.to_velocity(f_evolved)[0]

    # route 2: direct nonlinear integration of the complex velocity equation
    v0 = ScalarField(grid, v_exact(0.0))
    v_direct = solve_burgers(bp, v0, t_final, p["dt"]).values

    direct_vs_route = float(np.max(np.abs(v_direct - v_route)))
    route_vs_exact = float(np.max(np.abs(v_route - v_exact(t_final))))
    direct_vs_exact = float(np.max(np.abs(v_direct - v_exact(t_final))))
    node_margin = float(np.min(np.abs(f_exact(t_final))))

    checks = {
        "direct_vs_transform_route": direct_vs_route,
        "transform_route_vs_analytic": route_vs_exact,
        "lambda_root_residual": lam_residual,
        "node_margin": node_margin,
    }
    metrics = {
        "direct_vs_analytic": direct_vs_exact,
        "lambda": lam,
        "omega": omega,
    }
    csvs = {
        "velocity_profiles.csv": (
            ["x", "re_direct", "im_direct", "re_route", "im_route", "re_exact", "im_exact"],
            list(
                zip(
                    x,
                    v_direct.real, v_direct.imag,
                    v_route.real, v_route.imag,
                    v_exact(t_final).real, v_exact(t_final).imag,
                )
            ),
        ),
    }
    return checks, metrics, csvs


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
    "the cancellation identity on random smooth positive F, and the exact stretch roots.",
    checks=(
        Check("separable_velocity_error", "<=", 1e-11, "sup gap to the single-axis closed form"),
        Check("velocity_irrotationality", "<=", 1e-10, "sup |grad ^ V| of the extracted velocity"),
        Check("cancellation_worst_linf", "<=", 1e-10, "worst cancellation residual of n_random F"),
        Check("lambda_roots_exact", "==", 0.0, "gap of the two roots from -i b^2 and +i b^2"),
        Check("conjugate_symmetry", "<=", 1e-13, "sup |conj(V[F]) - U[F*]|, U the conjugate map"),
    ),
    # from amp = 1e-3 up, the wrong root +i b^2 misses cancellation_worst_linf by 5,000x or more
    minimums={"n_random": (">=", 1), "amp": (">=", 1e-3)},
)
def _run_colehopf_3d(p: dict, seed: int):
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

    wedge_norm = float(np.max(np.abs(grad_wedge(grid, vel))))

    # cancellation identity on random smooth positive fields
    rng = make_rng(seed)
    worst_cancel = 0.0
    cancel_rows = []
    for trial in range(p["n_random"]):
        g = _random_log_field(grid, rng, n_terms=8, amp=p["amp"], kmax=p["kmax"])
        F_rand = ScalarField(grid, np.exp(g))
        res = linearization_cancellation(F_rand, b)
        worst_cancel = max(worst_cancel, res.l_inf)
        cancel_rows.append((trial, res.l_inf, res.l2))

    bp_conj = BurgersProblem(b=b, variant="complex-conjugate")
    lam_f, lam_c = bp.lam, bp_conj.lam
    root_err = max(abs(lam_f - (-1j * b**2)), abs(lam_c - (1j * b**2)))

    # conjugate symmetry: extracting from F* with the conjugate map mirrors V
    f_complex = ScalarField(grid, f_vals * np.exp(0.3j * np.sin(xs[0])))
    v_fwd = bp.to_velocity(f_complex)
    u_conj = bp_conj.to_velocity(f_complex.conj())
    conj_err = float(np.max(np.abs(np.conj(v_fwd) - u_conj)))

    checks = {
        "separable_velocity_error": sep_err,
        "velocity_irrotationality": wedge_norm,
        "cancellation_worst_linf": worst_cancel,
        "lambda_roots_exact": root_err,
        "conjugate_symmetry": conj_err,
    }
    metrics = {
        "n_random_fields": p["n_random"],
        "lambda_forward": lam_f,
        "lambda_conjugate": lam_c,
    }
    csvs = {
        "cancellation_residuals.csv": (
            ["trial", "l_inf", "l2"],
            cancel_rows,
        ),
    }
    return checks, metrics, csvs


# -- burgers-direct-vs-ch ---------------------------------------------------

@_experiment(
    "burgers-direct-vs-ch",
    defaults={
        "n": 256, "b": 1.0, "eps": 0.5, "t_final": 1.0, "dt": 1e-3,
        "front_length": 32.0, "front_n": 512, "front_speed": 1.0,
        "front_t": 1.5, "window_half_width": 2.5,
    },
    describe="Real-viscosity velocity equation: direct solves against closed forms and the "
    "heat-equation route, the substitution chain, and the literal inverse (log a)_x.",
    checks=(
        Check("single_mode_direct_vs_analytic", "<=", 1e-6, "sup |direct - closed form|"),
        Check("heat_route_vs_analytic", "<=", 1e-8, "sup |heat route - closed form|"),
        Check("roundtrip_gauge_spread", "<=", 1e-10, "relative spread of F_route / F_analytic"),
        Check("travelling_front_window_error", "<=", 1e-2, "sup |direct - tanh front| in window"),
        Check("chain_geodesic_residual", "<=", 1e-5, "sup of the drift side of the chain"),
        Check("chain_rhs_residual", "<=", 1e-5, "sup of the heat side of the chain"),
        Check("chain_sides_difference", "<=", 1e-8, "sup difference of the two sides"),
        Check("literal_inverse_constant_drift", "==", 0.0, "share where (log a)_x exists, a = 1"),
        Check("literal_inverse_smooth_drift", ">=", 0.9, "the same share for a = 2 + sin x"),
    ),
)
def _run_burgers_direct_vs_ch(p: dict, seed: int):
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
    single_mode_err = float(np.max(np.abs(a_direct.values - a_exact_T)))

    # transform route: invert the velocity to F, evolve by the heat
    # equation exactly in Fourier space, map back
    f0, mean0 = bp.from_velocity(a0)
    f_T = heat_evolve_spectral(f0, nu, t_final)
    a_route = bp.to_velocity(f_T)[0]
    route_err = float(np.max(np.abs(a_route - a_exact_T)))

    # round-trip gauge check: reconstructed F agrees with the analytic
    # kernel up to one multiplicative constant
    f_analytic = 1 + eps * np.exp(-nu * k_mode**2 * t_final) * np.cos(k_mode * x)
    ratio = f_T.values / f_analytic
    gauge_spread = float(np.std(ratio) / np.abs(np.mean(ratio)))

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
    front_err = float(np.max(np.abs(aw.values[window] - exact_w[window])))

    # (c) the real substitution chain on a reverse-time heat solution
    gc = GridSpec(dim=1, length=2 * np.pi, n=256)
    xc = gc.axis
    kc, ec, tc, dtc = 1.0, 0.2, 0.25, 5e-4

    def u_of(t: float) -> ScalarField:
        return ScalarField(gc, 1 + ec * np.exp(nu * kc**2 * t) * np.cos(kc * xc))

    chain = real_chain_residual(u_of(tc - dtc), u_of(tc), u_of(tc + dtc), b, dtc)

    # (d) degeneracy of the literal inversion u = (log a)_x
    defined_const = inversion_diagnostic(ScalarField(gc, np.ones(gc.n)))
    defined_smooth = inversion_diagnostic(ScalarField(gc, 2 + np.sin(xc)))

    checks = {
        "single_mode_direct_vs_analytic": single_mode_err,
        "heat_route_vs_analytic": route_err,
        "roundtrip_gauge_spread": gauge_spread,
        "travelling_front_window_error": front_err,
        "chain_geodesic_residual": chain["geodesic"].l_inf,
        "chain_rhs_residual": chain["chain"].l_inf,
        "chain_sides_difference": chain["difference"].l_inf,
        "literal_inverse_constant_drift": defined_const,
        "literal_inverse_smooth_drift": defined_smooth,
    }
    metrics = {
        "front_window_points": int(window.sum()),
        "mean_velocity_boost": mean0,
        "front_error_global": float(np.max(np.abs(aw.values - exact_w))),
    }
    csvs = {
        "single_mode_profiles.csv": (
            ["x", "direct", "analytic"],
            list(zip(x, a_direct.values.real, a_exact_T)),
        ),
        "front_window.csv": (
            ["x", "direct", "analytic"],
            list(zip(xw[window], aw.values.real[window], exact_w[window])),
        ),
    }
    return checks, metrics, csvs


# -- sde-estimators ---------------------------------------------------------

#: least paths in a bin for its velocity estimate to count
BIN_PATHS = 500


def _velocity_window(t_final: float, dt: float, half_window: int) -> tuple[int, int]:
    """The time columns to store for a velocity estimate: the middle step
    ``+- half_window``, whose pooled steps ``estimate_velocities`` reads,
    and one neighbour on each side."""
    t_index = time_steps(t_final, dt)[0] // 2
    return max(0, t_index - half_window - 1), t_index + half_window + 2


def _full_bins(est, p: dict, key: str) -> np.ndarray:
    """The mask of bins with ``BIN_PATHS`` paths and finite estimates; a ValueError
    names ``key``, the parameter that sets the path count, when no bin has them."""
    ok = (est.counts >= BIN_PATHS) & est.valid()
    if not ok.any():
        raise ValueError(f"no bin reaches {BIN_PATHS} paths with {key} = {p[key]}")
    return ok


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
        "n_paths_short": (">=", 1), "n_paths_long": (">=", 1),
        "half_window_short": (">=", 0), "half_window_long": (">=", 0),
    },
)
def _run_sde_estimators(p: dict, seed: int):
    theta, b = p["theta"], p["b"]
    model = DiffusionModel(drift=lambda x: -theta * x, b=b)

    # (a) transient run at the contract scale: drift and noise recovery
    ens_a = simulate_forward(
        model,
        ("gaussian", 0.0, p["x0_spread"]),
        p["t_short"],
        p["dt_short"],
        p["n_paths_short"],
        seed,
        window=_velocity_window(p["t_short"], p["dt_short"], p["half_window_short"]),
    )
    est_a = estimate_velocities(ens_a, min_count=BIN_PATHS)
    ok = _full_bins(est_a, p, "n_paths_short")
    z_drift = float(
        np.max(
            np.abs(est_a.forward_drift[ok] - (-theta * est_a.centers[ok]))
            / est_a.forward_stderr[ok]
        )
    )
    b2_est, b2_err = estimate_diffusion(ens_a)
    z_noise = abs(b2_est - b**2) / b2_err

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
        window=_velocity_window(p["t_long"], p["dt_long"], p["half_window_long"]),
    )
    est_b = estimate_velocities(ens_b, min_count=BIN_PATHS)
    okb = _full_bins(est_b, p, "n_paths_long")
    stderr_uv = 0.5 * (est_b.forward_stderr[okb] + est_b.backward_stderr[okb])
    z_osmotic = float(
        np.max(np.abs(est_b.osmotic[okb] - (-theta * est_b.centers[okb])) / stderr_uv)
    )
    z_current = float(np.max(np.abs(est_b.current[okb]) / stderr_uv))

    checks = {
        "drift_recovery_max_z": z_drift,
        "noise_recovery_z": float(z_noise),
        "osmotic_velocity_max_z": z_osmotic,
        "current_velocity_max_z": z_current,
    }
    metrics = {
        "b2_estimate": b2_est,
        "b2_stderr": b2_err,
        "bins_used_transient": int(ok.sum()),
        "bins_used_stationary": int(okb.sum()),
        "stationary_spread": stat_spread,
    }
    csvs = {
        "velocity_bins.csv": (
            ["center", "count", "forward", "backward", "current", "osmotic",
             "stderr_forward", "stderr_backward"],
            [
                (
                    est_b.centers[i], int(est_b.counts[i]), est_b.forward_drift[i],
                    est_b.backward_drift[i], est_b.current[i], est_b.osmotic[i],
                    est_b.forward_stderr[i], est_b.backward_stderr[i],
                )
                for i in range(est_b.centers.size)
                if okb[i]
            ],
        ),
    }
    return checks, metrics, csvs


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
def _run_complex_increments(p: dict, seed: int):
    checks = {}
    rows = []
    for idx, (b, bhat) in enumerate(tuple(map(tuple, p["pairs"]))):
        stats = sample_complex_increments(b, bhat, p["dt"], p["n_samples"], seed + idx)
        tag = f"b={b:g},bhat={bhat:g}"
        checks[f"mean_dz[{tag}]"] = abs(stats.mean_dz)
        checks[f"mean_dz2[{tag}]"] = abs(stats.mean_dz2 - stats.expected_dz2)
        checks[f"mean_dzdzbar[{tag}]"] = abs(stats.mean_dzdzbar - stats.expected_dzdzbar)
        rows.append((b, bhat, stats.mean_dz, stats.mean_dz2, stats.mean_dzdzbar,
                     stats.expected_dz2, stats.expected_dzdzbar))
    metrics = {"n_samples": p["n_samples"], "dt": p["dt"], "tolerance": _mean_tolerance(p)}
    csvs = {
        "moments.csv": (
            ["b", "bhat", "re_mean_dz", "im_mean_dz", "re_mean_dz2", "im_mean_dz2",
             "re_mean_dzdzbar", "im_mean_dzdzbar", "re_expected_dz2", "im_expected_dz2",
             "re_expected_dzdzbar", "im_expected_dzdzbar"],
            rows,
        ),
    }
    return checks, metrics, csvs


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
def _run_variational(p: dict, seed: int):
    m, dt_complex = time_steps(p["t_complex"], p["dt"])
    b = p["b"]
    thetas = np.linspace(-1.0, 1.0, p["n_theta"])
    # the whole sweep as one batch: every theta sees the same initial samples
    # and per-step draws (common random numbers); only running sums are kept
    family = DiffusionModel(drift=lambda x: thetas[:, None] * np.sin(x), b=b)
    sweep = simulate_forward(
        family, ("gaussian", np.pi, 1.0), p["t_final"], p["dt"], p["n_paths"], seed, window=(0, 0)
    )
    act = discretized_action(sweep)
    values, errors = act.value, act.stderr

    zero_idx = int(np.argmin(np.abs(thetas)))
    argmin_idx = int(np.argmin(values))
    coeffs = np.polyfit(thetas, values, 2)
    curvature = float(2 * coeffs[0])
    theta_hat = float(-coeffs[1] / (2 * coeffs[0]))

    # spot value: constant drift a = 1 gives S ~= a^2 T = 1
    const_model = DiffusionModel(drift=np.ones_like, b=b)
    const_ens = simulate_forward(
        const_model, 0.0, p["t_final"], p["dt"], p["n_paths"], seed + 1, window=(0, 0)
    )
    const_act = discretized_action(const_ens)
    const_value = const_act.value
    z_const = abs(const_value - p["t_final"]) / const_act.stderr

    # path-sum moment of the balanced complex noise: E (sum dZ)^2 ~ 0
    w = np.empty(p["n_paths"], dtype=complex)
    shape = (p["n_paths"], m)
    for rows, dz in complex_increment_blocks(b, b, dt_complex, shape, make_rng(seed + 2)):
        w[rows] = dz.sum(axis=1)
    path_sum_sq = complex((w * w).mean())

    checks = {
        "sampled_argmin_at_zero": float(abs(thetas[argmin_idx])),
        "quadratic_fit_minimum": abs(theta_hat),
        "quadratic_fit_curvature_positive": curvature,
        "constant_drift_action_z": float(z_const),
        "complex_path_sum_squared": abs(path_sum_sq),
    }
    metrics = {
        "action_at_zero": float(values[zero_idx]),
        "action_stderr_at_zero": float(errors[zero_idx]),
        "curvature": curvature,
        "constant_drift_action": float(const_value),
        "theta_hat": theta_hat,
    }
    csvs = {
        "action_sweep.csv": (
            ["theta", "action", "stderr"],
            list(zip(thetas, values, errors)),
        ),
    }
    return checks, metrics, csvs


# -- ga-identities ----------------------------------------------------------

@_experiment(
    "ga-identities",
    defaults={"n": 24, "b": 1.0, "n_algebra_trials": 50},
    describe="Multivector algebra, exact on integer coefficients, and the stretched-gradient "
    "identities on trigonometric fields, with one documented way they fail.",
    checks=(
        Check("blade_relations_exact", "==", 0.0, "largest coefficient error, blade relations"),
        Check("product_axioms_exact", "==", 0.0, "the same for associativity, distributivity"),
        Check("time_commutation", "<=", 1e-10, "sup [d_t, C(grad)] residual per valid stretch"),
        Check("laplacian_commutation", "<=", 1e-10, "sup [lap, C(grad)] residual, the same"),
        Check("directional_symmetry", "<=", 1e-10, "sup directional-symmetry residual, the same"),
        Check("convective_gradient", "<=", 1e-10, "sup |(w.grad) w - grad(w.w)/2|, the same"),
        Check("convective_gradient_requires_irrotational", ">=", 1e-3,
              "the same residual for an invalid stretch/field: it must fail"),
        Check("cancellation_identity", "<=", 1e-10, "sup cancellation residual, positive F"),
    ),
    minimums={"n_algebra_trials": (">=", 1)},
)
def _run_ga_identities(p: dict, seed: int):
    e1 = Multivector.basis("e1")
    e2 = Multivector.basis("e2")
    e12 = Multivector.basis("e12")
    e23 = Multivector.basis("e23")
    e123 = Multivector.basis("e123")

    def exact_zero(m: Multivector) -> float:
        return float(np.max(np.abs(m.coeffs)))

    algebra_err = max(
        exact_zero(geometric_product(e1, e2) - e12),
        exact_zero(geometric_product(e2, e1) + e12),
        exact_zero(geometric_product(e1, e1) - Multivector.scalar(1.0)),
        exact_zero(geometric_product(e123, e123) + Multivector.scalar(1.0)),
        exact_zero(wedge(e1, e23) - e123),
        exact_zero(wedge(e1, e12)),
        # vector-bivector contraction: e1 . e12 = e2, e2 . e12 = -e1
        exact_zero(contraction(e1, e12) - e2),
        exact_zero(contraction(e2, e12) + e1),
        abs(scalar_product(e12, e12) - (-1.0)),
        abs(scalar_product(e1, e1) - 1.0),
    )

    # associativity and distributivity, exact on small-integer coefficients
    rng = make_rng(seed)
    assoc_err = 0.0
    for _ in range(p["n_algebra_trials"]):
        a_mv, b_mv, c_mv = (
            Multivector(rng.integers(-9, 10, size=8).astype(np.complex128)) for _ in range(3)
        )
        lhs = geometric_product(geometric_product(a_mv, b_mv), c_mv)
        rhs = geometric_product(a_mv, geometric_product(b_mv, c_mv))
        assoc_err = max(assoc_err, exact_zero(lhs - rhs))
        dist = geometric_product(a_mv, b_mv + c_mv) - (
            geometric_product(a_mv, b_mv) + geometric_product(a_mv, c_mv)
        )
        assoc_err = max(assoc_err, exact_zero(dist))

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

    checks = {
        "blade_relations_exact": algebra_err,
        "product_axioms_exact": assoc_err,
    }
    for tag, res in (("isotropic", res_iso), ("anisotropic_additive", res_aniso)):
        for key, val in res.items():
            checks[f"{key}[{tag}]"] = val.l_inf
    # the convective identity genuinely fails without irrotationality;
    # a nonzero residual here is the documented precondition at work
    checks["convective_gradient_requires_irrotational"] = res_invalid["convective_gradient"].l_inf
    f_positive = ScalarField(grid, np.exp(0.25 * np.real(f_general.values)))
    cancel = linearization_cancellation(f_positive, b_scale)
    checks["cancellation_identity"] = cancel.l_inf

    metrics = {
        "invalid_combo_residual": res_invalid["convective_gradient"].l_inf,
        "n_algebra_trials": p["n_algebra_trials"],
    }
    rows = []
    for tag, res in (
        ("isotropic", res_iso),
        ("anisotropic_additive", res_aniso),
        ("anisotropic_general", res_invalid),
    ):
        for key, val in res.items():
            rows.append((tag, key, val.l_inf, val.l2))
    csvs = {"identity_residuals.csv": (["config", "identity", "l_inf", "l2"], rows)}
    return checks, metrics, csvs


# -- fp-consistency ---------------------------------------------------------

@_experiment(
    "fp-consistency",
    defaults={
        "b": 1.0, "n_stationary": 256, "drift_amp": 1.0, "n_fixed_steps": 100,
        "length_transient": 12.0, "n_transient": 512, "theta": 1.0,
        "t_transient": 1.0, "dt_residual": 1e-3,
    },
    describe="Density transport: the discrete stationary state is a fixed point both ways, "
    "a transient keeps its mass and tracks the closed form, and an analytic packet "
    "splits into its residuals.",
    checks=(
        Check("stationary_fixed_point_one_step", "<=", 1e-12, "relative change after one step"),
        Check("stationary_fixed_point_many_steps", "<=", 1e-10, "the same after n_fixed_steps"),
        Check("backward_fixed_point", "<=", 1e-10, "the same, backward with the reversed drift"),
        Check("mass_conservation", "<=", 1e-8, "mass change over the transient run"),
        Check("transient_vs_analytic", "<=", 2e-2, "sup gap to the linear-drift closed form"),
        Check("discrete_vs_analytic_stationary", "<=", 1e-2, "sup gap of rho* to von Mises"),
        Check("backward_drift_construction", "<=", 1e-10, "sup |osmotic backward drift - c sin x|"),
        Check("packet_continuity_residual", "<=", 1e-5, "sup continuity residual, packet"),
        Check("packet_osmotic_residual", "<=", 1e-9, "sup osmotic-constraint residual, packet"),
        Check("packet_complex_residual_forward", "<=", 1e-3, "sup complex transport residual"),
        Check("packet_complex_residual_conjugate", "<=", 1e-3, "the same, conjugate variant"),
        Check("continuity_time_order_ratio", ">=", 3.0, "continuity residual at dt / at dt/2"),
    ),
)
def _run_fp_consistency(p: dict, seed: int):
    b = p["b"]

    # (a) periodic sine drift: exact discrete stationary state
    grid = GridSpec(dim=1, length=2 * np.pi, n=p["n_stationary"])
    x = grid.axis
    c = p["drift_amp"]
    model = DiffusionModel(drift=lambda y: -c * np.sin(y), b=b)
    rho_star = discrete_stationary_density(model, grid)
    scale = float(np.max(np.real(rho_star.values)))
    dt = cfl_timestep(model, grid)

    one = solve_forward(model, rho_star, dt, dt=dt)
    fixed_1 = float(np.max(np.abs(one.values.real - rho_star.values.real))) / scale
    many = solve_forward(model, rho_star, p["n_fixed_steps"] * dt, dt=dt)
    fixed_n = float(np.max(np.abs(many.values.real - rho_star.values.real))) / scale

    # analytic stationary density (von Mises) for shape comparison
    kappa = 2 * c / b**2
    rho_vm = np.exp(kappa * np.cos(x)) / (2 * np.pi * np.i0(kappa))
    disc_vs_analytic = float(np.max(np.abs(rho_star.values.real - rho_vm)))

    # backward evolution: at stationarity the reversed drift is exactly -a,
    # giving the identical discrete update
    back = DiffusionModel(drift=lambda y: c * np.sin(y), b=b)
    back_out = solve_backward(back, rho_star, p["n_fixed_steps"] * dt, dt=dt)
    fixed_back = float(np.max(np.abs(back_out.values.real - rho_star.values.real))) / scale

    # osmotic construction of the backward drift from the analytic density
    rho_vm_field = ScalarField(grid, rho_vm)
    back_model = backward_drift_from_forward(model, rho_vm_field)
    back_drift_err = float(np.max(np.abs(back_model.drift(x) - (c * np.sin(x)))))

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

    cont = continuity_residual(rho_at(t_mid - dtp), rho_at(t_mid), rho_at(t_mid + dtp), v_mid, dtp)
    cont_half = continuity_residual(
        rho_at(t_mid - dtp / 2), rho_at(t_mid), rho_at(t_mid + dtp / 2), v_mid, dtp / 2
    )
    order_ratio = cont.l_inf / max(cont_half.l_inf, 1e-300)
    osm = osmotic_constraint_residual(rho_at(t_mid), u_mid, b)
    fp_f = complex_fp_residual(
        rho_at(t_mid - dtp), rho_at(t_mid), rho_at(t_mid + dtp), vc_mid, b, dtp, "forward"
    )
    fp_c = complex_fp_residual(
        rho_at(t_mid - dtp), rho_at(t_mid), rho_at(t_mid + dtp), vc_mid, b, dtp, "conjugate"
    )

    checks = {
        "stationary_fixed_point_one_step": fixed_1,
        "stationary_fixed_point_many_steps": fixed_n,
        "backward_fixed_point": fixed_back,
        "mass_conservation": float(mass_drift),
        "transient_vs_analytic": transient_err,
        "discrete_vs_analytic_stationary": disc_vs_analytic,
        "backward_drift_construction": back_drift_err,
        "packet_continuity_residual": cont.l_inf,
        "packet_osmotic_residual": osm.l_inf,
        "packet_complex_residual_forward": fp_f.l_inf,
        "packet_complex_residual_conjugate": fp_c.l_inf,
        "continuity_time_order_ratio": float(order_ratio),
    }
    metrics = {
        "cfl_dt": dt,
        "kappa": kappa,
        "transient_mass": transient_mass,
        "continuity_residual_half_dt": cont_half.l_inf,
    }
    csvs = {
        "stationary_profiles.csv": (
            ["x", "rho_discrete", "rho_analytic"],
            list(zip(x, rho_star.values.real, rho_vm)),
        ),
    }
    return checks, metrics, csvs


def run_experiment(name: str, params: dict, seed: int) -> dict:
    """Execute one experiment; returns the full summary dict (no I/O).

    A parameter that misses its declared minimum is a ValueError, and so is
    a run whose check names (the text before any ``[``) differ from the
    declared ones.  The checks keep the order in which the runner made them.
    """
    spec = EXPERIMENTS[name]
    for key, (comparison, bound) in spec.minimums.items():
        if not COMPARATORS[comparison](params[key], bound):
            raise ValueError(f"{key} must be {comparison} {bound}, got {params[key]}")
    values, metrics, csvs = spec.runner(params, seed)
    declared = {c.name: c for c in spec.checks}
    families = [key.split("[")[0] for key in values]
    if set(families) != declared.keys():
        raise ValueError(
            f"the run makes checks {sorted(set(families))}, not the declared {sorted(declared)}"
        )
    checks = [
        check(key, value, declared[f].at(params), declared[f].comparison)
        for (key, value), f in zip(values.items(), families)
    ]
    summary = {
        "experiment": name,
        "seed": seed,
        "params": params,
        "checks": checks,
        "metrics": metrics,
        "pass": all_passed(checks),
    }
    return {"summary": summary, "csvs": csvs}
