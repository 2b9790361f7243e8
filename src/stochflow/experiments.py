"""The packaged verification experiments behind the ``stochflow`` CLI.

Each experiment is a deterministic function of ``(params, seed)`` that
returns machine-checkable results: a list of pass/fail checks with
measured values and thresholds, a dict of additional metrics, and
plot-ready CSV tables.  The registry maps experiment names to their
default parameters and a description of what is verified.

The ten experiments jointly cover the package's claims:

=====================  =====================================================
born-free              transported density equals |F|^2 for a moving packet
born-harmonic          stationarity of the trapped ground state over T = 10
colehopf-1d            complex-viscosity Burgers vs the wave-equation route
colehopf-3d            vectorized substitution, cancellation identity, roots
burgers-direct-vs-ch   real-viscosity solver vs analytic and transform routes
sde-estimators         drift/noise/velocity estimators vs known diffusions
complex-increments     moments of the complex noise increment
variational            action minimality over a drift family; path sums
ga-identities          multivector algebra axioms and gradient identities
fp-consistency         density solvers: mass, fixed points, residual splits
=====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import (
    FreePacket,
    HarmonicState,
    burgers_single_mode,
    burgers_tanh_wave,
    gaussian_density,
    ou_mean_variance,
)
from .born import born_pipeline
from .burgers import (
    BurgersProblem,
    ColeHopfMap,
    heat_evolve_spectral,
    inversion_diagnostic,
    real_chain_residual,
    solve_burgers,
    solve_linearization_condition,
)
from .clifford import (
    Multivector,
    StretchSpec,
    check_prop_identities,
    geometric_product,
    grad_wedge,
    linearization_cancellation,
    scalar_product,
    wedge,
    contraction,
)
from .fields import GridSpec, ScalarField, field_from_function, integrate, time_steps
from .fokker_planck import (
    DensityState,
    cfl_timestep,
    complex_fp_residual,
    continuity_residual,
    discrete_stationary_density,
    osmotic_constraint_residual,
    solve_backward,
    solve_forward,
)
from .output import all_passed, check
from .schrodinger import SchrodingerProblem, evolve
from .sde import (
    DiffusionModel,
    backward_drift_from_forward,
    discretized_action,
    estimate_diffusion,
    estimate_velocities,
    make_rng,
    sample_complex_increments,
    simulate_forward,
)

__all__ = ["EXPERIMENTS", "ExperimentSpec", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    defaults: dict
    describe: str
    runner: Callable[[dict, int], tuple[list[dict], dict, dict]]


# ---------------------------------------------------------------------------
# born-free
# ---------------------------------------------------------------------------

def _free_packet_problem(n: int, p: dict) -> SchrodingerProblem:
    grid = GridSpec(dim=1, length=p["length"], n=n)
    pk = FreePacket(
        b=p["b"],
        x0=p["length"] / 2 + p["x0_offset"],
        s=p["s"],
        k0=2 * np.pi * p["k0_cycles"] / p["length"],
    )
    psi0 = ScalarField(grid, pk.psi(grid.axis, 0.0))
    return SchrodingerProblem(grid=grid, b=p["b"], psi0=psi0)


def _run_born_free(p: dict, seed: int):
    if p["steps_per_point"] < 1:
        raise ValueError(f"need at least one step per grid point, got {p['steps_per_point']}")
    reports = {}
    for n in (p["n"] // 2, p["n"]):
        prob = _free_packet_problem(n, p)
        dt = p["t_final"] / (p["steps_per_point"] * n)
        reports[n] = born_pipeline(prob, p["t_final"], dt)
    rep = reports[p["n"]]
    rep_half = reports[p["n"] // 2]
    ratio = rep_half.sup_relative_error / rep.sup_relative_error

    checks = [
        check("relative_density_discrepancy", rep.sup_relative_error, 1e-2),
        check("halving_resolution_error_ratio", ratio, 2.5, ">="),
        check("transport_mass_drift", rep.mass_drift, 1e-8),
        check("wavefunction_norm_drift", rep.norm_drift, 1e-8),
        check("complex_transport_residual_forward", rep.fp_forward.l_inf, 1e-3),
        check("complex_transport_residual_conjugate", rep.fp_conjugate.l_inf, 1e-3),
        check("osmotic_constraint_residual", rep.osmotic.l_inf, 1e-3),
        check("node_coverage", rep.min_coverage, 0.5, ">="),
    ]
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


# ---------------------------------------------------------------------------
# born-harmonic
# ---------------------------------------------------------------------------

def _run_born_harmonic(p: dict, seed: int):
    grid = GridSpec(dim=1, length=p["length"], n=p["n"])
    state = HarmonicState(b=p["b"], omega=p["omega"], centre=p["length"] / 2)
    psi0 = ScalarField(grid, state.eigenfunction(grid.axis, 0).astype(np.complex128))
    prob = SchrodingerProblem(
        grid=grid, b=p["b"], psi0=psi0, potential=state.potential
    )
    rep = born_pipeline(prob, p["t_final"], p["dt"])

    checks = [
        check("stationary_density_discrepancy", rep.sup_density_error, 1e-6),
        check("wavefunction_norm_drift", rep.norm_drift, 1e-8),
        check("transport_mass_drift", rep.mass_drift, 1e-8),
        check("complex_transport_residual_forward", rep.fp_forward.l_inf, 1e-3),
        check("osmotic_constraint_residual", rep.osmotic.l_inf, 1e-3),
    ]
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


# ---------------------------------------------------------------------------
# colehopf-1d
# ---------------------------------------------------------------------------

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

    ch = ColeHopfMap(b=b, variant="complex")
    lam = ch.lam
    lam_residual = abs(lam**2 + 1j * b**2 * lam)

    # route 1: wave-equation evolution of F, then the substitution
    psi0 = ScalarField(grid, f_exact(0.0))
    prob = SchrodingerProblem(grid=grid, b=b, psi0=psi0)
    f_evolved = evolve(prob, t_final, t_final / 8).final()
    v_route = ch.to_velocity(f_evolved).values

    # route 2: direct nonlinear integration of the complex velocity equation
    bp = BurgersProblem(grid=grid, b=b, variant="complex")
    v0 = ScalarField(grid, v_exact(0.0))
    v_direct = solve_burgers(bp, v0, t_final, p["dt"]).values

    direct_vs_route = float(np.max(np.abs(v_direct - v_route)))
    route_vs_exact = float(np.max(np.abs(v_route - v_exact(t_final))))
    direct_vs_exact = float(np.max(np.abs(v_direct - v_exact(t_final))))
    node_margin = float(np.min(np.abs(f_exact(t_final))))

    checks = [
        check("direct_vs_transform_route", direct_vs_route, 1e-2),
        check("transform_route_vs_analytic", route_vs_exact, 1e-8),
        check("lambda_root_residual", lam_residual, 0.0, "=="),
        check("node_margin", node_margin, 0.5 * (1 - eps), ">="),
    ]
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


# ---------------------------------------------------------------------------
# colehopf-3d
# ---------------------------------------------------------------------------

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


def _run_colehopf_3d(p: dict, seed: int):
    if p["n_random"] < 1:
        raise ValueError(f"the cancellation check needs at least one random field, got {p['n_random']}")
    grid = GridSpec(dim=3, length=2 * np.pi, n=p["n"])
    b = p["b"]
    xs = grid.coords()

    # separable positive F: the velocity components are single-axis ratios
    eps = (0.3, 0.25, 0.2)
    phases = (0.4, 1.1, 2.0)
    factors = [1 + eps[i] * np.cos(xs[i] + phases[i]) for i in range(3)]
    f_vals = factors[0] * factors[1] * factors[2]
    F = ScalarField(grid, f_vals)

    ch = ColeHopfMap(b=b, variant="complex")
    vel = ch.to_velocity_vector(F)
    sep_err = 0.0
    for i in range(3):
        expected = ch.lam * (-eps[i] * np.sin(xs[i] + phases[i])) / factors[i]
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

    lam_f = solve_linearization_condition("complex", b)
    lam_c = solve_linearization_condition("complex-conjugate", b)
    root_err = max(abs(lam_f - (-1j * b**2)), abs(lam_c - (1j * b**2)))

    # conjugate symmetry: extracting from F* with the conjugate map mirrors V
    f_complex = ScalarField(grid, f_vals * np.exp(0.3j * np.sin(xs[0])))
    v_fwd = ch.to_velocity_vector(f_complex)
    ch_conj = ColeHopfMap(b=b, variant="complex-conjugate")
    u_conj = ch_conj.to_velocity_vector(f_complex.conj())
    conj_err = float(np.max(np.abs(np.conj(v_fwd) - u_conj)))

    checks = [
        check("separable_velocity_error", sep_err, 1e-11),
        check("velocity_irrotationality", wedge_norm, 1e-10),
        check("cancellation_worst_linf", worst_cancel, 1e-10),
        check("lambda_roots_exact", root_err, 0.0, "=="),
        check("conjugate_symmetry", conj_err, 1e-13),
    ]
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


# ---------------------------------------------------------------------------
# burgers-direct-vs-ch
# ---------------------------------------------------------------------------

def _run_burgers_direct_vs_ch(p: dict, seed: int):
    b = p["b"]
    nu = b**2 / 2

    # (a) smooth periodic single-mode solution: direct solver vs closed form
    grid = GridSpec(dim=1, length=2 * np.pi, n=p["n"])
    x = grid.axis
    k_mode, eps, t_final = 1.0, p["eps"], p["t_final"]
    a0 = ScalarField(grid, burgers_single_mode(x, 0.0, nu, k_mode, eps))
    bp = BurgersProblem(grid=grid, b=b, variant="reversed")
    a_direct = solve_burgers(bp, a0, t_final, p["dt"])
    a_exact_T = burgers_single_mode(x, t_final, nu, k_mode, eps)
    single_mode_err = float(np.max(np.abs(a_direct.values - a_exact_T)))

    # transform route: invert the velocity to F, evolve by the heat
    # equation exactly in Fourier space, map back
    ch = ColeHopfMap(b=b, variant="reversed")
    f0, mean0 = ch.from_velocity(a0)
    f_T = heat_evolve_spectral(f0, nu, t_final)
    a_route = ch.to_velocity(f_T)
    route_err = float(np.max(np.abs(a_route.values - a_exact_T)))

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
    bpw = BurgersProblem(grid=gw, b=b, variant="reversed")
    aw = solve_burgers(bpw, a0w, p["front_t"], p["dt"])
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
    diag_const = inversion_diagnostic(ScalarField(gc, np.ones(gc.n)))
    diag_smooth = inversion_diagnostic(ScalarField(gc, 2 + np.sin(xc)))

    checks = [
        check("single_mode_direct_vs_analytic", single_mode_err, 1e-6),
        check("heat_route_vs_analytic", route_err, 1e-8),
        check("roundtrip_gauge_spread", gauge_spread, 1e-10),
        check("travelling_front_window_error", front_err, 1e-2),
        check("chain_geodesic_residual", chain["geodesic"].l_inf, 1e-5),
        check("chain_rhs_residual", chain["chain"].l_inf, 1e-5),
        check("chain_sides_difference", chain["difference"].l_inf, 1e-8),
        check("literal_inverse_constant_drift", diag_const["defined_fraction"], 0.0, "=="),
        check("literal_inverse_smooth_drift", diag_smooth["defined_fraction"], 0.9, ">="),
    ]
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


# ---------------------------------------------------------------------------
# sde-estimators
# ---------------------------------------------------------------------------

def _velocity_window(t_final: float, dt: float, half_window: int) -> tuple[int, int]:
    """The time columns ``estimate_velocities`` reads at its default
    ``t_index``: the middle step ``+- (half_window + 1)``."""
    t_index = time_steps(t_final, dt)[0] // 2
    return max(0, t_index - half_window - 1), t_index + half_window + 2


def _run_sde_estimators(p: dict, seed: int):
    theta, b = p["theta"], p["b"]
    model = DiffusionModel(drift=lambda x, t: -theta * x, b=b)

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
    est_a = estimate_velocities(ens_a, half_window=p["half_window_short"], min_count=500)
    ok = est_a.counts >= 500
    ok &= np.isfinite(est_a.forward_drift)
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
    est_b = estimate_velocities(ens_b, half_window=p["half_window_long"], min_count=500)
    okb = (est_b.counts >= 500) & est_b.valid()
    stderr_uv = 0.5 * (est_b.forward_stderr[okb] + est_b.backward_stderr[okb])
    z_osmotic = float(
        np.max(np.abs(est_b.osmotic[okb] - (-theta * est_b.centers[okb])) / stderr_uv)
    )
    z_current = float(np.max(np.abs(est_b.current[okb]) / stderr_uv))

    checks = [
        check("drift_recovery_max_z", z_drift, 5.0),
        check("noise_recovery_z", float(z_noise), 5.0),
        check("osmotic_velocity_max_z", z_osmotic, 5.0),
        check("current_velocity_max_z", z_current, 5.0),
    ]
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


# ---------------------------------------------------------------------------
# complex-increments
# ---------------------------------------------------------------------------

def _run_complex_increments(p: dict, seed: int):
    checks = []
    rows = []
    for idx, (b, bhat) in enumerate(tuple(map(tuple, p["pairs"]))):
        stats = sample_complex_increments(b, bhat, p["dt"], p["n_samples"], seed + idx)
        tol = 3.0 / np.sqrt(stats.n_samples)
        tag = f"b={b:g},bhat={bhat:g}"
        checks.extend(
            [
                check(f"mean_dz[{tag}]", abs(stats.mean_dz), tol),
                check(f"mean_dz2[{tag}]", abs(stats.mean_dz2 - stats.expected_dz2), tol),
                check(
                    f"mean_dzdzbar[{tag}]",
                    abs(stats.mean_dzdzbar - stats.expected_dzdzbar),
                    tol,
                ),
            ]
        )
        rows.append(
            (
                b, bhat, stats.mean_dz, stats.mean_dz2, stats.mean_dzdzbar,
                stats.expected_dz2, stats.expected_dzdzbar,
            )
        )
    metrics = {"n_samples": p["n_samples"], "dt": p["dt"], "tolerance": 3.0 / np.sqrt(p["n_samples"])}
    csvs = {
        "moments.csv": (
            ["b", "bhat", "re_mean_dz", "im_mean_dz", "re_mean_dz2", "im_mean_dz2",
             "re_mean_dzdzbar", "im_mean_dzdzbar", "re_expected_dz2", "im_expected_dz2",
             "re_expected_dzdzbar", "im_expected_dzdzbar"],
            rows,
        ),
    }
    return checks, metrics, csvs


# ---------------------------------------------------------------------------
# variational
# ---------------------------------------------------------------------------

def _run_variational(p: dict, seed: int):
    if p["n_theta"] < 3:
        raise ValueError(f"a quadratic fit needs at least 3 values of theta, got {p['n_theta']}")
    if not (p["dt"] > 0 and 0.5 < p["t_complex"] / p["dt"] < np.inf):  # round(t_complex/dt) >= 1
        raise ValueError(f"the path sum needs round(t_complex/dt) >= 1 steps, got {p['t_complex']}/{p['dt']}")
    b = p["b"]
    thetas = np.linspace(-1.0, 1.0, p["n_theta"])
    # the whole sweep as one batch: every theta sees the same initial samples
    # and per-step draws (common random numbers); only running sums are kept
    family = DiffusionModel(drift=lambda x, t: thetas[:, None] * np.sin(x), b=b)
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
    const_model = DiffusionModel(drift=lambda x, t: np.ones_like(x), b=b)
    const_ens = simulate_forward(
        const_model, 0.0, p["t_final"], p["dt"], p["n_paths"], seed + 1, window=(0, 0)
    )
    const_act = discretized_action(const_ens)
    const_value = const_act.value
    z_const = abs(const_value - p["t_final"]) / const_act.stderr

    # path-sum moment of the balanced complex noise: E (sum dZ)^2 ~ 0
    rng = make_rng(seed + 2)
    m = int(round(p["t_complex"] / p["dt"]))
    sigma = b  # balanced case bhat = b
    xi = rng.standard_normal((p["n_paths"], m))
    xi_hat = rng.standard_normal((p["n_paths"], m))
    dz = (b * xi + 1j * b * xi_hat) * np.sqrt(p["dt"]) / (np.sqrt(2) * sigma)
    w = dz.sum(axis=1)
    path_sum_sq = complex((w * w).mean())
    tol_complex = 3.0 / np.sqrt(p["n_paths"])

    checks = [
        check("sampled_argmin_at_zero", float(abs(thetas[argmin_idx])), 1e-12),
        check("quadratic_fit_minimum", abs(theta_hat), 0.1),
        check("quadratic_fit_curvature_positive", curvature, 0.0, ">="),
        check("constant_drift_action_z", float(z_const), 5.0),
        check("complex_path_sum_squared", abs(path_sum_sq), tol_complex),
    ]
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


# ---------------------------------------------------------------------------
# ga-identities
# ---------------------------------------------------------------------------

def _mv(coeffs) -> Multivector:
    return Multivector(np.asarray(coeffs, dtype=np.complex128))


def _run_ga_identities(p: dict, seed: int):
    if p["n_algebra_trials"] < 1:
        raise ValueError(f"the product axioms need at least one trial, got {p['n_algebra_trials']}")
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
            _mv(rng.integers(-9, 10, size=8)) for _ in range(3)
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

    checks = [
        check("blade_relations_exact", algebra_err, 0.0, "=="),
        check("product_axioms_exact", assoc_err, 0.0, "=="),
    ]
    for tag, res in (("isotropic", res_iso), ("anisotropic_additive", res_aniso)):
        for key, val in res.items():
            checks.append(check(f"{key}[{tag}]", val.l_inf, 1e-10))
    # the convective identity genuinely fails without irrotationality;
    # a nonzero residual here is the documented precondition at work
    checks.append(
        check(
            "convective_gradient_requires_irrotational",
            res_invalid["convective_gradient"].l_inf,
            1e-3,
            ">=",
        )
    )
    f_positive = ScalarField(grid, np.exp(0.25 * np.real(f_general.values)))
    cancel = linearization_cancellation(f_positive, b_scale)
    checks.append(check("cancellation_identity", cancel.l_inf, 1e-10))

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


# ---------------------------------------------------------------------------
# fp-consistency
# ---------------------------------------------------------------------------

def _run_fp_consistency(p: dict, seed: int):
    b = p["b"]

    # (a) periodic sine drift: exact discrete stationary state
    grid = GridSpec(dim=1, length=2 * np.pi, n=p["n_stationary"])
    x = grid.axis
    c = p["drift_amp"]
    model = DiffusionModel(drift=lambda y, t: -c * np.sin(y), b=b)
    rho_star = discrete_stationary_density(model, grid)
    scale = float(np.max(np.real(rho_star.values)))
    dt = cfl_timestep(model, grid)
    st = DensityState(field=rho_star, t=0.0)

    one = solve_forward(model, st, dt, dt=dt)
    fixed_1 = float(np.max(np.abs(one.field.values.real - rho_star.values.real))) / scale
    many = solve_forward(model, st, p["n_fixed_steps"] * dt, dt=dt)
    fixed_n = float(np.max(np.abs(many.field.values.real - rho_star.values.real))) / scale

    # analytic stationary density (von Mises) for shape comparison
    kappa = 2 * c / b**2
    rho_vm = np.exp(kappa * np.cos(x)) / (2 * np.pi * np.i0(kappa))
    disc_vs_analytic = float(np.max(np.abs(rho_star.values.real - rho_vm)))

    # backward evolution: at stationarity the reversed drift is exactly -a,
    # giving the identical discrete update
    back = DiffusionModel(drift=lambda y, t: c * np.sin(y), b=b)
    st_T = DensityState(field=rho_star, t=1.0)
    back_out = solve_backward(back, st_T, p["n_fixed_steps"] * dt, dt=dt)
    fixed_back = float(np.max(np.abs(back_out.field.values.real - rho_star.values.real))) / scale

    # osmotic construction of the backward drift from the analytic density
    rho_vm_field = ScalarField(grid, rho_vm)
    back_model = backward_drift_from_forward(model, rho_vm_field)
    back_drift_err = float(np.max(np.abs(back_model.drift(x, 0.0) - (c * np.sin(x)))))

    # (b) transient accuracy and mass conservation on a linear-drift problem
    gt = GridSpec(dim=1, length=p["length_transient"], n=p["n_transient"])
    xc = gt.length / 2
    theta = p["theta"]
    trans = DiffusionModel(drift=lambda y, t: -theta * (y - xc), b=b)
    rho0 = ScalarField(gt, gaussian_density(gt.axis, xc - 1.0, 0.25))
    out = solve_forward(trans, DensityState(field=rho0, t=0.0), p["t_transient"])
    mean_t, var_t = ou_mean_variance(p["t_transient"], theta, b, -1.0, 0.25)
    rho_exact = gaussian_density(gt.axis, xc + mean_t, var_t)
    transient_err = float(np.max(np.abs(out.field.values.real - rho_exact)))
    mass_drift = abs(out.mass - float(np.real(integrate(rho0))))

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

    checks = [
        check("stationary_fixed_point_one_step", fixed_1, 1e-12),
        check("stationary_fixed_point_many_steps", fixed_n, 1e-10),
        check("backward_fixed_point", fixed_back, 1e-10),
        check("mass_conservation", float(mass_drift), 1e-8),
        check("transient_vs_analytic", transient_err, 2e-2),
        check("discrete_vs_analytic_stationary", disc_vs_analytic, 1e-2),
        check("backward_drift_construction", back_drift_err, 1e-10),
        check("packet_continuity_residual", cont.l_inf, 1e-5),
        check("packet_osmotic_residual", osm.l_inf, 1e-9),
        check("packet_complex_residual_forward", fp_f.l_inf, 1e-3),
        check("packet_complex_residual_conjugate", fp_c.l_inf, 1e-3),
        check("continuity_time_order_ratio", float(order_ratio), 3.0, ">="),
    ]
    metrics = {
        "cfl_dt": dt,
        "kappa": kappa,
        "transient_mass": out.mass,
        "continuity_residual_half_dt": cont_half.l_inf,
    }
    csvs = {
        "stationary_profiles.csv": (
            ["x", "rho_discrete", "rho_analytic"],
            list(zip(x, rho_star.values.real, rho_vm)),
        ),
    }
    return checks, metrics, csvs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, ExperimentSpec] = {
    "born-free": ExperimentSpec(
        defaults={
            "n": 512, "length": 24.0, "b": 1.0, "t_final": 1.0,
            "s": 1.0, "x0_offset": -1.0, "k0_cycles": 4,
            "steps_per_point": 4,
        },
        describe=(
            "Free Gaussian packet: evolve the wave function, read off the current\n"
            "velocity v = Re[-i b^2 F'/F], transport the initial density by the\n"
            "continuity equation alone, and compare against F F* (normalized).\n"
            "Thresholds: relative sup discrepancy <= 1e-2 (expected ~1e-6);\n"
            "error ratio >= 2.5 when the resolution doubles (dt tied to 1/n);\n"
            "mass and norm drift <= 1e-8; complex transport residuals <= 1e-3."
        ),
        runner=_run_born_free,
    ),
    "born-harmonic": ExperimentSpec(
        defaults={
            "n": 128, "length": 16.0, "b": 1.0, "omega": 1.0,
            "t_final": 10.0, "dt": 2.5e-4,
        },
        describe=(
            "Trapped ground state over T = 10: the extracted current velocity is\n"
            "zero up to discretization, so the transported density must stay put\n"
            "and match F F* throughout. Thresholds: sup discrepancy <= 1e-6;\n"
            "norm drift <= 1e-8; mass drift <= 1e-8."
        ),
        runner=_run_born_harmonic,
    ),
    "colehopf-1d": ExperimentSpec(
        defaults={
            "n": 512, "periods": 1, "b": 1.0, "eps": 0.4, "k_mode": 1,
            "t_final": 1.0, "dt": 1e-3,
        },
        describe=(
            "Complex-viscosity velocity equation (nu = +i b^2/2): integrate it\n"
            "directly with a pseudo-spectral method and, independently, evolve the\n"
            "linearizing field F by the wave equation and apply V = -i b^2 F'/F.\n"
            "Thresholds: the two routes agree to L_inf <= 1e-2 (expected ~1e-7);\n"
            "transform route vs closed form <= 1e-8; lambda root residual == 0."
        ),
        runner=_run_colehopf_1d,
    ),
    "colehopf-3d": ExperimentSpec(
        defaults={"n": 32, "b": 1.0, "n_random": 20, "amp": 0.4, "kmax": 2},
        describe=(
            "Vectorized substitution on a 3-D grid: velocity components of a\n"
            "separable field match the single-axis closed form (<= 1e-11); the\n"
            "velocity field is irrotational (<= 1e-10); the cancellation identity\n"
            "grad(C(grad) log F)^2 + i b^2 C(grad)(grad log F)^2 = 0 holds to\n"
            "<= 1e-10 on 20 random smooth positive F; the stretch roots are\n"
            "exactly -i b^2 and +i b^2."
        ),
        runner=_run_colehopf_3d,
    ),
    "burgers-direct-vs-ch": ExperimentSpec(
        defaults={
            "n": 256, "b": 1.0, "eps": 0.5, "t_final": 1.0, "dt": 1e-3,
            "front_length": 32.0, "front_n": 512, "front_speed": 1.0,
            "front_t": 1.5, "window_half_width": 2.5,
        },
        describe=(
            "Real-viscosity checks: direct solve vs closed-form single-mode\n"
            "solution (<= 1e-6); the substitution route through the heat equation\n"
            "(<= 1e-8); travelling tanh front vs analytic inside the causal window\n"
            "(<= 1e-2); the exact substitution chain identity on a reverse-time\n"
            "heat solution; degeneracy report for the literal inverse (log a)_x."
        ),
        runner=_run_burgers_direct_vs_ch,
    ),
    "sde-estimators": ExperimentSpec(
        defaults={
            "theta": 1.0, "b": 1.0,
            "n_paths_short": 100_000, "dt_short": 1e-3, "t_short": 0.2,
            "half_window_short": 10, "x0_spread": 0.3,
            "n_paths_long": 20_000, "dt_long": 5e-3, "t_long": 2.0,
            "half_window_long": 20,
        },
        describe=(
            "Linear-drift diffusion at n_paths = 1e5, dt = 1e-3: binned\n"
            "conditional-increment estimates recover the drift within 5 standard\n"
            "errors and the quadratic variation recovers b^2 within 5 standard\n"
            "errors. A stationary run separates current and osmotic velocities\n"
            "(v = 0, u = -theta x) within 5 standard errors per bin."
        ),
        runner=_run_sde_estimators,
    ),
    "complex-increments": ExperimentSpec(
        defaults={"pairs": [[1.0, 1.0], [1.0, 0.5], [2.0, 1.0]], "dt": 0.01, "n_samples": 1_000_000},
        describe=(
            "Complex noise dZ = (b dW + i bhat dW')/(sqrt(2) sigma): sampled\n"
            "moments match E dZ = 0, E dZ^2 = dt (b^2-bhat^2)/(b^2+bhat^2),\n"
            "E dZ dZ* = dt within 3/sqrt(n) for three (b, bhat) pairs; the\n"
            "balanced case has E dZ^2 = 0 exactly."
        ),
        runner=_run_complex_increments,
    ),
    "variational": ExperimentSpec(
        defaults={
            "b": 1.0, "n_theta": 21, "n_paths": 20_000, "dt": 0.01,
            "t_final": 1.0, "t_complex": 0.5,
        },
        describe=(
            "Compensated kinetic action S = E sum[(dX)^2/dt - b^2] over the drift\n"
            "family a = theta sin(x), swept with common random numbers: the\n"
            "sampled minimum sits at theta = 0 and a quadratic fit has positive\n"
            "curvature with |theta_min| <= 0.1. Spot value: constant drift a = 1\n"
            "gives S ~ T within 5 standard errors. Balanced complex noise:\n"
            "|E (sum dZ)^2| <= 3/sqrt(n)."
        ),
        runner=_run_variational,
    ),
    "ga-identities": ExperimentSpec(
        defaults={"n": 24, "b": 1.0, "n_algebra_trials": 50},
        describe=(
            "Multivector algebra: blade relations, associativity and\n"
            "distributivity exact on integer coefficients. Gradient identities\n"
            "(time and Laplacian commutation, directional symmetry, convective\n"
            "gradient) <= 1e-10 on trigonometric fields for valid stretch/field\n"
            "combinations; the convective identity is shown to fail without\n"
            "irrotationality (residual >= 1e-3 on the invalid combination)."
        ),
        runner=_run_ga_identities,
    ),
    "fp-consistency": ExperimentSpec(
        defaults={
            "b": 1.0, "n_stationary": 256, "drift_amp": 1.0, "n_fixed_steps": 100,
            "length_transient": 12.0, "n_transient": 512, "theta": 1.0,
            "t_transient": 1.0, "dt_residual": 1e-3,
        },
        describe=(
            "Density transport: the discrete zero-flux stationary state is a\n"
            "fixed point of the forward and backward updates (<= 1e-10); mass is\n"
            "conserved (<= 1e-8); the transient solution tracks the analytic\n"
            "linear-drift density; continuity + osmotic residual split and the\n"
            "complex transport residuals (<= 1e-3) hold on the analytic packet."
        ),
        runner=_run_fp_consistency,
    ),
}


def run_experiment(name: str, params: dict, seed: int) -> dict:
    """Execute one experiment; returns the full summary dict (no I/O).  No check is a ValueError."""
    spec = EXPERIMENTS[name]
    checks, metrics, csvs = spec.runner(params, seed)
    if not checks:
        raise ValueError("these parameters leave nothing to check")
    summary = {
        "experiment": name,
        "seed": seed,
        "params": params,
        "checks": checks,
        "metrics": metrics,
        "pass": all_passed(checks),
    }
    return {"summary": summary, "csvs": csvs}
