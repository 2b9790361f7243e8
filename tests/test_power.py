"""Defect table: every row injects one defect at one formula and names the
checks that must turn to FAIL at the default parameters (seed 1234), and
no other check of those experiments may fail with it.

A check that no defect can fail verifies nothing.  The rows run each
experiment in process through ``run_experiment``; without their defect the
same checks PASS, as the stored default summaries show.  The rule: every
check family that an experiment declares (the check name before any
``[tag]``) is named by some row, or ``NO_ROW`` gives the one-line reason it
has none.  A reason says why no defect can fail the check, or names the
open roadmap item that brings its row; "it reads only the closed form" and
"it reads only a helper's own rule" are not reasons.
"""

import pytest

from stochflow import born, burgers, clifford, experiments, fokker_planck, sde
from stochflow.experiments import EXPERIMENTS, run_experiment

_SEED = 1234


def _flip_complex_root(monkeypatch):
    monkeypatch.setitem(burgers.VARIANTS, "complex", -burgers.VARIANTS["complex"])


def _swap_complex_pair(monkeypatch):
    forward, conjugate = burgers.VARIANTS["complex"], burgers.VARIANTS["complex-conjugate"]
    monkeypatch.setitem(burgers.VARIANTS, "complex", conjugate)
    monkeypatch.setitem(burgers.VARIANTS, "complex-conjugate", forward)


def _scale_forward_viscosity(monkeypatch):
    """The forward (antidiffusive) equation has ``nu (1 + 1e-3)``."""
    monkeypatch.setitem(burgers.VARIANTS, "forward", burgers.VARIANTS["forward"] * (1 + 1e-3))


def _scale_direct_viscosity(factor):
    """The direct solves of the experiments integrate with ``nu * factor``."""

    def inject(monkeypatch):
        class Stiffer(burgers.BurgersProblem):
            @property
            def nu(self):
                return super().nu * factor

        solve = experiments.solve_burgers

        def stiffer(problem, *args):
            return solve(Stiffer(problem.b, problem.variant, problem.potential), *args)

        monkeypatch.setattr(experiments, "solve_burgers", stiffer)

    return inject


def _scale_born_velocity(factor):
    """The Born pipeline transports the density with its velocity times ``factor``;
    its report reads the scaled velocity too."""

    def inject(monkeypatch):
        extract = born.log_derivative

        def scaled(values, dvalues, coef):
            velocity, mask = extract(values, dvalues, coef)
            return velocity * factor, mask

        monkeypatch.setattr(born, "log_derivative", scaled)

    return inject


def _euler_born_transport(monkeypatch):
    """The Born pipeline transports the density by Euler steps: ``rho_j - 12 g_j``."""
    monkeypatch.setattr(born, "AB3", (12.0, 0.0, 0.0))


def _flip_born_extraction_root(monkeypatch):
    """The Born report reads its velocity off the wave function with the root ``+i b^2``."""
    extract = born.velocity_from_wavefunction
    monkeypatch.setattr(born, "velocity_from_wavefunction", lambda psi, b: -extract(psi, b))


def _lossy_split_step(monkeypatch):
    """The Born pipeline's kinetic phase loses ``1e-9`` of the norm a step."""
    factors = born._split_factors

    def lossy(problem, dt):
        half_pot, kin = factors(problem, dt)
        return half_pot, kin * (1 - 1e-9)

    monkeypatch.setattr(born, "_split_factors", lossy)


def _offset_cl3_derivative(monkeypatch):
    """The spectral derivative of the Cl(3) calculus is off by the constant ``1e-6``."""
    derivative = clifford._spectral_derivative
    monkeypatch.setattr(clifford, "_spectral_derivative", lambda *args: derivative(*args) + 1e-6)


def _drop_stretch(monkeypatch):
    """The stretched gradient is the plain gradient."""
    monkeypatch.setattr(clifford, "stretched_gradient", lambda f, s: clifford.gradient(f))


def _euler_maruyama(drift_factor=1.0, noise_factor=1.0):
    """The experiments' Euler-Maruyama ensembles step with the drift times
    ``drift_factor`` and the noise amplitude times ``noise_factor``."""

    def inject(monkeypatch):
        simulate = experiments.simulate_forward

        def defective(model, *args, **kwargs):
            drift = model.drift
            stepped = sde.DiffusionModel(lambda x: drift_factor * drift(x), model.b * noise_factor)
            return simulate(stepped, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_forward", defective)

    return inject


def _scale_argument(owner, name, position, factor):
    """``owner.name`` is called with its positional argument ``position`` times ``factor``."""

    def inject(monkeypatch):
        original = getattr(owner, name)

        def scaled(*args):
            return original(*args[:position], args[position] * factor, *args[position + 1:])

        monkeypatch.setattr(owner, name, scaled)

    return inject


def _scale_result(owner, name, factor):
    """``owner.name`` returns its result times ``factor``."""

    def inject(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: original(*args) * factor)

    return inject


#: the checks that read the root of the ``complex`` row of ``burgers.VARIANTS``; an
#: isotropic stretch holds for either root, so ``ga-identities`` must still PASS
_COMPLEX_ROOT_CHECKS = {
    "born-free": [
        "relative_density_discrepancy", "halving_resolution_error_ratio",
        "complex_transport_residual_forward", "osmotic_constraint_residual",
    ],
    "born-harmonic": ["complex_transport_residual_forward", "osmotic_constraint_residual"],
    "colehopf-1d": ["transform_route_vs_analytic", "direct_vs_transform_route"],
    "ga-identities": [],
}

#: (defect, {experiment: the checks that FAIL with it, and only they})
DEFECTS = {
    "complex root flipped": (_flip_complex_root, {
        **_COMPLEX_ROOT_CHECKS,
        "colehopf-3d": ["cancellation_worst_linf", "conjugate_symmetry"],
    }),
    "complex pair swapped": (_swap_complex_pair, {
        **_COMPLEX_ROOT_CHECKS,
        "colehopf-3d": ["cancellation_worst_linf"],
    }),
    "direct viscosity x (1 + 1e-4)": (_scale_direct_viscosity(1 + 1e-4), {
        "burgers-direct-vs-ch": ["single_mode_direct_vs_analytic"],
    }),
    "direct viscosity x 1.1": (_scale_direct_viscosity(1.1), {
        "burgers-direct-vs-ch": ["single_mode_direct_vs_analytic", "travelling_front_window_error"],
    }),
    "heat route viscosity x (1 + 1e-6)": (
        _scale_argument(experiments, "heat_evolve_spectral", 1, 1 + 1e-6),
        {"burgers-direct-vs-ch": ["heat_route_vs_analytic", "roundtrip_gauge_spread"]},
    ),
    "forward viscosity x (1 + 1e-3)": (_scale_forward_viscosity, {
        "burgers-direct-vs-ch": ["chain_geodesic_residual", "chain_sides_difference"],
    }),
    "chain b x (1 + 1e-3)": (_scale_argument(experiments, "real_chain_residual", 3, 1 + 1e-3), {
        "burgers-direct-vs-ch": ["chain_geodesic_residual", "chain_rhs_residual"],
    }),
    "born velocity x (1 + 1e-3)": (_scale_born_velocity(1 + 1e-3), {
        "born-free": ["halving_resolution_error_ratio"],
    }),
    "born velocity x 1.1": (_scale_born_velocity(1.1), {
        "born-free": [
            "relative_density_discrepancy", "halving_resolution_error_ratio",
            "complex_transport_residual_forward", "osmotic_constraint_residual",
        ],
    }),
    "born transport first order (Euler)": (_euler_born_transport, {
        "born-free": ["halving_resolution_error_ratio"],
    }),
    "born extraction root flipped": (_flip_born_extraction_root, {
        "born-free": ["complex_transport_residual_forward", "osmotic_constraint_residual"],
        "born-harmonic": ["complex_transport_residual_forward", "osmotic_constraint_residual"],
    }),
    "split step loses 1e-9 a step": (_lossy_split_step, {
        "born-free": ["wavefunction_norm_drift"],
        "born-harmonic": ["wavefunction_norm_drift"],
    }),
    "cl3 derivative + 1e-6": (_offset_cl3_derivative, {
        "colehopf-3d": [
            "separable_velocity_error", "velocity_irrotationality", "cancellation_worst_linf",
        ],
        "ga-identities": [
            "time_commutation[isotropic]", "laplacian_commutation[isotropic]",
            "convective_gradient[isotropic]", "time_commutation[anisotropic_additive]",
            "laplacian_commutation[anisotropic_additive]",
            "convective_gradient[anisotropic_additive]",
        ],
    }),
    "stretch dropped": (_drop_stretch, {
        "ga-identities": [
            "laplacian_commutation[isotropic]", "laplacian_commutation[anisotropic_additive]",
            "convective_gradient_requires_irrotational",
        ],
    }),
    "euler-maruyama drift sign flipped": (_euler_maruyama(drift_factor=-1.0), {
        "sde-estimators": [
            "drift_recovery_max_z", "osmotic_velocity_max_z", "current_velocity_max_z",
        ],
    }),
    "euler-maruyama noise x 1.02": (_euler_maruyama(noise_factor=1.02), {
        "sde-estimators": ["noise_recovery_z"],
    }),
    "euler-maruyama drift x 1.5": (_euler_maruyama(drift_factor=1.5), {
        "variational": ["constant_drift_action_z"],
    }),
    "density solver diffusion x (1 + 1e-6)": (
        _scale_argument(fokker_planck, "_face_step", 3, 1 + 1e-6),
        {"fp-consistency": [
            "stationary_fixed_point_one_step", "stationary_fixed_point_many_steps",
        ]},
    ),
    "face drift x 1.2": (_scale_result(fokker_planck, "_face_drift", 1.2), {
        "fp-consistency": ["transient_vs_analytic", "discrete_vs_analytic_stationary"],
    }),
    "osmotic velocity of a density x (1 + 1e-6)": (
        _scale_result(sde, "osmotic_velocity_from_density", 1 + 1e-6),
        {"fp-consistency": ["backward_drift_construction"]},
    ),
    "continuity residual dt x (1 + 1e-3)": (
        _scale_argument(experiments, "continuity_residual", 4, 1 + 1e-3),
        {"fp-consistency": ["packet_continuity_residual", "continuity_time_order_ratio"]},
    ),
    "osmotic residual b x (1 + 1e-6)": (
        _scale_argument(experiments, "osmotic_constraint_residual", 2, 1 + 1e-6),
        {"fp-consistency": ["packet_osmotic_residual"]},
    ),
    "complex transport residual b x 1.01": (
        _scale_argument(experiments, "complex_fp_residual", 4, 1.01),
        {"fp-consistency": ["packet_complex_residual_forward"]},
    ),
}

#: open roadmap items that bring a row with them
OPEN_ITEMS = ("3", "6", "7a", "8", "2b")

#: experiment -> {declared check family: the one-line reason no row names it}
NO_ROW = {
    "born-free": {
        "transport_mass_drift": "conservation: the flux-form transport keeps the mass of any "
        "velocity, so only a non-conservative flux form could break it",
        "node_coverage": "a precondition of velocity extraction, not a claim: it bounds the "
        "share of F below the node floor, so that the other checks read a velocity at all",
    },
    "born-harmonic": {
        "stationary_density_discrepancy": "waits for item 6: the ground state's current is "
        "about 0, so a velocity 11x too large reads 4.4e-8 against 1e-6",
        "transport_mass_drift": "conservation: the flux-form transport keeps the mass of any "
        "velocity, so only a non-conservative flux form could break it",
    },
    "complex-increments": {
        family: "waits for item 2b: the bound 3/sqrt(n_samples) ignores dt, so a moment's "
        "closed form off by 29-45% passes; its z-score brings the row"
        for family in ("mean_dz", "mean_dz2", "mean_dzdzbar")
    },
    "variational": {
        "sampled_argmin_at_zero": "with common random numbers S(theta) - S(0) is theta^2 E int "
        "sin^2 X dt plus noise for any drift or noise defect; only noise (b x 10) moves it",
        "quadratic_fit_minimum": "waits for item 2b: an absolute bound on theta_hat, failed by "
        "b x 10 where the claim holds; the spread over seeds sizes its z-score",
        "quadratic_fit_curvature_positive": "the curvature is 2 E int sin^2 X dt > 0 for any "
        "drift or noise defect of the integrator; only an action not made of squares could "
        "turn it",
        "complex_path_sum_squared": "waits for item 2b: the bound 3/sqrt(n_paths) ignores dt, "
        "so a 10% error in the closed form passes; its z-score brings the row",
    },
    "fp-consistency": {
        "mass_conservation": "conservation: the finite-volume update moves mass between cells "
        "only, so only a non-conservative flux form could break it",
    },
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_defect_fails_its_named_checks(monkeypatch, defect):
    inject, expected = DEFECTS[defect]
    inject(monkeypatch)
    for name, wanted in expected.items():
        summary = run_experiment(name, dict(EXPERIMENTS[name].defaults), _SEED)["summary"]
        failed = [c["name"] for c in summary["checks"] if not c["pass"]]
        assert sorted(failed) == sorted(wanted), (name, summary["checks"])


def test_every_check_family_has_a_row_or_a_reason():
    rowed = {name: set() for name in EXPERIMENTS}
    for _, expected in DEFECTS.values():
        for name, checks in expected.items():
            rowed[name].update(check.split("[")[0] for check in checks)
    assert NO_ROW.keys() <= EXPERIMENTS.keys()
    for name, spec in EXPERIMENTS.items():
        declared = {check.name for check in spec.checks}
        reasons = NO_ROW.get(name, {})
        assert rowed[name] <= declared, (name, rowed[name] - declared)
        assert declared - rowed[name] == reasons.keys(), (name, declared - rowed[name])
        for family, reason in reasons.items():
            assert reason and "\n" not in reason, (name, family)
            assert "reads only" not in reason, (name, family)
            if reason.startswith("waits for item"):
                assert reason.split(":")[0].split()[-1] in OPEN_ITEMS, (name, family)
