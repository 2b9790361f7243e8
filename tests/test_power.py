"""Defect table: every row injects one defect at one formula and names the
checks that must turn to FAIL at the default parameters (seed 1234), and
no other check of those experiments may fail with it.

A check that no defect can fail verifies nothing.  The rows run each
experiment in process through ``run_experiment``; without their defect the
same checks PASS, as the stored default summaries show.  This table is a
seed: the full rule, that every declared check family has a row here or a
stated reason why it cannot have one, is still open.
"""

import pytest

from stochflow import born, burgers, experiments
from stochflow.experiments import EXPERIMENTS, run_experiment

_SEED = 1234


def _flip_complex_root(monkeypatch):
    monkeypatch.setitem(burgers.VARIANTS, "complex", -burgers.VARIANTS["complex"])


def _swap_complex_pair(monkeypatch):
    forward, conjugate = burgers.VARIANTS["complex"], burgers.VARIANTS["complex-conjugate"]
    monkeypatch.setitem(burgers.VARIANTS, "complex", conjugate)
    monkeypatch.setitem(burgers.VARIANTS, "complex-conjugate", forward)


def _scale_direct_viscosity(monkeypatch):
    """The direct solves of the experiments integrate with ``nu (1 + 1e-4)``."""

    class Stiffer(burgers.BurgersProblem):
        @property
        def nu(self):
            return super().nu * (1 + 1e-4)

    solve = experiments.solve_burgers
    monkeypatch.setattr(
        experiments, "solve_burgers",
        lambda problem, *args: solve(Stiffer(problem.b, problem.variant, problem.potential), *args),
    )


def _scale_born_velocity(monkeypatch):
    """The Born pipeline transports the density with its velocity times ``1 + 1e-3``."""
    extract = born.log_derivative

    def scaled(values, dvalues, coef):
        velocity, mask = extract(values, dvalues, coef)
        return velocity * (1 + 1e-3), mask

    monkeypatch.setattr(born, "log_derivative", scaled)


def _euler_born_transport(monkeypatch):
    """The Born pipeline transports the density by Euler steps: ``rho_j - 12 g_j``."""
    monkeypatch.setattr(born, "AB3", (12.0, 0.0, 0.0))


#: (defect, {experiment: the checks that FAIL with it, and only they})
DEFECTS = {
    "complex root flipped": (_flip_complex_root, {
        "colehopf-1d": ["transform_route_vs_analytic", "direct_vs_transform_route"],
        "colehopf-3d": ["conjugate_symmetry"],
    }),
    "complex pair swapped": (_swap_complex_pair, {
        "colehopf-1d": ["transform_route_vs_analytic", "direct_vs_transform_route"],
    }),
    "direct viscosity x (1 + 1e-4)": (_scale_direct_viscosity, {
        "burgers-direct-vs-ch": ["single_mode_direct_vs_analytic"],
    }),
    "born velocity x (1 + 1e-3)": (_scale_born_velocity, {
        "born-free": ["halving_resolution_error_ratio"],
    }),
    "born transport first order (Euler)": (_euler_born_transport, {
        "born-free": ["halving_resolution_error_ratio"],
    }),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_defect_fails_its_named_checks(monkeypatch, defect):
    inject, expected = DEFECTS[defect]
    inject(monkeypatch)
    for name, wanted in expected.items():
        summary = run_experiment(name, dict(EXPERIMENTS[name].defaults), _SEED)["summary"]
        failed = [c["name"] for c in summary["checks"] if not c["pass"]]
        assert sorted(failed) == sorted(wanted), (name, summary["checks"])
