"""Closed-form reference solutions used as independent oracles.

Every solver in this package is checked against at least one expression
from this module.  The formulas are all classical: Gaussian densities,
Ornstein-Uhlenbeck moments, free and harmonically trapped wave packets,
and viscous Burgers profiles generated by the Cole-Hopf substitution.

Conventions
-----------
The diffusion scale enters everywhere through ``b`` with diffusion
coefficient ``b^2 / 2`` (so the linearizing heat equation reads
``F_t = (b^2/2) F_xx`` and the free wave equation
``i b^2 F_t = -(b^4/2) F_xx``).  The complex velocity of a wave function
``F`` is ``V = -i b^2 (grad F) / F = v - i u`` with ``v`` the current
velocity and ``u`` the osmotic velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "gaussian_density",
    "ou_mean_variance",
    "FreePacket",
    "HarmonicState",
    "burgers_single_mode",
    "burgers_tanh_wave",
]


def gaussian_density(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    """Normal density with the given mean and variance."""
    return np.exp(-((x - mean) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


def ou_mean_variance(
    t: float, theta: float, b: float, mean0: float, var0: float
) -> tuple[float, float]:
    """Mean and variance of the Ornstein-Uhlenbeck process ``dX = -theta X dt + b dW``."""
    decay = np.exp(-theta * t)
    mean = mean0 * decay
    var = var0 * decay**2 + (b**2 / (2 * theta)) * (1 - decay**2)
    return float(mean), float(var)


@dataclass(frozen=True)
class FreePacket:
    """Freely moving Gaussian wave packet for ``i b^2 F_t = -(b^4/2) F_xx``.

    Parameters
    ----------
    b : diffusion scale (kinematic constant of the wave equation).
    x0 : initial centre.
    s : initial position spread (standard deviation of ``|F|^2``).
    k0 : carrier wavenumber; the group velocity is ``b^2 k0``.
    """

    b: float
    x0: float
    s: float
    k0: float

    def __post_init__(self):
        if not 0 < self.b < np.inf:
            raise ValueError(f"noise amplitude b must be positive and finite, got {self.b}")

    def _gamma(self, t: float) -> complex:
        return self.s**2 + 0.5j * self.b**2 * t

    def centre(self, t: float) -> float:
        return self.x0 + self.b**2 * self.k0 * t

    def variance(self, t: float) -> float:
        g = self._gamma(t)
        return float(abs(g) ** 2 / self.s**2)

    def psi(self, x: np.ndarray, t: float) -> np.ndarray:
        """Exact wave function, unit L2 norm at every time."""
        g = self._gamma(t)
        xi = self.centre(t)
        amp = (2 * np.pi * self.s**2) ** (-0.25) * np.sqrt(self.s**2 / g)
        phase = (
            -((x - xi) ** 2) / (4 * g)
            + 1j * self.k0 * (x - self.x0)
            - 0.5j * self.b**2 * self.k0**2 * t
        )
        return amp * np.exp(phase)

    def density(self, x: np.ndarray, t: float) -> np.ndarray:
        return gaussian_density(x, self.centre(t), self.variance(t))

    def current_velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        """Real part of ``-i b^2 (grad psi)/psi``."""
        g = self._gamma(t)
        xi = self.centre(t)
        return self.b**2 * self.k0 + (self.b**4 * t / (4 * abs(g) ** 2)) * (x - xi)

    def osmotic_velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        """``-Im`` part of the complex velocity: ``(b^2/2) grad log rho``."""
        g = self._gamma(t)
        xi = self.centre(t)
        return -self.b**2 * self.s**2 * (x - xi) / (2 * abs(g) ** 2)

    def complex_velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.current_velocity(x, t) - 1j * self.osmotic_velocity(x, t)


@dataclass(frozen=True)
class HarmonicState:
    """Eigenstates of ``i b^2 F_t = -(b^4/2) F_xx + U F`` with ``U = omega^2 (x-c)^2 / 2``.

    The level-``n`` eigenvalue is ``E_n = b^2 omega (n + 1/2)``; the time
    factor of level ``n`` is ``exp(-i E_n t / b^2) = exp(-i omega (n+1/2) t)``.
    """

    b: float
    omega: float
    centre: float = 0.0

    def potential(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * self.omega**2 * (x - self.centre) ** 2

    def eigenfunction(self, x: np.ndarray, n: int) -> np.ndarray:
        """Real, L2-normalized stationary state (Hermite-Gaussian)."""
        import math

        from numpy.polynomial.hermite import hermval

        y = np.sqrt(self.omega) * (x - self.centre) / self.b
        coeff = np.zeros(n + 1)
        coeff[n] = 1.0
        hn = hermval(y, coeff)
        norm = (self.omega / (np.pi * self.b**2)) ** 0.25 / math.sqrt(
            2.0**n * math.factorial(n)
        )
        return norm * hn * np.exp(-(y**2) / 2)


def burgers_single_mode(x: np.ndarray, t: float, nu: float, k: float, eps: float) -> np.ndarray:
    """Periodic exact solution of ``a_t + a a_x = nu a_xx`` from a one-mode kernel.

    The substitution ``a = -2 nu F_x / F`` with
    ``F = 1 + eps exp(-nu k^2 t) cos(k x)`` solves the equation exactly; it
    is smooth and periodic for ``|eps| < 1``.
    """
    decay = eps * np.exp(-nu * k**2 * t)
    return 2 * nu * k * decay * np.sin(k * x) / (1 + decay * np.cos(k * x))


def burgers_tanh_wave(
    x: np.ndarray, t: float, nu: float, c: float, centre: float = 0.0
) -> np.ndarray:
    """Travelling front ``a = c (1 - tanh(c (x - centre - c t) / (2 nu)))``.

    Solves ``a_t + a a_x = nu a_xx`` on the line; it is *not* periodic
    (the two tails differ by ``2c``), so grid comparisons must stay inside
    a window away from the seam.
    """
    return c * (1 - np.tanh(c * (x - centre - c * t) / (2 * nu)))
