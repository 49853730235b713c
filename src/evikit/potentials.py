"""Named scalar potentials for energy functionals.

Internal energies F (per unit mass), confinement potentials V and even
interaction kernels W are specified as named built-ins with parameters;
there is no runtime expression parsing.  Each potential exposes its value,
derivative, and the pressure transform L(z) = z F'(z) - F(z) used by the
transport-space velocity field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConstructionError


@dataclass(frozen=True)
class Potential:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        return self.f(np.asarray(s, dtype=float))

    def pressure(self, z):
        """L(z) = z f'(z) - f(z), the integrand driving the flow velocity."""
        z = np.asarray(z, dtype=float)
        return z * self.df(z) - self.f(z)


def _entropy() -> Potential:
    def f(s):
        s = np.asarray(s, dtype=float)
        out = np.where(s > 0, s * np.log(np.maximum(s, 1e-300)), 0.0)
        return out

    def df(s):
        s = np.asarray(s, dtype=float)
        return np.log(np.maximum(s, 1e-300)) + 1.0

    return Potential("entropy", f, df)


def _power(alpha: float) -> Potential:
    if alpha <= 1.0:
        raise ConstructionError(f"power potential needs alpha > 1, got {alpha}")
    c = 1.0 / (alpha - 1.0)

    def f(s):
        return c * np.power(np.maximum(np.asarray(s, dtype=float), 0.0), alpha)

    def df(s):
        return c * alpha * np.power(np.maximum(np.asarray(s, dtype=float), 0.0), alpha - 1.0)

    return Potential("power", f, df)


def _quadratic(coeff: float = 1.0) -> Potential:
    def f(s):
        return 0.5 * coeff * np.asarray(s, dtype=float) ** 2

    def df(s):
        return coeff * np.asarray(s, dtype=float)

    return Potential("quadratic", f, df)


def _quartic(coeff: float = 1.0) -> Potential:
    if coeff < 0:
        raise ConstructionError("quartic potential needs a nonnegative coefficient")

    def f(s):
        return 0.25 * coeff * np.asarray(s, dtype=float) ** 4

    def df(s):
        return coeff * np.asarray(s, dtype=float) ** 3

    return Potential("quartic", f, df)


def _zero() -> Potential:
    def f(s):
        # np.zeros, not np.zeros_like: a one-element call costs a third
        return np.zeros(np.shape(s))

    return Potential("zero", f, f)


_BUILTIN_FACTORIES = {
    "entropy": _entropy,
    "power": _power,
    "quadratic": _quadratic,
    "quartic": _quartic,
    "zero": _zero,
}


def builtin_potentials() -> list[str]:
    return sorted(_BUILTIN_FACTORIES)


def make_potential(name: str, **params) -> Potential:
    """Instantiate a built-in by name; `power` needs alpha, `quadratic`
    and `quartic` accept an optional coefficient."""
    if name not in _BUILTIN_FACTORIES:
        raise ConstructionError(
            f"unknown potential '{name}'; available: {builtin_potentials()}"
        )
    return _BUILTIN_FACTORIES[name](**params)

