"""Reference values the benchmark checks evikit's outputs against.

Each oracle is computed here from the mathematics, not from evikit code:

* ``ou_tataru``: the OU (kappa = 1) Tataru distance in closed form;
* ``dense_tataru``: d_T(pi, rho) = min over t in [0, d(pi, rho)] of
  t + d(pi, rho(t)), for flows with kappa >= 0 (so kappa_hat = 0), by a
  dense grid that is zoomed around its best point;
* ``cir_tataru``: ``dense_tataru`` on the CIR flow
  x(t) = mu + (x0 - mu) e^{-t} with d(x, y) = 2 |sqrt x - sqrt y|;
* ``heat_quantiles``: the quantiles of N(mean, sd^2 + 2T) at the midpoint
  levels, the closed-form heat flow of a Gaussian;
* ``implicit_euler_evi``: the forward-difference EVI violation along the
  minimizing-movement (implicit Euler) trajectory of E = y^2 / 2.
"""

from __future__ import annotations

import math

import numpy as np


def ou_tataru(pi: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_T, t*) for OU with kappa = 1, where rho(t) = rho e^{-t}.

    For rho = 0, d_T = |pi|.  For rho < 0, mirror both arguments.  For
    rho > 0: pi - rho if pi >= rho; rho - pi if rho <= 1; ln rho + 1 - pi
    if rho > 1 > pi (t* = ln rho, where the flow has slowed to unit
    speed); ln(rho / pi) if 1 <= pi < rho (t* = ln(rho / pi), where the
    flow reaches pi).
    """
    pi = np.asarray(pi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    sign = np.where(rho < 0.0, -1.0, 1.0)
    p, r = sign * pi, sign * rho
    value = np.abs(p - r)
    t_star = np.zeros_like(value)
    with np.errstate(divide="ignore", invalid="ignore"):
        slows = (r > 1.0) & (p < 1.0)
        value = np.where(slows, np.log(r) + 1.0 - p, value)
        t_star = np.where(slows, np.log(r), t_star)
        reaches = (p >= 1.0) & (p < r)
        value = np.where(reaches, np.log(r / p), value)
        t_star = np.where(reaches, np.log(r / p), t_star)
    return value, t_star


def dense_tataru(distance_along_flow, d0: np.ndarray, points: int = 201,
                 zooms: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise min over t in [0, d0] of t + distance_along_flow(t).

    ``distance_along_flow`` maps an (n, k) array of times to the (n, k)
    distances d(pi_i, rho_i(t)).  Each pass evaluates ``points`` times
    per row and narrows the interval to the two cells around the best
    one; on the unimodal functions of OU and CIR that bracket holds the
    minimizer, so after ``zooms`` passes the time is known to
    d0 * (2 / (points - 1))**zooms.
    """
    d0 = np.asarray(d0, dtype=float)
    lo = np.zeros_like(d0)
    hi = d0.copy()
    rows = np.arange(len(d0))
    grid = np.linspace(0.0, 1.0, points)
    for _ in range(zooms):
        t = lo[:, None] + (hi - lo)[:, None] * grid[None, :]
        phi = t + distance_along_flow(t)
        k = np.argmin(phi, axis=1)
        lo = t[rows, np.maximum(k - 1, 0)]
        hi = t[rows, np.minimum(k + 1, points - 1)]
    return phi[rows, k], t[rows, k]


def ou_dense_tataru(pi: np.ndarray, rho: np.ndarray):
    pi = np.asarray(pi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return dense_tataru(
        lambda t: np.abs(pi[:, None] - rho[:, None] * np.exp(-t)), np.abs(pi - rho))


def cir_tataru(pi: np.ndarray, rho: np.ndarray, mu: float):
    pi = np.asarray(pi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    root_pi = np.sqrt(pi)[:, None]

    def dist(t):
        return 2.0 * np.abs(root_pi - np.sqrt(mu + (rho[:, None] - mu) * np.exp(-t)))

    return dense_tataru(dist, 2.0 * np.abs(np.sqrt(pi) - np.sqrt(rho)))


def midpoint_levels(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def heat_quantiles(mean: float, sd: float, t: float, m: int) -> np.ndarray:
    """Quantiles of N(mean, sd^2 + 2t) at the levels (i + 1/2) / m."""
    from scipy.special import ndtri

    return mean + math.sqrt(sd**2 + 2.0 * t) * ndtri(midpoint_levels(m))


def implicit_euler_evi(x0: float, probes: np.ndarray, dt: float, steps: int) -> float:
    """Largest (d^2(y_{i+1}, p) - d^2(y_i, p)) / (2 dt) - [E(p) - E(y_i)
    - d^2(y_i, p) / 2] over probes p and steps i, for E = y^2 / 2
    (kappa = 1) and y_i = x0 / (1 + dt)^i."""
    y = x0 / (1.0 + dt) ** np.arange(steps + 1)
    d2 = (y[:, None] - probes[None, :]) ** 2
    lhs = (d2[1:] - d2[:-1]) / (2.0 * dt)
    rhs = 0.5 * probes[None, :] ** 2 - 0.5 * y[:-1, None] ** 2 - 0.5 * d2[:-1]
    return float(np.max(lhs - rhs))
