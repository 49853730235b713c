"""Ekeland's variational principle on finite sets, with the four-variable
optimization used to compare sub- and supersolutions.

On a finite candidate set the principle is an exact combinatorial
statement: starting from x_hat, repeatedly move to the candidate
maximizing G(y) - delta/2 B(y, x) whenever that strictly exceeds G(x).
G increases strictly, so the walk terminates at a point x_delta with

    (1) G(x_hat) + delta/2 B(x_delta, x_hat) <= G(x_delta),
    (2) G(y) - delta/2 B(y, x_delta) <= G(x_delta)   for every candidate y,

both checkable exhaustively.  The penalty B is a nonnegative bifunction
with B(x, x) = 0 and the triangle inequality; the Tataru distance
qualifies, which is what makes the machinery usable along gradient flows.

The four-variable construction optimizes, over quadruples
x = (pi, rho, mu, gamma) and a weight eps in (0, 1/3),

    G_a(x) = u(pi)/(1-eps) - v(mu)/(1+eps)
             - a [ d^2(pi,rho)/(2(1-eps)) + d^2(rho,gamma)/2 + d^2(gamma,mu)/(2(1+eps)) ]
             - eps/(1-eps) Ebar(rho) - eps/(1+eps) Ebar(gamma)

with Ebar the energy recentred by a quadratic so that inf Ebar = 0, and
penalizes with the weighted Tataru sum

    B(x, x~) = d_T(pi,pi~)/(1-eps) + d_T(mu,mu~)/(1+eps) + d_T(rho,rho~) + d_T(gamma,gamma~).

The perturbation is there to make a supremum attained.  On a finite
product grid the maximum of G_a is attained already, so the Ekeland
perturbation is the identity and quadruplicate takes the maximizer
directly, by elimination along the chain pi - rho - gamma - mu, without
the (n,)*4 product array.  The finite-set principle under a Tataru product penalty
(product_penalty over tataru_matrix) is checked by acceptance
criterion 9 and by the `ekeland` check of the properties kind.

Along a growing weight schedule the auxiliary terms a Psi + Xi decay
toward zero, and the drift/squared-distance key bounds that quadruplicate
reports at each maximizer tighten accordingly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NumericalError,
    Space,
    StatePoint,
    UsageError,
    _chart_distances,
    _squares,
    _suite_samples,
)
from .flow import fit_quadratic_lower_bound
from .hj import GridFunction
from .tataru import tataru_batch


# ---------------------------------------------------------------------------
# Finite-set Ekeland principle
# ---------------------------------------------------------------------------

@dataclass
class EkelandProblem:
    """A finite-set instance: objective values, penalty.

    The candidates are the indices of g_values; `penalty(j)` evaluates
    B(k, j) for every candidate k at once, as an array over the candidates.
    """

    g_values: np.ndarray           # objective, -inf allowed, bounded above
    penalty: object                # callable (j) -> array over all candidates
    delta: float
    x_hat: int

    def __post_init__(self):
        self.g_values = np.asarray(self.g_values, dtype=float)
        if self.delta <= 0:
            raise UsageError("ekeland delta must be positive")
        if np.any(np.isposinf(self.g_values)) or np.any(np.isnan(self.g_values)):
            raise UsageError("objective must be bounded above and well defined")
        if not 0 <= self.x_hat < len(self.g_values):
            raise UsageError("x_hat index out of range")


@dataclass
class EkelandResult:
    x_delta: int
    iterations: int
    path: list[int] = field(default_factory=list)


def ekeland_optimize(problem: EkelandProblem) -> EkelandResult:
    """Exact sequential construction on a finite set.

    Moves use the half-weight penalty delta/2, which is what makes both
    result inequalities hold exhaustively at termination (the full-delta
    move rule would only certify the weaker full-delta stopping
    condition).  The walk shortcuts penalty evaluations whenever the
    current point already maximizes G outright.
    """
    g = problem.g_values
    if math.isinf(g[problem.x_hat]):
        raise UsageError("starting point must have a finite objective value")
    half = 0.5 * problem.delta
    current = problem.x_hat
    path = [current]
    g_max = float(np.max(g))
    for it in range(len(g) + 1):
        if g[current] >= g_max:
            return EkelandResult(current, it, path)
        scores = g - half * problem.penalty(current)
        y = int(np.argmax(scores))
        if scores[y] <= g[current] + 0.0:
            return EkelandResult(current, it, path)
        current = y
        path.append(current)
    raise NumericalError("ekeland walk failed to terminate on a finite set")


def verify_ekeland_result(problem: EkelandProblem, result: EkelandResult) -> dict:
    """Exhaustive verification of the two result inequalities, the
    near-optimal-start consequence and strict uniqueness."""
    g = problem.g_values
    xd = result.x_delta
    half = 0.5 * problem.delta
    b_to_xd = problem.penalty(xd)
    inv2 = g - half * b_to_xd - g[xd]
    inv2_max = float(np.max(inv2))
    b_xd_xhat = problem.penalty(problem.x_hat)[xd]
    inv1_slack = float(g[xd] - g[problem.x_hat] - half * b_xd_xhat)
    others = np.arange(len(g)) != xd
    strict = g - problem.delta * b_to_xd - g[xd]
    uniqueness_margin = float(-np.max(strict[others])) if np.any(others) else math.inf
    near_optimal_start = bool(
        g[problem.x_hat] >= float(np.max(g)) - 0.5 * problem.delta**2
    )
    return {
        "inv1_slack": inv1_slack,                  # >= 0 required
        "inv2_max": inv2_max,                      # <= 0 required
        "uniqueness_margin": uniqueness_margin,    # > 0 required
        "near_optimal_start": near_optimal_start,
        "penalty_to_start": float(b_xd_xhat),
    }


# ---------------------------------------------------------------------------
# Tataru penalty on product grids
# ---------------------------------------------------------------------------

def tataru_matrix(space: Space, base: list[StatePoint],
                  flow_dt: float = 1e-2) -> np.ndarray:
    """DT[i, j] = d_T(base[i], base[j]) with one flow per column."""
    n = len(base)
    chart = space.to_chart_rows(np.array([p.coords for p in base]))
    out = np.empty((n, n))
    for j in range(n):
        out[:, j] = tataru_batch(space, chart, base[j], flow_dt)
        out[j, j] = 0.0
    return out


def product_penalty(dt_matrix: np.ndarray, weights: tuple[float, ...]):
    """The weighted sum of a base-grid penalty over the 4-fold product grid,
    with quadruples numbered in C order (flat = np.ravel_multi_index):

        B(i, j) = ((w0 DT[i0,j0] + w1 DT[i1,j1]) + w2 DT[i2,j2]) + w3 DT[i3,j3].

    Returns the penalty of an EkelandProblem: penalty(j) is B(k, j) for
    every k at once.
    """
    shape = (dt_matrix.shape[0],) * 4
    if len(weights) != 4:
        raise UsageError("product penalty needs one weight per component")

    def penalty(j: int) -> np.ndarray:
        cols = [dt_matrix[:, b] * w for w, b in zip(weights, np.unravel_index(j, shape))]
        return (cols[0][:, None, None, None] + cols[1][None, :, None, None]
                + cols[2][None, None, :, None] + cols[3][None, None, None, :]
                ).reshape(-1)

    return penalty


# ---------------------------------------------------------------------------
# Four-variable optimization
# ---------------------------------------------------------------------------

@dataclass
class QuadrupleReport:
    alpha: float
    eps: float
    phi: float
    psi: float
    xi: float
    alpha_psi: float
    key1_residual: float
    key2_residual: float

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "eps": self.eps, "Phi": self.phi,
                "Psi": self.psi, "Xi": self.xi, "alphaPsi": self.alpha_psi,
                "key1_residual": self.key1_residual,
                "key2_residual": self.key2_residual}


@dataclass
class QuadruplicationResult:
    entries: list[QuadrupleReport]
    sup_gap: float            # sup over the grid of u - v
    gap_constant: float       # fitted C in sup(u-v) <= Phi_a + C a^{-1/2}

    def trend(self) -> list[float]:
        return [rep.alpha_psi + rep.xi for rep in self.entries]

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([rep.to_json() for rep in self.entries], fh,
                      indent=2, sort_keys=True)


def argmax_by_elimination(u: np.ndarray, v: np.ndarray, sq: np.ndarray,
                          ebar: np.ndarray, alpha: float,
                          eps: float) -> tuple[int, int, int, int]:
    """The maximizer (pi, rho, mu, gamma) of G_alpha over the product grid
    in O(n^2) memory: the index np.argmax would give on the dense (n,)*4
    array of G_alpha, ties included.

    G_alpha is a chain pi - rho - gamma - mu, so the maximum over pi for
    each rho, A[rho], and over mu for each gamma, B[gamma], are taken
    first, leaving one (n, n) table T over (rho, gamma).  Rounding can
    move a value by a few ulps of the terms' magnitudes, so every (rho,
    gamma) with T within tol of its maximum, and within each every pi and
    mu within tol of A and B, is a candidate; tol is 64 ulps of the sum of
    the terms' largest magnitudes.  The candidates are re-scored by the
    dense expression and the first maximum in C order of (pi, rho, mu,
    gamma) is returned, as np.argmax does.  The candidate mask takes n^2
    booleans per candidate (rho, gamma), of which there is one unless T
    ties.
    """
    wm, wp = 1.0 / (1.0 - eps), 1.0 / (1.0 + eps)
    a = wm * u[:, None] - alpha * (0.5 * wm) * sq        # (pi, rho)
    b = -wp * v[None, :] - alpha * (0.5 * wp) * sq       # (gamma, mu)
    a_max, b_max = a.max(axis=0), b.max(axis=1)
    t = (a_max[:, None] + b_max[None, :] - alpha * 0.5 * sq
         - eps * wm * ebar[:, None] - eps * wp * ebar[None, :])
    scale = (wm * np.max(np.abs(u)) + wp * np.max(np.abs(v))
             + alpha * 0.5 * (wm + 1.0 + wp) * np.max(sq)
             + eps * (wm + wp) * np.max(np.abs(ebar)))
    tol = 64.0 * np.finfo(float).eps * scale
    rho_c, gamma_c = np.nonzero(t >= t.max() - tol)
    near_a = a[:, rho_c] >= a_max[rho_c] - tol                # (pi, k)
    near_b = b[gamma_c, :] >= b_max[gamma_c, None] - tol      # (k, mu)
    pi, k, mu = np.nonzero(near_a[:, :, None] & near_b[None, :, :])
    rho, gamma = rho_c[k], gamma_c[k]
    # G_alpha at the candidates in the dense expression's operation order,
    # so each value has the bits np.argmax compared
    g = (wm * u[pi] - wp * v[mu]
         - alpha * (0.5 * wm * sq[pi, rho]       # d^2(pi, rho)
                    + 0.5 * sq[rho, gamma]       # d^2(rho, gamma)
                    + 0.5 * wp * sq[mu, gamma])  # d^2(gamma, mu)
         - eps * wm * ebar[rho] - eps * wp * ebar[gamma])
    order = np.lexsort((gamma, mu, rho, pi))
    best = order[int(np.argmax(g[order]))]
    return int(pi[best]), int(rho[best]), int(mu[best]), int(gamma[best])


def quadruplicate(space: Space, u: GridFunction, v: GridFunction,
                  alpha_schedule: list[float], nu0: StatePoint,
                  c1: float | None = None) -> QuadruplicationResult:
    """Run the four-variable Ekeland optimization along a weight schedule.

    For each alpha: a doubled-variable warm start picks (pi0, mu0) as the
    exact maximizer of u(pi) - v(mu) - alpha/2 d^2(pi, mu); (rho0, gamma0)
    are the nearest finite-energy grid points; eps_alpha is set
    constructively so that Xi_alpha(x0) + eps_alpha < 1/alpha; the
    four-variable objective is then maximized exactly over the product
    grid.  On a finite grid that maximum is attained, so the Ekeland
    perturbation (delta = 1/alpha, weighted Tataru penalty) is the
    identity: a walk started at the maximizer stops there at once, and
    none is run.

    The maximum is taken by elimination along the chain pi - rho - gamma
    - mu (argmax_by_elimination), in O(n^2) time and memory per alpha; its
    tie rule is np.argmax's on the dense product grid, the first maximizer
    in C order of (pi, rho, mu, gamma).

    At the maximizer, four grid indices, both key bounds are reported as
    signed residuals, from the grid's energies and Fisher information:
    key1 pairs the weighted energy-difference combination against
    -eps/(1-eps) I(rho) - eps/(1+eps) I(gamma), and key2 the weighted
    squared-distance gap against +eps/(1-eps) I(rho) + eps/(1+eps)
    I(gamma).  They are expected to shrink along a growing alpha schedule;
    callers flag failures of that trend.
    """
    if not np.array_equal(u.nodes, v.nodes):
        raise UsageError("u and v must share one grid")
    if c1 is None:
        c1 = max(1.0, 1.0 - space.kappa)
    c2, _ = fit_quadratic_lower_bound(space, nu0, c1)

    chart = space.to_chart_rows(u.nodes)
    sq = space.chart_scale**2 * (
        np.sum((chart[:, None, :] - chart[None, :, :]) ** 2, axis=2)
    )
    energy = space.chart_energy_rows(chart)
    if np.any(np.isinf(energy)):
        raise UsageError("quadruplication grids must lie in the energy domain")
    # Ebar = E + c1/2 d^2(., nu0) + c2
    ebar = energy + 0.5 * c1 * _squares(_chart_distances(space, chart, space.to_chart(nu0))) + c2
    info = space.information_rows(u.nodes)
    sup_gap = float(np.max(u.values - v.values))
    k = space.kappa

    entries = []
    worst_c = 0.0
    for alpha in alpha_schedule:
        pair = u.values[:, None] - v.values[None, :] - 0.5 * alpha * sq
        i_pi0, i_mu0 = np.unravel_index(int(np.argmax(pair)), pair.shape)
        i_rho0, i_gamma0 = int(i_pi0), int(i_mu0)  # same grid, finite energy
        s0 = 1.5 * ebar[i_rho0] + ebar[i_gamma0]
        eps = min(0.25, 0.5 / (alpha * (s0 + 1.0)))
        if not 0.0 < eps < 1.0 / 3.0:
            raise UsageError("eps_alpha must lie in (0, 1/3)")

        wm = 1.0 / (1.0 - eps)
        wp = 1.0 / (1.0 + eps)
        i_pi, i_rho, i_mu, i_gamma = argmax_by_elimination(
            u.values, v.values, sq, ebar, alpha, eps)

        phi = wm * u.values[i_pi] - wp * v.values[i_mu]
        psi = (0.5 * wm * sq[i_pi, i_rho] + 0.5 * sq[i_rho, i_gamma]
               + 0.5 * wp * sq[i_gamma, i_mu])
        xi = eps * wm * ebar[i_rho] + eps * wp * ebar[i_gamma]
        e_pi, e_rho, e_mu, e_gamma = energy[[i_pi, i_rho, i_mu, i_gamma]].tolist()
        i_r, i_g = info[[i_rho, i_gamma]].tolist()
        if math.isinf(i_r) or math.isinf(i_g):
            raise UsageError("key estimates need finite information at rho and gamma")
        d2_pr, d2_gm = _squares(_chart_distances(space, chart[[i_pi, i_gamma]],
                                                 chart[[i_rho, i_mu]])).tolist()
        key1 = (alpha * (wm * (e_rho - e_pi + 0.5 * k * d2_pr)
                         - wp * (e_mu - e_gamma - 0.5 * k * d2_pr))
                - (-eps * wm * i_r - eps * wp * i_g))
        key2 = (0.5 * alpha**2 * wm * d2_pr - 0.5 * alpha**2 * wp * d2_gm
                - (eps * wm * i_r + eps * wp * i_g))
        entries.append(QuadrupleReport(alpha, eps, float(phi), float(psi), float(xi),
                                       float(alpha * psi), key1, key2))
        worst_c = max(worst_c, (sup_gap - phi) * math.sqrt(alpha))
    return QuadruplicationResult(entries, sup_gap, worst_c)


# ---------------------------------------------------------------------------
# Jensen-type inequality for the quadratic distance
# ---------------------------------------------------------------------------

def jensen_distance_check(space: Space, samples,
                          eps_grid: tuple[float, ...] = (0.05, 0.15, 0.3),
                          eps_prime_grid: tuple[float, ...] = (0.05, 0.15, 0.3)
                          ) -> float:
    """max violation of

        1/6 1/(1-eps') 1/2 d^2(n1,n4) <= 1/(1-eps) 1/2 d^2(n1,n2)
            + 1/2 d^2(n2,n3) + 1/(1+eps) 1/2 d^2(n3,n4)

    over the sample quadruples and the (eps, eps') grids; samples is an
    (n, 4, dimension) coordinate array.  -inf when n = 0."""
    for e in (*eps_grid, *eps_prime_grid):
        if not 0.0 < e < 1.0 / 3.0:
            raise UsageError("jensen weights must lie in (0, 1/3)")
    y1, y2, y3, y4 = (space.to_chart_rows(x) for x in _suite_samples(space, samples, 4))
    d14, d12, d23, d34 = (_squares(_chart_distances(space, a, b))[:, None, None]
                          for a, b in ((y1, y4), (y1, y2), (y2, y3), (y3, y4)))
    ep = np.asarray(eps_prime_grid, dtype=float)[:, None]
    e = np.asarray(eps_grid, dtype=float)
    lhs = d14 / (12.0 * (1.0 - ep))
    rhs = 0.5 * d12 / (1.0 - e) + 0.5 * d23 + 0.5 * d34 / (1.0 + e)
    return float(np.max(lhs - rhs, initial=-math.inf))
