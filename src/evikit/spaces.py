"""Concrete metric-energy spaces.

Four families are implemented, each through its flat chart:

* ``cir`` -- the positive half-line with the singular metric g(x) = 1/x,
  distance d(x, y) = 2|sqrt(x) - sqrt(y)|, and the mean-reversion energy
  E(x) = -mu log x + x - (mu - mu log mu).  The drift grad E(x) = x - mu
  is the deterministic Cox-Ingersoll-Ross relaxation; E is 1/2-convex
  (kappa = 1/2).
* ``quadratic`` -- R^n with E(x) = kappa |x|^2 / 2 + sum_i F(x_i) for a
  convex coordinatewise perturbation F; n = 1, F = 0 is the
  Ornstein-Uhlenbeck case.
* ``allen_cahn`` -- periodic grid fields with the discrete energy
  1/2 int |grad rho|^2 + kappa rho^2 dx + int F(rho) dx, whose gradient
  flow is rho_t = Lap rho - F'(rho) - kappa rho.
* ``wasserstein1d`` -- quadratic-transport space of one-dimensional
  probability measures in quantile coordinates at midpoint levels
  u_i = (i - 1/2)/m, where W_2 is the (1/m)-weighted l2 distance and the
  energy is internal + potential + interaction with integrands under
  McCann's condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConstructionError,
    DomainError,
    Space,
    StatePoint,
    UnsupportedFlowError,
    UsageError,
)
from .potentials import Potential

_DENSITY_FLOOR = 1e-12


def _check_convex(pot: Potential, what: str, half_width: float, modulus: float,
                  tol: float) -> None:
    """Raise a ConstructionError naming what unless pot'' >= modulus up to
    tol, by symmetric second differences on 400 points of [-half_width,
    half_width]."""
    xs = np.linspace(-half_width, half_width, 400)
    vals = pot(xs)
    second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (2.0 * half_width / 399) ** 2
    viol = float(np.max(modulus - second))
    if viol > tol:
        raise ConstructionError(f"{what} violated by {viol:.2e} (sampled second differences)")


# ---------------------------------------------------------------------------
# CIR half-line
# ---------------------------------------------------------------------------

class CirSpace(Space):
    """(0, inf) with d(x, y) = 2|sqrt x - sqrt y| and the energy
    E(x) = -mu log x + x - (mu - mu log mu); chart y = sqrt(x).

    In arc length s = 2 sqrt(x) the energy reads -2 mu log(s/2) + s^2/4
    with second derivative 1/2 + 2 mu / s^2 > 1/2, so E is 1/2-convex
    along geodesics (the infimum 1/2 is approached as x -> inf) and the
    flow satisfies the EVI with modulus kappa = 1/2.  Equivalently, the
    coupled-flow dissipation d/dt 1/2 d^2 = -2 (mu/sqrt(xy) + 1)
    (sqrt x - sqrt y)^2 <= -1/2 d^2.

    Flows and resolvent solves truncate the domain to [x_lo, x_hi], with
    x_hi = 50 mu unless given (the energy blows up toward 0, which keeps
    trajectories away from the lower cut).
    """

    name = "cir"
    kappa = 0.5
    tol_geo = 1e-9
    chart_scale = 2.0

    def __init__(self, mu: float, x_lo: float = 1e-4, x_hi: float | None = None):
        hi = 50.0 * mu if x_hi is None else x_hi
        if not (0.0 < x_lo < mu < hi):
            raise ConstructionError(f"cir space requires 0 < x_lo < mu < x_hi, got "
                                    f"x_lo={x_lo}, mu={mu}, x_hi={hi}")
        self.mu, self.x_lo, self.x_hi = mu, x_lo, hi
        self._e0 = mu - mu * math.log(mu)

    def validate_rows(self, coords: np.ndarray) -> np.ndarray:
        coords = super().validate_rows(coords)
        x = coords[:, 0]
        if np.any(x < 0.0):
            raise DomainError(f"cir coordinate must be nonnegative, got {x[x < 0.0][0]}")
        return coords

    def to_chart_rows(self, coords: np.ndarray) -> np.ndarray:
        return np.sqrt(np.asarray(coords, dtype=float))

    def from_chart_rows(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) ** 2

    def project_chart_rows(self, y: np.ndarray) -> np.ndarray:
        return np.clip(y, math.sqrt(self.x_lo), math.sqrt(self.x_hi))

    def chart_energy_rows(self, y: np.ndarray) -> np.ndarray:
        # math.log and float ** 2 on Python floats: np.log and np.square
        # can differ from them in the last bit
        out = []
        for v in np.asarray(y, dtype=float)[:, 0].tolist():
            x = v ** 2
            out.append(math.inf if x <= 0.0 else -self.mu * math.log(x) + x - self._e0)
        return np.array(out, dtype=float)

    def chart_energy_grad_rows(self, y: np.ndarray) -> np.ndarray:
        yv = np.asarray(y, dtype=float)
        # d/dy E(y^2) = (1 - mu / y^2) * 2y
        return 2.0 * yv - 2.0 * self.mu / yv

    def slope_rows(self, coords: np.ndarray) -> np.ndarray:
        x = self.validate_rows(coords)[:, 0]
        with np.errstate(divide="ignore"):
            return np.where(x > 0.0, np.abs(x - self.mu) / np.sqrt(x), math.inf)

    def has_exact_flow_rows(self, coords: np.ndarray) -> np.ndarray:
        return np.ones(len(coords), dtype=bool)

    def exact_flow_rows(self, coords: np.ndarray, t: float) -> np.ndarray:
        # xdot = -(x - mu)  =>  x(t) = mu + (x0 - mu) exp(-t)
        return self.mu + (np.asarray(coords, dtype=float) - self.mu) * math.exp(-t)

    def exact_flow_chart(self, y0: np.ndarray, t) -> np.ndarray:
        # the same mean reversion in the chart y = sqrt(x), in one buffer
        decay = np.exp(-np.asarray(t, dtype=float))[..., None]
        x = (np.square(y0) - self.mu) * decay
        x += self.mu
        return np.sqrt(x, out=x)

    def sample_rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # math.exp per draw: np.exp can differ from it in the last bit
        lo, hi = max(self.x_lo, 0.05 * self.mu), min(self.x_hi, 8.0 * self.mu)
        u = rng.uniform(math.log(lo), math.log(hi), n)
        return np.array([math.exp(v) for v in u.tolist()]).reshape(n, 1)

    def _chart_feasible(self, y: np.ndarray) -> bool:
        return bool(np.all(np.asarray(y) > 0.0))


# ---------------------------------------------------------------------------
# Quadratic / Ornstein-Uhlenbeck
# ---------------------------------------------------------------------------

class QuadraticSpace(Space):
    """R^n, Euclidean metric, E(x) = kappa |x|^2/2 + sum_i F(x_i) + energy_offset
    for a convex perturbation F; the offset recentres E and leaves the flow
    unchanged, and scale is the spread of sample_rows."""

    name = "quadratic"
    tol_geo = 1e-9

    def __init__(self, dimension: int = 1, kappa: float = 1.0,
                 perturbation: Potential | None = None, energy_offset: float = 0.0,
                 scale: float = 2.0):
        if dimension < 1:
            raise ConstructionError("quadratic space requires dimension >= 1")
        if perturbation is not None:
            _check_convex(perturbation, "perturbation convexity", 4.0 * scale, 0.0, 1e-8)
        self.dimension, self.kappa, self.perturbation = dimension, kappa, perturbation
        self.energy_offset, self.scale = energy_offset, scale

    def chart_energy_rows(self, y: np.ndarray) -> np.ndarray:
        # row-wise vecdot and last-axis sums give each row's np.dot and
        # np.sum bits
        y = np.asarray(y, dtype=float)
        e = (0.5 * self.kappa) * np.vecdot(y, y) + self.energy_offset
        if self.perturbation is not None:
            e = e + self.perturbation(y).sum(axis=-1)
        return e

    def chart_energy_grad_rows(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        g = self.kappa * y
        if self.perturbation is not None:
            g = g + self.perturbation.df(y)
        return g

    def _scalar_chart(self):
        kappa, half_kappa, offset = self.kappa, 0.5 * self.kappa, self.energy_offset
        pert = self.perturbation
        # R has no feasible set, so the projection is the identity
        if pert is None:
            return (lambda y: half_kappa * (y * y) + offset, lambda y: kappa * y, float)
        if pert.name == "zero":
            # the row hooks add the zero perturbation's 0.0, which turns a
            # -0.0 into 0.0; so does + 0.0
            return (lambda y: half_kappa * (y * y) + offset + 0.0,
                    lambda y: kappa * y + 0.0, float)
        # the perturbation on a one-element array, which keeps numpy's bits
        # (its power can differ from a float ** in the last bit)
        return (lambda y: half_kappa * (y * y) + offset + float(pert(np.array([y]))[0]),
                lambda y: kappa * y + float(pert.df(np.array([y]))[0]),
                float)

    def slope_rows(self, coords: np.ndarray) -> np.ndarray:
        g = self.chart_energy_grad_rows(self.validate_rows(coords))
        return np.sqrt(np.vecdot(g, g))  # np.linalg.norm's bits

    def has_exact_flow_rows(self, coords: np.ndarray) -> np.ndarray:
        return np.full(len(coords), self.perturbation is None)

    def exact_flow_rows(self, coords: np.ndarray, t: float) -> np.ndarray:
        if self.perturbation is not None:
            raise UnsupportedFlowError("quadratic flow with perturbation has no closed form")
        return np.asarray(coords, dtype=float) * math.exp(-self.kappa * t)

    def exact_flow_chart(self, y0: np.ndarray, t) -> np.ndarray:
        if self.perturbation is not None:
            raise UnsupportedFlowError("quadratic flow with perturbation has no closed form")
        decay = np.exp(-self.kappa * np.asarray(t, dtype=float))
        return decay[..., None] * np.asarray(y0, dtype=float)

    def sample_rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, self.scale, (n, self.dimension))


# ---------------------------------------------------------------------------
# Allen-Cahn periodic field
# ---------------------------------------------------------------------------

class AllenCahnSpace(Space):
    """Periodic 1-d fields rho with the L^2 metric and
    E(rho) = 1/2 int |grad rho|^2 + kappa rho^2 dx + int F(rho) dx.

    The Laplacian is the circulant second-order stencil, which keeps the
    quadratic part symmetric negative semidefinite (hence maximally
    dissipative); the metric slope is || Lap rho - F'(rho) - kappa rho ||."""

    name = "allen_cahn"
    tol_geo = 1e-9

    def __init__(self, grid_size: int, length: float, kappa: float = 0.0,
                 well: Potential | None = None):
        if grid_size < 4:
            raise ConstructionError("allen_cahn space requires grid_size >= 4")
        if length <= 0:
            raise ConstructionError("allen_cahn space requires length > 0")
        if well is not None:
            if abs(float(well(0.0))) > 1e-12:
                raise ConstructionError("well potential must satisfy F(0) = 0")
            if float(np.min(well(np.linspace(-5.0, 5.0, 201)))) < -1e-12:
                raise ConstructionError("well potential must be nonnegative (F >= 0)")
            _check_convex(well, "well potential convexity", 5.0, 0.0, 1e-8)
        self.dimension, self.kappa, self.well = grid_size, kappa, well
        self.dx = length / grid_size
        self.chart_scale = math.sqrt(self.dx)

    def laplacian(self, rho: np.ndarray) -> np.ndarray:
        """The circulant stencil along the last axis of rho (..., grid_size)."""
        return (np.roll(rho, -1, axis=-1) - 2.0 * rho + np.roll(rho, 1, axis=-1)) / self.dx**2

    def chart_energy_rows(self, y: np.ndarray) -> np.ndarray:
        rho = np.asarray(y, dtype=float)
        grad = (np.roll(rho, -1, axis=-1) - rho) / self.dx
        e = 0.5 * self.dx * ((grad**2).sum(axis=-1) + self.kappa * (rho**2).sum(axis=-1))
        if self.well is not None:
            e = e + self.dx * self.well(rho).sum(axis=-1)
        return e

    def chart_energy_grad_rows(self, y: np.ndarray) -> np.ndarray:
        rho = np.asarray(y, dtype=float)
        g = -self.laplacian(rho) + self.kappa * rho
        if self.well is not None:
            g = g + self.well.df(rho)
        return self.dx * g

    def slope_rows(self, coords: np.ndarray) -> np.ndarray:
        rho = self.validate_rows(coords)
        drive = self.laplacian(rho) - self.kappa * rho
        if self.well is not None:
            drive = drive - self.well.df(rho)
        return np.sqrt(self.dx * np.sum(drive**2, axis=-1))

    def sample_rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # smooth random fields: a few low Fourier modes, each row's
        # coefficients drawn as sin, cos pairs at scales 1, 1/2, 1/3
        xs = np.arange(self.dimension) * (2.0 * np.pi / self.dimension)
        coef = rng.normal(0.0, 1.0 / np.repeat(np.arange(1.0, 4.0), 2), (n, 6))
        rho = np.zeros((n, self.dimension))
        for k in range(1, 4):
            a, b = coef[:, 2 * k - 2, None], coef[:, 2 * k - 1, None]
            rho += a * np.sin(k * xs) + b * np.cos(k * xs)
        return rho


# ---------------------------------------------------------------------------
# Wasserstein-1D in quantile coordinates
# ---------------------------------------------------------------------------

_INFORMATION_BLOCK_ELEMENTS = 2**14


class Wasserstein1DSpace(Space):
    """Quantile vectors Q at midpoint levels u_i = (i - 1/2)/m.

    W_2(Q, Q')^2 = (1/m) sum_i (Q_i - Q'_i)^2, geodesics are linear
    quantile interpolation, and the energy of the piecewise-uniform
    interpolant (mass 1/m between consecutive midpoint quantiles) is

        E(Q) = (1/m) sum_j F(1/q_j) q_j  +  (1/m) sum_i V(Q_i)
             + (1/(2 m^2)) sum_{i,j} W(Q_i - Q_j),         q_j = m (Q_{j+1} - Q_j).

    The uniform gap weights give the zero-flux boundary consistent with a
    vanishing tail density; superlinear F forces absolute continuity, so
    a non-increasing Q or a gap density below 1e-12 carries +inf energy.

    The modulus is kappa = kappa_v.  kappa_w is the convexity the
    constructor checks for W, but it does not add to kappa: the
    interaction energy is unchanged when the measure is translated, so a
    kappa_w-convex W makes it only 0-convex along geodesics (it is
    kappa_w-convex only at a fixed centre of mass; Carrillo, McCann &
    Villani, Rev. Mat. Iberoam. 19 (2003))."""

    name = "wasserstein1d"
    tol_metric = 1e-6

    def __init__(self, m: int, internal: Potential | None = None,
                 potential: Potential | None = None, interaction: Potential | None = None,
                 kappa_v: float = 0.0, kappa_w: float = 0.0):
        if m < 4:
            raise ConstructionError("wasserstein1d space requires m >= 4")
        if kappa_w < 0:
            raise ConstructionError("interaction modulus kappa_w must be >= 0")
        if potential is not None:
            _check_convex(potential, "potential kappa_v-convexity", 8.0, kappa_v, 1e-6)
        if interaction is not None:
            xs = np.linspace(-8.0, 8.0, 101)
            if float(np.max(np.abs(interaction(xs) - interaction(-xs)))) > 1e-10:
                raise ConstructionError("interaction kernel must be even")
            _check_convex(interaction, "interaction kappa_w-convexity", 8.0, kappa_w, 1e-6)
        self.m = self.dimension = m
        self.internal, self.potential, self.interaction = internal, potential, interaction
        self.kappa = kappa_v
        self.chart_scale = 1.0 / math.sqrt(m)

    @property
    def levels(self) -> np.ndarray:
        m = self.m
        return (np.arange(m) + 0.5) / m

    def validate_rows(self, coords: np.ndarray) -> np.ndarray:
        coords = super().validate_rows(coords)
        if np.any(np.diff(coords, axis=1) < -1e-12):
            raise DomainError("quantile vector must be nondecreasing")
        return coords

    def project_chart_rows(self, y: np.ndarray) -> np.ndarray:
        """pava_nondecreasing of each row, on the rows that need it: a row
        that is already nondecreasing is kept as it is."""
        y = np.asarray(y, dtype=float)
        ordered = y[:, 1:] >= y[:, :-1]
        if ordered.all():
            return y
        y = y.copy()
        for i in (~ordered.all(axis=1)).nonzero()[0]:
            y[i] = pava_nondecreasing(y[i])
        return y

    def gaps(self, q: np.ndarray) -> np.ndarray:
        """Quantile derivative estimates q_j = m (Q_{j+1} - Q_j) at the
        m-1 forward gaps."""
        return self.m * (q[..., 1:] - q[..., :-1])  # np.diff's bits

    def chart_energy_rows(self, y: np.ndarray) -> np.ndarray:
        q = np.asarray(y, dtype=float)
        e = np.zeros(len(q))
        if self.internal is not None:
            g = self.gaps(q)
            # a gap <= 0 or a gap density 1/g below the floor kills its row;
            # 1/g falls as g grows, so the array's smallest and largest gap
            # clear all its rows at once (an array without gaps too), and
            # only an array they do not clear, a NaN gap among them, takes
            # the elementwise tests
            lo, hi = float(g.min(initial=math.inf)), float(g.max(initial=-math.inf))
            if not (lo > 0.0 and 1.0 / max(hi, 1e-300) >= _DENSITY_FLOOR):
                dead = ((g <= 0.0) | (1.0 / np.maximum(g, 1e-300) < _DENSITY_FLOOR)).any(axis=1)
                if dead.any():
                    e[dead] = math.inf
                    e[~dead] = self.chart_energy_rows(q[~dead])
                    return e
            e += self.internal.gap_energy(g).sum(axis=1) / self.m
        if self.potential is not None:
            e += self.potential(q).sum(axis=1) / self.m
        if self.interaction is not None:  # one (m, m) table at a time
            e += [0.5 * float(np.sum(self.interaction(row[:, None] - row[None, :]))) / self.m**2
                  for row in q]
        return e

    def chart_energy_grad_rows(self, y: np.ndarray) -> np.ndarray:
        q = np.asarray(y, dtype=float)
        grad = np.zeros_like(q)
        if self.internal is not None:
            # d/dg [F(1/g) g] = F(1/g) - F'(1/g)/g, which is
            # (1/m) * dA/dg * dg/dQ with dg/dQ = +-m
            dAdg = self.internal.gap_energy_dg(self.gaps(q))
            grad[:, 1:] += dAdg
            grad[:, :-1] -= dAdg
        if self.potential is not None:
            grad += self.potential.df(q) / self.m
        if self.interaction is not None:
            for g_row, q_row in zip(grad, q):  # one (m, m) table at a time
                table = self.interaction.df(q_row[:, None] - q_row[None, :])
                g_row += table.sum(axis=1) / self.m**2
        return grad

    def slope_rows(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        vals = np.empty(len(coords))
        # blocks of rows keep the quadrature's (rows, m) temporaries small
        step = max(1, _INFORMATION_BLOCK_ELEMENTS // self.m)
        for i in range(0, len(coords), step):
            vals[i:i + step] = wasserstein_information_rows(self, coords[i:i + step])
        return np.sqrt(vals)

    def has_exact_flow_rows(self, coords: np.ndarray) -> np.ndarray:
        fam = self._heat_family(np.asarray(coords, dtype=float))
        return np.zeros(len(coords), dtype=bool) if fam is None else fam[3]

    def exact_flow_rows(self, coords: np.ndarray, t: float) -> np.ndarray:
        """Heat flow of the pure entropy energy on the Gaussian family:
        N(mean, s^2) evolves to N(mean, s^2 + 2t)."""
        return self.exact_flow_chart(coords, t)

    def exact_flow_chart(self, y0: np.ndarray, t) -> np.ndarray:
        fam = self._heat_family(np.asarray(y0, dtype=float))
        if fam is None or not np.all(fam[3]):
            raise UnsupportedFlowError(
                "wasserstein1d closed-form flow needs pure entropy energy and a "
                "Gaussian quantile vector"
            )
        mean, sd, z, _ = fam
        q = np.sqrt(sd**2 + 2.0 * np.asarray(t, dtype=float)[..., None]) * z
        q += mean
        return q

    def _heat_family(self, q: np.ndarray):
        """(mean, sd, z, member) for quantile vectors q[..., :], where
        member[...] says whether q[..., :] is N(mean, sd^2) sampled at the
        midpoint levels, z = Phi^{-1}(levels); mean and sd keep a trailing
        axis of length 1.  None unless the energy is pure entropy."""
        if self.internal is None or self.internal.name != "entropy":
            return None
        if self.potential is not None or self.interaction is not None:
            return None
        from scipy.special import ndtri

        z = ndtri(self.levels)
        mean = np.mean(q, axis=-1, keepdims=True)
        sd = np.vecdot(q - mean, z)[..., None] / float(np.dot(z, z))
        resid = np.max(np.abs(q - mean - sd * z), axis=-1, keepdims=True)
        member = (sd > 0) & (resid <= 1e-8 * np.maximum(1.0, sd))
        return mean, sd, z, member[..., 0]

    def gaussian_state(self, mean: float = 0.0, sd: float = 1.0) -> StatePoint:
        from scipy.special import ndtri

        return StatePoint.of(mean + sd * ndtri(self.levels))

    def sample_rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # each row's mean, spread and values drawn in turn, as one point's
        q = np.empty((n, self.m))
        for row in q:
            mean = rng.normal(0.0, 1.0)
            sd = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            row[:] = rng.normal(mean, sd, self.m)
        # sorted rows are nondecreasing; the ramp smooths out near-ties so
        # the entropy stays finite
        return np.sort(q, axis=1) + np.linspace(0.0, 1e-6, self.m)


def pava_nondecreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto nondecreasing vectors
    (euclidean, unweighted), as a new float array."""
    vals: list[float] = []
    counts: list[int] = []
    for cv in np.asarray(y, dtype=float).tolist():
        cw = 1
        while vals and vals[-1] > cv:
            pv, pw = vals.pop(), counts.pop()
            cv = (pw * pv + cw * cv) / (pw + cw)
            cw += pw
        vals.append(cv)
        counts.append(cw)
    return np.repeat(vals, counts)


def wasserstein_information_rows(space: Wasserstein1DSpace, coords: np.ndarray) -> np.ndarray:
    """Squared slopes (n,) of the quantile vectors in the rows of an (n, m)
    coordinate array, via discrete quadrature of int |w|^2 drho, where

        w = (1/rho) d/dx L_F(rho) + V' + W' * rho

    in quantile coordinates: the pressure part is the u-derivative of
    L_F(1/Q') evaluated at gap centers (central differences at interior
    midpoints, one-sided at the two boundary cells).  A row with a
    non-positive gap has +inf."""
    space.validate_rows(coords)
    q = np.asarray(coords, dtype=float)
    m = space.m
    out = np.full(len(q), math.inf)
    live = np.ones(len(q), dtype=bool)
    if space.internal is not None:
        g = space.gaps(q)
        live = ~np.any(g <= 0.0, axis=1)
        q, g = q[live], g[live]
    w = np.zeros_like(q)
    if space.internal is not None:
        ell = space.internal.pressure(1.0 / g)
        w[:, 1:-1] += (ell[:, 1:] - ell[:, :-1]) * m
        w[:, 0] += (ell[:, 1] - ell[:, 0]) * m
        w[:, -1] += (ell[:, -1] - ell[:, -2]) * m
    if space.potential is not None:
        w += space.potential.df(q)
    if space.interaction is not None:
        for w_row, q_row in zip(w, q):  # one (m, m) table at a time
            w_row += np.sum(space.interaction.df(q_row[:, None] - q_row[None, :]), axis=1) / m
    out[live] = np.mean(w**2, axis=1)
    return out


# ---------------------------------------------------------------------------
# McCann admissibility report
# ---------------------------------------------------------------------------

@dataclass
class McCannReport:
    passed: bool
    violations: list[str]
    doubling_constant: float
    dimension_map_increasing: bool

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "violations": list(self.violations),
            "doubling_constant": self.doubling_constant,
            "dimension_map_increasing": self.dimension_map_increasing,
        }


def mccann_check(F: Potential, s_max: float = 50.0, n: int = 200) -> McCannReport:
    """Admissibility of an internal-energy integrand on a log-spaced grid,
    in d = 1 spatial dimension.

    Checked predicates: convexity of F, convexity of s -> s^d F(s^{-d}),
    superlinear growth (F(s)/s eventually increasing), the doubling bound
    F(z + w) <= C (1 + F(z) + F(w)) with the fitted C reported, F(0) = 0,
    and lim_{s->0} F(s) / s^{-alpha} > -inf at alpha = d/(d+2) + 0.05.

    Monotonicity of the dimensional map is reported separately and does
    not fail the check: the classical condition asks for non-increase,
    and e.g. the entropy integrand yields a decreasing convex map.
    """
    s = np.logspace(-6, math.log10(s_max), n)
    vals = F(s)
    if not np.all(np.isfinite(vals)):
        raise UsageError("integrand produced non-finite values on the test grid")
    violations: list[str] = []

    def convex_on(xs, ys) -> float:
        x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
        lam = (x1 - x0) / (x2 - x0)
        chord = (1 - lam) * ys[:-2] + lam * ys[2:]
        return float(np.max(ys[1:-1] - chord))

    if convex_on(s, vals) > 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        violations.append("convexity: F is not convex on the sampled grid")

    dmap = s * F(1.0 / s)  # s^d F(s^{-d}) with d = 1
    if convex_on(s, dmap) > 1e-9 * max(1.0, float(np.max(np.abs(dmap)))):
        violations.append("dimension_map_convexity: s -> s F(1/s) is not convex")
    increasing = bool(np.all(np.diff(dmap) >= -1e-12))

    hi = s[s >= 1.0]
    ratio = F(hi) / hi
    tail = ratio[-n // 4:]
    if np.any(np.diff(tail) < -1e-10):
        violations.append("superlinearity: F(s)/s is not eventually increasing")

    zs = np.logspace(-3, math.log10(s_max / 2.0), 40)
    z, wgrid = np.meshgrid(zs, zs)
    num = F(z + wgrid)
    den = 1.0 + F(z) + F(wgrid)
    with np.errstate(divide="ignore", invalid="ignore"):
        cgrid = np.where(den > 0, num / den, np.inf)
    C = float(np.max(cgrid))
    if not math.isfinite(C) or C > 1e6:
        violations.append("doubling: no moderate constant C with "
                          "F(z+w) <= C (1 + F(z) + F(w))")

    if abs(float(F(0.0))) > 1e-9:
        violations.append("origin: F(0) != 0")

    alpha = 1 / 3.0 + 0.05
    small = np.logspace(-9, -3, 30)
    lower = F(small) * small**alpha
    if float(np.min(lower)) < -1e3:
        violations.append("tail: F(s) s^alpha unbounded below as s -> 0")

    return McCannReport(
        passed=not violations,
        violations=violations,
        doubling_constant=C,
        dimension_map_increasing=increasing,
    )
