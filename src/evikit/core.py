"""Metric-energy systems: the shared contract for every concrete space.

A space is a complete geodesic metric space (E, d) carrying a lower
semi-continuous energy functional E -> (-inf, +inf] whose gradient flow
satisfies the evolution variational inequality with modulus kappa:

    1/2 d+/dt d^2(gamma(t), rho) <= E(rho) - E(gamma(t)) - kappa/2 d^2(gamma(t), rho)

Every implemented space is isometric to a (convex subset of a) Euclidean
space through a global chart:

    d(p, q) = chart_scale * || chart(p) - chart(q) ||_2

which makes geodesics chart-linear and turns minimizing-movement steps
into projected descent in flat coordinates.  The local slope

    |dE|(p) = limsup_{q -> p} (E(p) - E(q))^+ / d(p, q)

has a closed form on each space; a definitional verifier based on
shrinking geodesic spheres is provided for cross-checks.

Spaces implement the chart, projection, energy, gradient, slope and
sampling operations once, on rows; ``Space`` derives the one-point forms.
The sampled property checks take one (n, k, dimension) coordinate array of
n samples of k points, as ``Space.sample_rows`` draws it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class UsageError(ValueError):
    """Caller broke an interface contract (wrong dimension, bad parameter)."""


class DomainError(ValueError):
    """A point lies outside the domain a space can represent."""


class ConstructionError(ValueError):
    """A space or potential rejected its parameters; the message names the
    predicate that failed."""


class NumericalError(RuntimeError):
    """An iterative solver failed; carries the final residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class UnsupportedFlowError(RuntimeError):
    """No closed-form flow is registered for this space/state family."""


# ---------------------------------------------------------------------------
# Extended reals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedReal:
    """A real number or the distinguished value +inf, as a tagged value.

    Energies take values in (-inf, +inf]; the tag keeps +inf apart from
    the finite values, and -inf is never representable.  The `value` slot
    of the infinite element is meaningless; check `infinite` first.
    """

    value: float = 0.0
    infinite: bool = False

    @staticmethod
    def finite(v: float) -> "ExtendedReal":
        v = float(v)
        if math.isinf(v) or math.isnan(v):
            raise UsageError(f"finite ExtendedReal requires a finite value, got {v}")
        return ExtendedReal(v, False)

    def __float__(self) -> float:
        return math.inf if self.infinite else self.value


ExtendedReal.INF = ExtendedReal(0.0, True)


# ---------------------------------------------------------------------------
# State points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatePoint:
    """Immutable point of a space: an ordered tuple of coordinates.

    The interpretation is owned by the space: a scalar for the half-line
    and quadratic spaces, grid values for the periodic field space,
    quantile values for the one-dimensional transport space.
    """

    coords: tuple

    def __post_init__(self):
        if len(self.coords) == 0:
            raise UsageError("StatePoint needs at least one coordinate")
        if not all(math.isfinite(c) for c in self.coords):
            raise UsageError("StatePoint coordinates must be finite")

    @staticmethod
    def of(values) -> "StatePoint":
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        return StatePoint(tuple(float(v) for v in arr))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def to_json(self) -> list:
        return [float(c) for c in self.coords]


# ---------------------------------------------------------------------------
# Space contract
# ---------------------------------------------------------------------------

class Space(ABC):
    """A complete geodesic metric space with energy, slope and flow hooks.

    Subclasses fix the chart isometry, the energy in chart coordinates
    and (where available) a closed-form gradient flow, on rows of an
    (n, dimension) array: a space implements chart_energy_rows,
    chart_energy_grad_rows, sample_rows and slope_rows, plus the chart and
    projection row hooks if its chart is not the identity or it has a
    feasible set.  The one-point forms are their one-row cases, here
    only.  A space of dimension 1 may also override _scalar_chart, the
    energy, gradient and projection of its chart on Python floats, which
    the minimizing-movement step calls instead of the row hooks; by
    default it wraps the row hooks.  All operations are pure; instances
    are immutable after construction and safe to share across threads.
    """

    name: str = "abstract"
    dimension: int = 1
    kappa: float = 0.0
    tol_metric: float = 1e-9
    tol_geo: float = 1e-6
    chart_scale: float = 1.0

    # -- chart -------------------------------------------------------------

    def to_chart_rows(self, coords: np.ndarray) -> np.ndarray:
        """Chart rows (n, dimension) of a coordinate array (n, dimension);
        the identity chart by default."""
        return np.asarray(coords, dtype=float)

    def from_chart_rows(self, y: np.ndarray) -> np.ndarray:
        """Coordinate array (n, dimension) of chart rows (n, dimension), as
        a new array; the identity chart by default."""
        return np.array(y, dtype=float)

    def project_chart_rows(self, y: np.ndarray) -> np.ndarray:
        """Chart rows (n, dimension) projected back onto the feasible set;
        no projection by default."""
        return np.asarray(y, dtype=float)

    def to_chart(self, p: StatePoint) -> np.ndarray:
        return self.to_chart_rows(p.array[None])[0]

    def from_chart(self, y: np.ndarray) -> StatePoint:
        return StatePoint.of(self.from_chart_rows(np.asarray(y, dtype=float)[None])[0])

    @abstractmethod
    def chart_energy_rows(self, y: np.ndarray) -> np.ndarray:
        """Energy (n,) of each row of an (n, dimension) chart array; +inf
        outside the effective domain."""
        ...

    @abstractmethod
    def chart_energy_grad_rows(self, y: np.ndarray) -> np.ndarray:
        """Energy gradient (n, dimension) at each row of an (n, dimension)
        chart array."""
        ...

    def _scalar_chart(self) -> tuple[Callable[[float], float], Callable[[float], float],
                                     Callable[[float], float]]:
        """The chart energy, energy gradient and projection of a space of
        dimension 1, as functions of one Python float.  A space overrides
        this with float arithmetic that has its row hooks' bits; by default
        each is its row hook on a (1, 1) array."""
        def energy(y):
            return float(self.chart_energy_rows(np.array([[y]]))[0])

        def gradient(y):
            return float(self.chart_energy_grad_rows(np.array([[y]]))[0, 0])

        def project(y):
            return float(self.project_chart_rows(np.array([[y]]))[0, 0])

        return energy, gradient, project

    # -- metric ------------------------------------------------------------

    def validate_point(self, p: StatePoint) -> None:
        self.validate_rows(p.array[None])

    def validate_rows(self, coords: np.ndarray) -> np.ndarray:
        """Check that coords is an (n, dimension) array of finite rows,
        each a point of the space (a space with a smaller domain extends
        this check); returns coords as a float array.  validate_point is
        its one-row case."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != self.dimension:
            got = coords.shape[-1] if coords.ndim else 0
            raise UsageError(f"{self.name}: expected dimension {self.dimension}, got {got}")
        if not np.all(np.isfinite(coords)):
            raise UsageError("StatePoint coordinates must be finite")
        return coords

    def distance(self, p: StatePoint, q: StatePoint) -> float:
        self.validate_point(p)
        self.validate_point(q)
        diff = self.to_chart(p) - self.to_chart(q)
        return self.chart_scale * float(np.linalg.norm(diff))

    def geodesic_point(self, p: StatePoint, q: StatePoint, t: float) -> StatePoint:
        if not 0.0 <= t <= 1.0:
            raise UsageError(f"geodesic parameter must lie in [0, 1], got {t}")
        self.validate_point(p)
        self.validate_point(q)
        return StatePoint.of(_geodesic_rows(self, p.array[None], q.array[None], [t])[0, 0])

    # -- energy ------------------------------------------------------------

    def energy(self, p: StatePoint) -> ExtendedReal:
        self.validate_point(p)
        v = float(self.chart_energy_rows(self.to_chart_rows(p.array[None]))[0])
        return ExtendedReal.INF if math.isinf(v) else ExtendedReal.finite(v)

    @abstractmethod
    def slope_rows(self, coords: np.ndarray) -> np.ndarray:
        """Metric slope |dE| (n,) at each validated row of an (n,
        dimension) coordinate array; +inf where it is infinite."""
        ...

    def slope(self, p: StatePoint) -> ExtendedReal:
        v = float(self.slope_rows(p.array[None])[0])
        return ExtendedReal.INF if math.isinf(v) else ExtendedReal.finite(v)

    def information(self, p: StatePoint) -> ExtendedReal:
        v = float(self.information_rows(p.array[None])[0])
        return ExtendedReal.INF if math.isinf(v) else ExtendedReal.finite(v)

    def information_rows(self, coords: np.ndarray) -> np.ndarray:
        """Fisher information |dE|^2 (n,) at each row of an (n,
        dimension) coordinate array, +inf where the slope is; a NaN slope
        is a UsageError."""
        slopes = self.slope_rows(coords)
        if np.any(np.isnan(slopes)):
            raise UsageError("the slope is not a number at some row")
        # a Python float power (pow, not numpy's square) of each slope
        return np.array([s**2 for s in slopes.tolist()], dtype=float)

    # -- flow hooks ----------------------------------------------------------

    def has_exact_flow(self, p: StatePoint) -> bool:
        return bool(self.has_exact_flow_rows(p.array[None, :])[0])

    def has_exact_flow_rows(self, coords: np.ndarray) -> np.ndarray:
        """Whether a closed-form flow is registered from each row of an
        (n, dimension) coordinate array, as an (n,) bool array;
        has_exact_flow is its one-row case."""
        return np.zeros(len(coords), dtype=bool)

    def exact_flow(self, p: StatePoint, t: float) -> StatePoint:
        self.validate_point(p)
        return StatePoint.of(self.exact_flow_rows(p.array[None, :], t)[0])

    def exact_flow_rows(self, coords: np.ndarray, t: float) -> np.ndarray:
        """The closed-form flow at one time t from every row of an (n,
        dimension) coordinate array, in coordinates; exact_flow is its
        one-row case.  Rows are not validated."""
        raise UnsupportedFlowError(f"{self.name}: no closed-form flow registered")

    def exact_flow_chart(self, y0: np.ndarray, t) -> np.ndarray:
        """The closed-form flow from chart points y0 (..., dimension) at
        times t, which broadcast against y0[..., 0]; the result has shape
        broadcast(t, y0[..., 0]) + (dimension,).  One point (dimension,)
        at n_t times (n_t,) gives the (n_t, dimension) samples of its flow.
        Chart-level like chart_energy_rows: y0 is not validated."""
        raise UnsupportedFlowError(f"{self.name}: no closed-form flow registered")

    # -- sampling ------------------------------------------------------------

    @abstractmethod
    def sample_rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The coordinates (n, dimension) of n random points in the
        effective domain, for property checks."""
        ...

    def sample_point(self, rng: np.random.Generator) -> StatePoint:
        return StatePoint.of(self.sample_rows(rng, 1)[0])

    def sphere_points(self, p: StatePoint, radius: float) -> list[StatePoint]:
        """The feasible points at geodesic distance `radius` from p on a
        scalar space, where the chart sphere is the two points y +- r;
        in higher dimension a finite set of directions misses the
        steepest one, so any other space is a UsageError."""
        if self.dimension != 1:
            raise UsageError(f"space '{self.name}' has dimension {self.dimension}: the "
                             f"sphere of two points, which definitional slopes and the "
                             f"noise identity check take their sup over, needs dimension 1")
        y = self.to_chart(p)
        out = []
        for v in (1.0, -1.0):
            q = y + (radius / self.chart_scale) * v
            if self._chart_feasible(q):
                out.append(self.from_chart(q))
        return out

    def _chart_feasible(self, y: np.ndarray) -> bool:
        return True


# ---------------------------------------------------------------------------
# Row helpers
# ---------------------------------------------------------------------------

def _chart_distances(space: Space, chart: np.ndarray, y: np.ndarray) -> np.ndarray:
    """space.distance from each chart row to the chart point(s) y, with
    its bits: the row-wise vecdot is np.dot's sum."""
    diff = chart - y
    return space.chart_scale * np.sqrt(np.vecdot(diff, diff))


def _squares(d: np.ndarray) -> np.ndarray:
    """d ** 2 by Python floats: float ** 2 is the C library's pow, which
    can differ from d * d (numpy's square) in the last bit."""
    return np.array([v ** 2 for v in d.tolist()])


def _suite_samples(space: Space, samples, k: int) -> list[np.ndarray]:
    """The k validated (n, dimension) coordinate arrays of an (n, k,
    dimension) sample array: the j-th point of every sample."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1] != k:
        raise UsageError(f"expected an (n, {k}, dimension) sample array, got shape "
                         f"{samples.shape}")
    space.validate_rows(samples.reshape(-1, samples.shape[2]))
    return list(samples.transpose(1, 0, 2))


def _geodesic_rows(space: Space, p: np.ndarray, q: np.ndarray, ts) -> np.ndarray:
    """Coordinates (n, len(ts), dimension) of the geodesic from p[i] to
    q[i] at each t for coordinate rows p, q (n, dimension): p itself where
    t = 0 or p == q (the constant curve), q where t = 1, else the chart
    interpolation mapped back."""
    n, dim = p.shape
    ts = np.asarray(ts, dtype=float)[None, :, None]
    yp, yq = space.to_chart_rows(p)[:, None], space.to_chart_rows(q)[:, None]
    pts = space.from_chart_rows(((1.0 - ts) * yp + ts * yq).reshape(-1, dim))
    pts = np.where(ts == 1.0, q[:, None], pts.reshape(n, ts.shape[1], dim))
    return np.where((ts == 0.0) | np.all(p == q, axis=1)[:, None, None], p[:, None], pts)


def _energy_rows(space: Space, coords: np.ndarray) -> np.ndarray:
    """space.energy of every row of a (..., dimension) coordinate array,
    as floats with +inf outside the domain."""
    flat = coords.reshape(-1, coords.shape[-1])
    return space.chart_energy_rows(space.to_chart_rows(flat)).reshape(coords.shape[:-1])


# ---------------------------------------------------------------------------
# Definitional slope and property verifiers
# ---------------------------------------------------------------------------

def slope_by_definition(space: Space, fn: Callable[[StatePoint], float],
                        p: StatePoint, scale: float = 1.0,
                        radii: Sequence[float] = (1e-2, 1e-3, 1e-4)) -> float:
    """Local slope of `fn` at p, from shrinking geodesic spheres.

    For each radius r the quantity max_q (fn(p) - fn(q))^+ / d(p, q) over
    the sphere of radius r*scale is computed; a least-squares line in r
    extrapolates to radius zero.  The limsup itself is not computable, so
    this is the verifier-grade stand-in used only in cross-checks.
    """
    fp = fn(p)
    rs, vals = [], []
    for r in radii:
        rr = r * scale
        best = 0.0
        for q in space.sphere_points(p, rr):
            d = space.distance(p, q)
            if d <= 0:
                continue
            best = max(best, max(fp - fn(q), 0.0) / d)
        rs.append(rr)
        vals.append(best)
    coeffs = np.polyfit(np.asarray(rs), np.asarray(vals), 1)
    return float(coeffs[1])


def check_metric_axioms(space: Space, samples) -> float:
    """Worst violation of symmetry, d(p, p) = 0, the triangle inequality
    and d >= 0 over triples (p, q, r); samples is an (n, 3, dimension)
    coordinate array.  0.0 when nothing is violated."""
    yp, yq, yr = (space.to_chart_rows(x) for x in _suite_samples(space, samples, 3))
    dpq = _chart_distances(space, yp, yq)
    return float(np.max([np.abs(dpq - _chart_distances(space, yq, yp)),
                         np.abs(_chart_distances(space, yp, yp)),
                         _chart_distances(space, yp, yr) - dpq - _chart_distances(space, yq, yr),
                         -dpq], initial=0.0))


def check_geodesic_property(space: Space, samples, grid: int = 11) -> float:
    """max |d(gamma(s), gamma(t)) - |t-s| d(p,q)| over a grid x grid mesh
    of each pair (p, q); samples is an (n, 2, dimension) coordinate array.
    -inf when n = 0."""
    p, q = _suite_samples(space, samples, 2)
    ts = np.linspace(0.0, 1.0, grid)
    d = _chart_distances(space, space.to_chart_rows(p), space.to_chart_rows(q))
    pts = _geodesic_rows(space, p, q, ts)
    y = space.to_chart_rows(pts.reshape(-1, space.dimension)).reshape(pts.shape)
    # row i of the mesh: d(gamma(s_i), gamma(t)) for every t
    dist = np.stack([_chart_distances(space, y, y[:, i:i + 1]) for i in range(grid)], axis=1)
    dev = np.abs(dist - np.abs(ts[None, :] - ts[:, None]) * d[:, None, None])
    return float(np.max(dev, initial=-math.inf))


def check_kappa_convexity(space: Space, n_geodesics: int = 100,
                          ts: Sequence[float] = tuple(np.linspace(0.1, 0.9, 9)),
                          rng: np.random.Generator | None = None) -> float:
    """Worst violation of E(gamma(t)) <= (1-t)E(p) + tE(q) - kappa/2
    t(1-t) d^2(p,q) on random geodesics with finite endpoint energies.
    Pairs with an infinite endpoint energy are rejected and redrawn, a batch
    of the missing count at a time: the pairs, and rng's final state, of
    drawing pair after pair until n_geodesics are accepted."""
    rng = rng or np.random.default_rng(11)
    dim = space.dimension
    rows, e = np.empty((0, 2, dim)), np.empty((0, 2))
    while len(rows) < n_geodesics:
        pairs = space.sample_rows(rng, 2 * (n_geodesics - len(rows))).reshape(-1, 2, dim)
        energies = _energy_rows(space, pairs)
        ok = ~np.isinf(energies).any(axis=1)
        rows, e = np.concatenate([rows, pairs[ok]]), np.concatenate([e, energies[ok]])
    p, q = rows[:, 0], rows[:, 1]
    d2 = _squares(_chart_distances(space, space.to_chart_rows(p), space.to_chart_rows(q)))
    ts = np.asarray(ts, dtype=float)
    bound = ((1 - ts) * e[:, :1] + ts * e[:, 1:]
             - 0.5 * space.kappa * ts * (1 - ts) * d2[:, None])
    return float(np.max(_energy_rows(space, _geodesic_rows(space, p, q, ts)) - bound,
                        initial=-math.inf))


def check_noise_identity(space: Space,
                         pairs: Sequence[tuple[StatePoint, StatePoint]]) -> float:
    """max |d(half-squared-distance slope) - d(pi,rho)| via the definitional
    slope, on smooth scalar spaces where the identity
    |d(1/2 d^2(.,rho))|(pi) = d(pi,rho) is expected to hold; sphere_points
    refuses any other space."""
    worst = 0.0
    for pi, rho in pairs:
        d = space.distance(pi, rho)
        fn = lambda z: 0.5 * space.distance(z, rho) ** 2
        est = slope_by_definition(space, fn, pi, scale=max(d, 1.0))
        worst = max(worst, abs(est - d))
    return worst
