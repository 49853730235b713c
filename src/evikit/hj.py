"""Upper/lower Hamiltonians, viscosity verification and resolvent solving.

The formal Hamiltonian of a linearly controlled gradient flow,

    Hf = -<grad f, grad E> + 1/2 ||grad f||^2,

is not directly meaningful on a metric space.  It is replaced by an upper
bound H-dagger (sign s = +1) and a mirrored lower bound H-ddagger (s = -1),
each acting on the test functions of its sign,

    f_s(x) = s a/2 d^2(x, q) + s b d_T(x, t) + c,          a, b > 0,
    g_s(x) = s a [E(q) - E(x)] - s a kappa/2 d^2(x, q) + s b
             + a^2/2 d^2(x, q) + s a b d(x, q) + s b^2/2,

with quadratic anchor q (rho for f+, gamma for f-) and Tataru anchor t
(mu for f+, pi for f-).

A bounded u is a viscosity subsolution of f - lambda H+ f = h (s = +1),
or a supersolution of f - lambda H- f = h (s = -1), when along an
optimizing sequence of s (u - f_s) the inequality s (u - lambda g_s - h)
<= 0 holds in the limit; on a finite grid the optimizing sequence
collapses to the grid argmax.  The resolvent equation f - lambda Hf = h
is solved on one-dimensional spaces by policy iteration on a monotone upwind
discretization of the control form

    sup_u { (drift(x) + u) f'(x) - u^2 / (2 sigma(x)) },   sigma = 1/metric,

whose value function is also bounded below by explicit control rollouts.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    NumericalError,
    Space,
    StatePoint,
    UsageError,
    _chart_distances,
    _energy_rows,
    _squares,
)
from .spaces import CirSpace, QuadraticSpace
from .tataru import tataru_batch


# ---------------------------------------------------------------------------
# Grid functions and data built-ins
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Values on a grid of states: nodes is the (n, dim) coordinate array
    of the grid, values the (n,) array of function values.  A StatePoint
    is built only where a caller asks for one, by point(i)."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 2:
            raise UsageError("grid nodes must be an (n, dim) coordinate array")
        if len(self.nodes) != len(self.values):
            raise UsageError("grid and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("grid function values must be finite")

    def coords(self) -> np.ndarray:
        """Coordinate column (n,) of a scalar-state grid."""
        return self.nodes[:, 0]

    def point(self, i: int) -> StatePoint:
        return StatePoint.of(self.nodes[i])


# data function -> its parameters and their defaults
_DATA_FUNCTIONS = {"affine_clipped": {"slope": 1.0, "intercept": 0.0, "cap": 1.0},
                   "constant": {"value": 0.0},
                   "gaussian_bump": {"center": 0.0, "width": 1.0, "height": 1.0}}


def make_data_function(name: str, **params):
    """Bounded, uniformly continuous data functions h for the resolvent
    equation, as named built-ins.  A parameter the built-in does not take
    is a UsageError."""
    if name not in _DATA_FUNCTIONS:
        raise UsageError(f"unknown data function '{name}'")
    defaults = _DATA_FUNCTIONS[name]
    for key in params:
        if key not in defaults:
            raise UsageError(f"data function '{name}' has no parameter '{key}'; "
                             f"expected one of {sorted(defaults)}")
    p = {key: float(params.get(key, default)) for key, default in defaults.items()}
    if name == "constant":
        k = p["value"]
        return lambda x: k + 0.0 * np.asarray(x, dtype=float)
    if name == "affine_clipped":
        slope, intercept, cap = p["slope"], p["intercept"], p["cap"]
        return lambda x: np.minimum(slope * np.asarray(x, dtype=float) + intercept, cap)
    center, width, height = p["center"], p["width"], p["height"]
    return lambda x: height * np.exp(-((np.asarray(x, dtype=float) - center) ** 2)
                                     / (2.0 * width**2))


def builtin_data_functions() -> list[str]:
    return sorted(_DATA_FUNCTIONS)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass
class ViscosityTestFunction:
    """The parameters of f+ and of f- (module docstring); each sweep reads
    them with its own sign."""

    space: Space
    a: float
    b: float
    c: float
    anchor_tataru: StatePoint
    anchor_quadratic: StatePoint
    flow_dt: float = 1e-2

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise UsageError("a test function requires a > 0 and b > 0")
        if self.space.energy(self.anchor_quadratic).infinite:
            raise UsageError("a test function requires E(anchor_quadratic) < inf")


def hamiltonian_bound(space: Space, sign: int, a: float, b: float, e_anchor, e, d, d2):
    """g+ (sign +1) or g- (sign -1) at distance d (d2 = d ** 2) from the
    quadratic anchor with energy e_anchor, where the energy is e; -inf for
    g+ and +inf for g- where e = +inf.  Numbers or arrays that broadcast.
    Multiplying by +-1 and adding a negated term are exact, so each sign
    gives the bits of its bound written out."""
    return (sign * a * (e_anchor - e) - sign * 0.5 * a * space.kappa * d2 + sign * b
            + 0.5 * a**2 * d2 + sign * a * b * d + sign * 0.5 * b**2)


# ---------------------------------------------------------------------------
# Viscosity verification on grids
# ---------------------------------------------------------------------------

@dataclass
class ViscosityRecord:
    a: float
    b: float
    anchor_quadratic: list
    anchor_tataru: list
    argopt_index: int
    inequality_value: float
    passed: bool


@dataclass
class ViscosityReport:
    sign: int
    tol: float
    records: list[ViscosityRecord] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return "subsolution" if self.sign > 0 else "supersolution"

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def worst(self) -> float:
        """Worst signed violation: positive beyond tol means failure."""
        return max((self.sign * r.inequality_value for r in self.records), default=-math.inf)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "tol": self.tol,
            "passed": self.passed,
            "worst": self.worst,
            "records": [asdict(r) for r in self.records],
        }


def _grid_charts(grid: GridFunction, tfs) -> list[np.ndarray]:
    """The grid's chart rows for each test function, computed once per space."""
    charts = {id(tf.space): tf.space for tf in tfs}
    charts = {key: space.to_chart_rows(grid.nodes) for key, space in charts.items()}
    return [charts[id(tf.space)] for tf in tfs]


def _grid_tataru(tfs, charts: list[np.ndarray]) -> list[np.ndarray]:
    """d_T(grid, anchor_tataru) for each test function.  The vector
    depends on the space, the anchor and flow_dt, not on a, b or c, so
    each distinct (space, anchor, flow_dt) makes one tataru_batch call and
    its test functions share the result."""
    cache = {}
    out = []
    for tf, chart in zip(tfs, charts):
        key = (id(tf.space), tf.anchor_tataru.coords, tf.flow_dt)
        if key not in cache:
            cache[key] = tataru_batch(tf.space, chart, tf.anchor_tataru, tf.flow_dt)
        out.append(cache[key])
    return out


def _sweep(u: GridFunction, tfs: list[ViscosityTestFunction], lam: float,
           h: GridFunction, tol: float, sign: int) -> ViscosityReport:
    """For each test function, locate the grid argmax of sign (u - f) for
    f its f+ (sign +1) or f- (sign -1), the discrete stand-in for the
    optimizing sequence, and check sign (u - lambda g - h) <= tol there.
    d_T(., anchor_tataru) on the grid is computed by one tataru_batch
    call per distinct (space, anchor_tataru, flow_dt)."""
    report = ViscosityReport(sign, tol)
    charts = _grid_charts(u, tfs)
    for tf, chart, dt_vals in zip(tfs, charts, _grid_tataru(tfs, charts)):
        sp, q = tf.space, tf.anchor_quadratic
        d = _chart_distances(sp, chart, sp.to_chart(q))
        f = sign * 0.5 * tf.a * d**2 + sign * tf.b * dt_vals + tf.c
        i_star = int(np.argmax(sign * (u.values - f)))
        d_i = float(d[i_star])
        g_val = hamiltonian_bound(sp, sign, tf.a, tf.b, float(sp.energy(q)),
                                  float(sp.energy(u.point(i_star))), d_i, d_i**2)
        val = u.values[i_star] - lam * g_val - h.values[i_star]
        report.records.append(ViscosityRecord(
            tf.a, tf.b, q.to_json(), tf.anchor_tataru.to_json(), i_star,
            float(val), bool(sign * val <= tol)))
    return report


def verify_subsolution(u: GridFunction, tfs: list[ViscosityTestFunction],
                       lam: float, h: GridFunction, tol: float) -> ViscosityReport:
    """u - lambda g+ - h <= tol at the grid argmax of u - f+ (_sweep)."""
    return _sweep(u, tfs, lam, h, tol, 1)


def verify_supersolution(v: GridFunction, tfs: list[ViscosityTestFunction],
                         lam: float, h: GridFunction, tol: float) -> ViscosityReport:
    """v - lambda g- - h >= -tol at the grid argmin of v - f- (_sweep)."""
    return _sweep(v, tfs, lam, h, tol, -1)


# ---------------------------------------------------------------------------
# Resolvent solving by policy iteration (one-dimensional spaces)
# ---------------------------------------------------------------------------

_CSV_CHUNK = 2048  # rows of resolvent.csv formatted at a time
_BLOCK = 8192      # nodes per elementwise pass of the resolvent solve


@dataclass
class ResolventSolution:
    f: GridFunction
    policy: GridFunction
    residual: float
    lam: float
    iterations: int = 0

    def write_csv(self, path) -> None:
        """RFC 4180 rows x,f,policy of float reprs, streamed in chunks of
        _CSV_CHUNK rows; a repr never needs quoting, so the bytes are
        csv.writer's."""
        xs, fs, us = self.f.coords(), self.f.values, self.policy.values
        with open(path, "w", newline="") as fh:
            fh.write("x,f,policy\r\n")
            for i in range(0, len(xs), _CSV_CHUNK):
                rows = slice(i, i + _CSV_CHUNK)
                fh.write("".join(f"{x!r},{f!r},{u!r}\r\n" for x, f, u in zip(
                    xs[rows].tolist(), fs[rows].tolist(), us[rows].tolist())))

    def metadata(self) -> dict:
        xs = self.f.coords()
        return {"lambda": self.lam, "residual": self.residual,
                "grid": {"n": len(xs), "lo": float(xs[0]), "hi": float(xs[-1])},
                "iterations": self.iterations}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2, sort_keys=True)


def _hamiltonian_upwind(drift, sigma, fwd, bwd, val_zero, out_h, out_u, val_b, u_b,
                        tmp, mask, left_end, right_end):
    """Godunov-style discrete Hamiltonian and maximizing control on a run
    of consecutive nodes, written into out_h and out_u.

    For each node the control problem sup_u (drift+u) p - u^2/(2 sigma) is
    solved twice, once per one-sided derivative, each branch constrained
    to the drift sign that makes its difference quotient upwind; a branch
    whose constraint fails pins the total drift at zero, with value
    val_zero = -drift^2/(2 sigma).  The grid's boundary nodes only admit
    the inward branch (state constraint): left_end and right_end say
    whether the run starts and ends there.  val_b, u_b, tmp (float) and
    mask (bool) are work buffers of the run's length.
    """
    def branch(p, val, u, upwind):
        # u = sigma p and val = drift p + (0.5 sigma) p^2 where the total
        # drift has the upwind sign, else -drift and val_zero; each product
        # and sum in the order of that expression, for its bits
        np.multiply(sigma, p, out=u)
        np.add(drift, u, out=tmp)
        upwind(tmp, 0.0, out=mask)
        np.logical_not(mask, out=mask)
        np.square(p, out=val)
        np.multiply(0.5, sigma, out=tmp)
        np.multiply(tmp, val, out=val)
        np.multiply(drift, p, out=tmp)
        np.add(tmp, val, out=val)
        np.copyto(val, val_zero, where=mask)
        np.negative(drift, out=u, where=mask)

    branch(fwd, out_h, out_u, np.greater_equal)
    branch(bwd, val_b, u_b, np.less_equal)
    # mask: where the backward branch is taken
    np.greater_equal(out_h, val_b, out=mask)
    np.logical_not(mask, out=mask)
    if left_end:
        mask[0] = False
    if right_end:
        mask[-1] = True
    np.copyto(out_h, val_b, where=mask)
    np.copyto(out_u, u_b, where=mask)


_FLAPACK = "scipy.linalg._flapack"


def _solve_tridiagonal(band: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system whose upper, main and lower diagonals
    are the rows of band (padded at their ends) for the right-hand side f,
    by LAPACK's dgtsv, overwriting both; the solution is f.  The call, the
    finiteness check and the errors are those of scipy's banded solver for
    one band on each side, so its bits are too.

    dgtsv comes from scipy's LAPACK extension, loaded on first use by
    itself: importing scipy.linalg costs about 25 MB of resident memory
    and 0.3 s, the extension alone about 3 MB.  The module is registered
    in sys.modules, so that a later `import scipy.linalg` shares it.
    """
    flapack = sys.modules.get(_FLAPACK)
    if flapack is None:
        import scipy

        where = os.path.join(scipy.__path__[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, [where])
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension {_FLAPACK} is not in {where}")
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        flapack = sys.modules.setdefault(_FLAPACK, flapack)
    # the banded solver's check_finite, over the whole band as it does: an
    # array is finite when its largest and smallest entries are (a NaN
    # entry makes both NaN), a test that builds no array of the band's size
    if not np.isfinite([band.max(), band.min(), f.max(), f.min()]).all():
        raise ValueError("array must not contain infs or NaNs")
    sup, dia, sub = band
    *_, x, info = flapack.dgtsv(sub[:-1], dia, sup[1:], f, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _check_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0):
        raise UsageError(f"resolvent parameter lambda must be positive and finite, got {lam}")


def solve_resolvent_1d(xs: np.ndarray, drift: np.ndarray, sigma: np.ndarray,
                       lam: float, h_vals: np.ndarray, tol: float = 1e-6,
                       max_iter: int = 200) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Policy iteration for f - lambda sup_u [(drift+u) f' - u^2/(2 sigma)] = h
    on a uniform grid with one-sided (state-constraint) boundaries.

    Each iteration solves the linear upwind system at the current policy
    (an M-matrix, hence the discrete maximum principle) and re-optimizes
    the control from the one-sided derivatives of the iterate.  Only the
    tridiagonal solve needs grid-sized arrays: the band rows sup, dia,
    sub, the right-hand side f, which the solve overwrites with the
    iterate, and the policy.  Every other pass runs over blocks of
    _BLOCK nodes, in block-sized buffers allocated once per call:

    - before the solve, co holds a block's drift coefficients
      lam * c / dx and ahead/behind its upwind directions, from which the
      block's right-hand side and band entries are written;
    - after it, dq holds the block's difference quotients, one more than
      its nodes (fwd = dq[1:], bwd = dq[:-1]), and the Hamiltonian of the
      block is written into the band rows, which the solve has used up:
      dia holds the discrete Hamiltonian, sup the backward branch's value
      and sub its control; tmp then holds the block's residuals.

    Each node goes through the operations of a pass over the whole grid,
    in the same order, so no bit depends on the block size.
    """
    _check_lambda(lam)
    n = xs.size
    dx = float(xs[1] - xs[0])
    band = np.empty((3, n))      # rows: A[j-1, j], A[j, j], A[j+1, j]
    sup, dia, sub = band
    f = np.empty(n)              # right-hand side, then the solve's result
    policy = np.zeros(n)
    size = min(n, _BLOCK)
    diff = np.empty(size + 1)    # co before the solve, dq after it
    tmp = np.empty(size)
    val_zero = np.empty(size)
    ahead = np.empty(size, dtype=bool)
    behind = np.empty(size, dtype=bool)
    # blocks [s, e) and the inner nodes [lo, hi) among them
    blocks = [(s, min(s + _BLOCK, n), max(s, 1), min(s + _BLOCK, n - 1))
              for s in range(0, n, _BLOCK)]
    residual = math.inf
    for it in range(max_iter):
        sup[0] = sub[-1] = 0.0   # the band's corners, outside the matrix
        for s, e, lo, hi in blocks:
            m = e - s
            co, t, fwd_nodes, bwd_nodes = diff[:m], tmp[:m], ahead[:m], behind[:m]
            np.add(drift[s:e], policy[s:e], out=co)
            if s == 0:
                co[0] = max(co[0], 0.0)
            if e == n:
                co[-1] = min(co[-1], 0.0)
            np.greater(co, 0.0, out=fwd_nodes)   # forward nodes (not the last)
            np.less(co, 0.0, out=bwd_nodes)      # backward nodes (not the first)
            np.multiply(lam, co, out=co)
            np.divide(co, dx, out=co)
            # rhs = h - lam * policy^2 / (2 sigma)
            rhs = f[s:e]
            np.square(policy[s:e], out=rhs)
            np.multiply(2.0, sigma[s:e], out=t)
            np.divide(rhs, t, out=rhs)
            np.multiply(lam, rhs, out=rhs)
            np.subtract(h_vals[s:e], rhs, out=rhs)
            d = dia[s:e]
            d.fill(1.0)
            np.add(d, co, out=d, where=fwd_nodes)
            np.subtract(d, co, out=d, where=bwd_nodes)
            # node j's coefficient: -co[j] at sup[j + 1] for a forward node
            # j < n - 1, co[j] at sub[j - 1] for a backward node j > 0
            ahead_of = sup[s + 1:hi + 1]
            ahead_of.fill(0.0)
            np.negative(co[:hi - s], out=ahead_of, where=fwd_nodes[:hi - s])
            behind_of = sub[lo - 1:e - 1]
            behind_of.fill(0.0)
            np.copyto(behind_of, co[lo - s:], where=bwd_nodes[lo - s:])
        f = _solve_tridiagonal(band, f)

        peaks = []
        for s, e, lo, hi in blocks:
            m = e - s
            dq, t, vz, mask = diff[:m + 1], tmp[:m], val_zero[:m], ahead[:m]
            # dq[j - s] = (f[j] - f[j - 1]) / dx for lo <= j <= hi; a grid end
            # repeats its neighbour's quotient
            inner = dq[lo - s:hi - s + 1]
            np.subtract(f[lo:hi + 1], f[lo - 1:hi], out=inner)
            np.divide(inner, dx, out=inner)
            if s == 0:
                dq[0] = dq[1]
            if e == n:
                dq[m] = dq[m - 1]
            # the value with the total drift pinned at zero
            np.square(drift[s:e], out=vz)
            np.negative(vz, out=vz)
            np.multiply(2.0, sigma[s:e], out=t)
            np.divide(vz, t, out=vz)
            hval = dia[s:e]
            _hamiltonian_upwind(drift[s:e], sigma[s:e], dq[1:], dq[:-1], vz, hval,
                                policy[s:e], sup[s:e], sub[s:e], t, mask, s == 0, e == n)
            np.multiply(lam, hval, out=t)
            np.subtract(f[s:e], t, out=t)
            np.subtract(t, h_vals[s:e], out=t)
            np.abs(t, out=t)
            if hi > lo:
                peaks.append(np.max(t[lo - s:hi - s]))
        # a grid with no inner node has no peak, and np.max raises on it
        # as it would on the grid's empty inner range
        residual = float(np.max(peaks))
        if residual <= tol:
            return f, policy, residual, it + 1
    raise NumericalError(
        f"resolvent policy iteration failed to reach tol={tol} "
        f"(residual {residual:.3e})",
        residual=residual,
    )


def _control(space: Space):
    """The control problem of a scalar space's formal Hamiltonian: the
    drift -grad E and the inverse metric sigma = 1/g as functions of a
    coordinate array, and the interval a rollout clips its states to.
    On the half-line space Hf = (mu - x) f' + x (f')^2 / 2; on the scalar
    quadratic space sigma is 1.  Any other space is a UsageError."""
    if isinstance(space, CirSpace):
        return (lambda x: space.mu - x), (lambda x: x), (space.x_lo, space.x_hi)
    if isinstance(space, QuadraticSpace) and space.dimension == 1:
        return ((lambda x: -space.chart_energy_grad_rows(x[:, None])[:, 0]), np.ones_like,
                (-8.0, 8.0))
    raise UsageError(f"space '{space.name}' has no scalar control problem: resolvent "
                     f"solves and rollouts run on cir and the scalar quadratic space")


def solve_resolvent(space: Space, lam: float, h, xs: np.ndarray,
                    tol: float) -> ResolventSolution:
    """solve_resolvent_1d for the space's control problem (_control) and
    the data function h, as functions on the uniform grid xs.  h must be
    finite on the grid, and so must lam * max(sigma) * p^2 for its largest
    difference quotient p: the policy step squares the iterate's
    difference quotients, which start near the data's, and an overflow
    there reaches the solve as an infinite right-hand side."""
    _check_lambda(lam)
    drift_fn, sigma_fn, _ = _control(space)
    drift, sigma = drift_fn(xs), sigma_fn(xs)
    h_vals = np.asarray(h(xs), dtype=float)
    if not np.all(np.isfinite(h_vals)):
        raise UsageError("the data function is not finite on the resolvent grid")
    p = float(np.max(np.abs(np.diff(h_vals)), initial=0.0)) / float(xs[1] - xs[0])
    if not math.isfinite(lam * float(np.max(sigma)) * p * p):
        raise UsageError("the data function is too steep for the resolvent grid: "
                         "the squares of its difference quotients overflow")
    f, policy, residual, iters = solve_resolvent_1d(xs, drift, sigma, lam, h_vals, tol)
    return ResolventSolution(GridFunction(xs[:, None], f), GridFunction(xs[:, None], policy),
                             residual, lam, iters)


# ---------------------------------------------------------------------------
# Control rollout lower bound
# ---------------------------------------------------------------------------

def _value_program(xs: np.ndarray, reward: np.ndarray, x_next: np.ndarray,
                   beta: float, steps: int) -> np.ndarray:
    """The rollout's dynamic program: V = 0, then `steps` times
    V <- max over controls of reward + beta * np.interp(x_next, xs, V),
    with reward and x_next (controls, nodes) arrays on the grid xs.

    x_next is fixed, so its np.interp brackets are found once: j with
    xs[j] <= x_next < xs[j + 1] and the offset x_next - xs[j].  States
    below the grid, on a node, or at or past its last node take V[j], j
    clipped to the grid, as np.interp does; the others take np.interp's
    slope * offset + V[j], in buffers reused across steps.
    """
    n = xs.size
    j = np.searchsorted(xs, x_next, side="right") - 1
    take = (j < 0) | (j >= n - 1)
    np.clip(j, 0, n - 1, out=j)
    take |= xs[j] == x_next
    j_slope = np.minimum(j, n - 2)
    off = x_next - xs[j_slope]
    dxs = xs[1:] - xs[:-1]
    V = np.zeros_like(xs)
    slope = np.empty(n - 1)
    cont = np.empty_like(x_next)
    v_j = np.empty_like(x_next)
    for _ in range(steps):
        np.subtract(V[1:], V[:-1], out=slope)
        np.divide(slope, dxs, out=slope)
        np.take(slope, j_slope, out=cont)
        np.multiply(cont, off, out=cont)
        np.take(V, j, out=v_j)
        np.add(cont, v_j, out=cont)
        np.copyto(cont, v_j, where=take)
        np.multiply(beta, cont, out=cont)
        np.add(reward, cont, out=cont)
        np.max(cont, axis=0, out=V)
    return V


def value_by_rollout(space: Space, lam: float, h, starts: np.ndarray,
                     control_grid: np.ndarray, dt: float, T: float,
                     state_grid: np.ndarray) -> np.ndarray:
    """Discounted reward of an explicitly simulated piecewise-constant
    control, hence a lower bound on the resolvent value up to O(dt).

    A finite-horizon dynamic program over the control grid synthesizes a
    feedback policy on state_grid, an increasing grid of at least two
    nodes (linear value interpolation); the policy is then rolled forward
    from every start at once with Euler steps of the controlled drift,
    accumulating exp(-t/lambda) [h/lambda - u^2/(2 sigma)] dt.
    States are clipped to the interval of the space's control problem
    (_control), and values off state_grid are its end values.

    starts holds the scalar start coordinates, an (m, 1) array (or (m,));
    the result is the (m,) array of their values, each equal to the value
    of a rollout from that start alone.
    """
    _check_lambda(lam)
    drift_fn, sigma_fn, (lo, hi) = _control(space)
    if not (dt > 0 and T > 0):
        raise UsageError("a rollout needs a positive time step dt and horizon T")
    xs = np.asarray(state_grid, dtype=float)
    if xs.size < 2:
        raise UsageError("a rollout state grid needs at least 2 nodes")
    us = np.asarray(control_grid, dtype=float)
    if us.size == 0:
        raise UsageError("a rollout control grid needs at least 1 control")
    h_vals = np.asarray(h(xs), dtype=float)
    beta = math.exp(-dt / lam)
    # exact within-step discount integral for a piecewise-constant integrand
    dfac = lam * (1.0 - beta)
    drift = drift_fn(xs)
    sigma = np.maximum(sigma_fn(xs), 1e-12)
    # one row per control, so that the max over controls runs across
    # contiguous rows
    reward = dfac * (h_vals[None, :] / lam - us[:, None] ** 2 / (2.0 * sigma[None, :]))
    x_next = np.clip(xs[None, :] + dt * (drift[None, :] + us[:, None]), lo, hi)
    steps = int(math.ceil(T / dt))
    V = _value_program(xs, reward, x_next, beta, steps)

    # forward rollout of the greedy policy, one row per start; reward uses
    # the exact step discount and a trapezoidal state average along the
    # Euler segment
    x = np.asarray(starts, dtype=float).reshape(-1)
    # the reward squares the chosen control as a Python float power, which
    # can be an ulp off numpy's u*u; the tests hold each value bit-equal to
    # a scalar rollout from its start alone
    us_pow2 = np.array([v**2 for v in us.tolist()])
    total = np.zeros_like(x)
    disc = 1.0
    for _ in range(steps):
        dr = drift_fn(x)
        sg = np.maximum(sigma_fn(x), 1e-12)
        h_x = np.interp(x, xs, h_vals)
        cand_next = np.clip(x[:, None] + dt * (dr[:, None] + us[None, :]), lo, hi)
        cand_val = (dfac * (h_x[:, None] / lam - us[None, :] ** 2 / (2.0 * sg[:, None]))
                    + beta * np.interp(cand_next, xs, V))
        j = np.argmax(cand_val, axis=1)
        x_new = np.clip(x + dt * (dr + us[j]), lo, hi)
        h_mid = 0.5 * (h_x + np.interp(x_new, xs, h_vals))
        total += disc * dfac * (h_mid / lam - us_pow2[j] / (2.0 * sg))
        x = x_new
        disc *= beta
    return total


# ---------------------------------------------------------------------------
# Comparison principle check
# ---------------------------------------------------------------------------

@dataclass
class ComparisonResult:
    lhs: float
    rhs: float
    passed: bool
    tol: float

    def to_json(self) -> dict:
        return asdict(self)


def check_comparison(u: GridFunction, v: GridFunction, h_up: GridFunction,
                     h_low: GridFunction, tol: float = 0.0) -> ComparisonResult:
    """sup(u - v) <= sup(h+ - h-) + tol on a common grid."""
    if not all(np.array_equal(g.nodes, u.nodes) for g in (v, h_up, h_low)):
        raise UsageError("comparison requires a common grid")
    lhs = float(np.max(u.values - v.values))
    rhs = float(np.max(h_up.values - h_low.values))
    return ComparisonResult(lhs, rhs, bool(lhs <= rhs + tol), tol)


# ---------------------------------------------------------------------------
# Hamiltonian sandwich on smooth scalar spaces
# ---------------------------------------------------------------------------

def hamiltonian_sandwich_check(space: Space, a_values, anchors, samples,
                               b0: float = 1e-6) -> float:
    """max violation of H_exact <= g+ and g- <= H_exact over the test
    functions +-a/2 d^2(., anchor), a in a_values and anchor a row of the
    (k, dimension) coordinate array anchors, at the rows of the (m,
    dimension) array samples that have finite energy.  H_exact is their
    chart-calculus Hamiltonian

        H = -sign a (y - y_anchor) . dE/dy + a^2/2 d^2(pi, anchor).

    The bounds require b > 0, so the effectively-quadratic test functions
    use b = b0; the analytic slack b0 + a b0 d + b0^2/2 carried inside
    g+/g- keeps the inequalities strict.
    """
    anchors, samples = space.validate_rows(anchors), space.validate_rows(samples)
    e_anchor = _energy_rows(space, anchors)[:, None]
    if np.any(np.isinf(e_anchor)):
        raise UsageError("sandwich anchors must have finite energy")
    e_pi = _energy_rows(space, samples)
    live = ~np.isinf(e_pi)
    y, e_pi = space.to_chart_rows(samples[live]), e_pi[live]
    ya = space.to_chart_rows(anchors)[:, None]                  # (k, 1, dimension)
    d = _chart_distances(space, y, ya)                          # (k, m)
    d2 = _squares(d.ravel()).reshape(d.shape)
    drift = np.vecdot(y - ya, space.chart_energy_grad_rows(y))  # (y - y_anchor) . dE/dy
    out = []
    for a in a_values:
        for sign in (1, -1):
            # sign (H_exact - g) as sign H_exact - sign g, which keeps the
            # bits of g- - H_exact, a +0 where the two are equal included
            h_exact = -sign * a * drift + 0.5 * a**2 * d2
            g = hamiltonian_bound(space, sign, a, b0, e_anchor, e_pi, d, d2)
            out.append(sign * h_exact - sign * g)
    return float(np.max(out, initial=-math.inf))
