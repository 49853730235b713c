"""Gradient-flow engines and EVI-consequence verifiers.

Closed-form flows are used where a family is registered (exponential
relaxation for quadratic energies, mean reversion on the half-line, the
Gaussian heat family in the transport space); everywhere else the
minimizing-movement scheme

    q_{k+1} = argmin_q  E(q) + d^2(q, q_k) / (2 dt)

is solved by projected descent in the space's flat chart with a
Barzilai-Borwein trial step, backtracking line search and (for the
transport space) pool-adjacent-violators feasibility projection.
``jko_step`` takes one step of one trajectory; ``jko_rows`` takes one
step of many trajectories in lockstep, with each row's arithmetic that
of ``jko_step``, which is how the Tataru scan flows the second arguments
of many pairs at once.  Both stay, since on one row ``jko_rows`` runs
slower than ``jko_step``: it pays for its per-row masks and indexing in
every iteration.  Every inner solve stops at the step tolerance
JKO_INNER_TOL or fails at JKO_MAX_ITER iterations.

``flow_exact``, ``flow_mms`` and ``flow_any`` take (space, p, T, dt).
Minimizing movement takes ceil(T/dt) steps, so it can end past T, where
the closed form ends; a check that pairs the two takes the closed form at
the minimizing-movement times (``flow_exact_at``).  A ``Trajectory`` holds
its samples as an (n_t, dim) coordinate array, so the verifiers below work
on all samples at once through the space's row hooks.

Verifiers cover the standard consequences of the evolution variational
inequality: the EVI inequality itself with the upper-right derivative
replaced by a forward difference at resolution dt, the contraction bound
d(mu(t), nu(t)) <= exp(-kappa t) d(mu, nu), the energy identity
E(mu(t)) - E(mu) = -int_0^t I(mu(s)) ds, and the quadratic lower bound
used to renormalize the energy for the quadruplication machinery.
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
)

# the inner minimizing-movement solve: its step tolerance, relative to
# max(1, |y_prev|), and its iteration cap
JKO_INNER_TOL = 1e-9
JKO_MAX_ITER = 500


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time-stamped samples of a gradient-flow curve: times (n_t,) and
    coords, the (n_t, dim) array of the samples' coordinates.  A
    StatePoint is built only where a caller asks for one, by point(i)."""

    times: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or len(self.coords) != len(self.times):
            raise UsageError("trajectory coords must be an (n_t, dim) array, one row per time")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise UsageError("trajectory must start at time 0")
        if np.any(np.diff(self.times) <= 0):
            raise UsageError("trajectory times must be strictly increasing")

    def point(self, i: int) -> StatePoint:
        return StatePoint(tuple(self.coords[i].tolist()))

    @property
    def start(self) -> StatePoint:
        return self.point(0)

    @property
    def end(self) -> StatePoint:
        return self.point(-1)

    def to_csv(self, path) -> None:
        """RFC 4180 rows of repr fields, as csv.writer writes them."""
        header = ["t"] + [f"coord_{i}" for i in range(self.coords.shape[1])]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(",".join(map(repr, [t, *row.tolist()])) + "\r\n"
                          for t, row in zip(self.times.tolist(), self.coords))


@dataclass
class ProbeRecord:
    t: float
    probe: list
    lhs: float
    rhs: float


@dataclass
class EviReport:
    max_violation: float
    probe_count: int
    records: list[ProbeRecord] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "max_violation": self.max_violation,
            "probe_count": self.probe_count,
            "records": [
                {"t": r.t, "probe": r.probe, "lhs": r.lhs, "rhs": r.rhs}
                for r in self.records
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Flow engines
# ---------------------------------------------------------------------------

def _time_grid(T: float, dt: float) -> np.ndarray:
    """Multiples of dt up to T, with T itself appended when missed."""
    n = int(math.floor(T / dt + 1e-12))
    times = dt * np.arange(n + 1)
    if times[-1] < T - 1e-12 * max(1.0, T):
        times = np.concatenate([times, [T]])
    return times


def flow_exact_at(space: Space, p: StatePoint, times: np.ndarray) -> np.ndarray:
    """The closed-form flow from p at each of times, as an (n_t, dim)
    coordinate array.

    Raises UnsupportedFlowError when no closed form is registered for the
    state's family.  p is validated once, and each time is one
    exact_flow_rows call on p's row, so a closed form keeps its per-time
    math.exp bits (exact_flow_chart's np.exp over all times can differ in
    the last bit).
    """
    space.validate_point(p)
    row = p.array[None, :]
    coords = np.concatenate([space.exact_flow_rows(row, t) for t in times.tolist()])
    if not np.isfinite(coords).all():
        raise UsageError("StatePoint coordinates must be finite")
    return coords


def flow_exact(space: Space, p: StatePoint, T: float, dt: float) -> Trajectory:
    """Closed-form trajectory sampled at the multiples of dt up to T, and
    at T; callers without a closed form fall back to flow_mms."""
    times = _time_grid(T, dt)
    return Trajectory(times, flow_exact_at(space, p, times))


def jko_step(space: Space, y_prev: np.ndarray, dt: float,
             inner_tol: float, max_iter: int) -> np.ndarray:
    """One minimizing-movement step in chart coordinates, calling the
    space's row hooks on one (1, dimension) row."""
    s2 = space.chart_scale**2

    def objective(y):
        diff = y - y_prev
        energy = float(space.chart_energy_rows(y[None])[0])
        return energy + s2 * float(np.dot(diff, diff)) / (2 * dt)

    def grad(y):
        return space.chart_energy_grad_rows(y[None])[0] + s2 * (y - y_prev) / dt

    y = y_prev.copy()
    fy = objective(y)
    if not math.isfinite(fy):
        raise NumericalError("minimizing movement started outside the energy domain")
    g = grad(y)
    step = dt / s2
    scale = max(1.0, math.sqrt(float(np.dot(y_prev, y_prev))))  # np.linalg.norm's bits
    for _ in range(max_iter):
        y_new = space.project_chart_rows((y - step * g)[None])[0]
        d = y_new - y
        dn2 = float(np.dot(d, d))
        if math.sqrt(dn2) <= inner_tol * scale:
            return y_new
        f_new = objective(y_new)
        backtracks = 0
        while (not math.isfinite(f_new)
               or f_new > fy + float(np.dot(g, d)) + 0.5 * dn2 / step) and backtracks < 60:
            step *= 0.5
            y_new = space.project_chart_rows((y - step * g)[None])[0]
            d = y_new - y
            dn2 = float(np.dot(d, d))
            f_new = objective(y_new)
            backtracks += 1
        g_new = grad(y_new)
        sy = float(np.dot(d, g_new - g))
        step = dn2 / sy if sy > 1e-30 else dt / s2
        step = min(max(step, 1e-14), 1e8)
        y, fy, g = y_new, f_new, g_new
    resid = float(np.linalg.norm(grad(y)))
    raise NumericalError(
        f"inner minimizing-movement solve did not converge (gradient norm {resid:.3e})",
        residual=resid,
    )


def jko_rows(space: Space, y_prev: np.ndarray, dt: float,
             inner_tol: float, max_iter: int) -> np.ndarray:
    """One minimizing-movement step for every row of y_prev (m, dimension).

    Each row takes jko_step's arithmetic in jko_step's order -- its own
    Barzilai-Borwein step, its own Armijo backtracking (at most 60 halvings)
    and its own stop -- so row i of the result equals jko_step on
    y_prev[i] bit for bit.  A row that has converged is frozen while the
    others iterate; a row still moving after max_iter iterations raises
    NumericalError.  The rows share the energy calls (the space's *_rows
    hooks), which is what makes stepping many flows in lockstep cheaper
    than stepping them one at a time.
    """
    s2 = space.chart_scale**2
    y_prev = np.asarray(y_prev, dtype=float)

    def objective(y, prev):
        diff = y - prev
        return space.chart_energy_rows(y) + s2 * np.vecdot(diff, diff) / (2 * dt)

    def grad(y, prev):
        return space.chart_energy_grad_rows(y) + s2 * (y - prev) / dt

    def armijo_fails(f_new, fy, g, d, dn2, step):
        return ~np.isfinite(f_new) | (f_new > fy + np.vecdot(g, d) + 0.5 * dn2 / step)

    out = np.empty_like(y_prev)
    prev, y = y_prev, y_prev.copy()
    fy = objective(y, prev)
    if not np.all(np.isfinite(fy)):
        raise NumericalError("minimizing movement started outside the energy domain")
    g = grad(y, prev)
    step = np.full(len(y), dt / s2)
    scale = np.maximum(1.0, np.sqrt(np.vecdot(prev, prev)))
    live = np.arange(len(y))
    for _ in range(max_iter):
        y_new = space.project_chart_rows(y - step[:, None] * g)
        d = y_new - y
        dn2 = np.vecdot(d, d)
        done = np.sqrt(dn2) <= inner_tol * scale
        if done.any():
            out[live[done]] = y_new[done]
            stay = ~done
            if not stay.any():
                return out
            live, prev, y, fy, g, step, scale, y_new, d, dn2 = (
                v[stay] for v in (live, prev, y, fy, g, step, scale, y_new, d, dn2))
        f_new = objective(y_new, prev)
        backtracks = 0
        back = np.flatnonzero(armijo_fails(f_new, fy, g, d, dn2, step))
        while len(back) and backtracks < 60:
            step[back] *= 0.5
            y_b = space.project_chart_rows(y[back] - step[back, None] * g[back])
            d_b = y_b - y[back]
            y_new[back], d[back], dn2[back] = y_b, d_b, np.vecdot(d_b, d_b)
            f_new[back] = objective(y_b, prev[back])
            backtracks += 1
            back = back[armijo_fails(f_new[back], fy[back], g[back], d[back], dn2[back],
                                     step[back])]
        g_new = grad(y_new, prev)
        sy = np.vecdot(d, g_new - g)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(sy > 1e-30, dn2 / sy, dt / s2)
        step = np.minimum(np.maximum(step, 1e-14), 1e8)
        y, fy, g = y_new, f_new, g_new
    resid = float(np.linalg.norm(grad(y[:1], prev[:1])[0]))
    raise NumericalError(
        f"inner minimizing-movement solve did not converge (gradient norm {resid:.3e})",
        residual=resid,
    )


def finite_coords(space: Space, y: np.ndarray) -> np.ndarray:
    """space.from_chart_rows(y), refusing non-finite coordinates as a
    StatePoint does."""
    coords = space.from_chart_rows(y)
    if not np.all(np.isfinite(coords)):
        raise UsageError("StatePoint coordinates must be finite")
    return coords


def flow_mms(space: Space, p: StatePoint, T: float, dt: float) -> Trajectory:
    """Minimizing-movement (JKO) trajectory of ceil(T/dt) steps of dt,
    for 0 < dt <= T.

    The chart iterates are stacked and converted to coordinates once; the
    first sample keeps p's own coordinates."""
    if not 0.0 < dt <= T:
        raise UsageError(f"minimizing movement needs 0 < dt <= T, got dt={dt}, T={T}")
    space.validate_point(p)
    n = int(math.ceil(T / dt - 1e-12))
    times = dt * np.arange(n + 1)
    y = space.to_chart(p)
    coords = np.empty((n + 1, y.size))
    coords[0] = p.coords
    for k in range(1, n + 1):
        # a step that returns has converged, so its chart point is finite
        coords[k] = y = jko_step(space, y, dt, JKO_INNER_TOL, JKO_MAX_ITER)
    coords[1:] = finite_coords(space, coords[1:])
    return Trajectory(times, coords)


def flow_any(space: Space, p: StatePoint, T: float, dt: float) -> Trajectory:
    """Exact flow when registered for p's family, else minimizing movement."""
    if space.has_exact_flow(p):
        return flow_exact(space, p, T, dt)
    return flow_mms(space, p, T, dt)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def verify_evi(space: Space, traj: Trajectory, probes: list[StatePoint]) -> EviReport:
    """Forward-difference check of the EVI inequality along a trajectory.

    For each probe rho and grid time t the discretized upper-right
    derivative (d^2(gamma(t+dt), rho) - d^2(gamma(t), rho)) / (2 dt) is
    compared against E(rho) - E(gamma(t)) - kappa/2 d^2(gamma(t), rho).
    Distances and energies are taken over all samples at once, from the
    trajectory's chart rows; samples of infinite energy are skipped, and
    a probe's record is its first largest violation.  Violations are
    reported, never thrown.
    """
    chart = space.to_chart_rows(traj.coords)
    energies = space.chart_energy_rows(chart[:-1])
    finite = ~np.isinf(energies)
    dt = np.diff(traj.times)
    records = []
    worst = -math.inf
    for probe in probes:
        e_probe = space.energy(probe)
        if e_probe.infinite:
            raise UsageError("EVI probes must lie in the energy domain")
        d2 = _squares(_chart_distances(space, chart, space.to_chart(probe)))
        lhs = (d2[1:] - d2[:-1]) / (2.0 * dt)
        rhs = e_probe.value - energies - 0.5 * space.kappa * d2[:-1]
        excess = lhs - rhs
        excess[~finite | np.isnan(excess)] = -math.inf
        if excess.max(initial=-math.inf) > -math.inf:
            i = int(np.argmax(excess))
            records.append(ProbeRecord(float(traj.times[i]), probe.to_json(),
                                       float(lhs[i]), float(rhs[i])))
            worst = max(worst, float(excess[i]))
    return EviReport(max_violation=worst, probe_count=len(probes), records=records)


def verify_contraction(space: Space, p: StatePoint, q: StatePoint,
                       T: float, dt: float) -> float:
    """max_t [ d(p(t), q(t)) - exp(-kappa t) d(p, q) ] over the time grid:
    flow_exact's when both flows have a closed form, else flow_mms's, on
    which a closed-form flow is taken at the same times."""
    flows = [None if space.has_exact_flow(x) else flow_mms(space, x, T, dt) for x in (p, q)]
    times = next((f.times for f in flows if f is not None), _time_grid(T, dt))
    tp, tq = (flow_exact_at(space, x, times) if f is None else f.coords
              for x, f in zip((p, q), flows))
    d0 = space.distance(p, q)
    dist = _chart_distances(space, space.to_chart_rows(tp), space.to_chart_rows(tq))
    decay = np.array([math.exp(-space.kappa * t) for t in times.tolist()])
    return float(np.max(dist - decay * d0, initial=-math.inf))


def verify_energy_identity(space: Space, traj: Trajectory) -> float:
    """|E(end) - E(start) + trapezoid integral of I along the trajectory|.

    The t = 0 node is dropped when I(start) = +inf (the flow regularizes
    instantly); an interior +inf is reported as an infinite residual.
    """
    e0, e1 = space.energy(traj.start), space.energy(traj.end)
    if e0.infinite:
        raise UsageError("energy identity needs a start in the energy domain")
    infos = space.information_rows(traj.coords)
    times = traj.times
    if math.isinf(infos[0]):
        infos, times = infos[1:], times[1:]
    if np.any(np.isinf(infos)):
        return math.inf
    integral = float(np.trapezoid(infos, times))
    return abs(float(e1) - float(e0) + integral)


def fit_quadratic_lower_bound(space: Space, nu0: StatePoint, c1: float,
                              sample_count: int = 4000,
                              rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Estimate inf_pi [ E(pi) + c1/2 d^2(pi, nu0) ] and return (c2, estimate)
    with c2 = -estimate, so that the shifted energy has infimum ~ 0.

    Each of the four stages draws its sample_count // 4 normal offsets as
    one array (the same numbers as one draw per sample) and scores them
    with the space's row hooks; the first strict minimum wins, as in a
    sample-by-sample scan.  Requires c1 > -kappa.  Divergence along the
    expanding sample schedule raises a numerical error (the shifted
    energy is unbounded below).
    """
    if c1 <= -space.kappa:
        raise UsageError(f"quadratic lower bound needs c1 > -kappa = {-space.kappa}")
    rng = rng or np.random.default_rng(3)
    space.validate_point(nu0)
    y0 = space.to_chart(nu0)

    def shifted_rows(y):
        # E + c1/2 d^2(., nu0) at the coordinates of each chart row y
        chart = space.to_chart_rows(space.from_chart_rows(y))
        energy = space.chart_energy_rows(chart)
        shift = 0.5 * c1 * _squares(_chart_distances(space, chart, y0))
        return np.where(np.isfinite(energy), energy + shift, math.inf)

    stage_best = []
    best_y = y0.copy()
    best = float(shifted_rows(y0[None])[0])
    for radius in (1.0, 2.0, 4.0, 8.0):
        z = rng.standard_normal((sample_count // 4, y0.size))
        ys = space.project_chart_rows(y0 + radius * z / space.chart_scale)
        vals = shifted_rows(ys)
        if len(vals) and vals.min() < best:
            i = int(np.argmin(vals))
            best, best_y = float(vals[i]), ys[i]
        stage_best.append(best)
    drops = -np.diff(stage_best)
    if len(drops) >= 2 and drops[-1] > 10.0 * max(abs(stage_best[0]), 1.0):
        raise NumericalError(
            "shifted energy appears unbounded below along the expanding "
            f"sample schedule (stage minima {stage_best})",
            residual=float(stage_best[-1]),
        )
    best = _refine_minimum(space, shifted_rows, best_y, best)
    return -best, best


def _refine_minimum(space, score_rows, y, fy, iters: int = 200) -> float:
    """Compass-search polish of a sampled minimizer (derivative-free,
    deterministic, tolerance ~1e-8 in chart coordinates).

    A sweep tries y[i] + step, then y[i] - step, for each chart axis i in
    turn, and moves to each projected candidate that scores below fy; a
    sweep without a move halves the step.  The candidates left in a sweep
    are scored as one array of chart rows by score_rows, and again from
    the new point after each move."""
    n = y.size
    axes = np.repeat(np.arange(n), 2)
    signs = np.tile([1.0, -1.0], n)
    step = 0.5
    for _ in range(iters):
        improved = False
        k = 0
        while k < 2 * n:
            cand = np.repeat(y[None], 2 * n - k, axis=0)
            cand[np.arange(2 * n - k), axes[k:]] += signs[k:] * step
            cand = space.project_chart_rows(cand)
            vals = score_rows(cand)
            better = np.flatnonzero(vals < fy - 1e-15)
            if not len(better):
                break
            j = int(better[0])
            y, fy = cand[j], float(vals[j])
            improved = True
            k += j + 1
        if not improved:
            step *= 0.5
            if step < 1e-9:
                break
    return fy

