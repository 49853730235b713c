"""The kappa-adjusted Tataru distance and its property suites.

For a space whose gradient flow satisfies the EVI with modulus kappa,

    d_T(pi, rho) = inf_{t >= 0} { t + exp(kappa_hat t) d(pi, rho(t)) },
    kappa_hat = min(0, kappa),

where rho(.) is the flow started at rho.  Since the map t -> t +
exp(kappa_hat t) d(pi, rho(t)) is >= t and equals d(pi, rho) at t = 0,
the infimum is attained inside [0, d(pi, rho)].  The minimizer is
bracketed by a coarse scan over flow samples at resolution flow_dt, in
chart coordinates, and then located by golden-section refinement.

Every entry point -- ``tataru_distance``, ``tataru_batch``, the property
suites and ``tataru_batch_csv`` -- makes one call of one kernel that works
on arrays of pairs, and every pair gets the same scan and the same
refinement rule:

* when the space registers a closed-form flow for rho
  (``Space.exact_flow_chart``), the scan samples it on multiples of
  flow_dt up to d(pi, rho), plus d(pi, rho) itself, and every refinement
  query evaluates the closed form.  The pairs of a scan block share one
  time grid, flow_dt * arange(width), so the flow is one call on that grid
  (each closed form's exp runs once per column) plus one for the pairs'
  own d(pi, rho) column;
* otherwise the flow is computed by minimizing movement and the
  refinement queries the chart-linear interpolant of its samples.  Each
  pair's rho flows over [0, d(pi, rho)] on its own samples by
  ``flow.jko_step``, one step of one row at a time (on Python floats in
  dimension 1), and drops out after its own number of steps, with every
  sample bit for bit that of the pair's own ``flow_mms``.

Both scans compute phi by one routine, in one buffer of the block's chart
differences: square, sum over the last axis (np.linalg.norm's arithmetic),
sqrt, scale, then exp(kappa_hat t) -- left out when kappa_hat = 0, where
it is exactly 1 -- and t.  flow_dt must be finite and positive.

d_T is not symmetric, 1-Lipschitz in each argument with respect to d,
1-Lipschitz along the flow in its first argument, and satisfies the
triangle inequality -- exactly the properties exercised by the suites
below.  The suites take their samples as one (n, k, dimension) coordinate
array, n samples of k points (``Space.sample_rows`` draws one), and
``tataru_batch_csv`` parses its table into one array.  Their rows are
validated (``Space.validate_rows``), charted (``Space.to_chart_rows``) and
flagged for a closed-form flow (``Space.has_exact_flow_rows``) as arrays,
so no StatePoint is built per sample; a flagged rho flows in closed form
and the others by minimizing movement, within one kernel call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Space, StatePoint, UsageError, _chart_distances, _suite_samples
from .flow import JKO_INNER_TOL, JKO_MAX_ITER, finite_coords, flow_mms, jko_step

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bound on the (pairs x scan times x dimension) chart array of one scan
# block; it keeps the kernel's peak memory flat in the number of pairs.
_BLOCK_ELEMENTS = 2**17


@dataclass
class TataruResult:
    """value = d_T(pi, rho); t_star = the minimizing flow time;
    flow_samples_used = the number of scan samples (0 when pi = rho)."""

    value: float
    t_star: float
    flow_samples_used: int


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

def _phi_of(dist: np.ndarray, t, kappa_hat: float) -> np.ndarray:
    """phi = t + exp(kappa_hat t) dist, computed in dist; t broadcasts
    against it.  When kappa_hat = 0 the factor is exactly 1 and is left
    out."""
    if kappa_hat != 0.0:
        dist *= np.exp(kappa_hat * t)
    dist += t
    return dist


def _scan_phi(space: Space, diff: np.ndarray, times, kappa_hat: float) -> np.ndarray:
    """phi on a scan block, (rows, width), from diff = chart(rho(t)) -
    chart(pi), a (rows, width, dimension) array that it overwrites; times
    broadcasts against (rows, width).  The distance is np.linalg.norm's:
    the squares summed by np.add.reduce (a copy when dimension = 1, so
    skipped there), then sqrt, then the scale (left out when it is 1)."""
    np.square(diff, out=diff)
    dist = diff[..., 0] if diff.shape[-1] == 1 else np.add.reduce(diff, axis=-1)
    np.sqrt(dist, out=dist)
    if space.chart_scale != 1.0:
        dist *= space.chart_scale
    return _phi_of(dist, times, kappa_hat)


def _bracket_cols(k: np.ndarray, counts: np.ndarray):
    """The columns k - 1, k and k + 1 of each row, kept within its counts."""
    return np.maximum(k - 1, 0), k, np.minimum(k + 1, counts - 1)


def _closed_form_scan(space: Space, y_pi: np.ndarray, y_rho: np.ndarray,
                      d0: np.ndarray, flow_dt: float, kappa_hat: float):
    """Scan rows on the closed-form flow.  Row i holds the times of
    flow._time_grid(d0[i], min(flow_dt, d0[i])): the multiples of flow_dt
    up to d0, then d0 itself where the row misses it (so a pair with
    d0 < flow_dt gets [0, d0]).

    The rows of a block share the column times flow_dt * arange(width), so
    the flow is one exact_flow_chart call on that grid and exp(kappa_hat t)
    is taken once per column; a second call gives each row's own d0 column,
    whose phi is scattered in.  phi is computed in the flow's buffer by
    _scan_phi, the routine the sampled scan uses too.  Returns phi, the
    counts and the bracket (times at columns k - 1, k, k + 1) of argmin k."""
    def scan(rows):
        d = d0[rows]
        short = d < flow_dt
        n = np.where(short, 0, np.floor(d / flow_dt + 1e-12)).astype(np.int64)
        ends = short | (flow_dt * n < d - 1e-12 * np.maximum(1.0, d))
        counts = n + 1 + ends
        grid = flow_dt * np.arange(int(counts.max()))
        y_r = y_rho if len(y_rho) == 1 else y_rho[rows]
        pi = y_pi[rows, None, :]

        def phi_on(y, t, pi):
            # one shared rho row flows once, into a (1, width, dim) array
            flow = space.exact_flow_chart(y[:, None, :], t)
            diff = np.subtract(flow, pi, out=flow if len(flow) == len(pi) else None)
            return _scan_phi(space, diff, t, kappa_hat)

        phi = phi_on(y_r, grid, pi)
        e = np.flatnonzero(ends)
        if len(e):
            y_e = y_r if len(y_r) == 1 else y_r[e]
            phi[e, n[e] + 1] = phi_on(y_e, d[e, None], pi[e])[:, 0]

        def bracket(k):
            return tuple(np.where(j == n + 1, d, grid[j]) for j in _bracket_cols(k, counts))
        return phi, counts, bracket
    return scan


def _sampled_scan(space: Space, y_rho: np.ndarray, d0: np.ndarray, flow_dt: float):
    """Scan rows on minimizing-movement samples at step min(flow_dt, d0).

    Each pair flows its own rho over [0, d0] by flow.jko_step, in row
    order, and drops out after its own ceil(d0 / step) steps, so a row at
    the iteration cap raises as the first such row of flow.jko_rows.  A
    row's samples are bit for bit those of flow_mms on that pair alone
    (the chart of the stored coordinates).  One y_rho row is flowed once,
    by flow_mms, as far as the largest d0, and the pairs whose step is
    that flow's share its prefixes; a pair with a shorter d0 steps alone."""
    dim = y_rho.shape[1]
    shared_dt = None

    def chart_of(y):
        return space.to_chart_rows(finite_coords(space, y))

    if len(y_rho) == 1:
        horizon = float(d0.max())
        shared_dt = min(flow_dt, horizon)
        shared_y = space.to_chart_rows(
            flow_mms(space, space.from_chart(y_rho[0]), horizon, shared_dt).coords)
        y_rho = np.broadcast_to(y_rho, (len(d0), dim))

    def scan(rows):
        d = d0[rows]
        dt = np.minimum(flow_dt, d)
        steps = np.ceil(d / dt - 1e-12).astype(np.int64)
        times = np.zeros((len(rows), int(steps.max()) + 1))
        states = np.zeros(times.shape + (dim,))
        for step in np.unique(dt).tolist():
            live = np.flatnonzero(dt == step)
            times[live] = step * np.arange(times.shape[1])
            if step == shared_dt:
                width = int(steps[live].max()) + 1
                states[live, :width] = shared_y[:width]
                continue
            y = chart_of(y_rho[rows[live]])
            states[live, 0] = y
            for k in range(1, int(steps[live].max()) + 1):
                stay = steps[live] >= k
                live, y = live[stay], y[stay]
                y = np.array([jko_step(space, row, step, JKO_INNER_TOL, JKO_MAX_ITER)
                              for row in y])
                states[live, k] = chart_of(y)
        return times, steps + 1, states
    return scan


def _window_interp(times: np.ndarray, states: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Chart-linear interpolation at t[i] of row i's three consecutive
    samples; a window past the trajectory end has time +inf there."""
    rows = np.arange(len(t))
    idx = np.clip(np.sum(times <= t[:, None], axis=1) - 1, 0, 1)
    t0, t1 = times[rows, idx], times[rows, idx + 1]
    lam = ((t - t0) / (t1 - t0))[:, None]
    return (1.0 - lam) * states[rows, idx] + lam * states[rows, idx + 1]


def _minimize(space: Space, y_pi: np.ndarray, y_rho: np.ndarray, d0: np.ndarray,
              flow_dt: float, closed: bool):
    """Scan and golden-section refinement of phi for pairs with d0 > 0 that
    all flow in closed form (closed) or all by minimizing movement."""
    n, dim = y_pi.shape
    kappa_hat = min(0.0, space.kappa)
    a, b, best, t_best = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    samples = np.empty(n, dtype=np.int64)
    if closed:
        scan = _closed_form_scan(space, y_pi, y_rho, d0, flow_dt, kappa_hat)

        def flow_at(t):
            return space.exact_flow_chart(y_rho, t)
    else:
        sampled = _sampled_scan(space, y_rho, d0, flow_dt)
        win_t, win_s = np.empty((n, 3)), np.empty((n, 3, dim))

        def scan(rows):
            times, counts, states = sampled(rows)
            phi = _scan_phi(space, states - y_pi[rows, None, :], times, kappa_hat)
            idx = np.arange(len(rows))

            def bracket(k):
                # the bracket [t_{k-1}, t_{k+1}] lies within three consecutive samples
                cols = np.clip(k - 1, 0, np.maximum(counts - 3, 0))[:, None] + np.arange(3)
                inside = cols < counts[:, None]
                cols = np.minimum(cols, counts[:, None] - 1)
                win_t[rows] = np.where(inside, times[idx[:, None], cols], np.inf)
                win_s[rows] = states[idx[:, None], cols]
                return tuple(times[idx, j] for j in _bracket_cols(k, counts))
            return phi, counts, bracket

        def flow_at(t):
            return _window_interp(win_t, win_s, t)

    # scan, in blocks of pairs sorted by d0 whose chart arrays stay bounded
    order = np.argsort(d0, kind="stable")
    width = ((np.floor(d0[order] / flow_dt + 1e-12).astype(np.int64) + 2) * dim).tolist()
    start = 0
    for stop in range(1, n + 1):
        if stop < n and (stop - start + 1) * width[stop] <= _BLOCK_ELEMENTS:
            continue
        rows = order[start:stop]
        start = stop
        phi, counts, bracket = scan(rows)
        # a row's first minimum, when it lies within the row's counts, is the
        # first minimum of those.  Past them t > d0 and phi >= t, while phi(0)
        # is d0 up to rounding, so only a row with NaN there (or a flow that
        # does not start at rho) finds its minimum past them; such rows are
        # masked there and searched again
        k = np.argmin(phi, axis=1)
        past = np.flatnonzero(k >= counts)
        if len(past):
            tail = phi[past]
            tail[np.arange(tail.shape[1]) >= counts[past, None]] = np.inf
            k[past] = np.argmin(tail, axis=1)
        best[rows] = phi[np.arange(len(rows)), k]
        a[rows], t_best[rows], b[rows] = bracket(k)
        samples[rows] = counts

    def phi_at(t):
        diff = y_pi - flow_at(t)
        return _phi_of(space.chart_scale * np.sqrt(np.vecdot(diff, diff)), t, kappa_hat)

    # golden section, every pair to its own tolerance
    tol = 1e-10 * np.maximum(1.0, d0)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = phi_at(c), phi_at(d)
    while True:
        active = b - a > tol
        if not active.any():
            break
        left = active & (fc < fd)
        right = active & ~(fc < fd)
        a, b, c, d, fc, fd = (np.where(right, c, a), np.where(left, d, b),
                              np.where(right, d, c), np.where(left, c, d),
                              np.where(right, fd, fc), np.where(left, fc, fd))
        t = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        ft = phi_at(t)
        c, fc = np.where(left, t, c), np.where(left, ft, fc)
        d, fd = np.where(right, t, d), np.where(right, ft, fd)
    t_star = 0.5 * (a + b)
    value = phi_at(t_star)
    grid = best < value
    return np.where(grid, best, value), np.where(grid, t_best, t_star), samples


def _tataru_kernel(space: Space, y_pi: np.ndarray, y_rho: np.ndarray,
                   exact: np.ndarray, flow_dt: float):
    """d_T(pi_i, rho_i) for chart rows y_pi (n, dim) and y_rho (n or 1, dim);
    exact[j] says whether a closed-form flow is registered for y_rho[j].
    Returns (values, t_stars, scan sample counts), each of length n."""
    n = len(y_pi)
    values, t_stars = np.zeros(n), np.zeros(n)
    samples = np.zeros(n, dtype=np.int64)
    diff = y_pi - y_rho
    d0 = space.chart_scale * np.sqrt(np.vecdot(diff, diff))
    exact = np.broadcast_to(exact, n)
    for closed in (True, False):
        pairs = np.flatnonzero((d0 > 0.0) & (exact == closed))
        if len(pairs):
            rho = y_rho if len(y_rho) == 1 else y_rho[pairs]
            values[pairs], t_stars[pairs], samples[pairs] = _minimize(
                space, y_pi[pairs], rho, d0[pairs], flow_dt, closed)
    return values, t_stars, samples


def _check_flow_dt(flow_dt: float) -> float:
    flow_dt = float(flow_dt)
    if not (math.isfinite(flow_dt) and flow_dt > 0.0):
        raise UsageError(f"flow_dt must be finite and positive, got {flow_dt}")
    return flow_dt


def _tataru_rows(space: Space, pis, rhos, flow_dt: float):
    """The kernel on coordinate rows: d_T(pis[i], rhos[i]) for two
    (n, dimension) arrays, validated and charted here, with each rho's own
    closed-form flag."""
    flow_dt = _check_flow_dt(flow_dt)
    pis, rhos = np.asarray(pis, dtype=float), np.asarray(rhos, dtype=float)
    space.validate_rows(pis)
    space.validate_rows(rhos)
    return _tataru_kernel(space, space.to_chart_rows(pis), space.to_chart_rows(rhos),
                          space.has_exact_flow_rows(rhos), flow_dt)


def tataru_distance(space: Space, pi: StatePoint, rho: StatePoint,
                    flow_dt: float = 1e-2) -> TataruResult:
    """Minimize phi(t) = t + exp(kappa_hat t) d(pi, rho(t)) over [0, d(pi, rho)].

    pi and rho are validated once, here; the kernel works on chart arrays.
    A coarse scan over flow samples at resolution flow_dt brackets the
    minimizer, and golden-section refinement inside the bracket queries
    the closed-form flow when one is registered for rho, else the
    chart-linear interpolant of the minimizing-movement trajectory.  The
    better of the refined and the best scanned value is returned.
    """
    values, t_stars, samples = _tataru_rows(space, [pi.coords], [rho.coords], flow_dt)
    return TataruResult(float(values[0]), float(t_stars[0]), int(samples[0]))


def tataru_batch(space: Space, pis: np.ndarray, rho: StatePoint,
                 flow_dt: float = 1e-2) -> np.ndarray:
    """d_T(pi, rho) for many first arguments against one flowing second
    argument, by the same scan and refinement rule as tataru_distance;
    without a closed form, the pairs share one minimizing-movement
    trajectory.

    pis holds the first arguments as chart rows, an (n, dimension) array
    (space.to_chart_rows of their coordinates), so a caller sweeping one
    grid computes its chart once; the result has shape (n,)."""
    flow_dt = _check_flow_dt(flow_dt)
    pis = np.asarray(pis, dtype=float).reshape(len(pis), space.dimension)
    y_rho = rho.array[None, :]
    return _tataru_kernel(space, pis, space.to_chart_rows(y_rho),
                          space.has_exact_flow_rows(y_rho), flow_dt)[0]


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

def _flowed_rows(space: Space, coords: np.ndarray, r: float) -> np.ndarray:
    """The flow at time r from every validated coordinate row: the closed
    form where one is registered, else flow_any's minimizing movement at
    step r / 4, row by row."""
    exact = space.has_exact_flow_rows(coords)
    out = np.empty_like(coords)
    if exact.any():
        out[exact] = space.exact_flow_rows(coords[exact], r)
    for i in np.flatnonzero(~exact):
        out[i] = flow_mms(space, StatePoint(tuple(coords[i].tolist())), r, r / 4.0).coords[-1]
    return out


def verify_tataru_lipschitz(space: Space, samples, flow_dt: float = 1e-2) -> float:
    """max over quadruples (mu, nu, mu^, nu^) of
    d_T(mu,nu) - d_T(mu^,nu^) - d(mu,mu^) - d(nu,nu^); samples is an
    (n, 4, dimension) coordinate array."""
    mu, nu, mu_h, nu_h = _suite_samples(space, samples, 4)
    vals = _tataru_rows(space, np.concatenate([mu, mu_h]), np.concatenate([nu, nu_h]),
                        flow_dt)[0]

    def dist(a, b):
        return _chart_distances(space, space.to_chart_rows(a), space.to_chart_rows(b))

    n = len(mu)
    rhs = dist(mu, mu_h) + dist(nu, nu_h)
    return float(np.max(vals[:n] - vals[n:] - rhs, initial=-math.inf))


def verify_tataru_flow_lipschitz(space: Space, samples,
                                 r_values: tuple[float, ...] = (1e-2, 1e-3),
                                 flow_dt: float = 1e-2) -> float:
    """max over pairs (nu, nu^) and r of (d_T(nu(r), nu^) - d_T(nu, nu^)) / r - 1;
    samples is an (n, 2, dimension) coordinate array."""
    if any(r <= 0 for r in r_values):
        raise UsageError("flow-Lipschitz offsets r must be positive")
    nu, nu_h = _suite_samples(space, samples, 2)
    pis = np.concatenate([nu] + [_flowed_rows(space, nu, r) for r in r_values])
    vals = _tataru_rows(space, pis, np.tile(nu_h, (1 + len(r_values), 1)),
                        flow_dt)[0].reshape(1 + len(r_values), len(nu))
    r = np.array(r_values)[:, None]
    return float(np.max((vals[1:] - vals[0]) / r - 1.0, initial=-math.inf))


def verify_tataru_triangle(space: Space, samples, flow_dt: float = 1e-2) -> float:
    """max over triples (rho, mu, nu) of d_T(rho,nu) - d_T(rho,mu) - d_T(mu,nu);
    samples is an (n, 3, dimension) coordinate array."""
    rho, mu, nu = _suite_samples(space, samples, 3)
    lhs, rho_mu, mu_nu = _tataru_rows(space, np.concatenate([rho, rho, mu]),
                                      np.concatenate([nu, mu, nu]),
                                      flow_dt)[0].reshape(3, len(rho))
    return float(np.max(lhs - (rho_mu + mu_nu), initial=-math.inf))


def tataru_batch_csv(space: Space, in_path, out_path, flow_dt: float = 1e-2) -> int:
    """Evaluate d_T on point pairs from a CSV (one row per pair: the first
    dim columns are pi, the next dim are rho) and write value,t_star rows,
    with csv.writer's bytes (a float repr never needs quoting)."""
    n = space.dimension
    with open(in_path, newline="") as fh:
        rows = [row for row in csv.reader(fh)
                if row and not row[0].startswith("#") and row[0] not in ("pi_0", "t")]
    for row in rows:
        if len(row) != 2 * n:
            raise UsageError(f"expected {2 * n} columns, got {len(row)}")
    try:
        table = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise UsageError(f"pairs table {in_path}: {exc}") from exc
    table = table.reshape(len(rows), 2, n)
    values, t_stars, _ = _tataru_rows(space, table[:, 0], table[:, 1], flow_dt)
    with open(out_path, "w", newline="") as fh:
        fh.write("value,t_star\r\n")
        fh.writelines(f"{v!r},{t!r}\r\n" for v, t in zip(values.tolist(), t_stars.tolist()))
    return len(rows)
