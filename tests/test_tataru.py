"""Tataru distance: calculus oracles, invariants and property suites."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from evikit.core import DomainError, NumericalError, StatePoint, UsageError
from evikit.flow import _time_grid, flow_any, flow_exact, flow_mms
from evikit.potentials import make_potential
from evikit.spaces import (
    CirSpace,
    QuadraticSpace,
    Wasserstein1DSpace,
)
from evikit.tataru import (
    _BLOCK_ELEMENTS,
    _minimize,
    _sampled_scan,
    _scan_phi,
    _tataru_kernel,
    _tataru_rows,
    tataru_batch,
    tataru_batch_csv,
    tataru_distance,
    verify_tataru_flow_lipschitz,
    verify_tataru_lipschitz,
    verify_tataru_triangle,
)


def statepoint_tataru(space, pi, rho, flow_dt):
    """Reference d_T by the StatePoint route: a flow_exact trajectory of
    StatePoints, scanned through space.to_chart, then golden-section
    refinement on space.exact_flow and space.distance.  Returns
    (value, number of scan samples)."""
    kappa_hat = min(0.0, space.kappa)
    d0 = space.distance(pi, rho)
    if d0 == 0.0:
        return 0.0, 0
    traj = flow_exact(space, rho, d0, min(flow_dt, d0))
    y = space.to_chart(pi)
    chart_states = np.stack([space.to_chart(traj.point(i)) for i in range(len(traj.times))])
    d = space.chart_scale * np.linalg.norm(chart_states - y[None, :], axis=1)
    phi = traj.times + np.exp(kappa_hat * traj.times) * d
    k = int(np.argmin(phi))

    def phi_at(t):
        return t + math.exp(kappa_hat * t) * space.distance(
            pi, space.exact_flow(rho, t))

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a = float(traj.times[max(k - 1, 0)])
    b = float(traj.times[min(k + 1, len(traj.times) - 1)])
    c, d_ = b - golden * (b - a), a + golden * (b - a)
    fc, fd = phi_at(c), phi_at(d_)
    while b - a > 1e-10 * max(1.0, d0):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - golden * (b - a)
            fc = phi_at(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + golden * (b - a)
            fd = phi_at(d_)
    return min(float(phi[k]), phi_at(0.5 * (a + b))), len(traj.times)


def scalar_tataru(space, pi, rho, flow_dt):
    """Reference d_T by the one-pair route the pair kernel replaced: scan
    this pair's flow samples in chart coordinates, then a scalar golden
    section on the closed-form chart flow, or, where rho has no closed
    form, on the chart-linear interpolant of this pair's own
    minimizing-movement trajectory, mapped through a StatePoint at each
    query.  Returns (value, t_star)."""
    kappa_hat = min(0.0, space.kappa)
    y_pi, y_rho = space.to_chart(pi), space.to_chart(rho)
    d0 = space.distance(pi, rho)
    if d0 == 0.0:
        return 0.0, 0.0
    dt = min(flow_dt, d0)
    if space.has_exact_flow(rho):
        times = _time_grid(d0, dt)
        chart = space.exact_flow_chart(y_rho, times)

        def flow_at(t):
            return space.exact_flow_chart(y_rho, (t,))[0]
    else:
        traj = flow_any(space, rho, d0, dt)
        times = traj.times
        chart = np.stack([space.to_chart(traj.point(i)) for i in range(len(times))])

        def flow_at(t):
            if t <= times[0]:
                return chart[0]
            if t >= times[-1]:
                return chart[-1]
            i = int(np.searchsorted(times, t, side="right")) - 1
            lam = (t - times[i]) / (times[i + 1] - times[i])
            return space.to_chart(space.from_chart((1 - lam) * chart[i] + lam * chart[i + 1]))

    def phi_at(t):
        return t + math.exp(kappa_hat * t) * (
            space.chart_scale * float(np.linalg.norm(y_pi - flow_at(t))))

    phi = times + np.exp(kappa_hat * times) * space.chart_scale * np.linalg.norm(
        chart - y_pi[None, :], axis=1)
    k = int(np.argmin(phi))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(times[max(k - 1, 0)]), float(times[min(k + 1, len(times) - 1)])
    c, d_ = b - golden * (b - a), a + golden * (b - a)
    fc, fd = phi_at(c), phi_at(d_)
    while b - a > 1e-10 * max(1.0, d0):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - golden * (b - a)
            fc = phi_at(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + golden * (b - a)
            fd = phi_at(d_)
    t_star = 0.5 * (a + b)
    value = phi_at(t_star)
    if phi[k] < value:
        return float(phi[k]), float(times[k])
    return value, t_star


def per_pair_sampled_scan(space, y_rho, d0, flow_dt):
    """The scan that the lockstep one replaced: flow_mms on each pair's
    rho alone (the one y_rho row for every pair when there is one), its
    samples stacked through space.to_chart."""
    def flow(y, horizon):
        traj = flow_mms(space, space.from_chart(y), horizon, min(flow_dt, horizon))
        return traj.times, np.stack([space.to_chart(traj.point(i))
                                     for i in range(len(traj.times))])

    def scan(rows):
        flows = [flow(y_rho[i % len(y_rho)], float(d0[i])) for i in rows]
        counts = np.array([math.ceil(d0[i] / t[1] - 1e-12) + 1
                           for i, (t, _) in zip(rows, flows)])
        times = np.zeros((len(rows), int(counts.max())))
        states = np.zeros(times.shape + (y_rho.shape[1],))
        for j, ((t, y), c) in enumerate(zip(flows, counts)):
            times[j, :c], states[j, :c] = t[:c], y[:c]
        return times, counts, states
    return scan


def dense_closed_minimize(space, y_pi, y_rho, d0, flow_dt):
    """The closed-form _minimize that the shared-grid scan replaced: each
    block builds a (rows, width) array of its rows' own scan times, calls
    exact_flow_chart on it, takes np.linalg.norm, multiplies by
    exp(kappa_hat t) even when kappa_hat = 0, masks past the counts with
    np.where and reads the bracket from the times array; then the same
    golden section.  Returns (values, t_stars, sample counts)."""
    n, dim = y_pi.shape
    kappa_hat = min(0.0, space.kappa)
    a, b, best, t_best = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    samples = np.empty(n, dtype=np.int64)

    def scan(rows):
        d = d0[rows]
        short = d < flow_dt
        n = np.where(short, 0, np.floor(d / flow_dt + 1e-12)).astype(np.int64)
        counts = n + 1 + (short | (flow_dt * n < d - 1e-12 * np.maximum(1.0, d)))
        cols = np.arange(int(counts.max()))
        times = np.where(cols == n[:, None] + 1, d[:, None], flow_dt * cols)
        y_r = y_rho if len(y_rho) == 1 else y_rho[rows]
        return times, counts, space.exact_flow_chart(y_r[:, None, :], times)

    order = np.argsort(d0, kind="stable")
    width = (np.floor(d0[order] / flow_dt + 1e-12).astype(np.int64) + 2) * dim
    start = 0
    for stop in range(1, n + 1):
        if stop < n and (stop - start + 1) * width[stop] <= _BLOCK_ELEMENTS:
            continue
        rows = order[start:stop]
        start = stop
        times, counts, states = scan(rows)
        idx = np.arange(len(rows))
        dist = space.chart_scale * np.linalg.norm(states - y_pi[rows, None, :], axis=-1)
        phi = times + np.exp(kappa_hat * times) * dist
        phi = np.where(np.arange(times.shape[1]) < counts[:, None], phi, np.inf)
        k = np.argmin(phi, axis=1)
        best[rows], t_best[rows] = phi[idx, k], times[idx, k]
        a[rows] = times[idx, np.maximum(k - 1, 0)]
        b[rows] = times[idx, np.minimum(k + 1, counts - 1)]
        samples[rows] = counts

    def phi_at(t):
        diff = y_pi - space.exact_flow_chart(y_rho, t)
        return t + np.exp(kappa_hat * t) * (space.chart_scale * np.sqrt(np.vecdot(diff, diff)))

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 1e-10 * np.maximum(1.0, d0)
    c = b - golden * (b - a)
    d = a + golden * (b - a)
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
        t = np.where(left, b - golden * (b - a), a + golden * (b - a))
        ft = phi_at(t)
        c, fc = np.where(left, t, c), np.where(left, ft, fc)
        d, fd = np.where(right, t, d), np.where(right, ft, fd)
    t_star = 0.5 * (a + b)
    value = phi_at(t_star)
    grid = best < value
    return np.where(grid, best, value), np.where(grid, t_best, t_star), samples


def dense_closed_kernel(space, y_pi, y_rho, flow_dt):
    """_tataru_kernel on closed-form pairs, with dense_closed_minimize."""
    values, t_stars = np.zeros(len(y_pi)), np.zeros(len(y_pi))
    samples = np.zeros(len(y_pi), dtype=np.int64)
    diff = y_pi - y_rho
    d0 = space.chart_scale * np.sqrt(np.vecdot(diff, diff))
    pairs = np.flatnonzero(d0 > 0.0)
    rho = y_rho if len(y_rho) == 1 else y_rho[pairs]
    values[pairs], t_stars[pairs], samples[pairs] = dense_closed_minimize(
        space, y_pi[pairs], rho, d0[pairs], flow_dt)
    return values, t_stars, samples


def statepoint_pairs(space, pis, rhos, flow_dt):
    """The kernel on StatePoint pairs, as the suites fed it before they took
    coordinate arrays: every point validated, each rho's has_exact_flow,
    and one space.to_chart per point."""
    for p in (*pis, *rhos):
        space.validate_point(p)
    exact = np.array([space.has_exact_flow(r) for r in rhos], dtype=bool)

    def charts(points):
        return np.array([space.to_chart(p) for p in points]).reshape(len(points),
                                                                     space.dimension)
    return _tataru_kernel(space, charts(pis), charts(rhos), exact, flow_dt)


def statepoint_lipschitz(space, samples, flow_dt):
    """verify_tataru_lipschitz on a list of StatePoint quadruples."""
    n = len(samples)
    vals = statepoint_pairs(space, [s[0] for s in samples] + [s[2] for s in samples],
                            [s[1] for s in samples] + [s[3] for s in samples], flow_dt)[0]
    rhs = np.array([space.distance(mu, mu_h) + space.distance(nu, nu_h)
                    for mu, nu, mu_h, nu_h in samples])
    return float(np.max(vals[:n] - vals[n:] - rhs, initial=-math.inf))


def statepoint_flow_lipschitz(space, samples, r_values=(1e-2, 1e-3), flow_dt=1e-2):
    """verify_tataru_flow_lipschitz on a list of StatePoint pairs; each
    offset point is exact_flow or a flow_any trajectory's end."""
    pis = [nu for nu, _ in samples]
    for r in r_values:
        pis += [space.exact_flow(nu, r) if space.has_exact_flow(nu)
                else flow_any(space, nu, r, r / 4.0).end for nu, _ in samples]
    vals = statepoint_pairs(space, pis, [nu_h for _, nu_h in samples] * (1 + len(r_values)),
                            flow_dt)[0].reshape(1 + len(r_values), len(samples))
    r = np.array(r_values)[:, None]
    return float(np.max((vals[1:] - vals[0]) / r - 1.0, initial=-math.inf))


def statepoint_triangle(space, samples, flow_dt):
    """verify_tataru_triangle on a list of StatePoint triples."""
    pis = [rho for rho, _, _ in samples] * 2 + [mu for _, mu, _ in samples]
    rhos = ([nu for _, _, nu in samples] + [mu for _, mu, _ in samples]
            + [nu for _, _, nu in samples])
    lhs, rho_mu, mu_nu = statepoint_pairs(space, pis, rhos, flow_dt)[0].reshape(
        3, len(samples))
    return float(np.max(lhs - (rho_mu + mu_nu), initial=-math.inf))


def coords_of(samples):
    """The (n, k, dimension) coordinate array of StatePoint k-tuples."""
    return np.array([[p.coords for p in sample] for sample in samples], dtype=float)


def assert_kernel_matches_scalar(space, pairs, flow_dt, tol=1e-12):
    values, t_stars, _ = _tataru_rows(space, [p.coords for p, _ in pairs],
                                      [r.coords for _, r in pairs], flow_dt)
    for (pi, rho), value, t_star in zip(pairs, values, t_stars):
        ref_value, ref_t = scalar_tataru(space, pi, rho, flow_dt)
        assert abs(value - ref_value) <= tol, (pi, rho)
        assert abs(t_star - ref_t) <= tol, (pi, rho)


@pytest.fixture(scope="module")
def ou():
    return QuadraticSpace()


@pytest.fixture(scope="module")
def cir():
    return CirSpace(mu=1.0)


class TestDistance:
    def test_identical_points(self, ou):
        res = tataru_distance(ou, StatePoint.of(1.3), StatePoint.of(1.3))
        assert res.value == 0.0 and res.t_star == 0.0

    def test_calculus_oracle_interior_minimum(self, ou):
        # pi = 0, rho = e: phi(t) = t + e^{1-t}, minimized at t=1 with value 2
        res = tataru_distance(ou, StatePoint.of(0.0), StatePoint.of(math.e),
                              flow_dt=5e-3)
        assert res.value == pytest.approx(2.0, abs=1e-6)
        assert res.t_star == pytest.approx(1.0, abs=1e-4)

    def test_boundary_minimum(self, ou):
        # phi'(0) = 1 - 0.5 > 0: stays at t = 0 with value d = 0.5
        res = tataru_distance(ou, StatePoint.of(0.0), StatePoint.of(0.5),
                              flow_dt=5e-3)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.t_star == pytest.approx(0.0, abs=1e-6)

    def test_dense_scan_oracle_on_random_pairs(self, ou):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pi, rho = ou.sample_point(rng), ou.sample_point(rng)
            d0 = ou.distance(pi, rho)
            if d0 == 0:
                continue
            ts = np.linspace(0.0, d0, 60001)
            oracle = float(np.min(ts + np.abs(pi.coords[0] - rho.coords[0] * np.exp(-ts))))
            res = tataru_distance(ou, pi, rho, flow_dt=5e-3)
            assert res.value == pytest.approx(oracle, abs=1e-5)

    def test_upper_bounded_by_distance(self, ou, cir):
        rng = np.random.default_rng(19)
        for space in (ou, cir):
            for _ in range(50):
                pi, rho = space.sample_point(rng), space.sample_point(rng)
                res = tataru_distance(space, pi, rho, flow_dt=5e-3)
                assert 0.0 <= res.value <= space.distance(pi, rho) + 1e-12
                # consistency of the reported minimizer with the value
                flowed = space.exact_flow(rho, res.t_star)
                recon = res.t_star + math.exp(min(0.0, space.kappa) * res.t_star) \
                    * space.distance(pi, flowed)
                assert recon == pytest.approx(res.value, abs=1e-8)

    def test_flow_offset_bound(self, ou):
        # second-argument flow: d_T(rho(s), rho) <= s
        rho = StatePoint.of(2.0)
        for s in (0.05, 0.3, 1.0):
            flowed = ou.exact_flow(rho, s)
            res = tataru_distance(ou, flowed, rho, flow_dt=1e-3)
            assert res.value <= s + 1e-9

    def test_bracket_extension_never_improves(self, ou):
        rng = np.random.default_rng(23)
        kappa_hat = 0.0
        for _ in range(20):
            pi, rho = ou.sample_point(rng), ou.sample_point(rng)
            d0 = ou.distance(pi, rho)
            if d0 == 0:
                continue
            res = tataru_distance(ou, pi, rho, flow_dt=5e-3)
            ts = np.linspace(0.0, 1.5 * d0, 4001)
            extended = float(np.min(ts + np.abs(pi.coords[0] - rho.coords[0] * np.exp(-ts))))
            assert extended >= res.value - 1e-6

    @pytest.mark.parametrize("flow_dt", [0.0, -0.01, math.inf, math.nan])
    def test_flow_dt_must_be_finite_and_positive(self, ou, flow_dt):
        pi, rho = StatePoint.of(0.0), StatePoint.of(1.0)
        message = "flow_dt must be finite and positive"
        with pytest.raises(UsageError, match=message):
            tataru_distance(ou, pi, rho, flow_dt)
        with pytest.raises(UsageError, match=message):
            tataru_batch(ou, np.array([[0.0], [0.5]]), rho, flow_dt)
        with pytest.raises(UsageError, match=message):
            _tataru_rows(ou, [[0.0]], [[1.0]], flow_dt)

    def test_asymmetry_is_expected(self, ou):
        a, b = StatePoint.of(0.0), StatePoint.of(math.e)
        ab = tataru_distance(ou, a, b, 1e-3).value
        ba = tataru_distance(ou, b, a, 1e-3).value
        assert ab != pytest.approx(ba, abs=1e-3)

    def test_batch_agrees_with_scalar(self, ou, cir):
        rng = np.random.default_rng(31)
        for space in (ou, cir):
            pis = [space.sample_point(rng) for _ in range(40)]
            rho = space.sample_point(rng)
            batch = tataru_batch(space, np.stack([space.to_chart(p) for p in pis]), rho, 5e-3)
            scalar = np.array([tataru_distance(space, p, rho, 5e-3).value
                               for p in pis])
            assert np.max(np.abs(batch - scalar)) <= 1e-12

    def test_chart_kernel_matches_statepoint_route(self, ou, cir):
        heat = Wasserstein1DSpace(m=100, internal=make_potential("entropy"))
        rng = np.random.default_rng(53)

        def gaussian():
            return heat.gaussian_state(rng.normal(0, 0.5),
                                       math.exp(rng.uniform(-0.5, 0.7)))

        cases = [(ou, ou.sample_point, 5e-3, 60), (cir, cir.sample_point, 5e-3, 60),
                 (heat, lambda _: gaussian(), 1e-2, 8)]
        for space, sample, flow_dt, n in cases:
            for _ in range(n):
                pi, rho = sample(rng), sample(rng)
                value, samples = statepoint_tataru(space, pi, rho, flow_dt)
                res = tataru_distance(space, pi, rho, flow_dt)
                assert abs(res.value - value) <= 1e-12
                assert res.flow_samples_used == samples


class TestPairKernel:
    """The pair kernel against the one-pair scalar route (scalar_tataru)."""

    FLOW_DT = 5e-3

    def edge_pairs(self, space, rng):
        """d0 = 0, d0 < flow_dt and d0 an exact multiple of flow_dt."""
        pairs = []
        for _ in range(5):
            p = space.sample_point(rng)
            y = space.to_chart(p)
            pairs.append((p, p))
            for step in (0.3 * self.FLOW_DT, 40 * self.FLOW_DT):
                pairs.append((p, space.from_chart(y + step / space.chart_scale)))
        return pairs

    def test_random_and_edge_pairs_in_one_block(self, ou, cir):
        # mixed lengths: d0 from 0 to several units share one scan block
        rng = np.random.default_rng(59)
        for space in (ou, cir):
            pairs = [(space.sample_point(rng), space.sample_point(rng))
                     for _ in range(30)] + self.edge_pairs(space, rng)
            assert_kernel_matches_scalar(space, pairs, self.FLOW_DT)

    def test_exact_multiple_has_no_endpoint_column(self, ou, cir):
        # dyadic points: d0 = 40 flow_dt exactly, so the grid is 41 multiples
        for space, pi, rho in ((ou, 0.25, 0.5625), (cir, 0.25, 0.65625 ** 2)):
            pi, rho = StatePoint.of(pi), StatePoint.of(rho)
            assert space.distance(pi, rho) == 40 * 2 ** -7
            assert tataru_distance(space, pi, rho, 2 ** -7).flow_samples_used == 41
            assert_kernel_matches_scalar(space, [(pi, rho), (rho, pi)], 2 ** -7)

    def test_more_pairs_than_one_block(self, ou, cir):
        rng = np.random.default_rng(61)
        for space in (ou, cir):
            pairs = [(space.sample_point(rng), space.sample_point(rng))
                     for _ in range(1000)]
            widths = [math.floor(space.distance(p, r) / self.FLOW_DT) + 2 for p, r in pairs]
            assert sum(widths) > 2 * _BLOCK_ELEMENTS
            assert_kernel_matches_scalar(space, pairs, self.FLOW_DT)

    def test_gaussian_transport_pairs(self):
        heat = Wasserstein1DSpace(m=100, internal=make_potential("entropy"))
        rng = np.random.default_rng(67)

        def gaussian():
            return heat.gaussian_state(rng.normal(0, 0.5), math.exp(rng.uniform(-0.5, 0.7)))

        pairs = [(gaussian(), gaussian()) for _ in range(12)]
        near = heat.gaussian_state(0.0, 1.0)
        pairs += [(near, near), (near, heat.gaussian_state(0.002, 1.0))]
        assert_kernel_matches_scalar(heat, pairs, 1e-2)

    def test_minimizing_movement_pairs_are_bit_identical(self):
        # the zero perturbation registers no closed form, so rho flows by
        # minimizing movement and the refinement uses the interpolant
        space = QuadraticSpace(dimension=2, kappa=1.0, perturbation=make_potential("zero"))
        rng = np.random.default_rng(71)
        pairs = []
        for step in (0.0, 0.002, 0.01, 0.3, 0.8):
            p = space.sample_point(rng)
            pairs.append((p, StatePoint.of(p.array + step * rng.normal(size=2))))
        # rho flows towards pi faster than unit speed: interior minimizers
        pairs += [(StatePoint.of([0.0, 0.0]), StatePoint.of([math.e, 0.0])),
                  (StatePoint.of([0.3, -0.2]), StatePoint.of([1.5, 2.5]))]
        assert_kernel_matches_scalar(space, pairs, 1e-2, tol=0.0)
        t_star = _tataru_rows(space, [pairs[-2][0].coords], [pairs[-2][1].coords], 1e-2)[1][0]
        assert t_star == pytest.approx(1.0, abs=1e-2)
        # tataru_batch flows rho once, and a pair's value is its own: pairs
        # with d0 >= flow_dt see the same samples, and those with
        # 0 < d0 < flow_dt step at d0
        rho = pairs[-2][1]
        pis = [StatePoint.of(y) for y in ([0.0, 0.0], [0.5, 0.1], [2.0, -0.3], [math.e, 0.0],
                                          [math.e - 0.006, 0.0], [math.e, 0.002])]
        batch = tataru_batch(space, np.stack([space.to_chart(p) for p in pis]), rho, 1e-2)
        assert list(batch) == [scalar_tataru(space, pi, rho, 1e-2)[0] for pi in pis]

    def test_batch_value_does_not_depend_on_the_batch(self):
        # a pair with d0 < flow_dt once took the step of the batch's shared flow
        space = QuadraticSpace(dimension=1, kappa=1.0, perturbation=make_potential("zero"))
        rho, pi = StatePoint.of(3.0), StatePoint.of(2.994)
        alone = tataru_distance(space, pi, rho, 1e-2).value
        assert alone == scalar_tataru(space, pi, rho, 1e-2)[0] == 0.002012000052425352
        for others in ([], [0.5], [2.999, 0.5]):
            batch = tataru_batch(space, np.array([[2.994], *([x] for x in others)]), rho, 1e-2)
            assert batch[0] == alone


class TestLockstepScan:
    """The lockstep minimizing-movement scan against per_pair_sampled_scan:
    the same counts, and the same times and samples, bit for bit, within
    every row's count."""

    def assert_scans_match(self, space, y_rho, d0, flow_dt, rows):
        times, counts, states = _sampled_scan(space, y_rho, d0, flow_dt)(rows)
        ref_t, ref_c, ref_s = per_pair_sampled_scan(space, y_rho, d0, flow_dt)(rows)
        assert counts.tolist() == ref_c.tolist()
        for j, c in enumerate(counts):
            assert times[j, :c].tobytes() == ref_t[j, :c].tobytes()
            assert states[j, :c].tobytes() == ref_s[j, :c].tobytes()

    @pytest.mark.parametrize("dimension,perturbation", [(1, "zero"), (1, "quartic"),
                                                        (2, "zero"), (3, "quartic")])
    def test_pairs_flow_in_lockstep(self, dimension, perturbation):
        space = QuadraticSpace(
            dimension=dimension, kappa=1.0, perturbation=make_potential(perturbation))
        rng = np.random.default_rng(73)
        flow_dt = 2 ** -6
        y_rho = rng.uniform(-2.5, 2.5, (14, dimension))
        # d0 below flow_dt (a one-step flow of its own), an exact multiple of
        # flow_dt, two equal lengths, and a spread of longer ones
        d0 = np.concatenate([[0.3 * flow_dt, 0.7 * flow_dt, 3 * flow_dt, 3 * flow_dt, flow_dt],
                             rng.uniform(0.05, 1.5, 9)])
        order = np.argsort(d0, kind="stable")
        self.assert_scans_match(space, y_rho, d0, flow_dt, order)
        self.assert_scans_match(space, y_rho, d0, flow_dt, order[5:9])
        # one flowing rho for every pair: those whose d0 is below flow_dt
        # step at d0, as they would alone
        self.assert_scans_match(space, y_rho[:1], d0, flow_dt, order)
        self.assert_scans_match(space, y_rho[:1], d0[:2], flow_dt, np.arange(2))


    def test_blocks_stay_bounded(self, monkeypatch):
        """Every scan block's arrays hold at most _BLOCK_ELEMENTS chart
        elements, on the minimizing-movement path (the sample array) and on
        the closed-form path (every flow exact_flow_chart returns, and the
        buffer phi is computed in), with one rho per pair and with one
        shared rho; how the pairs split into blocks does not move a bit of
        the result."""
        import evikit.tataru as tataru

        mms = QuadraticSpace(dimension=2, kappa=1.0, perturbation=make_potential("zero"))
        closed = QuadraticSpace(dimension=2, kappa=1.0)
        rng = np.random.default_rng(79)
        pis = mms.sample_rows(rng, 16)
        rhos = np.array([p + rng.uniform(-0.8, 0.8, 2) for p in pis])
        near = rhos[0] + rng.uniform(-0.8, 0.8, (16, 2))

        def results():
            return [*_tataru_rows(mms, pis, rhos, 0.05),
                    *_tataru_rows(closed, pis, rhos, 0.05),
                    tataru_batch(closed, near, StatePoint.of(rhos[0]), 0.05)]

        whole = results()
        sizes = {"samples": [], "flow": [], "phi buffer": []}

        def recording(*args):
            scan = _sampled_scan(*args)

            def scan_and_record(rows):
                out = scan(rows)
                sizes["samples"].append(out[2].size)
                return out
            return scan_and_record

        def recording_phi(space, diff, times, kappa_hat):
            sizes["phi buffer"].append(diff.size)
            return _scan_phi(space, diff, times, kappa_hat)

        def recording_flow(y0, t):
            out = QuadraticSpace.exact_flow_chart(closed, y0, t)
            sizes["flow"].append(out.size)
            return out

        monkeypatch.setattr(tataru, "_BLOCK_ELEMENTS", 200)
        monkeypatch.setattr(tataru, "_sampled_scan", recording)
        monkeypatch.setattr(tataru, "_scan_phi", recording_phi)
        monkeypatch.setattr(closed, "exact_flow_chart", recording_flow, raising=False)
        split = results()
        for name, seen in sizes.items():
            assert len(seen) > 2 and max(seen) <= 200, name
        for got, want in zip(split, whole):
            assert got.tobytes() == want.tobytes()


class TestClosedFormScan:
    """The shared-grid closed-form scan against dense_closed_minimize: the
    values, t_stars and sample counts must be the same bytes, with one rho
    per pair and with one shared rho."""

    FLOW_DT = 2 ** -7

    @staticmethod
    def spaces():
        heat = Wasserstein1DSpace(m=40, internal=make_potential("entropy"))
        z = ndtri(heat.levels)
        return [
            ("ou", QuadraticSpace(), None),
            ("cir", CirSpace(mu=1.0), None),
            ("quadratic 3-d", QuadraticSpace(dimension=3, kappa=0.7),
             None),
            ("quadratic 1-d, kappa < 0",
             QuadraticSpace(dimension=1, kappa=-0.5), None),
            ("quadratic 2-d, kappa < 0",
             QuadraticSpace(dimension=2, kappa=-0.3), None),
            # Gaussian quantile vectors: the family with a closed-form flow
            ("heat", heat, lambda rng, k: (rng.normal(0.0, 0.5, (k, 1))
                                           + np.exp(rng.uniform(-0.5, 0.7, (k, 1))) * z)),
        ]

    def chart_pairs(self, space, draw, rng, count):
        """count drawn pairs as chart rows, then edge pairs: d0 = 0, d0 <
        flow_dt and, where the chart arithmetic is exact, d0 = 40 flow_dt."""
        draw = draw or space.sample_rows
        y_pi = space.to_chart_rows(draw(rng, count))
        y_rho = space.to_chart_rows(draw(rng, count))
        y_rho[:3] = y_pi[:3]
        y_rho[3:6] = y_pi[3:6] + 0.3 * self.FLOW_DT / space.chart_scale / space.dimension
        if space.chart_scale in (1.0, 2.0):
            # dyadic chart points 40 flow_dt apart along the first axis
            y_pi[6:9] = rng.integers(32, 96, (3, space.dimension)) / 64
            y_rho[6:9] = y_pi[6:9]
            y_rho[6:9, 0] += 40 * self.FLOW_DT / space.chart_scale
        return y_pi, y_rho

    def assert_same_bytes(self, got, want):
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("index", range(6))
    def test_pairs_bit_equal_to_dense_scan(self, index):
        name, space, draw = self.spaces()[index]
        rng = np.random.default_rng(83 + index)
        y_pi, y_rho = self.chart_pairs(space, draw, rng, 300)
        exact = np.ones(len(y_pi), dtype=bool)
        got = _tataru_kernel(space, y_pi, y_rho, exact, self.FLOW_DT)
        self.assert_same_bytes(got, dense_closed_kernel(space, y_pi, y_rho, self.FLOW_DT))
        if space.chart_scale in (1.0, 2.0):
            assert (got[2][6:9] == 41).all(), name
        # one shared rho, as tataru_batch flows it
        rho = space.from_chart(y_rho[10])
        batch = tataru_batch(space, y_pi, rho, self.FLOW_DT)
        want = dense_closed_kernel(space, y_pi, y_rho[10:11], self.FLOW_DT)[0]
        assert batch.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index", range(6))
    def test_edge_lengths_bit_equal_to_dense_scan(self, index):
        """d0 handed to _minimize directly: below flow_dt, flow_dt itself,
        exact multiples of it, within 1e-12 of one, and a spread of lengths
        in one block."""
        _, space, draw = self.spaces()[index]
        rng = np.random.default_rng(89 + index)
        y_pi, y_rho = self.chart_pairs(space, draw, rng, 24)
        dt = self.FLOW_DT
        d0 = np.concatenate([[0.3 * dt, 0.999 * dt, dt, 2 * dt, 40 * dt, 40 * dt * (1 + 1e-13),
                              40 * dt * (1 - 1e-13), 41.5 * dt],
                             rng.uniform(0.01, 1.5, 16)])
        for rho in (y_rho, y_rho[:1]):
            self.assert_same_bytes(_minimize(space, y_pi, rho, d0, dt, True),
                                   dense_closed_minimize(space, y_pi, rho, d0, dt))

    def test_cells_past_the_counts_are_ignored(self):
        """A closed form that is NaN past each pair's d0: the cells past a
        row's counts, which argmin would pick, are masked as the dense scan
        masked them."""
        class StoppedOu(QuadraticSpace):
            # NaN once t passes |y0|, which is d0 for a pair with pi = 0
            def exact_flow_chart(self, y0, t):
                out = super().exact_flow_chart(y0, t)
                late = np.asarray(t) > np.abs(np.asarray(y0)[..., 0])
                out[np.broadcast_to(late, out.shape[:-1])] = np.nan
                return out

        space = StoppedOu(dimension=1, kappa=1.0)
        rng = np.random.default_rng(97)
        d0 = rng.uniform(0.05, 1.0, 40)
        y_pi, y_rho = np.zeros((40, 1)), d0[:, None]
        got = _minimize(space, y_pi, y_rho, d0, self.FLOW_DT, True)
        self.assert_same_bytes(got, dense_closed_minimize(space, y_pi, y_rho, d0,
                                                          self.FLOW_DT))
        assert np.isfinite(got[0]).all()


class TestPairKernelProperties:
    """The pair kernel against scalar_tataru on drawn pairs."""

    @given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_drawn_ou_pairs(self, ou, pairs):
        assert_kernel_matches_scalar(
            ou, [(StatePoint.of(p), StatePoint.of(r)) for p, r in pairs], 5e-3)

    @given(st.lists(st.tuples(st.floats(0.05, 8.0), st.floats(0.05, 8.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_drawn_cir_pairs(self, cir, pairs):
        assert_kernel_matches_scalar(
            cir, [(StatePoint.of(p), StatePoint.of(r)) for p, r in pairs], 5e-3)


class TestSuites:
    def test_lipschitz_diagonal_case(self, ou):
        assert verify_tataru_lipschitz(ou, [[[0.3], [1.1], [0.3], [1.1]]]) <= 1e-12

    def test_lipschitz_sampled(self, ou, cir):
        rng = np.random.default_rng(37)
        for space in (ou, cir):
            quads = space.sample_rows(rng, 400).reshape(100, 4, 1)
            assert verify_tataru_lipschitz(space, quads, 5e-3) <= 1e-4

    def test_flow_lipschitz_sampled(self, ou, cir):
        rng = np.random.default_rng(41)
        for space in (ou, cir):
            pairs = space.sample_rows(rng, 200).reshape(100, 2, 1)
            viol = verify_tataru_flow_lipschitz(space, pairs, (1e-2, 1e-3), 5e-3)
            assert viol <= 1e-3

    def test_flow_lipschitz_stationary_point(self, ou):
        # flow constant at the minimizer: difference quotient <= 0 <= 1
        assert verify_tataru_flow_lipschitz(ou, [[[0.0], [1.0]]]) <= 1e-9

    def test_triangle_sampled(self, ou, cir):
        rng = np.random.default_rng(43)
        for space in (ou, cir):
            triples = space.sample_rows(rng, 300).reshape(100, 3, 1)
            assert verify_tataru_triangle(space, triples, 5e-3) <= 1e-4

    def test_triangle_with_repeated_point(self, ou):
        assert verify_tataru_triangle(ou, [[[0.4], [0.4], [-1.0]]]) <= 1e-12

    def test_triangle_on_transport_gaussians(self):
        space = Wasserstein1DSpace(m=100, internal=make_potential("entropy"))
        rng = np.random.default_rng(47)
        triples = []
        for _ in range(15):
            triples.append(tuple(
                space.gaussian_state(rng.normal(0, 0.5),
                                     math.exp(rng.uniform(-0.5, 0.7)))
                for _ in range(3)))
        assert verify_tataru_triangle(space, coords_of(triples), 1e-2) <= 1e-2


def test_batch_csv_roundtrip(tmp_path, ou):
    src = tmp_path / "pairs.csv"
    src.write_text("0.0,2.718281828459045\n1.0,0.5\n")
    out = tmp_path / "vals.csv"
    n = tataru_batch_csv(ou, src, out, flow_dt=5e-3)
    assert n == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "value,t_star"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(2.0, abs=1e-6)
    assert first[1] == pytest.approx(1.0, abs=1e-4)


def statepoint_batch_csv(space, in_path, out_path, flow_dt):
    """tataru_batch_csv as it was before it parsed the table into one
    array: one StatePoint per half row, and csv.writer."""
    n = space.dimension
    pis, rhos = [], []
    with open(in_path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] in ("pi_0", "t"):
                continue
            vals = [float(v) for v in row]
            pis.append(StatePoint.of(vals[:n]))
            rhos.append(StatePoint.of(vals[n:]))
    values, t_stars, _ = statepoint_pairs(space, pis, rhos, flow_dt)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "t_star"])
        for value, t_star in zip(values.tolist(), t_stars.tolist()):
            writer.writerow([repr(value), repr(t_star)])


def mixed_transport_rows(space, rng, count):
    """Quantile rows of a pure-entropy transport space, alternately
    Gaussian (a closed-form flow) and logistic (none)."""
    u = space.levels
    shape = [ndtri(u), np.log(u / (1.0 - u))]
    return np.array([rng.normal(0, 0.5) + math.exp(rng.uniform(-0.5, 0.5)) * shape[i % 2]
                     for i in range(count)])


def outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the residual of the NumericalError it
    raises: a minimizing-movement solve can stall on transport states, and
    the two routes must then stall alike."""
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        return ("NumericalError", exc.residual)


class TestArraySuites:
    """The suites on coordinate arrays against the StatePoint suites they
    replaced (statepoint_lipschitz, statepoint_flow_lipschitz,
    statepoint_triangle), bit for bit."""

    def assert_suites_match(self, space, rows, n, flow_dt):
        """rows holds at least 4 n coordinate rows; every suite takes its
        samples from their start."""
        for k, suite, reference in (
                (4, verify_tataru_lipschitz, statepoint_lipschitz),
                (2, verify_tataru_flow_lipschitz, statepoint_flow_lipschitz),
                (3, verify_tataru_triangle, statepoint_triangle)):
            samples = rows[:n * k].reshape(n, k, space.dimension)
            points = [tuple(StatePoint(tuple(p)) for p in s) for s in samples.tolist()]
            got = outcome(suite, space, samples, flow_dt=flow_dt)
            assert got == outcome(reference, space, points, flow_dt=flow_dt), k

    def test_closed_form_spaces(self, ou, cir):
        rng = np.random.default_rng(83)
        quad3 = QuadraticSpace(dimension=3, kappa=0.7)
        for space in (ou, cir, quad3):
            self.assert_suites_match(space, space.sample_rows(rng, 4 * 60), 60, 5e-3)

    def test_gaussian_transport_states(self):
        heat = Wasserstein1DSpace(m=100, internal=make_potential("entropy"))
        rng = np.random.default_rng(89)
        rows = np.array([heat.gaussian_state(rng.normal(0, 0.5),
                                             math.exp(rng.uniform(-0.5, 0.7))).coords
                         for _ in range(4 * 6)])
        self.assert_suites_match(heat, rows, 6, 1e-2)

    def test_minimizing_movement_rows(self):
        # no closed form: the scan and the flow-Lipschitz offsets both flow
        # by minimizing movement
        space = QuadraticSpace(
            dimension=2, kappa=1.0, perturbation=make_potential("quartic", coeff=0.2),
            scale=0.6)
        self.assert_suites_match(space, space.sample_rows(np.random.default_rng(97), 16),
                                 4, 0.05)

    def test_mixed_exactness_transport_rows(self):
        space = Wasserstein1DSpace(m=8, internal=make_potential("entropy"))
        rows = mixed_transport_rows(space, np.random.default_rng(101), 12)
        assert space.has_exact_flow_rows(rows).tolist() == [True, False] * 6
        self.assert_suites_match(space, rows, 3, 0.1)

    def test_sample_shape_checked(self, ou):
        with pytest.raises(UsageError):
            verify_tataru_triangle(ou, np.zeros((5, 2, 1)))
        with pytest.raises(UsageError):
            verify_tataru_lipschitz(ou, np.zeros((5, 4, 2)))


class TestBatchCsv:
    def assert_csv_matches(self, tmp_path, space, table, flow_dt):
        src = tmp_path / "pairs.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"pi_{i}" for i in range(space.dimension)]
                            + [f"rho_{i}" for i in range(space.dimension)])
            writer.writerows([repr(v) for v in row] for row in table.tolist())
        got = outcome(tataru_batch_csv, space, src, tmp_path / "got.csv", flow_dt)
        want = outcome(statepoint_batch_csv, space, src, tmp_path / "want.csv", flow_dt)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got == len(table)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_mixed_exactness_tables(self, tmp_path, ou, cir):
        rng = np.random.default_rng(103)
        perturbed = QuadraticSpace(
            dimension=2, kappa=1.0, perturbation=make_potential("quartic", coeff=0.2),
            scale=0.6)
        transport = Wasserstein1DSpace(m=8, internal=make_potential("entropy"))
        rows = mixed_transport_rows(transport, rng, 8)
        assert transport.has_exact_flow_rows(rows).tolist() == [True, False] * 4
        # rho rows alternate between Gaussian and not
        transport_table = np.hstack([rows[[1, 0, 3, 2, 5, 4, 7, 6]], rows])
        cases = [(ou, ou.sample_rows(rng, 80).reshape(40, 2), 5e-3),
                 (cir, cir.sample_rows(rng, 80).reshape(40, 2), 5e-3),
                 (perturbed, perturbed.sample_rows(rng, 8).reshape(4, 4), 0.05),
                 (transport, transport_table, 0.1)]
        for space, table, flow_dt in cases:
            self.assert_csv_matches(tmp_path, space, table, flow_dt)

    @pytest.mark.parametrize("cell,error", [("-0.5", DomainError), ("abc", UsageError),
                                            ("nan", UsageError)])
    def test_bad_cells_rejected(self, tmp_path, cir, cell, error):
        src = tmp_path / "pairs.csv"
        src.write_text(f"pi_0,rho_0\n1.0,2.0\n0.5,{cell}\n")
        with pytest.raises(error):
            tataru_batch_csv(cir, src, tmp_path / "out.csv")
