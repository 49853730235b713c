"""Finite-set Ekeland principle, quadruplication and Jensen checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evikit.ekeland
from evikit.core import StatePoint, UsageError
from evikit.ekeland import (
    EkelandProblem,
    argmax_by_elimination,
    ekeland_optimize,
    jensen_distance_check,
    product_penalty,
    quadruplicate,
    tataru_matrix,
    verify_ekeland_result,
)
from evikit.hj import GridFunction, make_data_function, solve_resolvent
from evikit.potentials import make_potential
from evikit.spaces import CirDescriptor, QuadraticDescriptor, make_cir, make_ou, make_quadratic
from evikit.tataru import tataru_distance


def validate_penalty(problem, rng=None, n_samples=50, tol=1e-9):
    """Sampled checks of B >= 0, B(x,x) = 0 and the triangle inequality."""
    rng = rng or np.random.default_rng(5)
    n = len(problem.points)
    for _ in range(n_samples):
        i, j, k = (int(rng.integers(n)) for _ in range(3))
        bij = problem.penalty(j)[i]
        if bij < -tol:
            raise UsageError(f"penalty must be nonnegative, B({i},{j}) = {bij}")
        if abs(problem.penalty(i)[i]) > tol:
            raise UsageError(f"penalty must vanish on the diagonal at {i}")
        if problem.penalty(k)[i] > bij + problem.penalty(k)[j] + tol:
            raise UsageError(f"penalty triangle inequality fails at ({i},{j},{k})")


def line_problem(g_values, delta, x_hat):
    xs = np.arange(len(g_values)) / 10.0
    pts = [StatePoint.of(v) for v in xs]
    return EkelandProblem(pts, g_values, lambda j: np.abs(xs - xs[j]), delta, x_hat)


class TestEkelandPrinciple:
    def test_parabola_walk_and_exhaustive_invariants(self):
        xs = np.arange(101) / 10.0
        prob = line_problem(-(xs - 3.14) ** 2, 0.1, 0)
        validate_penalty(prob)
        res = ekeland_optimize(prob)
        assert xs[res.x_delta] == pytest.approx(3.1)
        chk = verify_ekeland_result(prob, res)
        assert chk["inv1_slack"] >= 0.0
        assert chk["inv2_max"] <= 0.0
        assert chk["uniqueness_margin"] > 0.0

    def test_constant_objective_stays_put(self):
        prob = line_problem(np.zeros(101), 0.1, 17)
        res = ekeland_optimize(prob)
        assert res.x_delta == 17 and res.iterations == 0

    def test_huge_delta_forbids_moves(self):
        xs = np.arange(101) / 10.0
        # delta > 2 range(G) / min positive B
        prob = line_problem(-(xs - 3.14) ** 2, 1e5, 0)
        res = ekeland_optimize(prob)
        assert res.x_delta == 0
        chk = verify_ekeland_result(prob, res)
        assert chk["inv2_max"] <= 0.0

    def test_infinite_start_rejected(self):
        g = np.zeros(101)
        g[0] = -math.inf
        with pytest.raises(UsageError):
            ekeland_optimize(line_problem(g, 0.1, 0))

    def test_near_optimal_start_consequence(self):
        xs = np.arange(101) / 10.0
        g = -(xs - 3.14) ** 2
        delta = 0.5
        starts = np.where(g >= g.max() - 0.5 * delta**2)[0]
        for x_hat in starts:
            prob = line_problem(g, delta, int(x_hat))
            res = ekeland_optimize(prob)
            chk = verify_ekeland_result(prob, res)
            assert chk["near_optimal_start"]
            assert chk["penalty_to_start"] <= delta + 1e-12

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3,
                    max_size=60),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=120, deadline=None)
    def test_invariants_hold_on_random_instances(self, values, delta):
        g = np.asarray(values)
        prob = line_problem(g, delta, 0)
        res = ekeland_optimize(prob)
        chk = verify_ekeland_result(prob, res)
        assert chk["inv1_slack"] >= -1e-10
        assert chk["inv2_max"] <= 1e-10

    def test_problem_validation(self):
        pts = [StatePoint.of(v) for v in (0.0, 1.0)]
        zero = lambda j: np.zeros(2)
        with pytest.raises(UsageError):
            EkelandProblem(pts, np.zeros(2), zero, -1.0, 0)
        with pytest.raises(UsageError):
            EkelandProblem(pts, np.array([0.0, math.inf]), zero, 1.0, 0)
        bad = EkelandProblem(pts, np.zeros(2), lambda j: np.where(np.arange(2) != j, -1.0, 0.0),
                             1.0, 0)
        with pytest.raises(UsageError):
            validate_penalty(bad)


def tataru_product_penalty(space, points, eps):
    """The weighted Tataru sum on quadruples of points: product_penalty
    over their Tataru matrix, with weights (1/(1-eps), 1, 1/(1+eps), 1)."""
    weights = (1.0 / (1.0 - eps), 1.0, 1.0 / (1.0 + eps), 1.0)
    pen = product_penalty(tataru_matrix(space, points, 1e-2), weights)
    shape = (len(points),) * 4
    return lambda x, x_tilde: pen(int(np.ravel_multi_index(x_tilde, shape)))[
        int(np.ravel_multi_index(x, shape))]


class TestTataruPenalty:
    """The Tataru penalty on quadruples, as product_penalty over tataru_matrix;
    quadruples are index tuples into the base points."""

    def test_vanishes_on_diagonal(self):
        ou = make_ou(1.0)
        B = tataru_product_penalty(ou, [StatePoint.of(v) for v in (0.0, 1.0, 2.0, 3.0)], 0.1)
        x = (0, 1, 2, 3)
        assert B(x, x) == 0.0

    def test_weight_arithmetic(self):
        # differing only in the first slot by d_T = 2 -> 2 / (1 - eps)
        ou = make_ou(1.0)
        B = tataru_product_penalty(ou, [StatePoint.of(v) for v in (0.0, 1.0, 2.0, 3.0)], 0.1)
        x1 = (0, 1, 2, 3)
        x2 = (2, 1, 2, 3)
        assert B(x2, x1) == pytest.approx(2.0 / 0.9, abs=1e-6)

    def test_triangle_inequality_sampled(self):
        ou = make_ou(1.0)
        rng = np.random.default_rng(3)
        for _ in range(25):
            points = [ou.sample_point(rng) for _ in range(12)]
            B = tataru_product_penalty(ou, points, 0.2)
            x, y, z = (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)
            assert B(x, z) <= B(x, y) + B(y, z) + 1e-8


def test_tataru_matrix_matches_pairwise_distance():
    cir = make_cir(CirDescriptor(mu=1.0))
    rng = np.random.default_rng(29)
    base = [cir.sample_point(rng) for _ in range(6)]
    dt_m = tataru_matrix(cir, base, 1e-2)
    for i, p in enumerate(base):
        for j, q in enumerate(base):
            assert dt_m[i, j] == (tataru_distance(cir, p, q, 1e-2).value if i != j else 0.0)


def decode_product_penalty(dt_matrix, weights):
    """The hand-written product penalty that product_penalty replaced: a
    flat quadruple index decoded by repeated division."""
    n = len(dt_matrix)

    def decode(f):
        i3 = f % n; f //= n
        i2 = f % n; f //= n
        return f // n, f % n, i2, i3

    def pen(i, j):
        ii, jj = decode(i), decode(j)
        return sum(w * dt_matrix[a, b] for w, a, b in zip(weights, ii, jj))

    def pen_batch(j):
        cols = [dt_matrix[:, b] * w for w, b in zip(weights, decode(j))]
        return (cols[0][:, None, None, None] + cols[1][None, :, None, None]
                + cols[2][None, None, :, None] + cols[3][None, None, None, :]
                ).reshape(-1)

    return pen, pen_batch


class TestProductPenalty:
    EPS = 0.1
    WEIGHTS = (1.0 / (1.0 - EPS), 1.0, 1.0 / (1.0 + EPS), 1.0)

    @pytest.fixture(scope="class")
    def matrices(self):
        ou = make_ou(1.0)
        base = [StatePoint.of(v) for v in np.linspace(-1.5, 1.5, 5)]
        # a Tataru matrix, and an asymmetric one whose entries span many
        # magnitudes, so the order of the four-term sum shows in the bits
        rough = np.exp(np.random.default_rng(17).uniform(-20.0, 20.0, (5, 5)))
        return [tataru_matrix(ou, base, 1e-2), rough]

    def test_bit_equal_to_decode_reference(self, matrices):
        rng = np.random.default_rng(19)
        for dt_m in matrices:
            for weights in (self.WEIGHTS, (1.0, 1.0, 1.0, 1.0)):
                pen = product_penalty(dt_m, weights)
                ref, ref_batch = decode_product_penalty(dt_m, weights)
                for j in (0, 3, 131, 624):
                    assert pen(j).shape == (5**4,)
                    assert pen(j).tobytes() == ref_batch(j).tobytes()
                # each entry of a column is the scalar sum of the four terms
                for i, j in rng.integers(5**4, size=(200, 2)):
                    assert pen(int(j))[int(i)] == ref(int(i), int(j))

    def test_vanishes_on_diagonal(self, matrices):
        pen = product_penalty(matrices[0], self.WEIGHTS)
        for x in (0, 1, 200, 624):
            assert pen(x)[x] == 0.0

    def test_needs_four_weights(self, matrices):
        with pytest.raises(UsageError):
            product_penalty(matrices[0], (1.0, 1.0, 1.0))


def reference_verify_ekeland_result(problem, result, pointwise):
    """verify_ekeland_result as it was when a problem carried a scalar
    penalty pointwise(i, j) = B(i, j) beside the column one."""
    g = problem.g_values
    xd = result.x_delta
    half = 0.5 * problem.delta
    b_to_xd = problem.penalty(xd)
    inv2 = g - half * b_to_xd - g[xd]
    inv2_max = float(np.max(inv2))
    b_xd_xhat = pointwise(xd, problem.x_hat)
    inv1_slack = float(g[xd] - g[problem.x_hat] - half * b_xd_xhat)
    others = np.arange(len(g)) != xd
    strict = g - problem.delta * b_to_xd - g[xd]
    uniqueness_margin = float(-np.max(strict[others])) if np.any(others) else math.inf
    near_optimal_start = bool(
        g[problem.x_hat] >= float(np.max(g)) - 0.5 * problem.delta**2
    )
    return {
        "inv1_slack": inv1_slack,
        "inv2_max": inv2_max,
        "uniqueness_margin": uniqueness_margin,
        "near_optimal_start": near_optimal_start,
        "penalty_to_start": float(b_xd_xhat),
    }


def test_verify_result_bit_equal_to_scalar_penalty_reference():
    """verify_ekeland_result reads B(x_delta, x_hat) from the column
    penalty(x_hat); its report equals the one the scalar penalty gave,
    bit for bit, on line problems (a parabola and random objectives) and on
    Tataru product-grid problems, from several starts."""
    rng = np.random.default_rng(31)
    xs = np.arange(101) / 10.0
    cases = [(line_problem(-(xs - 3.14) ** 2, delta, x_hat),
              lambda i, j: abs(xs[i] - xs[j]))
             for delta in (0.1, 0.5, 3.0) for x_hat in (0, 31, 77)]
    for _ in range(30):
        g = rng.normal(0.0, 10.0, int(rng.integers(3, 60)))
        pts = np.arange(len(g)) / 10.0
        cases.append((line_problem(g, float(rng.uniform(0.01, 10.0)),
                                   int(rng.integers(len(g)))),
                      lambda i, j, pts=pts: abs(pts[i] - pts[j])))
    ou = make_ou(1.0)
    dt_m = tataru_matrix(ou, [StatePoint.of(v) for v in np.linspace(-1.5, 1.5, 5)], 1e-2)
    rough = np.exp(rng.uniform(-20.0, 20.0, (5, 5)))
    for matrix in (dt_m, rough):
        for weights in ((1.0 / 0.9, 1.0, 1.0 / 1.1, 1.0), (1.0, 1.0, 1.0, 1.0)):
            ref, _ = decode_product_penalty(matrix, weights)
            g4 = rng.normal(0.0, 1.0, 5**4)
            for x_hat in (0, 312, int(np.argmax(g4))):
                cases.append((EkelandProblem(list(range(5**4)), g4,
                                             product_penalty(matrix, weights), 0.2, x_hat),
                              ref))
    moved = 0
    for problem, pointwise in cases:
        result = ekeland_optimize(problem)
        moved += result.x_delta != problem.x_hat
        got = verify_ekeland_result(problem, result)
        assert repr(got) == repr(reference_verify_ekeland_result(problem, result, pointwise))
    assert moved >= len(cases) // 2


def make_desk_case(n):
    ou = make_ou(1.0)
    h = make_data_function("gaussian_bump", center=0.7, width=0.6, height=1.0)
    xs = np.linspace(-2.0, 2.0, n)
    u = solve_resolvent(ou, 1.0, h, xs, 1e-8)
    v = solve_resolvent(ou, 1.0, lambda x: 0.9 * h(x), xs, 1e-8)
    return ou, u.f, v.f


@pytest.fixture(scope="module")
def desk_case():
    return make_desk_case(21)


def assert_trend_and_estimates(res):
    trend = res.trend()
    assert all(trend[i + 1] <= trend[i] + 1e-15 for i in range(2))
    assert trend[-1] <= 0.1 * trend[0]
    # weighted-gap bound: sup(u - v) <= Phi_alpha + C alpha^{-1/2}
    for rep in res.entries:
        assert res.sup_gap <= rep.phi + res.gap_constant / math.sqrt(rep.alpha) + 1e-12
    # the vanishing terms shrink along the schedule
    r1 = [abs(rep.key1_residual) for rep in res.entries]
    r2 = [abs(rep.key2_residual) for rep in res.entries]
    assert r1[0] / r1[1] >= 1.5 and r1[1] / r1[2] >= 1.5
    assert r2[0] / r2[1] >= 1.5 and r2[1] / r2[2] >= 1.5


def dense_argmax(u, v, sq, ebar, alpha, eps):
    """The maximizer of G_alpha as quadruplicate once took it: np.argmax
    over the dense (n,)*4 product-grid array, axes (pi, rho, mu, gamma)."""
    wm = 1.0 / (1.0 - eps)
    wp = 1.0 / (1.0 + eps)
    g = (
        wm * u[:, None, None, None]
        - wp * v[None, None, :, None]
        - alpha * (0.5 * wm * sq[:, :, None, None]
                   + 0.5 * sq[None, :, None, :]
                   + 0.5 * wp * sq[None, None, :, :])
        - eps * wm * ebar[None, :, None, None]
        - eps * wp * ebar[None, None, None, :]
    )
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(g)), g.shape))


def chain_case(u, v, nodes, ebar, alpha, eps):
    """The arguments of argmax_by_elimination on scalar grid nodes."""
    nodes = np.array(nodes, dtype=float)
    return (np.array(u, dtype=float), np.array(v, dtype=float),
            (nodes[:, None] - nodes[None, :]) ** 2, np.array(ebar, dtype=float),
            alpha, eps)


@st.composite
def chain_objectives(draw):
    """u, v, squared distances, ebar, alpha and eps on n <= 12 nodes;
    integer-valued draws make exact ties common."""
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        vals = st.integers(min_value=-3, max_value=3).map(float)
        pos = st.integers(min_value=0, max_value=3).map(float)
        alpha = st.sampled_from([1.0, 2.0, 10.0, 100.0, 1000.0])
    else:
        vals = st.floats(min_value=-10.0, max_value=10.0)
        pos = st.floats(min_value=0.0, max_value=10.0)
        alpha = st.floats(min_value=1e-3, max_value=1e3)
    column = st.lists(vals, min_size=n, max_size=n)
    return chain_case(draw(column), draw(column), draw(column),
                      draw(st.lists(pos, min_size=n, max_size=n)),
                      draw(alpha), draw(st.floats(min_value=0.0, max_value=0.25)))


@given(chain_objectives())
# tied maximizers (0, 0, 1, 3) and (0, 0, 2, 0): the first in C order of
# (pi, rho, mu, gamma) is not the first in that of (pi, rho, gamma, mu)
@example(chain_case([1, 0, 1, 0, -1], [1, -1, 0, 1, 0], [0, 2, 0, 1, 2],
                    [0, 1, 0, 1, 1], 1.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_elimination_matches_dense_argmax(case):
    assert argmax_by_elimination(*case) == dense_argmax(*case)


def record_maximizers(monkeypatch):
    """The (alpha, eps, maximizer indices) of every argmax_by_elimination
    call quadruplicate makes, in a list filled as it runs."""
    seen = []

    def recording(u, v, sq, ebar, alpha, eps):
        idx = argmax_by_elimination(u, v, sq, ebar, alpha, eps)
        seen.append((alpha, eps, idx))
        return idx

    monkeypatch.setattr(evikit.ekeland, "argmax_by_elimination", recording)
    return seen


def one_point_key_estimates(space, pi, rho, mu, gamma, alpha, eps):
    """(key1, key2) residuals by the one-point route quadruplicate once
    took: space.energy, space.information and space.distance at the
    quadruple's StatePoints."""
    wm, wp = 1.0 / (1.0 - eps), 1.0 / (1.0 + eps)
    e_pi, e_rho = float(space.energy(pi)), float(space.energy(rho))
    e_mu, e_gamma = float(space.energy(mu)), float(space.energy(gamma))
    i_rho, i_gamma = float(space.information(rho)), float(space.information(gamma))
    d2_pr = space.distance(pi, rho) ** 2
    d2_gm = space.distance(gamma, mu) ** 2
    k = space.kappa
    lhs1 = alpha * (wm * (e_rho - e_pi + 0.5 * k * d2_pr)
                    - wp * (e_mu - e_gamma - 0.5 * k * d2_pr))
    rhs1 = -eps * wm * i_rho - eps * wp * i_gamma
    lhs2 = 0.5 * alpha**2 * wm * d2_pr - 0.5 * alpha**2 * wp * d2_gm
    rhs2 = eps * wm * i_rho + eps * wp * i_gamma
    return lhs1 - rhs1, lhs2 - rhs2


@pytest.mark.parametrize("case", ["ou", "cir", "quartic"])
def test_key_estimates_bit_equal_to_one_point_reference(case, monkeypatch):
    space, lo, hi, nu0 = {
        "ou": (make_ou(1.0), -2.0, 2.0, 0.0),
        "cir": (make_cir(CirDescriptor(mu=1.0, x_lo=1e-3, x_hi=8.0)), 0.05, 4.0, 1.0),
        "quartic": (make_quadratic(QuadraticDescriptor(
            dimension=1, kappa=1.0, perturbation=make_potential("quartic"))), -2.0, 2.0, 0.0),
    }[case]
    xs = np.linspace(lo, hi, 31)
    seen = record_maximizers(monkeypatch)
    for h in (make_data_function("gaussian_bump", center=0.5 * (lo + hi), width=0.6),
              make_data_function("affine_clipped", slope=0.5, cap=1.0)):
        u = solve_resolvent(space, 1.0, h, xs, 1e-8).f
        v = solve_resolvent(space, 1.0, lambda x: 0.9 * h(x), xs, 1e-8).f
        seen.clear()
        res = quadruplicate(space, u, v, [10.0, 100.0, 1000.0], StatePoint.of(nu0))
        assert len(seen) == len(res.entries) == 3
        for rep, (alpha, eps, idx) in zip(res.entries, seen):
            ref = one_point_key_estimates(space, *(u.point(i) for i in idx), alpha, eps)
            assert (repr(rep.key1_residual), repr(rep.key2_residual)) == tuple(map(repr, ref))


def test_key_estimates_bit_equal_on_a_plane_grid(monkeypatch):
    # in two dimensions the table the maximizer reads, scale^2 times a sum
    # of squares, can differ from space.distance ** 2 in the last bit, and
    # taking d^2 from it moves the first maximizer's residuals here
    space = make_quadratic(QuadraticDescriptor(
        dimension=2, kappa=1.0, perturbation=make_potential("quartic")))
    nodes = np.random.default_rng(91).uniform(-1.5, 1.5, (200, 2))
    u = GridFunction(nodes, 2.0 * nodes[:, 0] + nodes[:, 1])
    v = GridFunction(nodes, 0.9 * u.values)
    seen = record_maximizers(monkeypatch)
    res = quadruplicate(space, u, v, [10.0, 100.0, 1000.0], StatePoint.of([0.0, 0.0]))
    assert len(set(seen[0][2])) == 4
    for rep, (alpha, eps, idx) in zip(res.entries, seen, strict=True):
        ref = one_point_key_estimates(space, *(u.point(i) for i in idx), alpha, eps)
        assert (repr(rep.key1_residual), repr(rep.key2_residual)) == tuple(map(repr, ref))


class TestQuadruplication:
    def test_zero_functions_collapse_to_diagonal(self, monkeypatch):
        ou = make_ou(1.0)
        zero = GridFunction(np.linspace(-1.0, 1.0, 11)[:, None], np.zeros(11))
        seen = record_maximizers(monkeypatch)
        res = quadruplicate(ou, zero, zero, [10.0, 100.0], StatePoint.of(0.0))
        for rep, (_, _, (pi, rho, mu, gamma)) in zip(res.entries, seen, strict=True):
            assert rep.psi == 0.0
            assert pi == rho == mu == gamma

    def test_desk_case_trend_and_estimates(self, desk_case):
        ou, u, v = desk_case
        res = quadruplicate(ou, u, v, [10.0, 100.0, 1000.0], StatePoint.of(0.0))
        assert_trend_and_estimates(res)

    def test_eps_rule_satisfies_selection_inequality(self, desk_case):
        ou, u, v = desk_case
        res = quadruplicate(ou, u, v, [10.0, 100.0], StatePoint.of(0.0))
        for rep in res.entries:
            assert 0.0 < rep.eps < 1.0 / 3.0
            # Xi at the warm start obeys Xi + eps < 1/alpha by construction;
            # at the optimizer Xi is reported and finite
            assert rep.xi >= 0.0
            assert rep.eps <= 1.0 / rep.alpha

    def test_fine_grid_trend_and_memory(self):
        # the dense (n,)*4 objective would take 5.4 GB at n = 161; the
        # elimination keeps to (n, n) tables
        ou, u, v = make_desk_case(161)
        tracemalloc.start()
        try:
            res = quadruplicate(ou, u, v, [10.0, 100.0, 1000.0], StatePoint.of(0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert_trend_and_estimates(res)

    def test_report_json_fields(self, desk_case, tmp_path):
        import json

        ou, u, v = desk_case
        res = quadruplicate(ou, u, v, [10.0], StatePoint.of(0.0))
        res.write_json(tmp_path / "quad.json")
        rows = json.loads((tmp_path / "quad.json").read_text())
        assert set(rows[0]) == {"alpha", "eps", "Phi", "Psi", "Xi", "alphaPsi",
                                "key1_residual", "key2_residual"}


class TestKeyEstimates:
    def test_diagonal_at_minimizer_is_trivial(self, monkeypatch):
        # zero data: the maximizer is the energy's minimizer 0 four times
        ou = make_ou(1.0)
        zero = GridFunction(np.linspace(-1.0, 1.0, 11)[:, None], np.zeros(11))
        seen = record_maximizers(monkeypatch)
        res = quadruplicate(ou, zero, zero, [100.0], StatePoint.of(0.0))
        assert seen[0][2] == (5, 5, 5, 5)
        assert res.entries[0].key1_residual == 0.0 and res.entries[0].key2_residual == 0.0

    def test_infinite_information_rejected(self, monkeypatch):
        ou = make_ou(1.0)
        monkeypatch.setattr(ou, "information_rows", lambda coords: np.full(len(coords), math.inf))
        zero = GridFunction(np.linspace(-1.0, 1.0, 11)[:, None], np.zeros(11))
        with pytest.raises(UsageError, match="finite information"):
            quadruplicate(ou, zero, zero, [10.0], StatePoint.of(0.0))


class TestJensen:
    def test_equal_points_trivial(self):
        ou = make_ou(1.0)
        assert jensen_distance_check(ou, np.full((1, 4, 1), 0.5)) <= 0.0

    def test_euclidean_samples(self):
        ou = make_ou(1.0)
        quads = ou.sample_rows(np.random.default_rng(5), 4 * 2000).reshape(2000, 4, 1)
        assert jensen_distance_check(ou, quads) <= 1e-12

    def test_cir_samples(self):
        cir = make_cir(CirDescriptor(mu=1.0))
        quads = cir.sample_rows(np.random.default_rng(7), 4 * 500).reshape(500, 4, 1)
        assert jensen_distance_check(cir, quads) <= 1e-9

    def test_weights_out_of_range_rejected(self):
        ou = make_ou(1.0)
        with pytest.raises(UsageError):
            jensen_distance_check(ou, np.zeros((1, 4, 1)), eps_grid=(0.4,))

    @given(st.tuples(*[st.floats(min_value=-50, max_value=50) for _ in range(4)]),
           st.floats(min_value=0.01, max_value=0.33),
           st.floats(min_value=0.01, max_value=0.33))
    @settings(max_examples=300, deadline=None)
    def test_scalar_inequality_pointwise(self, vals, eps, eps_p):
        n1, n2, n3, n4 = vals
        lhs = (n1 - n4) ** 2 / (12.0 * (1.0 - eps_p))
        rhs = (0.5 * (n1 - n2) ** 2 / (1.0 - eps) + 0.5 * (n2 - n3) ** 2
               + 0.5 * (n3 - n4) ** 2 / (1.0 + eps))
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
