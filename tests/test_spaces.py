"""Oracle tests for the concrete spaces."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evikit.core import (
    ConstructionError,
    DomainError,
    ExtendedReal,
    StatePoint,
    UnsupportedFlowError,
    UsageError,
)
from evikit.flow import flow_any, verify_contraction, verify_evi
from evikit.potentials import Potential, make_potential
from evikit.spaces import (
    AllenCahnSpace,
    CirSpace,
    QuadraticSpace,
    Wasserstein1DSpace,
    mccann_check,
    pava_nondecreasing,
    wasserstein_information_rows,
)


# ---------------------------------------------------------------------------
# CIR half-line
# ---------------------------------------------------------------------------

class TestCir:
    def setup_method(self):
        self.space = CirSpace(mu=1.0)

    def test_energy_minimum_at_mu(self):
        assert float(self.space.energy(StatePoint.of(1.0))) == pytest.approx(0.0)
        assert float(self.space.slope(StatePoint.of(1.0))) == pytest.approx(0.0)

    def test_slope_closed_form(self):
        # |x - mu| / sqrt(x): metric norm of the gradient
        assert float(self.space.slope(StatePoint.of(4.0))) == pytest.approx(1.5)
        assert float(self.space.information(StatePoint.of(4.0))) == pytest.approx(2.25)

    def test_energy_infinite_at_origin(self):
        assert self.space.energy(StatePoint.of(0.0)).infinite

    def test_construction_errors_name_predicate(self):
        with pytest.raises(ConstructionError, match="x_lo < mu"):
            CirSpace(mu=1.0, x_lo=2.0)

    def test_infinitesimal_half_convexity(self):
        """Coupled-flow dissipation <= -1/2 d^2 via the chart formulas."""
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(self.space.sample_point(rng).coords[0])
            y = float(self.space.sample_point(rng).coords[0])
            sx, sy = math.sqrt(x), math.sqrt(y)
            t1 = 2.0 * (self.space.mu - x) * (sx - sy) / sx
            t2 = 2.0 * (self.space.mu - y) * (sx - sy) / sy
            d2 = self.space.distance(StatePoint.of(x), StatePoint.of(y)) ** 2
            assert t1 - t2 <= -0.5 * d2 + 1e-10

    def test_kappa_one_fails_on_long_geodesics(self):
        """The modulus is 1/2, not 1: concrete counterexample."""
        p, q = StatePoint.of(1.0), StatePoint.of(4.0)
        mid = self.space.geodesic_point(p, q, 0.5)
        e_bound_k1 = (0.5 * float(self.space.energy(p))
                      + 0.5 * float(self.space.energy(q))
                      - 0.5 * 1.0 * 0.25 * self.space.distance(p, q) ** 2)
        assert float(self.space.energy(mid)) > e_bound_k1 + 0.1


# ---------------------------------------------------------------------------
# Quadratic / OU
# ---------------------------------------------------------------------------

class TestQuadratic:
    def test_ou_energy_and_slope(self):
        ou = QuadraticSpace()
        assert float(ou.energy(StatePoint.of(2.0))) == pytest.approx(2.0)
        assert float(ou.slope(StatePoint.of(3.0))) == pytest.approx(3.0)
        assert float(ou.information(StatePoint.of(3.0))) == pytest.approx(9.0)

    def test_perturbed_energy(self):
        space = QuadraticSpace(dimension=2, kappa=1.0, perturbation=make_potential("quartic"))
        val = float(space.energy(StatePoint.of([1.0, 2.0])))
        assert val == pytest.approx(0.5 * 5.0 + 0.25 * (1.0 + 16.0))

    def test_concave_perturbation_rejected(self):
        concave = Potential("neg", lambda s: -np.asarray(s) ** 2,
                            lambda s: -2.0 * np.asarray(s))
        with pytest.raises(ConstructionError, match="convexity"):
            QuadraticSpace(dimension=1, perturbation=concave)


# ---------------------------------------------------------------------------
# Allen-Cahn
# ---------------------------------------------------------------------------

class TestAllenCahn:
    def make(self, kappa=1.0, well=None, n=64):
        return AllenCahnSpace(grid_size=n, length=2 * math.pi, kappa=kappa, well=well)

    def test_zero_field_has_zero_energy(self):
        space = self.make(kappa=1.0, well=make_potential("quartic"))
        zero = StatePoint.of(np.zeros(64))
        assert float(space.energy(zero)) == pytest.approx(0.0)
        assert space.information(zero).value == pytest.approx(0.0)

    def test_information_on_laplacian_eigenvector(self):
        n, k = 64, 3
        space = self.make(kappa=1.0)
        xs = np.arange(n) * 2 * math.pi / n
        rho = np.sin(k * xs)
        lam_k = (2.0 - 2.0 * math.cos(2 * math.pi * k / n)) / space.dx**2
        # oracle: direct stencil application
        stencil = space.laplacian(rho) - 1.0 * rho
        oracle = space.dx * float(np.sum(stencil**2))
        expected = space.dx * float(np.sum(((-lam_k - 1.0) * rho) ** 2))
        got = space.information(StatePoint.of(rho)).value
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_information_on_constant_field(self):
        space = self.make(kappa=1.0, well=make_potential("quartic"))
        c = 0.7
        rho = StatePoint.of(np.full(64, c))
        expected = 2 * math.pi * (c**3 + c) ** 2
        assert space.information(rho).value == pytest.approx(expected, rel=1e-12)

    def test_linear_interpolation_convexity(self):
        space = self.make(kappa=1.0, well=make_potential("quartic"))
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = space.sample_point(rng), space.sample_point(rng)
            d2 = space.distance(p, q) ** 2
            for t in np.linspace(0.1, 0.9, 9):
                em = float(space.energy(space.geodesic_point(p, q, t)))
                bound = ((1 - t) * float(space.energy(p)) + t * float(space.energy(q))
                         - 0.5 * space.kappa * t * (1 - t) * d2)
                assert em <= bound + 1e-8

    def test_invalid_wells_rejected(self):
        shifted = Potential("shifted", lambda s: np.asarray(s) ** 2 + 1.0,
                            lambda s: 2.0 * np.asarray(s))
        with pytest.raises(ConstructionError, match="F\\(0\\) = 0"):
            self.make(well=shifted)
        negative = Potential("neg", lambda s: -np.abs(np.asarray(s, dtype=float)),
                             lambda s: -np.sign(np.asarray(s, dtype=float)))
        with pytest.raises(ConstructionError):
            self.make(well=negative)


# ---------------------------------------------------------------------------
# Wasserstein-1D
# ---------------------------------------------------------------------------

def gaussian_entropy(sd):
    return -0.5 * math.log(2 * math.pi * math.e * sd**2)


def loop_squared_slope(space, coords):
    """The squared slope at one quantile vector as the scalar quadrature
    computed it before the row form: w built on one (m,) vector."""
    q = np.asarray(coords, dtype=float)
    m = space.m
    w = np.zeros(m)
    if space.internal is not None:
        g = space.gaps(q)
        if np.any(g <= 0.0):
            return math.inf
        ell = space.internal.pressure(1.0 / g)
        w[1:-1] += (ell[1:] - ell[:-1]) * m
        w[0] += (ell[1] - ell[0]) * m
        w[-1] += (ell[-1] - ell[-2]) * m
    if space.potential is not None:
        w += space.potential.df(q)
    if space.interaction is not None:
        diffs = q[:, None] - q[None, :]
        w += np.sum(space.interaction.df(diffs), axis=1) / m
    return float(np.mean(w**2))


def loop_information(space, coords):
    """Fisher information at one quantile vector: the slope's math.sqrt of
    loop_squared_slope, then its square as a Python float power."""
    val = loop_squared_slope(space, coords)
    return math.inf if math.isinf(val) else math.sqrt(val) ** 2


class TestWasserstein1D:
    def make(self, m=400, internal="entropy", potential=None, interaction=None,
             kappa_v=0.0, kappa_w=0.0):
        mk = lambda s: None if s is None else make_potential(s)
        return Wasserstein1DSpace(
            m=m, internal=mk(internal), potential=mk(potential),
            interaction=mk(interaction), kappa_v=kappa_v, kappa_w=kappa_w)

    def test_w2_between_gaussians(self):
        space = self.make(m=400)
        q1 = space.gaussian_state(0.0, 1.0)
        q2 = space.gaussian_state(0.0, 2.0)
        assert space.distance(q1, q2) == pytest.approx(1.0, abs=0.01)

    def test_w2_matches_brute_force_coupling(self):
        """Monotone coupling is optimal in one dimension: enumerate all
        couplings of m <= 8 atoms and compare."""
        m = 7
        space = self.make(m=m, internal=None)
        rng = np.random.default_rng(4)
        a = np.sort(rng.normal(0, 1, m))
        b = np.sort(rng.normal(1, 2, m))
        best = min(
            math.sqrt(float(np.mean((a - b[list(perm)]) ** 2)))
            for perm in itertools.permutations(range(m))
        )
        got = space.distance(StatePoint.of(a), StatePoint.of(b))
        assert got == pytest.approx(best, abs=1e-12)

    def test_entropy_matches_interpolant_quadrature(self):
        """The energy equals the exact entropy integral of the
        piecewise-uniform interpolant (mass 1/m per gap)."""
        space = self.make(m=400)
        q = space.gaussian_state(0.0, 1.0).array
        dq = np.diff(q)
        dens = (1.0 / space.m) / dq
        oracle = float(np.sum(dq * dens * np.log(dens)))
        assert float(space.energy(StatePoint.of(q))) == pytest.approx(oracle, abs=1e-12)

    def test_entropy_approaches_gaussian_closed_form(self):
        # the interpolant misses the two half tail cells: O(log m / m) deficit
        for m, tol in ((400, 0.02), (6400, 0.002)):
            space = self.make(m=m)
            val = float(space.energy(space.gaussian_state(0.0, 1.0)))
            assert val == pytest.approx(gaussian_entropy(1.0), abs=tol)

    def test_fisher_information_of_gaussians(self):
        space = self.make(m=400)
        for sd in (1.0, 2.0):
            q = space.gaussian_state(0.0, sd)
            assert float(space.information(q)) == pytest.approx(1.0 / sd**2, rel=0.02)
            assert float(space.slope(q)) == pytest.approx(1.0 / sd, rel=0.02)

    def test_potential_information_is_second_moment(self):
        # F = 0, V = x^2/2: w = V' = x, I = int x^2 drho = mean of Q^2
        space = self.make(m=128, internal=None, potential="quadratic", kappa_v=1.0)
        rng = np.random.default_rng(9)
        q = np.sort(rng.normal(0.5, 1.3, 128))
        got = wasserstein_information_rows(space, q[None])[0]
        assert got == pytest.approx(float(np.mean(q**2)), rel=1e-12)

    def test_uniform_density_interior_score_vanishes(self):
        space = self.make(m=64)
        q = np.linspace(0.0, 1.0, 64)  # affine quantiles: uniform density
        assert wasserstein_information_rows(space, q[None])[0] == pytest.approx(0.0)

    def test_nonmonotone_rejected_and_flat_is_infinite(self):
        space = self.make(m=8)
        with pytest.raises(DomainError):
            space.validate_point(StatePoint.of([0, 1, 0.5, 2, 3, 4, 5, 6]))
        flat = StatePoint.of([0, 1, 1, 2, 3, 4, 5, 6])
        assert space.energy(flat).infinite
        assert space.information(flat).infinite

    def test_information_rows_match_scalar_quadrature(self):
        """information_rows on Gaussian, logistic and flat (infinite
        information) quantile rows equals the scalar quadrature row by row,
        and information is its one-row case.  About one drawn value in
        2 000 has a Python float square an ulp off numpy's square, so the
        draws are many."""
        rng = np.random.default_rng(17)
        cases = [self.make(m=200), self.make(m=37),
                 self.make(m=24, potential="quadratic", interaction="quartic", kappa_v=1.0),
                 self.make(m=16, internal=None, potential="quadratic", kappa_v=1.0)]
        for space in cases:
            u = space.levels
            shapes = [space.gaussian_state().array, np.log(u / (1.0 - u))]
            rows = [rng.normal() + math.exp(rng.uniform(-1.0, 1.0)) * shapes[i % 2]
                    for i in range(1500)]
            flat = np.sort(rng.normal(0.0, 1.0, space.m))
            flat[3] = flat[4]
            rows += [flat, np.full(space.m, 0.5)]
            coords = np.array(rows)
            expected = [loop_information(space, row) for row in coords]
            assert space.information_rows(coords).tolist() == expected
            assert ([float(space.information(StatePoint.of(row))) for row in coords[::25]]
                    == expected[::25])
            if space.internal is not None:
                assert math.isinf(expected[-1]) and math.isinf(expected[-2])

    def test_information_rows_reject_nonmonotone_rows(self):
        space = self.make(m=8)
        rows = np.array([np.arange(8.0), [0, 1, 0.5, 2, 3, 4, 5, 6]])
        with pytest.raises(DomainError):
            space.information_rows(rows)

    def test_kappa_aggregates_moduli(self):
        assert self.make().kappa == 0.0
        sp = self.make(potential="quadratic", kappa_v=1.0,
                       interaction="quartic", kappa_w=0.0)
        assert sp.kappa == 1.0

    def test_interaction_modulus_not_added_to_kappa(self):
        """A kappa_w-convex W leaves the interaction energy unchanged under
        translation, so it adds nothing to kappa: with V = W = x^2/2 on
        m = 20, a state and its translate by 1 contract at rate 1 (kappa =
        kappa_v), not at the claimed sum 2, and the EVI with the translate
        as probe fails at kappa = 2."""
        space = self.make(m=20, internal=None, potential="quadratic",
                          interaction="quadratic", kappa_v=1.0, kappa_w=1.0)
        assert space.kappa == 1.0
        p = space.sample_point(np.random.default_rng(0))
        shifted = StatePoint.of(p.array + 1.0)
        traj = flow_any(space, p, 1.0, 1e-2)
        # the JKO step's O(dt) error is about 2e-3 (contraction) and 8e-3 (EVI)
        assert verify_contraction(space, p, shifted, 1.0, 1e-2) <= 2e-2
        assert verify_evi(space, traj, [shifted]).max_violation <= 2e-2
        space.kappa = 2.0
        assert verify_contraction(space, p, shifted, 1.0, 1e-2) >= 0.2
        assert verify_evi(space, traj, [shifted]).max_violation >= 0.2

    def test_odd_interaction_rejected(self):
        odd = Potential("odd", lambda s: np.asarray(s, dtype=float) ** 3,
                        lambda s: 3.0 * np.asarray(s, dtype=float) ** 2)
        with pytest.raises(ConstructionError, match="even"):
            self.make(interaction=None, m=16) and Wasserstein1DSpace(m=16, interaction=odd)

    def test_negative_kappa_w_rejected(self):
        with pytest.raises(ConstructionError, match="kappa_w"):
            Wasserstein1DSpace(m=16, kappa_w=-1.0)

    def test_directional_derivative_bounded_by_slope(self):
        """Along plain quantile geodesics between smooth densities the
        one-sided energy derivative is controlled by the slope:
        [E(gamma(t)) - E(rho)]/t <= |dE|(rho) d(rho, pi) + o(1)."""
        space = self.make(m=400)
        cases = [((0.0, 1.0), (0.5, 1.5)), ((0.2, 0.8), (-0.3, 1.2)),
                 ((0.0, 2.0), (0.0, 1.0))]
        for (m1, s1), (m2, s2) in cases:
            rho = space.gaussian_state(m1, s1)
            pi = space.gaussian_state(m2, s2)
            bound = float(space.slope(rho)) * space.distance(rho, pi)
            e_rho = float(space.energy(rho))
            quotients = []
            for t in (1e-3, 1e-4, 1e-5):
                mid = space.geodesic_point(rho, pi, t)
                quotients.append((float(space.energy(mid)) - e_rho) / t)
            assert min(quotients) <= bound + 0.02 * max(1.0, abs(bound))


# 1 - cos s: even, zero at 0, nonnegative and concave near pi
BUMPY = Potential("bumpy", lambda s: 1.0 - np.cos(np.asarray(s, dtype=float)),
                  lambda s: np.sin(np.asarray(s, dtype=float)))


@pytest.mark.parametrize("build, words", [
    (lambda: QuadraticSpace(perturbation=BUMPY), "perturbation convexity"),
    (lambda: AllenCahnSpace(grid_size=8, length=1.0, well=BUMPY), "well potential convexity"),
    (lambda: Wasserstein1DSpace(m=8, potential=BUMPY), "potential kappa_v-convexity"),
    (lambda: Wasserstein1DSpace(m=8, interaction=BUMPY), "interaction kappa_w-convexity"),
    (lambda: Wasserstein1DSpace(m=8, potential=make_potential("quadratic"), kappa_v=2.0),
     "potential kappa_v-convexity violated by 1.00e\\+00"),
    (lambda: Wasserstein1DSpace(m=8, interaction=make_potential("quadratic"), kappa_w=1.5),
     "interaction kappa_w-convexity violated by 5.00e-01"),
], ids=["perturbation", "well", "potential", "interaction", "kappa_v", "kappa_w"])
def test_each_convexity_check_rejects(build, words):
    with pytest.raises(ConstructionError, match=words):
        build()


def test_pava_projects_onto_monotone_vectors():
    rng = np.random.default_rng(21)
    for _ in range(50):
        y = rng.normal(0, 1, 20)
        proj = pava_nondecreasing(y)
        assert np.all(np.diff(proj) >= -1e-12)
        # idempotent and distance-minimizing against a brute-force candidate
        assert np.allclose(pava_nondecreasing(proj), proj)
        assert np.dot(proj - y, proj - y) <= np.dot(np.sort(y) - y, np.sort(y) - y) + 1e-12


def pava_reference(y):
    """The pooling loop with float block weights, as written before the
    monotone fast path and integer block counts."""
    n = len(y)
    vals, wts = np.empty(n), np.empty(n)
    k = 0
    for i in range(n):
        cv, cw = y[i], 1.0
        while k > 0 and vals[k - 1] > cv:
            cv = (wts[k - 1] * vals[k - 1] + cw * cv) / (wts[k - 1] + cw)
            cw += wts[k - 1]
            k -= 1
        vals[k], wts[k] = cv, cw
        k += 1
    out, idx = np.empty(n), 0
    for j in range(k):
        cnt = int(round(wts[j]))
        out[idx:idx + cnt] = vals[j]
        idx += cnt
    return out


def test_pava_bit_identical_to_pooling_loop():
    rng = np.random.default_rng(22)
    cases = [np.array([]), np.array([1.5]), np.array([0.0, -0.0]),
             np.array([1.0, np.nan, 0.5]), np.array([2.0, 1.0, 1.0, 3.0])]
    for _ in range(40):
        y = rng.normal(0, 1, 60)
        cases += [y, np.sort(y), np.round(np.sort(y), 1), np.sort(y) + rng.normal(0, 0.05, 60)]
    for y in cases:
        out = pava_nondecreasing(y)
        assert out is not y and out.dtype == np.float64
        assert out.tobytes() == pava_reference(y).tobytes()


@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-1.0, -0.0, 0.0, 2.5])),
                max_size=40),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_pava_matches_pooling_loop_on_drawn_vectors(values, presorted):
    # presorted vectors pool nothing; ties come from the sampled values
    y = np.sort(np.array(values, dtype=float)) if presorted else np.array(values, dtype=float)
    assert pava_nondecreasing(y).tobytes() == pava_reference(y).tobytes()


# ---------------------------------------------------------------------------
# Chart rows of coordinate arrays
# ---------------------------------------------------------------------------

CHART_SPACES = {
    "cir": CirSpace(mu=1.0),
    "ou": QuadraticSpace(),
    "quadratic3": QuadraticSpace(dimension=3, kappa=0.5),
    # no override: the default identity chart
    "allen_cahn": AllenCahnSpace(grid_size=4, length=2 * math.pi, kappa=1.0),
}


@given(st.sampled_from(sorted(CHART_SPACES)),
       st.lists(st.one_of(st.floats(0.0, 1e300), st.floats(-1e300, 1e300),
                          st.sampled_from([-0.0, 0.0, 5e-324, 1e-5])),
                min_size=1, max_size=48),
       st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_chart_rows_equal_to_chart_row_by_row(name, values, n_rows):
    space = CHART_SPACES[name]
    dim = space.dimension
    flat = np.resize(np.array(values, dtype=float), n_rows * dim)
    if name == "cir":
        flat = np.abs(flat)   # the half-line chart is sqrt
    coords = flat.reshape(n_rows, dim)
    rows = space.to_chart_rows(coords)
    expected = np.stack([space.to_chart(StatePoint.of(c)) for c in coords])
    assert rows.shape == (n_rows, dim)
    assert rows.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Sampling rows
# ---------------------------------------------------------------------------

def quadratic_sample_point(space, rng):
    """QuadraticSpace.sample_point before it became a row draw."""
    return StatePoint.of(rng.normal(0.0, space.scale, space.dimension))


def cir_sample_point(space, rng):
    """CirSpace.sample_point before it became a row draw."""
    lo, hi = max(space.x_lo, 0.05 * space.mu), min(space.x_hi, 8.0 * space.mu)
    return StatePoint.of(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def allen_cahn_sample_point(space, rng):
    """AllenCahnSpace.sample_point before it became a row draw."""
    n = space.dimension
    xs = np.arange(n) * (2.0 * np.pi / n)
    rho = np.zeros(n)
    for k in range(1, 4):
        rho += rng.normal(0, 1.0 / k) * np.sin(k * xs) + rng.normal(0, 1.0 / k) * np.cos(k * xs)
    return StatePoint.of(rho)


def wasserstein_sample_point(space, rng):
    """Wasserstein1DSpace.sample_point before it became a row draw."""
    mean = rng.normal(0.0, 1.0)
    sd = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    q = np.sort(rng.normal(mean, sd, space.m))
    q = pava_nondecreasing(q)
    q += np.linspace(0.0, 1e-6, space.m)
    return StatePoint.of(q)


SAMPLE_SPACES = {
    "ou": (QuadraticSpace(), quadratic_sample_point),
    "quadratic3": (QuadraticSpace(dimension=3, kappa=0.5, scale=1.5),
                   quadratic_sample_point),
    "cir": (CirSpace(mu=1.0), cir_sample_point),
    # the draw range clipped by the domain on both sides
    "cir_bounded": (CirSpace(mu=2.0, x_lo=0.3, x_hi=5.0), cir_sample_point),
    # six coefficient draws a point, drawn as one array
    "allen_cahn": (AllenCahnSpace(grid_size=6, length=2 * math.pi,
                                  kappa=1.0), allen_cahn_sample_point),
    # interleaved draws: one point's mean, spread and values at a time
    "wasserstein1d": (Wasserstein1DSpace(
        m=5, internal=make_potential("entropy")), wasserstein_sample_point),
}


@given(st.sampled_from(sorted(SAMPLE_SPACES)), st.integers(0, 2**32 - 1),
       st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_sample_rows_equal_sample_point_draws(name, seed, n):
    """sample_rows(rng, n) draws the numbers of n point draws, bit for bit,
    and leaves the generator where they leave it."""
    space, point_draw = SAMPLE_SPACES[name]
    point_draw = point_draw or type(space).sample_point
    rng_rows, rng_points = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = space.sample_rows(rng_rows, n)
    points = [point_draw(space, rng_points).coords for _ in range(n)]
    assert rows.shape == (n, space.dimension)
    assert rows.tobytes() == np.array(points, dtype=float).reshape(rows.shape).tobytes()
    assert rng_rows.bit_generator.state == rng_points.bit_generator.state
    assert space.sample_point(rng_rows) == point_draw(space, rng_points)


# ---------------------------------------------------------------------------
# Row hooks against the one-point code they replace
# ---------------------------------------------------------------------------

def cir_energy(space, y):
    x = float(np.asarray(y).ravel()[0]) ** 2
    if x <= 0.0:
        return math.inf
    return -space.mu * math.log(x) + x - space._e0


def cir_grad(space, y):
    yv = np.asarray(y, dtype=float)
    return 2.0 * yv - 2.0 * space.mu / yv


def cir_project(space, y):
    return np.clip(y, math.sqrt(space.x_lo), math.sqrt(space.x_hi))


def quadratic_energy(space, y):
    y = np.asarray(y, dtype=float)
    e = 0.5 * space.kappa * float(np.dot(y, y)) + space.energy_offset
    if space.perturbation is not None:
        e += float(np.sum(space.perturbation(y)))
    return e


def quadratic_grad(space, y):
    y = np.asarray(y, dtype=float)
    g = space.kappa * y
    if space.perturbation is not None:
        g = g + space.perturbation.df(y)
    return g


def allen_cahn_energy(space, y):
    rho = np.asarray(y, dtype=float)
    grad = (np.roll(rho, -1) - rho) / space.dx
    e = 0.5 * space.dx * float(np.sum(grad**2) + space.kappa * np.sum(rho**2))
    if space.well is not None:
        e += space.dx * float(np.sum(space.well(rho)))
    return e


def allen_cahn_grad(space, y):
    rho = np.asarray(y, dtype=float)
    lap = (np.roll(rho, -1) - 2.0 * rho + np.roll(rho, 1)) / space.dx**2
    g = -lap + space.kappa * rho
    if space.well is not None:
        g = g + space.well.df(rho)
    return space.dx * g


def wasserstein_energy(space, y):
    q = np.asarray(y, dtype=float)
    e = 0.0
    if space.internal is not None:
        g = space.m * np.diff(q)
        if np.any(g <= 0.0) or np.any(1.0 / np.maximum(g, 1e-300) < 1e-12):
            return math.inf
        e += float(np.sum(space.internal(1.0 / g) * g)) / space.m
    if space.potential is not None:
        e += float(np.sum(space.potential(q))) / space.m
    if space.interaction is not None:
        diffs = q[:, None] - q[None, :]
        e += 0.5 * float(np.sum(space.interaction(diffs))) / space.m**2
    return e


def wasserstein_grad(space, y):
    q = np.asarray(y, dtype=float)
    grad = np.zeros_like(q)
    if space.internal is not None:
        rho = 1.0 / (space.m * np.diff(q))
        dAdg = space.internal(rho) - space.internal.df(rho) * rho
        grad[1:] += dAdg
        grad[:-1] -= dAdg
    if space.potential is not None:
        grad += space.potential.df(q) / space.m
    if space.interaction is not None:
        diffs = q[:, None] - q[None, :]
        grad += np.sum(space.interaction.df(diffs), axis=1) / space.m**2
    return grad


def wasserstein_project(space, y):
    return pava_nondecreasing(np.asarray(y, dtype=float))


def identity_project(space, y):
    return y


def transport(m, **pots):
    return Wasserstein1DSpace(m=m, **{k: make_potential(v) for k, v in pots.items()})


def wasserstein_edge_rows(space, rows):
    """Sampled rows with a non-increasing pair, a flat gap, and a gap
    whose density lies below the floor of 1e-12."""
    swapped, flat, wide = rows[0].copy(), rows[1].copy(), rows[2].copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    flat[5] = flat[4]
    wide[-1] = wide[-2] + 2e12 / space.m
    return np.vstack([rows, swapped, flat, wide])


def cir_log_rows(space, rows):
    """Sampled rows, and rows of a larger draw where np.log(y^2) is not
    math.log(y^2)."""
    many = np.sqrt(space.sample_rows(np.random.default_rng(17), 20_000))
    x = many[:, 0] ** 2
    differ = many[np.log(x) != np.array([math.log(v) for v in x.tolist()])]
    assert len(differ) >= 5
    return np.vstack([rows, differ])


# name: (space, energy, gradient, projection, extra rows in chart coordinates)
REFERENCE_SPACES = {
    "cir": (CirSpace(mu=1.0), cir_energy, cir_grad, cir_project,
            cir_log_rows),
    "cir_bounded": (CirSpace(mu=2.0, x_lo=0.3, x_hi=5.0), cir_energy, cir_grad,
                    cir_project, None),
    "ou": (QuadraticSpace(), quadratic_energy, quadratic_grad, identity_project, None),
    "quadratic_quartic": (QuadraticSpace(
        dimension=7, kappa=0.5, perturbation=make_potential("quartic"), energy_offset=0.3),
        quadratic_energy, quadratic_grad, identity_project, None),
    "allen_cahn": (AllenCahnSpace(grid_size=16, length=2 * math.pi, kappa=1.0),
                   allen_cahn_energy, allen_cahn_grad, identity_project, None),
    "allen_cahn_well": (AllenCahnSpace(
        grid_size=37, length=3.0, kappa=0.5, well=make_potential("quartic")),
        allen_cahn_energy, allen_cahn_grad, identity_project, None),
    "entropy": (transport(37, internal="entropy"), wasserstein_energy, wasserstein_grad,
                wasserstein_project, wasserstein_edge_rows),
    "entropy_potential_interaction": (
        transport(23, internal="entropy", potential="quadratic", interaction="quadratic"),
        wasserstein_energy, wasserstein_grad, wasserstein_project, wasserstein_edge_rows),
    "potential_interaction": (transport(12, potential="quartic", interaction="quadratic"),
                              wasserstein_energy, wasserstein_grad, wasserstein_project,
                              wasserstein_edge_rows),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SPACES))
def test_row_hooks_bit_equal_to_one_point_code(name):
    """chart_energy_rows, chart_energy_grad_rows and project_chart_rows
    equal the per-point code they replaced, row by row and bit for bit,
    on sampled rows, on the edge rows of each space and on perturbed rows
    that leave the feasible set; a finite row alone gives the bits it has
    among the others."""
    space, energy, grad, project, edge_rows = REFERENCE_SPACES[name]
    rng = np.random.default_rng(3)
    rows = space.to_chart_rows(space.sample_rows(rng, 60))
    if edge_rows is not None:
        rows = edge_rows(space, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_e = np.array([energy(space, row) for row in rows])
        want_g = np.array([grad(space, row) for row in rows])
        got_e, got_g = space.chart_energy_rows(rows), space.chart_energy_grad_rows(rows)
    assert got_e.tobytes() == want_e.tobytes()
    assert got_g.tobytes() == want_g.tobytes()
    finite = np.isfinite(want_e)
    # the three edge rows of an internal energy are the infinite ones
    assert (~finite).sum() == (3 if getattr(space, "internal", None) is not None else 0)
    for row, e, g in zip(rows[finite], want_e[finite], want_g[finite]):
        assert space.chart_energy_rows(row[None])[0] == e
        assert space.chart_energy_grad_rows(row[None])[0].tobytes() == g.tobytes()
    # steps off the feasible set: past the bounds of the half-line's
    # chart, out of order in the quantile rows
    moved = rows + rng.normal(0.0, 3.0 / space.chart_scale, rows.shape)
    want_p = np.array([project(space, row) for row in moved])
    assert space.project_chart_rows(moved).tobytes() == want_p.tobytes()


# ---------------------------------------------------------------------------
# Row slopes against the one-point slopes they replace
# ---------------------------------------------------------------------------

def cir_slope(space, p):
    x = p.coords[0]
    if x <= 0.0:
        return ExtendedReal.INF
    return ExtendedReal.finite(abs(x - space.mu) / math.sqrt(x))


def quadratic_slope(space, p):
    return ExtendedReal.finite(float(np.linalg.norm(quadratic_grad(space, p.array))))


def allen_cahn_slope(space, p):
    rho = p.array
    drive = space.laplacian(rho) - space.kappa * rho
    if space.well is not None:
        drive = drive - space.well.df(rho)
    return ExtendedReal.finite(math.sqrt(space.dx * float(np.sum(drive**2))))


def wasserstein_slope(space, p):
    val = loop_squared_slope(space, p.array)
    return ExtendedReal.INF if math.isinf(val) else ExtendedReal.finite(math.sqrt(val))


def point_information(slope):
    """Space.information of a slope, as it was before information_rows."""
    return ExtendedReal.INF if slope.infinite else ExtendedReal.finite(slope.value**2)


# name: (space, the space's one-point slope before slope_rows)
SLOPE_SPACES = {
    "cir": (CirSpace(mu=1.0), cir_slope),
    "ou": (QuadraticSpace(), quadratic_slope),
    "quadratic_quartic": (QuadraticSpace(
        dimension=3, kappa=0.5, perturbation=make_potential("quartic")), quadratic_slope),
    "allen_cahn": (AllenCahnSpace(grid_size=16, length=2 * math.pi, kappa=1.0), allen_cahn_slope),
    "allen_cahn_well": (AllenCahnSpace(
        grid_size=37, length=3.0, kappa=0.5, well=make_potential("quartic")),
        allen_cahn_slope),
    "entropy": (transport(37, internal="entropy"), wasserstein_slope),
    "entropy_potential_interaction": (
        transport(23, internal="entropy", potential="quadratic", interaction="quadratic"),
        wasserstein_slope),
}


@pytest.mark.parametrize("name", sorted(SLOPE_SPACES))
def test_slope_rows_bit_equal_to_one_point_slope(name):
    """slope_rows and information_rows equal the one-point slope code they
    replaced, and the information derived from it, bit for bit on 300
    drawn rows: on CIR with rows at x = 0, where both are +inf, and on
    transport with a flat gap, where both are +inf.  slope and information
    are their one-row cases, and a NaN row is a UsageError."""
    space, slope = SLOPE_SPACES[name]
    rows = space.sample_rows(np.random.default_rng(23), 300)
    if space.name == "cir":
        rows[[0, 150]] = 0.0
    if space.name == "wasserstein1d":
        rows[7, 5] = rows[7, 4]
    points = [StatePoint(tuple(row)) for row in rows.tolist()]
    want_s = [slope(space, p) for p in points]
    want_i = [point_information(s) for s in want_s]
    assert space.slope_rows(rows).tobytes() == np.array([float(s) for s in want_s]).tobytes()
    assert (space.information_rows(rows).tobytes()
            == np.array([float(i) for i in want_i]).tobytes())
    if space.name in ("cir", "wasserstein1d"):
        assert want_s[0 if space.name == "cir" else 7].infinite
    for p, s, i in zip(points[:30], want_s, want_i):
        assert repr(float(space.slope(p))) == repr(float(s))
        assert repr(float(space.information(p))) == repr(float(i))
    rows[11, -1] = math.nan
    for hook in (space.slope_rows, space.information_rows):
        with pytest.raises(UsageError, match="finite"):
            hook(rows)


# ---------------------------------------------------------------------------
# Row forms of validation and of the closed-form flow
# ---------------------------------------------------------------------------

def test_validate_rows_is_validate_point_row_by_row():
    cir = CirSpace(mu=1.0)
    transport = Wasserstein1DSpace(m=4)
    cir.validate_rows(np.array([[0.0], [2.5]]))
    with pytest.raises(DomainError, match="-0.5"):
        cir.validate_rows(np.array([[1.0], [-0.5], [-2.0]]))
    with pytest.raises(DomainError):
        cir.validate_point(StatePoint.of(-0.5))
    with pytest.raises(UsageError, match="finite"):
        cir.validate_rows(np.array([[1.0], [np.inf]]))
    with pytest.raises(UsageError, match="expected dimension 1, got 2"):
        cir.validate_rows(np.zeros((3, 2)))
    with pytest.raises(UsageError, match="expected dimension 1, got 2"):
        cir.validate_point(StatePoint.of([1.0, 2.0]))
    transport.validate_rows(np.array([[0.0, 1.0, 1.0, 2.0]]))
    with pytest.raises(DomainError):
        transport.validate_rows(np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0]]))
    # the default: the dimension and finiteness tests alone
    field = SAMPLE_SPACES["allen_cahn"][0]
    field.validate_rows(np.zeros((2, 6)))
    for bad in (np.zeros((2, 5)), np.array([[0.0] * 5 + [np.nan]]), np.zeros(6)):
        with pytest.raises(UsageError):
            field.validate_rows(bad)


@pytest.mark.parametrize("name", ["ou", "quadratic3", "cir", "cir_bounded"])
def test_exact_flow_rows_keep_exact_flow_arithmetic(name):
    """exact_flow_rows at one time equals the scalar formulas it replaced:
    x e^{-kappa r} (quadratic) and mu + (x - mu) e^{-r} (CIR), with
    math.exp, bit for bit; exact_flow is its one-row case."""
    space, _ = SAMPLE_SPACES[name]
    rows = space.sample_rows(np.random.default_rng(5), 50)
    assert space.has_exact_flow_rows(rows).all()
    for r in (1e-3, 1e-2, 0.37):
        got = space.exact_flow_rows(rows, r)
        if name.startswith("cir"):
            want = [[space.mu + (x - space.mu) * math.exp(-r)] for (x,) in rows.tolist()]
        else:
            want = [[v * math.exp(-space.kappa * r) for v in row] for row in rows.tolist()]
        assert got.tobytes() == np.array(want).tobytes()
        assert space.exact_flow(StatePoint.of(rows[7]), r).coords == tuple(want[7])


def test_exact_flow_rows_per_row_flags():
    transport = Wasserstein1DSpace(m=6, internal=make_potential("entropy"))
    gauss = transport.gaussian_state(0.3, 1.2).array
    rows = np.array([gauss, gauss + np.linspace(0.0, 0.1, 6), gauss - 1.0])
    assert transport.has_exact_flow_rows(rows).tolist() == [True, False, True]
    assert [transport.has_exact_flow(StatePoint.of(r)) for r in rows] == [True, False, True]
    with pytest.raises(UnsupportedFlowError):
        transport.exact_flow_rows(rows, 0.1)
    flowed = transport.exact_flow_rows(rows[[0, 2]], 0.1)
    assert flowed.tobytes() == transport.exact_flow_chart(rows[[0, 2]], 0.1).tobytes()
    perturbed = QuadraticSpace(perturbation=make_potential("zero"))
    assert not perturbed.has_exact_flow_rows(np.zeros((3, 1))).any()
    with pytest.raises(UnsupportedFlowError):
        perturbed.exact_flow(StatePoint.of(1.0), 0.1)


# ---------------------------------------------------------------------------
# McCann admissibility
# ---------------------------------------------------------------------------

class TestMcCann:
    def test_entropy_passes(self):
        rep = mccann_check(make_potential("entropy"))
        assert rep.passed
        assert not rep.dimension_map_increasing  # s -> -log s decreases
        assert rep.doubling_constant < 10.0

    def test_quadratic_power_passes(self):
        rep = mccann_check(make_potential("power", alpha=2.0))
        assert rep.passed
        assert rep.doubling_constant < 10.0

    def test_concave_fails_with_named_predicate(self):
        concave = Potential("neg", lambda s: -np.asarray(s, dtype=float) ** 2,
                            lambda s: -2.0 * np.asarray(s, dtype=float))
        rep = mccann_check(concave)
        assert not rep.passed
        assert any(v.startswith("convexity") for v in rep.violations)

    def test_nonfinite_integrand_is_input_error(self):
        def f(s):
            with np.errstate(invalid="ignore"):
                return np.log(np.asarray(s, dtype=float) - 1.0)

        bad = Potential("bad", f, lambda s: np.asarray(s, dtype=float))
        with pytest.raises(UsageError):
            mccann_check(bad)
