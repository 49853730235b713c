"""The sampled property checks on coordinate rows against per-point
references.

check_metric_axioms, check_geodesic_property, check_kappa_convexity,
jensen_distance_check and hamiltonian_sandwich_check score arrays of
coordinate rows.  The references below take one StatePoint at a time
through Space.distance, Space.energy and a scalar geodesic, as the checks
did before they worked on rows; each row form must return the same float,
bit for bit, and leave the generator in the same state.
"""

import math

import numpy as np
import pytest

from evikit.core import (
    StatePoint,
    UsageError,
    check_geodesic_property,
    check_kappa_convexity,
    check_metric_axioms,
)
from evikit.ekeland import jensen_distance_check
from evikit.hj import hamiltonian_sandwich_check
from evikit.potentials import make_potential
from evikit.spaces import (
    AllenCahnDescriptor,
    CirDescriptor,
    QuadraticDescriptor,
    QuadraticSpace,
    Wasserstein1DDescriptor,
    make_allen_cahn,
    make_cir,
    make_ou,
    make_quadratic,
    make_wasserstein1d,
)

SPACES = [
    make_ou(1.0),
    make_quadratic(QuadraticDescriptor(dimension=3, kappa=0.5,
                                       perturbation=make_potential("quartic"))),
    make_cir(CirDescriptor(mu=1.0)),
    make_allen_cahn(AllenCahnDescriptor(grid_size=64, length=2 * math.pi, kappa=1.0,
                                        well=make_potential("quartic"))),
    make_wasserstein1d(Wasserstein1DDescriptor(m=50, internal=make_potential("entropy"))),
    make_wasserstein1d(Wasserstein1DDescriptor(
        m=20, internal=make_potential("entropy"), potential=make_potential("quadratic"),
        interaction=make_potential("quadratic"), kappa_v=1.0, kappa_w=1.0)),
]
IDS = ["ou", "quadratic3_quartic", "cir", "allen_cahn64", "transport50",
       "transport20_interacting"]


def draw(space, rng, n, k):
    """n samples of k points each, drawn point after point."""
    return space.sample_rows(rng, n * k).reshape(n, k, space.dimension)


def points(space, rng, n, k):
    """The same samples as draw, one sample_point at a time."""
    return [tuple(space.sample_point(rng) for _ in range(k)) for _ in range(n)]


def assert_same_float(got, ref):
    assert isinstance(got, float)
    assert repr(got) == repr(float(ref))


# ---------------------------------------------------------------------------
# Per-point references
# ---------------------------------------------------------------------------

def ref_geodesic_point(space, p, q, t):
    if p == q or t == 0.0:
        return p
    if t == 1.0:
        return q
    yp, yq = space.to_chart(p), space.to_chart(q)
    return space.from_chart((1.0 - t) * yp + t * yq)


def ref_metric(space, triples):
    worst = 0.0
    for p, q, r in triples:
        dpq, dqp = space.distance(p, q), space.distance(q, p)
        worst = max(worst, abs(dpq - dqp))
        worst = max(worst, abs(space.distance(p, p)))
        worst = max(worst, space.distance(p, r) - dpq - space.distance(q, r))
        worst = max(worst, -dpq)
    return worst


def ref_geodesic(space, pairs, grid=11):
    worst = -math.inf
    ts = np.linspace(0.0, 1.0, grid)
    for p, q in pairs:
        d = space.distance(p, q)
        pts = [ref_geodesic_point(space, p, q, t) for t in ts]
        pair = 0.0
        for i, s in enumerate(ts):
            for j, t in enumerate(ts):
                pair = max(pair, abs(space.distance(pts[i], pts[j]) - abs(t - s) * d))
        worst = max(worst, pair)
    return worst


def ref_kappa(space, n_geodesics, rng, ts=tuple(np.linspace(0.1, 0.9, 9))):
    worst = -math.inf
    used = 0
    while used < n_geodesics:
        p, q = space.sample_point(rng), space.sample_point(rng)
        ep, eq = space.energy(p), space.energy(q)
        if ep.infinite or eq.infinite:
            continue
        used += 1
        d2 = space.distance(p, q) ** 2
        for t in ts:
            em = space.energy(ref_geodesic_point(space, p, q, t))
            if em.infinite:
                worst = math.inf
                continue
            bound = (1 - t) * ep.value + t * eq.value - 0.5 * space.kappa * t * (1 - t) * d2
            worst = max(worst, em.value - bound)
    return worst


def ref_jensen(space, quads, eps_grid=(0.05, 0.15, 0.3), eps_prime_grid=(0.05, 0.15, 0.3)):
    worst = -math.inf
    for n1, n2, n3, n4 in quads:
        d14 = space.distance(n1, n4) ** 2
        d12 = space.distance(n1, n2) ** 2
        d23 = space.distance(n2, n3) ** 2
        d34 = space.distance(n3, n4) ** 2
        for ep in eps_prime_grid:
            lhs = d14 / (12.0 * (1.0 - ep))
            for e in eps_grid:
                rhs = 0.5 * d12 / (1.0 - e) + 0.5 * d23 + 0.5 * d34 / (1.0 + e)
                worst = max(worst, lhs - rhs)
    return worst


def ref_sandwich(space, a_values, anchors, samples, b=1e-6):
    def formal(a, anchor, pi, sign):
        y, ya = space.to_chart(pi), space.to_chart(anchor)
        d2 = space.distance(pi, anchor) ** 2
        grad = space.chart_energy_grad_rows(y[None])[0]
        return float(-sign * a * np.dot(y - ya, grad) + 0.5 * a**2 * d2)

    k = space.kappa
    worst = -math.inf
    for a, anchor in [(a, anchor) for a in a_values for anchor in anchors]:
        e_anchor = space.energy(anchor)
        if e_anchor.infinite:
            raise UsageError("sandwich anchors must have finite energy")
        for pi in samples:
            e_pi = space.energy(pi)
            if e_pi.infinite:
                continue
            d = space.distance(pi, anchor)
            g_up = (a * (e_anchor.value - e_pi.value) - 0.5 * a * k * d**2
                    + b + 0.5 * a**2 * d**2 + a * b * d + 0.5 * b**2)
            worst = max(worst, formal(a, anchor, pi, +1.0) - g_up)
            g_low = (a * (e_pi.value - e_anchor.value) + 0.5 * a * k * d**2
                     - b + 0.5 * a**2 * d**2 - a * b * d - 0.5 * b**2)
            worst = max(worst, g_low - formal(a, anchor, pi, -1.0))
    return worst


# ---------------------------------------------------------------------------
# Row forms against the references
# ---------------------------------------------------------------------------

def rows_and_points(space, seed, n, k):
    rng_rows, rng_points = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, pts = draw(space, rng_rows, n, k), points(space, rng_points, n, k)
    assert rng_rows.bit_generator.state == rng_points.bit_generator.state
    assert np.array_equal(rows, [[p.coords for p in sample] for sample in pts])
    return rows, pts


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_metric_rows_match_points(space):
    rows, pts = rows_and_points(space, 7, 200, 3)
    assert_same_float(check_metric_axioms(space, rows), ref_metric(space, pts))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_geodesic_rows_match_points(space):
    rows, pts = rows_and_points(space, 3, 12, 2)
    assert_same_float(check_geodesic_property(space, rows), ref_geodesic(space, pts))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_kappa_convexity_rows_match_points(space):
    rng_rows, rng_points = np.random.default_rng(17), np.random.default_rng(17)
    got = check_kappa_convexity(space, 25, rng=rng_rows)
    assert_same_float(got, ref_kappa(space, 25, rng_points))
    assert rng_rows.bit_generator.state == rng_points.bit_generator.state


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_jensen_rows_match_points(space):
    rows, pts = rows_and_points(space, 202, 150, 4)
    assert_same_float(jensen_distance_check(space, rows), ref_jensen(space, pts))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_sandwich_rows_match_points(space):
    rng = np.random.default_rng(5)
    anchors, samples = space.sample_rows(rng, 5), space.sample_rows(rng, 20)
    a_values = (0.5, 1.0, 2.0)
    got = hamiltonian_sandwich_check(space, a_values, anchors, samples)
    ref = ref_sandwich(space, a_values, [StatePoint.of(r) for r in anchors],
                       [StatePoint.of(r) for r in samples])
    assert_same_float(got, ref)


def test_degenerate_geodesics_keep_their_end_points():
    # p == q, t = 0 and t = 1 give the end points themselves: on the
    # half-line chart y = sqrt(x) a round trip through the chart need not,
    # and sqrt(x) ** 2 != x for each of these x
    cir = make_cir(CirDescriptor(mu=1.0))
    xs = [0.7, 0.3, 2.9, 5.1, 1.3]
    assert all(math.sqrt(x) ** 2 != x for x in xs)
    for x, y in zip(xs, xs[1:]):
        p, q = StatePoint.of(x), StatePoint.of(y)
        assert cir.geodesic_point(p, q, 0.0).coords == p.coords
        assert cir.geodesic_point(p, q, 1.0).coords == q.coords
        assert all(cir.geodesic_point(p, p, t).coords == p.coords for t in (0.1, 0.5, 0.9))
    same = np.array([[[x], [x]] for x in xs])
    assert check_geodesic_property(cir, same) == 0.0
    rows = np.array([[[0.7], [0.7]], [[0.3], [2.9]], [[5.1], [0.02]]])
    pts = [tuple(StatePoint.of(x) for x in pair) for pair in rows]
    assert_same_float(check_geodesic_property(cir, rows, grid=5), ref_geodesic(cir, pts, 5))
    assert check_geodesic_property(cir, rows[:0]) == -math.inf


class FixedRows(QuadraticSpace):
    """The scalar OU space whose sample_rows hands out the given rows in
    turn."""

    def __init__(self, rows):
        super().__init__(QuadraticDescriptor(dimension=1, kappa=1.0))
        self.rows, self.taken = np.asarray(rows, dtype=float), 0

    def sample_rows(self, rng, n):
        self.taken += n
        return self.rows[self.taken - n:self.taken]


def test_squared_distances_are_python_float_powers():
    """Each check squares distances as Python floats (pow), which can
    differ from d * d in the last bit: the pairs are ones where they do,
    where the platform's pow has them."""
    drawn = np.random.default_rng(41).uniform(-3.0, 3.0, (40000, 2)).tolist()
    odd = [(a, b) for a, b in drawn if abs(a - b) ** 2 != abs(a - b) * abs(a - b)]
    pairs = (odd + drawn)[:20]
    ou = make_ou(1.0)
    for a, b in pairs:  # one pair at a time, so no max hides a last bit
        quad = np.array([[[a], [b], [a], [b]]])
        assert_same_float(jensen_distance_check(ou, quad),
                          ref_jensen(ou, [tuple(StatePoint.of(x) for x in quad[0])]))
        assert_same_float(check_kappa_convexity(FixedRows([[a], [b]]), 1),
                          ref_kappa(FixedRows([[a], [b]]), 1, None))
        assert_same_float(hamiltonian_sandwich_check(ou, (1.0, 3.0), [[a]], [[b]]),
                          ref_sandwich(ou, (1.0, 3.0), [StatePoint.of(a)], [StatePoint.of(b)]))


class CensoredQuadratic(QuadraticSpace):
    """The scalar OU space with energy +inf where `keep` fails, so that
    sample_rows yields rows of infinite energy."""

    def __init__(self, keep):
        super().__init__(QuadraticDescriptor(dimension=1, kappa=1.0))
        self.keep = keep

    def chart_energy_rows(self, y):
        e = super().chart_energy_rows(y)
        return np.where(self.keep(np.asarray(y, dtype=float)[:, 0]), e, math.inf)


@pytest.mark.parametrize("keep", [lambda x: x > -1.0, lambda x: np.abs(x) > 0.5],
                         ids=["half_line", "with_hole"])
def test_kappa_convexity_rejects_infinite_energy_rows(keep):
    space = CensoredQuadratic(keep)
    # the first pairs drawn include some with an infinite endpoint energy
    first = space.sample_rows(np.random.default_rng(11), 2 * 40)
    assert np.isinf(space.chart_energy_rows(first)).any()
    rng_rows, rng_points = np.random.default_rng(11), np.random.default_rng(11)
    got = check_kappa_convexity(space, 40, rng=rng_rows)
    assert_same_float(got, ref_kappa(space, 40, rng_points))
    assert rng_rows.bit_generator.state == rng_points.bit_generator.state


def test_sandwich_skips_samples_of_infinite_energy():
    space = CensoredQuadratic(lambda x: x > -1.0)
    anchors, samples = np.array([[0.5], [-0.2]]), np.array([[-3.0], [0.4], [-1.5], [2.0]])
    got = hamiltonian_sandwich_check(space, (1.0, 2.0), anchors, samples)
    ref = ref_sandwich(space, (1.0, 2.0), [StatePoint.of(r) for r in anchors],
                       [StatePoint.of(r) for r in samples])
    assert_same_float(got, ref)
    with pytest.raises(UsageError):
        hamiltonian_sandwich_check(space, (1.0,), np.array([[-2.0]]), samples)
