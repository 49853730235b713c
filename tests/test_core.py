"""Contract tests for the metric-energy space abstraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evikit.core import (
    DomainError,
    ExtendedReal,
    StatePoint,
    UsageError,
    check_geodesic_property,
    check_kappa_convexity,
    check_metric_axioms,
    check_noise_identity,
    slope_by_definition,
)
from evikit.potentials import make_potential
from evikit.spaces import (
    AllenCahnSpace,
    CirSpace,
    QuadraticSpace,
    Wasserstein1DSpace,
)

def all_spaces():
    return [
        QuadraticSpace(),
        QuadraticSpace(dimension=3, kappa=0.5),
        CirSpace(mu=1.0),
        AllenCahnSpace(
            grid_size=32, length=2 * math.pi, kappa=1.0,
            well=make_potential("quartic")),
        Wasserstein1DSpace(m=64, internal=make_potential("entropy")),
    ]


# ---------------------------------------------------------------------------
# Extended reals
# ---------------------------------------------------------------------------

class TestExtendedReal:
    def test_float_conversion(self):
        assert float(ExtendedReal.finite(2.5)) == 2.5
        assert math.isinf(float(ExtendedReal.INF))

    def test_equality_semantics(self):
        assert ExtendedReal.INF == ExtendedReal.INF
        assert ExtendedReal.finite(1.0) == ExtendedReal.finite(1.0)
        assert ExtendedReal.finite(1.0) != ExtendedReal.INF

    def test_rejects_nonfinite_construction(self):
        with pytest.raises(UsageError):
            ExtendedReal.finite(math.inf)
        with pytest.raises(UsageError):
            ExtendedReal.finite(math.nan)


# ---------------------------------------------------------------------------
# State points
# ---------------------------------------------------------------------------

class TestStatePoint:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(UsageError):
            StatePoint(())
        with pytest.raises(UsageError):
            StatePoint.of([1.0, math.nan])

    def test_json_roundtrip(self):
        p = StatePoint.of([1.0, 2.5])
        assert p.to_json() == [1.0, 2.5]
        assert StatePoint.of(p.to_json()) == p


# ---------------------------------------------------------------------------
# Metric and geodesic contracts
# ---------------------------------------------------------------------------

def draw(space, rng, n, k):
    """n samples of k points each, drawn point after point."""
    return space.sample_rows(rng, n * k).reshape(n, k, space.dimension)


@pytest.mark.parametrize("space", all_spaces(), ids=lambda s: s.name)
def test_metric_axioms_sampled(space):
    triples = draw(space, np.random.default_rng(7), 1000, 3)
    assert check_metric_axioms(space, triples) <= space.tol_metric


@pytest.mark.parametrize("space", all_spaces(), ids=lambda s: s.name)
def test_geodesic_property_on_grid(space):
    # the worst pair of the five is within the tolerance
    pairs = draw(space, np.random.default_rng(3), 5, 2)
    assert check_geodesic_property(space, pairs) <= space.tol_geo


@pytest.mark.parametrize("space", all_spaces(), ids=lambda s: s.name)
def test_geodesic_endpoints_exact(space):
    rng = np.random.default_rng(5)
    p, q = space.sample_point(rng), space.sample_point(rng)
    assert space.geodesic_point(p, q, 0.0) == p
    assert space.geodesic_point(p, q, 1.0) == q


def test_degenerate_geodesic_is_constant():
    ou = QuadraticSpace()
    p = StatePoint.of(1.3)
    for t in (0.0, 0.3, 1.0):
        assert ou.geodesic_point(p, p, t) == p


def test_geodesic_parameter_out_of_range():
    ou = QuadraticSpace()
    with pytest.raises(UsageError):
        ou.geodesic_point(StatePoint.of(0.0), StatePoint.of(1.0), 1.5)


def test_dimension_mismatch_is_usage_error():
    ou = QuadraticSpace()
    with pytest.raises(UsageError):
        ou.distance(StatePoint.of([1.0, 2.0]), StatePoint.of(1.0))


def test_cir_negative_coordinate_is_domain_error():
    cir = CirSpace(mu=1.0)
    with pytest.raises(DomainError):
        cir.distance(StatePoint.of(-1.0), StatePoint.of(1.0))


def test_euclidean_geodesic_midpoint():
    ou = QuadraticSpace()
    mid = ou.geodesic_point(StatePoint.of(0.0), StatePoint.of(2.0), 0.5)
    assert mid.coords[0] == pytest.approx(1.0)


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=300, deadline=None)
def test_cir_distance_closed_form(x, y):
    cir = CirSpace(mu=1.0)
    d = cir.distance(StatePoint.of(x), StatePoint.of(y))
    assert d == pytest.approx(2.0 * abs(math.sqrt(x) - math.sqrt(y)), abs=1e-12)


# ---------------------------------------------------------------------------
# Slope, information and energy identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", all_spaces(), ids=lambda s: s.name)
def test_information_is_squared_slope(space):
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = space.sample_point(rng)
        s, i = space.slope(p), space.information(p)
        if s.infinite:
            assert i.infinite
        else:
            assert i.value == s.value**2


def test_slope_by_definition_matches_closed_forms():
    cir = CirSpace(mu=1.0)
    p = StatePoint.of(4.0)
    est = slope_by_definition(cir, lambda z: float(cir.energy(z)), p, scale=1.0)
    assert est == pytest.approx(1.5, abs=1e-5)
    ou = QuadraticSpace()
    est = slope_by_definition(ou, lambda z: float(ou.energy(z)), StatePoint.of(3.0),
                              scale=1.0)
    assert est == pytest.approx(3.0, abs=1e-6)


def test_noise_identity_on_smooth_spaces():
    rng = np.random.default_rng(13)
    for space in (QuadraticSpace(), CirSpace(mu=1.0)):
        pairs = [(space.sample_point(rng), space.sample_point(rng))
                 for _ in range(10)]
        assert check_noise_identity(space, pairs) <= 1e-4


@pytest.mark.parametrize("space", [
    QuadraticSpace(dimension=2),
    AllenCahnSpace(grid_size=8, length=2 * np.pi, kappa=1.0)],
    ids=lambda s: f"{s.name}_{s.dimension}")
def test_noise_identity_refuses_dimension_above_one(space):
    """Only in one dimension is the sphere the two points p +- r, so only
    there is the sup over it exact; a finite set of directions elsewhere
    misses the gradient's and reads a false violation."""
    rng = np.random.default_rng(13)
    pairs = [(space.sample_point(rng), space.sample_point(rng))]
    with pytest.raises(UsageError, match="needs dimension 1"):
        check_noise_identity(space, pairs)


@pytest.mark.parametrize("space", all_spaces(), ids=lambda s: s.name)
def test_kappa_convexity_along_geodesics(space):
    assert check_kappa_convexity(space, 100, rng=np.random.default_rng(17)) <= 1e-8
