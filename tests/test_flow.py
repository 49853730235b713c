"""Flow engines and EVI-consequence verifiers against closed-form oracles."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evikit.flow

from evikit.core import (
    DomainError,
    NumericalError,
    Space,
    StatePoint,
    UnsupportedFlowError,
    UsageError,
)
from evikit.flow import (
    EviReport,
    ProbeRecord,
    Trajectory,
    _refine_minimum,
    _time_grid,
    fit_quadratic_lower_bound,
    flow_any,
    flow_exact,
    flow_mms,
    jko_rows,
    jko_step,
    verify_contraction,
    verify_energy_identity,
    verify_evi,
)
from evikit.potentials import make_potential
from evikit.spaces import (
    CirSpace,
    QuadraticSpace,
    Wasserstein1DSpace,
)


@pytest.fixture(scope="module")
def ou():
    return QuadraticSpace()


@pytest.fixture(scope="module")
def cir():
    return CirSpace(mu=1.0)


@pytest.fixture(scope="module")
def heat_space():
    return Wasserstein1DSpace(m=200, internal=make_potential("entropy"))


# ---------------------------------------------------------------------------
# Exact flows
# ---------------------------------------------------------------------------

def check_semigroup(space, p, T, dt):
    """|flow(2T) - flow(T) twice| in the metric (exact flows: ~0)."""
    one = flow_any(space, p, 2 * T, dt)
    half = flow_any(space, p, T, dt)
    again = flow_any(space, half.end, T, dt)
    return space.distance(one.end, again.end)


class TestExactFlows:
    def test_ou_exponential_decay(self, ou):
        traj = flow_exact(ou, StatePoint.of(1.0), math.log(2.0), 1e-3)
        assert traj.end.coords[0] == pytest.approx(0.5, abs=1e-12)

    def test_cir_mean_reversion(self, cir):
        # xdot = mu - x: x(ln 2) = 1 + 2 * 0.5 = 2
        traj = flow_exact(cir, StatePoint.of(3.0), math.log(2.0), 1e-3)
        assert traj.end.coords[0] == pytest.approx(2.0, abs=1e-12)

    def test_heat_flow_hits_heat_kernel_convolution(self, heat_space):
        """Quantiles of N(0,1) flowed for t=1.5 against an independent
        density-grid convolution with the heat kernel of variance 2t."""
        t = 1.5
        q0 = heat_space.gaussian_state(0.0, 1.0)
        flowed = heat_space.exact_flow(q0, t)
        xs = np.linspace(-12, 12, 9001)
        dx = xs[1] - xs[0]
        dens0 = np.exp(-xs**2 / 2) / math.sqrt(2 * math.pi)
        kernel = np.exp(-xs**2 / (4 * t)) / math.sqrt(4 * math.pi * t)
        dens_t = np.convolve(dens0, kernel, mode="same") * dx
        cdf = np.cumsum(dens_t) * dx
        oracle_q = np.interp(heat_space.levels, cdf, xs)
        assert np.max(np.abs(flowed.array - oracle_q)) < 5e-3
        # closed form: N(0, 1 + 2t) = N(0, 4)
        assert heat_space.distance(flowed, heat_space.gaussian_state(0.0, 2.0)) < 1e-12

    def test_no_closed_form_raises(self):
        space = QuadraticSpace(dimension=1, kappa=1.0, perturbation=make_potential("quartic"))
        with pytest.raises(UnsupportedFlowError):
            flow_exact(space, StatePoint.of(1.0), 1.0, 0.1)

    def test_trajectory_bytes_equal_per_time_route(self, tmp_path, ou, cir, heat_space):
        """flow_exact's trajectory.csv against the route it replaced, one
        exact_flow StatePoint per grid time, byte for byte; grids that hit
        T and grids that append it."""
        cases = [
            (ou, StatePoint.of(-2.3), 1.0, 1e-3),
            (QuadraticSpace(dimension=3, kappa=0.7),
             StatePoint.of([1.0, -2.0, 0.5]), 0.7, 3e-3),
            (QuadraticSpace(dimension=2, kappa=-0.4),
             StatePoint.of([0.3, -1.1]), 1.3, 0.07),
            (cir, StatePoint.of(0.07), 2.0, 1e-3),
            (cir, StatePoint.of(6.5), 0.5, 0.03),
            (heat_space, heat_space.gaussian_state(0.4, 0.6), 0.5, 1e-2),
        ]
        for space, p, T, dt in cases:
            times = _time_grid(T, dt)
            route = Trajectory(times, [space.exact_flow(p, float(t)).coords for t in times])
            route.to_csv(tmp_path / "route.csv")
            flow_exact(space, p, T, dt).to_csv(tmp_path / "trajectory.csv")
            assert ((tmp_path / "trajectory.csv").read_bytes()
                    == (tmp_path / "route.csv").read_bytes())

    @pytest.mark.parametrize("T, dt", [(1.0, 0.0), (1.0, -0.1), (1.0, math.nan),
                                       (1.0, math.inf), (-1.0, 0.1), (math.nan, 0.1),
                                       (math.inf, 0.1)])
    def test_bad_times_rejected(self, ou, T, dt):
        """Each was a ZeroDivisionError, ValueError, IndexError or
        OverflowError out of the time grid, or for dt = inf a UsageError on
        non-finite coordinates; verify_contraction on two closed forms
        takes the same grid."""
        with pytest.raises(UsageError, match="needs finite dt > 0 and T >= 0"):
            flow_exact(ou, StatePoint.of(1.0), T, dt)
        with pytest.raises(UsageError, match="needs finite dt > 0 and T >= 0"):
            verify_contraction(ou, StatePoint.of(1.0), StatePoint.of(-0.5), T, dt)

    def test_horizon_zero_and_dt_past_it(self, ou):
        assert flow_exact(ou, StatePoint.of(1.0), 0.0, 0.1).times.tolist() == [0.0]
        assert flow_exact(ou, StatePoint.of(1.0), 0.5, 2.0).times.tolist() == [0.0, 0.5]

    def test_start_validated_and_samples_finite(self, cir):
        with pytest.raises(DomainError):
            flow_exact(cir, StatePoint.of(-1.0), 1.0, 0.1)
        growing = QuadraticSpace(dimension=1, kappa=-1.0)
        with pytest.raises(UsageError, match="must be finite"), np.errstate(over="ignore"):
            flow_exact(growing, StatePoint.of(1e308), 10.0, 1.0)

    def test_chart_flow_matches_statepoint_flow(self, ou, cir, heat_space):
        """exact_flow_chart, row by row, against the chart of exact_flow."""
        times = np.concatenate([[0.0], np.geomspace(1e-4, 5.0, 40)])
        cases = [
            (ou, StatePoint.of(-2.3)),
            (QuadraticSpace(dimension=3, kappa=0.7),
             StatePoint.of([1.0, -2.0, 0.5])),
            (cir, StatePoint.of(0.07)),
            (cir, StatePoint.of(6.5)),
            (heat_space, heat_space.gaussian_state(0.4, 0.6)),
        ]
        for space, p in cases:
            rows = space.exact_flow_chart(space.to_chart(p), times)
            assert rows.shape == (len(times), space.dimension)
            for t, row in zip(times, rows):
                expected = space.to_chart(space.exact_flow(p, float(t)))
                assert np.max(np.abs(row - expected)) <= 1e-12

    def test_chart_flow_without_closed_form_raises(self, heat_space):
        space = QuadraticSpace(dimension=1, kappa=1.0, perturbation=make_potential("quartic"))
        with pytest.raises(UnsupportedFlowError):
            space.exact_flow_chart(np.array([1.0]), [0.0, 0.1])
        uniform = np.linspace(-1.0, 1.0, heat_space.m)
        with pytest.raises(UnsupportedFlowError):
            heat_space.exact_flow_chart(uniform, [0.0, 0.1])

    def test_semigroup_property(self, ou, cir):
        assert check_semigroup(ou, StatePoint.of(1.5), 0.7, 1e-3) <= 1e-12
        assert check_semigroup(cir, StatePoint.of(3.0), 0.7, 1e-3) <= 1e-12


# ---------------------------------------------------------------------------
# Minimizing movement
# ---------------------------------------------------------------------------

class TestMinimizingMovement:
    def test_ou_first_order_accuracy(self, ou):
        traj = flow_mms(ou, StatePoint.of(1.0), 1.0, 1e-3)
        assert abs(traj.end.coords[0] - math.exp(-1.0)) <= 1e-3
        assert traj.coords.shape == (1001, 1)

    def test_stationary_start_stays_constant(self, ou, cir):
        for space, p in ((ou, StatePoint.of(0.0)), (cir, StatePoint.of(1.0))):
            traj = flow_mms(space, p, 0.2, 1e-2)
            assert all(space.distance(traj.point(i), p) <= 1e-9
                       for i in range(len(traj.times)))

    def test_first_order_convergence_ratio(self, ou):
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = flow_mms(ou, StatePoint.of(1.0), 1.0, dt)
            errs.append(abs(traj.end.coords[0] - math.exp(-1.0)))
        for i in range(2):
            assert 1.7 <= errs[i] / errs[i + 1] <= 2.3

    def test_cir_mms_matches_closed_form(self, cir):
        traj = flow_mms(cir, StatePoint.of(3.0), 1.0, 1e-3)
        exact = 1.0 + 2.0 * math.exp(-1.0)
        assert abs(traj.end.coords[0] - exact) <= 2e-3

    def test_energy_monotone_along_trajectories(self, ou, cir, heat_space):
        cases = [(ou, StatePoint.of(2.0)), (cir, StatePoint.of(3.0)),
                 (heat_space, heat_space.gaussian_state(0.2, 0.8))]
        for space, p in cases:
            traj = flow_mms(space, p, 0.3, 1e-2)
            vals = [float(space.energy(traj.point(i))) for i in range(len(traj.times))]
            assert all(vals[i + 1] <= vals[i] + 1e-10 for i in range(len(vals) - 1))

    def test_bad_config_rejected(self, ou):
        # flow_mms checks 0 < dt <= T itself
        for T, dt in ((1.0, -1e-3), (1.0, 0.0), (1.0, 2.0), (-1.0, 0.1), (1.0, math.nan)):
            with pytest.raises(UsageError, match="0 < dt <= T"):
                flow_mms(ou, StatePoint.of(1.0), T, dt)


class CountingQuadratic(QuadraticSpace):
    """A quadratic space that counts jko_step's projections and gradients:
    every inner iteration projects once and every backtrack once more,
    and every iteration but the converging one takes one gradient (plus
    the gradient at the start).  In dimension 1 jko_step calls the float
    hooks of _scalar_chart, elsewhere the row hooks on one row; each is
    counted."""

    def __init__(self, **params):
        super().__init__(**params)
        self.projections = self.gradients = 0

    def project_chart_rows(self, y):
        self.projections += 1
        return super().project_chart_rows(y)

    def chart_energy_grad_rows(self, y):
        self.gradients += 1
        return super().chart_energy_grad_rows(y)

    def _scalar_chart(self):
        energy, gradient, project = super()._scalar_chart()

        def counted_gradient(y):
            self.gradients += 1
            return gradient(y)

        def counted_project(y):
            self.projections += 1
            return project(y)

        return energy, counted_gradient, counted_project


def quadratic(dimension, perturbation, kappa=1.0):
    return QuadraticSpace(
        dimension=dimension, kappa=kappa, perturbation=make_potential(perturbation))


def assert_rows_match_steps(space, y_prev, dt, inner_tol=1e-9, max_iter=500):
    """jko_rows equals jko_step on every row; where some row's jko_step
    raises, jko_rows raises with the first such row's residual."""
    steps = []
    for y in y_prev:
        try:
            steps.append(jko_step(space, y.copy(), dt, inner_tol, max_iter))
        except NumericalError as exc:
            with pytest.raises(NumericalError) as info:
                jko_rows(space, y_prev, dt, inner_tol, max_iter)
            assert info.value.residual == exc.residual
            return
    rows = jko_rows(space, y_prev, dt, inner_tol, max_iter)
    assert rows.shape == y_prev.shape
    for row, step in zip(rows, steps):
        assert row.tobytes() == step.tobytes()


class TestJkoRows:
    """jko_rows against jko_step, row by row and bit for bit."""

    @given(dimension=st.sampled_from([1, 3]), perturbation=st.sampled_from(["zero", "quartic"]),
           kappa=st.floats(0.1, 3.0), dt=st.floats(1e-3, 0.5),
           starts=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=24))
    @settings(max_examples=80, deadline=None)
    def test_drawn_rows_match_jko_step(self, dimension, perturbation, kappa, dt, starts):
        space = quadratic(dimension, perturbation, kappa)
        y_prev = np.resize(np.array(starts), (math.ceil(len(starts) / dimension), dimension))
        assert_rows_match_steps(space, y_prev, dt)

    @given(mu=st.floats(0.2, 3.0), x_lo=st.sampled_from([1e-4, 1e-3, 0.05]),
           dt=st.floats(1e-3, 0.5),
           logs=st.lists(st.floats(0.0, 7.0), min_size=1, max_size=24))
    @settings(max_examples=80, deadline=None)
    def test_drawn_cir_rows_match_jko_step(self, mu, x_lo, dt, logs):
        """CIR from starts sqrt(x_lo) e^u, many of them near the lower cut,
        where the first trial step overshoots and the projection clips."""
        space = CirSpace(mu=mu, x_lo=x_lo)
        y_prev = np.minimum(math.sqrt(x_lo) * np.exp(logs), math.sqrt(space.x_hi))[:, None]
        assert_rows_match_steps(space, y_prev, dt)

    def test_cir_starts_near_the_cut_clip(self):
        """Starts at and near the lower cut sqrt(x_lo) reach the projection's
        clipping: the first trial step, along the energy gradient at the
        start, lands past sqrt(x_hi)."""
        space = CirSpace(mu=1.0)
        energy, gradient, project = space._scalar_chart()
        y_prev, dt = math.sqrt(space.x_lo) * np.array([[1.0], [1.01], [1.5]]), 0.3
        for y in y_prev[:, 0].tolist():
            trial = y - dt / space.chart_scale**2 * gradient(y)
            assert trial > math.sqrt(space.x_hi) and project(trial) == math.sqrt(space.x_hi)
        assert_rows_match_steps(space, y_prev, dt)

    def test_rows_converge_apart_and_backtrack(self):
        """Spread starts: the rows stop at different iterations, and some
        of them backtrack, in 1-d and 3-d, with and without the quartic."""
        rng = np.random.default_rng(5)
        for dimension in (1, 3):
            for perturbation in ("zero", "quartic"):
                space = quadratic(dimension, perturbation)
                y_prev = rng.normal(size=(12, dimension)) * np.geomspace(1e-3, 5.0, 12)[:, None]
                y_prev[0] = 0.0  # the minimizer: converges at the first iteration
                assert_rows_match_steps(space, y_prev, 0.3)
                counting = CountingQuadratic(dimension=space.dimension, kappa=space.kappa,
                                              perturbation=space.perturbation)
                iterations, backtracks = set(), 0
                for y in y_prev:
                    counting.projections = counting.gradients = 0
                    jko_step(counting, y.copy(), 0.3, 1e-9, 500)
                    iterations.add(counting.gradients)
                    backtracks += counting.projections - counting.gradients
                assert len(iterations) >= 3
                if perturbation == "quartic":
                    assert backtracks > 0

    def test_row_at_the_cap_raises(self):
        space = quadratic(3, "quartic")
        y_prev = np.array([[0.0, 0.0, 0.0], [2.0, -1.5, 3.0]])
        with pytest.raises(NumericalError):
            jko_step(space, y_prev[1].copy(), 0.3, 1e-9, 2)
        with pytest.raises(NumericalError):
            jko_rows(space, y_prev, 0.3, 1e-9, 2)

    def test_start_outside_the_domain_raises(self, cir):
        with pytest.raises(NumericalError):
            jko_rows(cir, np.array([[1.0], [0.0]]), 0.1, 1e-9, 500)


def row_hook_space(space):
    """space with the base Space._scalar_chart, which calls the row hooks
    on (1, 1) arrays: jko_step's path before the float hooks."""
    cls = type(f"RowHook{type(space).__name__}", (type(space),),
                {"_scalar_chart": Space._scalar_chart})
    hooked = object.__new__(cls)  # with space's attributes, not rebuilt
    hooked.__dict__.update(vars(space))
    return hooked


FLOAT_SPACES = [
    ("ou", lambda: QuadraticSpace()),
    ("quartic", lambda: quadratic(1, "quartic", 0.7)),
    ("offset", lambda: QuadraticSpace(
        kappa=1.3, perturbation=make_potential("power", alpha=3.0), energy_offset=-0.25)),
]

# CIR keeps the base _scalar_chart, the row hooks on (1, 1) arrays, under
# jko_step's float loop
SCALAR_SPACES = FLOAT_SPACES + [
    ("cir", lambda: CirSpace(mu=1.3)),
    ("cir_bounded", lambda: CirSpace(mu=0.7, x_lo=1e-3, x_hi=8.0)),
]


class TestScalarChart:
    """jko_step on Python floats against the row hooks on (1, 1) arrays
    and against jko_rows, bit for bit, on the spaces that override
    _scalar_chart and on CIR, which does not."""

    @pytest.mark.parametrize("name, make", FLOAT_SPACES)
    def test_float_hooks_equal_row_hooks(self, name, make):
        space = make()
        (energy, gradient, project), rows = space._scalar_chart(), Space._scalar_chart(space)
        for y in np.linspace(-4.0, 9.0, 131).tolist() + [0.0]:
            assert repr(energy(y)) == repr(rows[0](y))
            assert repr(gradient(y)) == repr(rows[1](y))
            assert repr(project(y)) == repr(rows[2](y))

    @pytest.mark.parametrize("name, make", SCALAR_SPACES)
    def test_residual_at_the_cap_is_the_same(self, name, make):
        space = make()
        for y, dt in ((2.5, 0.3), (0.04, 0.1), (1.9, 0.02)):
            residuals = []
            for run in (lambda: jko_step(space, np.array([y]), dt, 1e-9, 2),
                        lambda: jko_step(row_hook_space(space), np.array([y]), dt, 1e-9, 2),
                        lambda: jko_rows(space, np.array([[y]]), dt, 1e-9, 2)):
                with pytest.raises(NumericalError, match="did not converge") as info:
                    run()
                residuals.append(info.value.residual)
            assert math.isfinite(residuals[0])
            assert len({repr(r) for r in residuals}) == 1

    @pytest.mark.parametrize("name, make", SCALAR_SPACES)
    def test_start_outside_the_domain_is_the_same(self, name, make):
        space = make()
        y = 0.0 if isinstance(space, CirSpace) else math.nan
        messages = []
        for run in (lambda: jko_step(space, np.array([y]), 0.1, 1e-9, 500),
                    lambda: jko_step(row_hook_space(space), np.array([y]), 0.1, 1e-9, 500),
                    lambda: jko_rows(space, np.array([[y]]), 0.1, 1e-9, 500)):
            with pytest.raises(NumericalError) as info:
                run()
            messages.append((str(info.value), repr(info.value.residual)))
        assert messages[0][0] == "minimizing movement started outside the energy domain"
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("name, make", FLOAT_SPACES)
    def test_flow_mms_equals_the_row_hook_path(self, name, make):
        space = make()
        for x0 in (1.7, 0.3, -2.2):
            for T, dt in ((1.0, 1e-2), (0.35, 0.1)):
                fast = flow_mms(space, StatePoint.of(x0), T, dt)
                slow = flow_mms(row_hook_space(space), StatePoint.of(x0), T, dt)
                assert fast.times.tobytes() == slow.times.tobytes()
                assert fast.coords.tobytes() == slow.coords.tobytes()


# ---------------------------------------------------------------------------
# EVI verifier
# ---------------------------------------------------------------------------

class TestEvi:
    def test_ou_holds_with_equality(self, ou):
        dt = 1e-3
        traj = flow_exact(ou, StatePoint.of(1.0), 2.0, dt)
        probes = [StatePoint.of(v) for v in np.linspace(-2, 3, 20)]
        rep = verify_evi(ou, traj, probes)
        assert rep.probe_count == 20
        assert -10 * dt <= rep.max_violation <= 10 * dt

    def test_stationary_start_at_probe(self, ou):
        traj = flow_exact(ou, StatePoint.of(0.0), 0.5, 1e-3)
        rep = verify_evi(ou, traj, [StatePoint.of(0.0)])
        assert abs(rep.max_violation) <= 1e-12

    def test_cir_with_finite_probes(self, cir):
        dt = 1e-3
        traj = flow_exact(cir, StatePoint.of(3.0), 2.0, dt)
        rep = verify_evi(cir, traj, [StatePoint.of(v) for v in (0.5, 1.0, 2.0)])
        assert rep.max_violation <= 10 * dt

    def test_infinite_energy_probe_rejected(self, cir):
        traj = flow_exact(cir, StatePoint.of(3.0), 0.1, 1e-2)
        with pytest.raises(UsageError):
            verify_evi(cir, traj, [StatePoint.of(0.0)])

    def test_report_json_shape(self, ou, tmp_path):
        traj = flow_exact(ou, StatePoint.of(1.0), 0.1, 1e-2)
        rep = verify_evi(ou, traj, [StatePoint.of(0.5)])
        rep.write_json(tmp_path / "evi.json")
        data = (tmp_path / "evi.json").read_text()
        assert '"max_violation"' in data and '"records"' in data


def loop_verify_evi(space, traj, probes):
    """The sample-by-sample verify_evi that the array form replaced: one
    space.distance and one space.energy per (probe, sample), on
    StatePoints, and a strict running maximum."""
    states = [traj.point(i) for i in range(len(traj.times))]
    records = []
    worst = -math.inf
    for probe in probes:
        e_probe = space.energy(probe)
        probe_worst, probe_rec = -math.inf, None
        d2 = np.array([space.distance(s, probe) ** 2 for s in states])
        for i in range(len(states) - 1):
            lhs = (d2[i + 1] - d2[i]) / (2.0 * (traj.times[i + 1] - traj.times[i]))
            e_state = space.energy(states[i])
            if e_state.infinite:
                continue
            rhs = e_probe.value - e_state.value - 0.5 * space.kappa * d2[i]
            if lhs - rhs > probe_worst:
                probe_worst = lhs - rhs
                probe_rec = ProbeRecord(float(traj.times[i]), probe.to_json(),
                                        float(lhs), float(rhs))
        if probe_rec is not None:
            records.append(probe_rec)
            worst = max(worst, probe_worst)
    return EviReport(max_violation=worst, probe_count=len(probes), records=records)


class TestEviMatchesLoop:
    """verify_evi against the sample-by-sample loop, bit for bit."""

    def assert_same(self, space, traj, probes):
        report = verify_evi(space, traj, probes)
        assert report.to_json() == loop_verify_evi(space, traj, probes).to_json()
        return report

    def test_flows_and_probes(self, ou, cir, heat_space):
        rng = np.random.default_rng(17)
        quartic = quadratic(3, "quartic")
        cases = [
            (ou, flow_exact(ou, StatePoint.of(1.3), 1.0, 2e-3), 10),
            (quadratic(1, "zero"), flow_any(quadratic(1, "zero"), StatePoint.of(-1.7), 1.0, 2e-3), 10),
            (quartic, flow_any(quartic, StatePoint.of([1.0, -0.5, 2.0]), 0.5, 1e-2), 8),
            (cir, flow_exact(cir, StatePoint.of(3.0), 2.0, 1e-3), 6),
            (heat_space, flow_exact(heat_space, heat_space.gaussian_state(0.1, 0.9), 0.5, 1e-2), 4),
        ]
        for space, traj, n_probes in cases:
            probes = [space.sample_point(rng) for _ in range(n_probes)]
            assert len(self.assert_same(space, traj, probes).records) == n_probes

    def test_ties_and_infinite_energy_samples(self, ou, cir):
        # a stationary flow: every sample ties, and the first one is recorded
        traj = flow_exact(ou, StatePoint.of(0.0), 0.5, 1e-2)
        report = self.assert_same(ou, traj, [StatePoint.of(0.7), StatePoint.of(0.0)])
        assert [r.t for r in report.records] == [0.0, 0.0]
        # CIR samples at x = 0 have infinite energy and are skipped
        traj = Trajectory(np.arange(5) * 0.1, [[0.0], [2.0], [0.0], [1.5], [0.0]])
        report = self.assert_same(cir, traj, [StatePoint.of(1.0), StatePoint.of(0.4)])
        assert {r.t for r in report.records} <= {0.1, 0.30000000000000004}
        # only infinite-energy samples: no record at all
        traj = Trajectory(np.array([0.0, 0.1]), [[0.0], [1.0]])
        report = self.assert_same(cir, traj, [StatePoint.of(1.0)])
        assert report.records == [] and report.max_violation == -math.inf


    def test_squared_distances_are_python_float_squares(self, ou):
        # 1.8509723469979271 ** 2 (the C library's pow) is one ulp above
        # its numpy square, and the record carries that bit
        d = 1.8509723469979271
        assert d ** 2 != float(np.square(d))
        traj = Trajectory(np.array([0.0, 1e-3]), [[d], [d * math.exp(-1e-3)]])
        self.assert_same(ou, traj, [StatePoint.of(0.0)])


def loop_contraction(space, p, q, T, dt):
    """verify_contraction one sample at a time, on flow_mms's times when
    either start has no closed form, where a closed form is taken by
    space.exact_flow at each of them."""
    tp, tq = flow_any(space, p, T, dt), flow_any(space, q, T, dt)
    times = tq.times if space.has_exact_flow(p) else tp.times
    d0 = space.distance(p, q)
    worst = -math.inf
    for i, t in enumerate(times.tolist()):
        at = [space.exact_flow(x, t) if space.has_exact_flow(x) else tr.point(i)
              for x, tr in ((p, tp), (q, tq))]
        worst = max(worst, space.distance(*at) - math.exp(-space.kappa * t) * d0)
    return worst


def test_contraction_matches_loop(ou, cir, heat_space):
    cases = [(ou, StatePoint.of(1.0), StatePoint.of(-2.0), 2.0, 1e-3),
             (cir, StatePoint.of(3.0), StatePoint.of(0.2), 1.0, 1e-2),
             (quadratic(1, "quartic"), StatePoint.of(1.0), StatePoint.of(-0.5), 0.3, 1e-2),
             (heat_space, heat_space.gaussian_state(0.0, 1.0),
              heat_space.gaussian_state(0.3, 2.0), 1.0, 1e-2)]
    # a closed-form start against one without: minimizing movement ends at
    # 0.3, past T, and pairing that sample with the closed form at 0.25
    # read a violation of 0.033
    w8 = Wasserstein1DSpace(m=8, internal=make_potential("entropy"))
    gauss = w8.gaussian_state(0.0, 1.0)
    stretched = StatePoint.of(gauss.array * np.linspace(1.0, 1.01, 8))
    cases += [(w8, gauss, stretched, 0.25, 0.1), (w8, stretched, gauss, 0.25, 0.1)]
    for space, p, q, T, dt in cases:
        assert verify_contraction(space, p, q, T, dt) == loop_contraction(space, p, q, T, dt)
    assert verify_contraction(w8, gauss, stretched, 0.25, 0.1) == 0.0


def loop_quadratic_lower_bound(space, nu0, c1, sample_count, rng):
    """fit_quadratic_lower_bound's sampling before refinement, one draw
    and one StatePoint at a time: (stage minima, best chart point)."""
    def shifted(p):
        e = space.energy(p)
        return math.inf if e.infinite else e.value + 0.5 * c1 * space.distance(p, nu0) ** 2

    y0 = space.to_chart(nu0)
    best_y, best = y0.copy(), shifted(nu0)
    stage_best = []
    for radius in (1.0, 2.0, 4.0, 8.0):
        for _ in range(sample_count // 4):
            y = y0 + radius * rng.standard_normal(y0.size) / space.chart_scale
            y = space.project_chart_rows(y[None])[0]
            val = shifted(space.from_chart(y))
            if val < best:
                best, best_y = val, y
        stage_best.append(best)
    return stage_best, best_y


def loop_refine_minimum(space, fn, y, fy, iters=200):
    """The compass search as it was before it scored chart rows: one
    candidate, one projection, one StatePoint and one fn call at a time."""
    step = 0.5
    n = y.size
    for _ in range(iters):
        improved = False
        for i in range(n):
            for sign in (+1.0, -1.0):
                cand = y.copy()
                cand[i] += sign * step
                cand = space.project_chart_rows(cand[None])[0]
                val = fn(space.from_chart(cand))
                if val < fy - 1e-15:
                    y, fy = cand, val
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-9:
                break
    return fy


def loop_shifted(space, nu0, c1):
    """The shifted energy on one StatePoint, as the search scored it."""
    def shifted(p):
        e = space.energy(p)
        return math.inf if e.infinite else e.value + 0.5 * c1 * space.distance(p, nu0) ** 2
    return shifted


def test_quadratic_lower_bound_matches_loop(ou, cir, monkeypatch):
    cases = [(ou, StatePoint.of(0.3), 1.0), (cir, StatePoint.of(1.0), 0.5),
             (cir, StatePoint.of(0.05), 2.0), (quadratic(3, "quartic"), StatePoint.of([0.5, 0.0, -1.0]), 0.2)]
    for space, nu0, c1 in cases:
        for count in (4000, 37):
            stages, best_y = loop_quadratic_lower_bound(space, nu0, c1, count,
                                                        np.random.default_rng(3))
            with monkeypatch.context() as m:  # the sampled minimum, unrefined
                m.setattr(evikit.flow, "_refine_minimum", lambda space, fn, y, fy: fy)
                got = fit_quadratic_lower_bound(space, nu0, c1, count,
                                                np.random.default_rng(3))
            assert got == (-stages[-1], stages[-1])
            # refinement starts from the same point, so it ends at the same value
            refined = fit_quadratic_lower_bound(space, nu0, c1, count, np.random.default_rng(3))
            assert refined[1] <= stages[-1]
            assert refined[1] == loop_refine_minimum(space, loop_shifted(space, nu0, c1),
                                                     best_y, stages[-1])


@pytest.mark.parametrize("name", ["ou", "cir", "cir_bounded", "quadratic_quartic", "transport"])
def test_refined_lower_bound_bit_equal_on_drawn_starts(name):
    """fit_quadratic_lower_bound, refinement included, equals the sampled
    stage and compass search scored one StatePoint at a time, bit for bit,
    from drawn centres nu0; few samples leave the search work to do."""
    space, c1 = {
        "ou": (QuadraticSpace(), 1.0),
        "cir": (CirSpace(mu=1.0), 0.5),
        "cir_bounded": (CirSpace(mu=2.0, x_lo=0.3, x_hi=5.0), 2.0),
        "quadratic_quartic": (quadratic(3, "quartic"), 0.2),
        "transport": (Wasserstein1DSpace(m=6, internal=make_potential("entropy")), 1.0),
    }[name]
    for row in space.sample_rows(np.random.default_rng(41), 40):
        nu0 = StatePoint.of(row)
        stages, best_y = loop_quadratic_lower_bound(space, nu0, c1, 8,
                                                    np.random.default_rng(5))
        want = loop_refine_minimum(space, loop_shifted(space, nu0, c1), best_y, stages[-1])
        got = fit_quadratic_lower_bound(space, nu0, c1, 8, np.random.default_rng(5))
        assert repr(got) == repr((-want, want))


@pytest.mark.parametrize("name", ["ou", "quadratic3", "cir_bounded"])
def test_refinement_follows_the_one_candidate_search(name):
    """On a rugged score, where the order in which candidates are tried and
    taken decides the local minimum the search ends in, _refine_minimum
    ends where the one-candidate-at-a-time search ends, bit for bit, after
    1, 2, 5 and 200 sweeps; the half-line's projection clips candidates at
    its bounds."""
    space = {"ou": QuadraticSpace(), "quadratic3": QuadraticSpace(dimension=3),
             "cir_bounded": CirSpace(mu=2.0, x_lo=0.3, x_hi=5.0)}[name]

    def rugged_rows(y):
        return np.sum(np.sin(7.0 * y) + 0.05 * y**2, axis=1)

    rugged = lambda p: float(rugged_rows(space.to_chart(p)[None])[0])
    rng = np.random.default_rng(43)
    ends = set()
    for row in space.sample_rows(rng, 60):
        y = space.to_chart(StatePoint.of(row))
        fy = float(rugged_rows(y[None])[0])
        # a few sweeps end before the step is fine enough to hide the path
        for iters in (1, 2, 5, 200):
            want = loop_refine_minimum(space, rugged, y, fy, iters)
            assert repr(_refine_minimum(space, rugged_rows, y, fy, iters)) == repr(want)
        ends.add(want)
    assert len(ends) >= 5


def test_information_rows_and_refinement_build_no_statepoint(ou, monkeypatch):
    """information_rows on an OU trajectory and the compass search score
    rows: neither builds a StatePoint per row or candidate."""
    traj = flow_exact(ou, StatePoint.of(2.0), 1.0, 1e-3)
    nu0 = StatePoint.of(0.3)
    built = []
    post_init = StatePoint.__post_init__
    monkeypatch.setattr(StatePoint, "__post_init__",
                        lambda self: (built.append(self), post_init(self)))
    infos = ou.information_rows(traj.coords)
    fit_quadratic_lower_bound(ou, nu0, 1.0)
    assert len(infos) == 1001 and built == []


# ---------------------------------------------------------------------------
# Contraction and energy identity
# ---------------------------------------------------------------------------

class TestContraction:
    def test_ou_equality(self, ou):
        viol = verify_contraction(ou, StatePoint.of(1.0), StatePoint.of(-2.0),
                                  2.0, 1e-3)
        assert abs(viol) <= 1e-9

    def test_identical_points(self, ou):
        assert verify_contraction(ou, StatePoint.of(1.0), StatePoint.of(1.0),
                                  1.0, 1e-2) <= 1e-15

    def test_heat_flow_zero_modulus_bound(self, heat_space):
        q1 = heat_space.gaussian_state(0.0, 1.0)
        q2 = heat_space.gaussian_state(0.0, 2.0)
        viol = verify_contraction(heat_space, q1, q2, 2.0, 1e-2)
        assert viol <= 1e-3  # kappa = 0: distances may not grow


def loop_energy_identity(space, traj):
    """verify_energy_identity as it was before the information rows hook:
    one StatePoint and one information call per sample."""
    e0, e1 = space.energy(traj.start), space.energy(traj.end)
    if e0.infinite:
        raise UsageError("energy identity needs a start in the energy domain")
    infos = [space.information(traj.point(i)) for i in range(len(traj.times))]
    times = traj.times
    if infos[0].infinite:
        infos, times = infos[1:], times[1:]
    if any(v.infinite for v in infos):
        return math.inf
    vals = np.array([v.value for v in infos])
    return abs(float(e1) - float(e0) + float(np.trapezoid(vals, times)))


class SingularStartQuadratic(QuadraticSpace):
    """OU with the slope declared infinite at x = 2, as at a start from
    which a flow regularizes instantly."""

    def slope_rows(self, coords):
        slopes = super().slope_rows(coords)
        slopes[np.asarray(coords)[:, 0] == 2.0] = math.inf
        return slopes


class TestEnergyIdentity:
    def test_ou_closed_form(self, ou):
        # E drop = 2(1 - e^{-2}); int I = int kappa^2 x0^2 e^{-2 kappa s} ds
        traj = flow_exact(ou, StatePoint.of(2.0), 1.0, 1e-3)
        assert verify_energy_identity(ou, traj) <= 1e-2

    def test_stationary_residual_zero(self, ou):
        traj = flow_exact(ou, StatePoint.of(0.0), 1.0, 1e-2)
        assert verify_energy_identity(ou, traj) <= 1e-14

    def test_gaussian_heat_flow(self, heat_space):
        # E drop = 1/2 log 3 = int_0^1 ds / (1 + 2s)
        q0 = heat_space.gaussian_state(0.0, 1.0)
        traj = flow_exact(heat_space, q0, 1.0, 1e-2)
        assert verify_energy_identity(heat_space, traj) <= 1e-2

    def test_matches_statepoint_loop(self, ou, cir, heat_space):
        singular = SingularStartQuadratic(dimension=1, kappa=1.0)
        gauss = heat_space.gaussian_state(0.2, 0.7).array
        flat = gauss.copy()
        flat[5] = flat[6]
        trajs = [(ou, flow_exact(ou, StatePoint.of(2.0), 1.0, 1e-3)),
                 (cir, flow_exact(cir, StatePoint.of(3.0), 1.0, 1e-2)),
                 (heat_space, flow_exact(heat_space, StatePoint.of(gauss), 1.0, 1e-2)),
                 # the start's infinite information is dropped
                 (singular, flow_exact(singular, StatePoint.of(2.0), 1.0, 1e-3)),
                 # an interior state with a flat gap has infinite information
                 (heat_space, Trajectory(np.array([0.0, 0.1, 0.2]),
                                         np.array([gauss, flat, gauss])))]
        for space, traj in trajs:
            assert verify_energy_identity(space, traj) == loop_energy_identity(space, traj)
        assert verify_energy_identity(*trajs[-1]) == math.inf


# ---------------------------------------------------------------------------
# Quadratic lower bound fitting
# ---------------------------------------------------------------------------

class TestQuadraticLowerBound:
    def test_ou_centered(self, ou):
        c2, est = fit_quadratic_lower_bound(ou, StatePoint.of(0.0), 1.0)
        assert est == pytest.approx(0.0, abs=1e-9)
        assert c2 == pytest.approx(0.0, abs=1e-9)

    def test_concave_energy_with_compensating_c1(self):
        space = QuadraticSpace(dimension=1, kappa=-1.0)
        c2, est = fit_quadratic_lower_bound(space, StatePoint.of(0.0), 2.0)
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_cir_grid_search_reproducible(self, cir):
        vals = [fit_quadratic_lower_bound(cir, StatePoint.of(1.0), 0.5,
                                          rng=np.random.default_rng(3))
                for _ in range(2)]
        assert vals[0] == vals[1]
        assert vals[0][1] == pytest.approx(0.0, abs=1e-6)

    def test_c1_below_minus_kappa_rejected(self, ou):
        with pytest.raises(UsageError):
            fit_quadratic_lower_bound(ou, StatePoint.of(0.0), -1.5)

    def test_centre_validated(self, ou, cir):
        with pytest.raises(DomainError):
            fit_quadratic_lower_bound(cir, StatePoint.of(-1.0), 1.0)
        with pytest.raises(UsageError, match="expected dimension 1, got 2"):
            fit_quadratic_lower_bound(ou, StatePoint.of([0.0, 1.0]), 1.0)


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------

class TestTrajectory:
    def test_validation(self):
        two = np.array([[1.0], [1.0]])
        with pytest.raises(UsageError):
            Trajectory(np.array([0.0, 0.0]), two)
        with pytest.raises(UsageError):
            Trajectory(np.array([0.1, 0.2]), two)
        with pytest.raises(UsageError):
            Trajectory(np.array([0.0]), two)
        with pytest.raises(UsageError):
            Trajectory(np.array([0.0, 0.1]), np.array([1.0, 1.0]))

    def test_csv_export_header(self, ou, tmp_path):
        traj = flow_exact(ou, StatePoint.of(1.0), 0.01, 1e-2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,coord_0"
        assert len(lines) == len(traj.times) + 1

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        """to_csv writes whole rows itself; its bytes are csv.writer's."""
        coords = np.array([[-0.0, 5e-324, 1e308], [1e-300, -1e308, 0.1],
                           [math.pi, -5e-324, 0.0]])
        traj = Trajectory(np.array([0.0, 5e-324, 0.30000000000000004]), coords)
        traj.to_csv(tmp_path / "traj.csv")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "coord_0", "coord_1", "coord_2"])
            for t, row in zip(traj.times, coords):
                writer.writerow([repr(float(t))] + [repr(float(c)) for c in row])
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_points_on_request(self, ou):
        """Samples are coordinate rows; point(i), start and end build
        StatePoints from them."""
        traj = flow_exact(ou, StatePoint.of(1.0), 1.0, 0.5)
        assert traj.coords.shape == (3, 1)
        assert traj.start == StatePoint.of(1.0)
        assert traj.point(1) == ou.exact_flow(StatePoint.of(1.0), 0.5)
        assert traj.end == traj.point(2) == ou.exact_flow(StatePoint.of(1.0), 1.0)
