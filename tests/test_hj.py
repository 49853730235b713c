"""Upper/lower Hamiltonians, resolvent solving and comparison checks."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evikit.hj
from evikit.core import NumericalError, StatePoint, UsageError
from evikit.hj import (
    GridFunction,
    ResolventSolution,
    ViscosityTestFunction,
    check_comparison,
    hamiltonian_bound,
    hamiltonian_sandwich_check,
    make_data_function,
    solve_resolvent,
    solve_resolvent_1d,
    value_by_rollout,
    verify_subsolution,
    verify_supersolution,
)
from evikit.potentials import make_potential
from evikit.spaces import (
    CirSpace,
    QuadraticSpace,
)
from evikit.tataru import tataru_batch, tataru_distance

BOUNDED = CirSpace(mu=1.0, x_lo=1e-3, x_hi=8.0)
H_CLIP = make_data_function("affine_clipped", slope=1.0, intercept=0.0, cap=2.0)


def solve_cir(lam, h, n_grid, tol):
    """The resolvent on the n_grid-node grid spanning BOUNDED's domain."""
    return solve_resolvent(BOUNDED, lam, h, np.linspace(BOUNDED.x_lo, BOUNDED.x_hi, n_grid),
                           tol)


@pytest.fixture(scope="module")
def ou():
    return QuadraticSpace()


@pytest.fixture(scope="module")
def cir():
    return BOUNDED


@pytest.fixture(scope="module")
def resolvent():
    return solve_cir(1.0, H_CLIP, 800, 1e-6)


def g_plus(space, a, b, e_anchor, e_pi, d, d2):
    """g+ as written in the hj docstring, at distance d (d2 = d ** 2) from
    rho with E(rho) = e_anchor, where E(pi) = e_pi."""
    return (a * (e_anchor - e_pi) - 0.5 * a * space.kappa * d2
            + b + 0.5 * a**2 * d2 + a * b * d + 0.5 * b**2)


def g_minus(space, a, b, e_anchor, e_mu, d, d2):
    """g- as written in the hj docstring, at distance d (d2 = d ** 2) from
    gamma with E(gamma) = e_anchor, where E(mu) = e_mu."""
    return (a * (e_mu - e_anchor) + 0.5 * a * space.kappa * d2
            - b + 0.5 * a**2 * d2 - a * b * d - 0.5 * b**2)


def eval_upper(tf, pi):
    """(f+, g+) at pi, one point at a time; g+ = -inf when E(pi) = +inf."""
    sp, rho, mu = tf.space, tf.anchor_quadratic, tf.anchor_tataru
    d = sp.distance(pi, rho)
    dt_val = tataru_distance(sp, pi, mu, tf.flow_dt).value
    f_val = 0.5 * tf.a * d**2 + tf.b * dt_val + tf.c
    g_val = g_plus(sp, tf.a, tf.b, float(sp.energy(rho)), float(sp.energy(pi)), d, d**2)
    return f_val, g_val


def eval_lower(tf, mu):
    """(f-, g-) at mu, one point at a time; g- = +inf when E(mu) = +inf."""
    sp, gamma, pi = tf.space, tf.anchor_quadratic, tf.anchor_tataru
    d = sp.distance(gamma, mu)
    dt_val = tataru_distance(sp, mu, pi, tf.flow_dt).value
    f_val = -0.5 * tf.a * d**2 - tf.b * dt_val + tf.c
    g_val = g_minus(sp, tf.a, tf.b, float(sp.energy(gamma)), float(sp.energy(mu)), d, d**2)
    return f_val, g_val


def sweep(space, grid, a_values=(0.5, 1.0, 2.0, 4.0), b_values=(1e-3, 1e-2, 1e-1),
          n_anchors=5):
    n = len(grid.nodes)
    idx = np.linspace(0.05 * n, 0.95 * n, n_anchors).astype(int)
    return [ViscosityTestFunction(space, a, b, 0.0, grid.point(i), grid.point(i))
            for a in a_values for b in b_values for i in idx]


def scalar_rollout(space, lam, h, start, control_grid, dt, T, state_grid=None,
                   n_state=400):
    """Reference rollout value from one start: the dynamic program with one
    row per state, and the forward rollout as a scalar loop."""
    if isinstance(space, CirSpace):
        lo, hi = space.x_lo, space.x_hi

        def drift_fn(x):
            return space.mu - np.asarray(x, dtype=float)

        def sigma_fn(x):
            return np.asarray(x, dtype=float)
    else:
        lo, hi = -8.0, 8.0

        def drift_fn(x):
            x = np.asarray(x, dtype=float)
            g = space.kappa * x
            if space.perturbation is not None:
                g = g + space.perturbation.df(x)
            return -g

        def sigma_fn(x):
            return np.ones_like(np.asarray(x, dtype=float))
    xs = np.linspace(lo, hi, n_state) if state_grid is None else state_grid
    h_vals = np.asarray(h(xs), dtype=float)
    us = np.asarray(control_grid, dtype=float)
    beta = math.exp(-dt / lam)
    dfac = lam * (1.0 - beta)
    drift = drift_fn(xs)
    sigma = np.maximum(sigma_fn(xs), 1e-12)
    reward = dfac * (h_vals[:, None] / lam - us[None, :] ** 2 / (2.0 * sigma[:, None]))
    x_next = np.clip(xs[:, None] + dt * (drift[:, None] + us[None, :]), lo, hi)
    V = np.zeros_like(xs)
    steps = int(math.ceil(T / dt))
    for _ in range(steps):
        cont = np.interp(x_next, xs, V)
        V = np.max(reward + beta * cont, axis=1)
    x = float(start)
    total = 0.0
    disc = 1.0
    for _ in range(steps):
        dr = float(drift_fn(np.array([x]))[0])
        sg = float(max(sigma_fn(np.array([x]))[0], 1e-12))
        cand_next = np.clip(x + dt * (dr + us), lo, hi)
        cand_val = (dfac * (float(np.interp(x, xs, h_vals)) / lam - us**2 / (2.0 * sg))
                    + beta * np.interp(cand_next, xs, V))
        j = int(np.argmax(cand_val))
        u = float(us[j])
        x_new = float(np.clip(x + dt * (dr + u), lo, hi))
        h_mid = 0.5 * (float(np.interp(x, xs, h_vals)) + float(np.interp(x_new, xs, h_vals)))
        total += disc * dfac * (h_mid / lam - u**2 / (2.0 * sg))
        x = x_new
        disc *= beta
    return total


def reference_hamiltonian_upwind(drift, sigma, fwd, bwd, leftmost_inward, rightmost_inward):
    """The upwind Hamiltonian as it was before the solver reused its
    buffers: fresh arrays and np.where selections."""
    val_zero = -(drift**2) / (2.0 * sigma)
    u_f = sigma * fwd
    ok_f = drift + u_f >= 0.0
    val_f = np.where(ok_f, drift * fwd + 0.5 * sigma * fwd**2, val_zero)
    u_f = np.where(ok_f, u_f, -drift)
    u_b = sigma * bwd
    ok_b = drift + u_b <= 0.0
    val_b = np.where(ok_b, drift * bwd + 0.5 * sigma * bwd**2, val_zero)
    u_b = np.where(ok_b, u_b, -drift)
    take_f = val_f >= val_b
    if leftmost_inward:
        take_f[0] = True
    if rightmost_inward:
        take_f[-1] = False
    return np.where(take_f, val_f, val_b), np.where(take_f, u_f, u_b)


def reference_resolvent_1d(xs, drift, sigma, lam, h_vals, tol=1e-6, max_iter=200):
    """Policy iteration as it was before the solver reused its buffers:
    about two dozen fresh grid-sized arrays an iteration, the band stacked
    by np.vstack and solved without overwriting."""
    from scipy.linalg import solve_banded

    n = xs.size
    dx = float(xs[1] - xs[0])
    policy = np.zeros(n)
    residual = math.inf
    for it in range(max_iter):
        c = drift + policy
        c[0] = max(c[0], 0.0)
        c[-1] = min(c[-1], 0.0)
        cost = policy**2 / (2.0 * sigma)
        rhs = h_vals - lam * cost
        co = lam * c / dx
        sup = np.zeros(n)
        dia = np.ones(n)
        sub = np.zeros(n)
        idx_f = np.where(c > 0)[0]
        dia[idx_f] += co[idx_f]
        sup[idx_f + 1] = -co[idx_f]
        idx_b = np.where(c < 0)[0]
        dia[idx_b] -= co[idx_b]
        sub[idx_b - 1] = co[idx_b]
        f = solve_banded((1, 1), np.vstack([sup, dia, sub]), rhs)
        fwd = np.empty(n)
        bwd = np.empty(n)
        fwd[:-1] = (f[1:] - f[:-1]) / dx
        fwd[-1] = (f[-1] - f[-2]) / dx
        bwd[1:] = (f[1:] - f[:-1]) / dx
        bwd[0] = fwd[0]
        hval, new_policy = reference_hamiltonian_upwind(drift, sigma, fwd, bwd, True, True)
        residual = float(np.max(np.abs(f - lam * hval - h_vals)[1:-1]))
        if residual <= tol:
            return f, new_policy, residual, it + 1
        policy = new_policy
    raise NumericalError(
        f"resolvent policy iteration failed to reach tol={tol} "
        f"(residual {residual:.3e})",
        residual=residual,
    )


def solve_outcome(solver, *args):
    """(f bytes, policy bytes, residual, iterations), or the error raised:
    its type, message and residual."""
    try:
        f, policy, residual, iters = solver(*args)
    except (NumericalError, ValueError) as err:
        return type(err), str(err), repr(getattr(err, "residual", None))
    return f.tobytes(), policy.tobytes(), residual, iters


def csv_writer_bytes(path, xs, fs, us):
    """Reference resolvent CSV: csv.writer rows of float reprs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f", "policy"])
        for x, f, u in zip(xs, fs, us):
            writer.writerow([repr(float(x)), repr(float(f)), repr(float(u))])
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Test-function evaluation
# ---------------------------------------------------------------------------

class TestTestFunctions:
    def test_upper_at_coincident_anchors(self, ou):
        tf = ViscosityTestFunction(ou, 2.0, 0.3, 1.5, StatePoint.of(1.0), StatePoint.of(1.0))
        f_val, g_val = eval_upper(tf, StatePoint.of(1.0))
        assert f_val == pytest.approx(1.5)
        assert g_val == pytest.approx(0.3 + 0.5 * 0.09)

    def test_lower_at_coincident_anchors(self, ou):
        tf = ViscosityTestFunction(ou, 2.0, 0.3, 1.5, StatePoint.of(1.0), StatePoint.of(1.0))
        f_val, g_val = eval_lower(tf, StatePoint.of(1.0))
        assert f_val == pytest.approx(1.5)
        assert g_val == pytest.approx(-0.3 - 0.5 * 0.09)

    def test_upper_worked_example(self, ou):
        # a=1, b=0.1, c=0, rho=1, mu=0, pi=2; the flow from mu=0 is
        # constant so d_T(2, 0) = 2, and term by term
        #   g = (1/2 - 2) - 1/2 + 0.1 + 1/2 + 0.1 + 0.005 = -1.295
        tf = ViscosityTestFunction(ou, 1.0, 0.1, 0.0, StatePoint.of(0.0), StatePoint.of(1.0))
        f_val, g_val = eval_upper(tf, StatePoint.of(2.0))
        assert f_val == pytest.approx(0.7, abs=1e-9)
        assert g_val == pytest.approx(-1.295, abs=1e-12)

    def test_lower_mirror_example(self, ou):
        tf = ViscosityTestFunction(ou, 1.0, 0.1, 0.0, StatePoint.of(0.0), StatePoint.of(1.0))
        f_val, g_val = eval_lower(tf, StatePoint.of(2.0))
        assert f_val == pytest.approx(-0.5 - 0.1 * 2.0, abs=1e-9)
        assert g_val == pytest.approx((2.0 - 0.5) + 0.5 - 0.1 + 0.5 - 0.1 - 0.005,
                                      abs=1e-12)

    def test_infinite_energy_propagates_to_bounds(self, cir):
        tf_up = ViscosityTestFunction(cir, 1.0, 0.1, 0.0, StatePoint.of(1.0), StatePoint.of(1.0))
        _, g_up = eval_upper(tf_up, StatePoint.of(0.0))  # E(0) = +inf
        assert g_up == -math.inf
        tf_low = ViscosityTestFunction(cir, 1.0, 0.1, 0.0, StatePoint.of(1.0), StatePoint.of(1.0))
        _, g_low = eval_lower(tf_low, StatePoint.of(0.0))
        assert g_low == math.inf

    def test_parameter_validation(self, ou, cir):
        with pytest.raises(UsageError):
            ViscosityTestFunction(ou, -1.0, 0.1, 0.0, StatePoint.of(0.0), StatePoint.of(1.0))
        with pytest.raises(UsageError):
            ViscosityTestFunction(ou, 1.0, 0.0, 0.0, StatePoint.of(0.0), StatePoint.of(1.0))
        with pytest.raises(UsageError):
            # anchor rho needs finite energy
            ViscosityTestFunction(cir, 1.0, 0.1, 0.0, StatePoint.of(1.0), StatePoint.of(0.0))

    def test_bounds_invariant_under_energy_recentering(self):
        base = QuadraticSpace()
        shifted = QuadraticSpace(dimension=1, kappa=1.0, energy_offset=3.7)
        pts = [StatePoint.of(v) for v in (-1.0, 0.3, 2.0)]
        for pi in pts:
            tf0 = ViscosityTestFunction(base, 1.5, 0.2, 0.1, pts[0], pts[1])
            tf1 = ViscosityTestFunction(shifted, 1.5, 0.2, 0.1, pts[0], pts[1])
            assert eval_upper(tf0, pi) == eval_upper(tf1, pi)
            assert eval_lower(tf0, pi) == eval_lower(tf1, pi)

    @given(kappa=st.floats(-4.0, 4.0), a=st.floats(1e-3, 8.0), b=st.floats(1e-6, 2.0),
           e_anchor=st.floats(-50.0, 50.0),
           points=st.lists(st.tuples(st.one_of(st.floats(-50.0, 50.0), st.just(math.inf)),
                                     st.floats(0.0, 20.0)), min_size=1, max_size=8))
    @example(kappa=-1.5, a=2.0, b=0.3, e_anchor=1.0, points=[(math.inf, 0.5), (1.0, 0.0)])
    @settings(max_examples=200, deadline=None)
    def test_signed_bound_bit_equal_to_written_out_bounds(self, kappa, a, b, e_anchor, points):
        """hamiltonian_bound with sign +1 and -1 against g+ and g- as
        written in the hj docstring, on Python floats and on arrays, with
        infinite energies and negative moduli among the draws."""
        space = QuadraticSpace(dimension=1, kappa=kappa)
        e, d = (np.array(col) for col in zip(*points))
        for args in ((float(e[0]), float(d[0]), float(d[0]) ** 2), (e, d, d**2)):
            for sign, written_out in ((1, g_plus), (-1, g_minus)):
                got = hamiltonian_bound(space, sign, a, b, e_anchor, *args)
                want = written_out(space, a, b, e_anchor, *args)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# Resolvent solving
# ---------------------------------------------------------------------------

class TestResolvent:
    def test_constant_data_is_fixed_point(self):
        sol = solve_cir(1.0, make_data_function("constant", value=3.0), 200, 1e-9)
        assert np.max(np.abs(sol.f.values - 3.0)) <= 1e-9

    @pytest.mark.parametrize("c", [0.3, -0.4])
    @pytest.mark.parametrize("n_grid", [800, 3200, 12800])
    def test_affine_data_has_affine_resolvent(self, c, n_grid):
        """Closed-form oracle: on CIR (mu = 1, lambda = 1), h = c x + d has
        the resolvent f = A x + B, where A + lambda A - lambda A^2 / 2 = c
        (the root nearest c) and B = d + lambda mu A.  Upwind differences
        are exact on affine functions, so the solve matches f to rounding."""
        lam, mu, d = 1.0, BOUNDED.mu, 0.2
        a = (1.0 + lam - math.sqrt((1.0 + lam) ** 2 - 2.0 * lam * c)) / lam
        assert abs(a + lam * a - 0.5 * lam * a * a - c) <= 1e-15
        sol = solve_cir(lam, lambda x: c * np.asarray(x) + d, n_grid, 1e-10)
        xs = sol.f.coords()
        assert np.max(np.abs(sol.f.values - (a * xs + d + lam * mu * a))) <= 1e-9
        assert sol.iterations <= 6

    def test_residual_at_production_resolution(self, resolvent):
        assert resolvent.residual <= 1e-6
        assert resolvent.lam == 1.0

    def test_discrete_maximum_principle(self, resolvent):
        assert float(np.max(resolvent.f.values)) <= 2.0 + 1e-9
        xs = resolvent.f.coords()
        assert float(np.min(resolvent.f.values)) >= float(np.min(H_CLIP(xs))) - 1e-9

    def test_small_lambda_recovers_data(self):
        errs = []
        for lam in (1.0, 0.1, 0.01):
            sol = solve_cir(lam, H_CLIP, 400, 1e-8)
            errs.append(float(np.max(np.abs(sol.f.values - H_CLIP(sol.f.coords())))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_data_monotonicity(self):
        sol1 = solve_cir(1.0, H_CLIP, 300, 1e-8)
        h2 = lambda x: H_CLIP(x) + 0.3 * np.exp(-((x - 1.5) ** 2))
        sol2 = solve_cir(1.0, h2, 300, 1e-8)
        assert np.all(sol1.f.values <= sol2.f.values + 1e-9)

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(NumericalError) as err:
            solve_cir(1.0, H_CLIP, 400, 1e-16)
        assert math.isfinite(err.value.residual)

    def test_exports(self, resolvent, tmp_path):
        resolvent.write_csv(tmp_path / "sol.csv")
        resolvent.write_json(tmp_path / "sol.json")
        lines = (tmp_path / "sol.csv").read_text().strip().splitlines()
        assert lines[0] == "x,f,policy"
        assert len(lines) == 801
        meta = json.loads((tmp_path / "sol.json").read_text())
        assert meta["lambda"] == 1.0 and meta["grid"]["n"] == 800

    def test_streamed_csv_matches_csv_writer(self, tmp_path):
        special = [1e-05, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e+308,
                   -1.7976931348623157e+308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0,
                   123456789.0, 1e16, 1e22, -2.5e-7]
        rng = np.random.default_rng(83)
        drawn = rng.normal(0.0, 1.0, 50) * 10.0 ** rng.integers(-30, 30, 50)
        xs = np.array(special + drawn.tolist())
        fs, us = np.roll(xs, 3), -np.roll(xs, 7)
        sol = ResolventSolution(GridFunction(xs[:, None], fs), GridFunction(xs[:, None], us),
                                0.0, 1.0)
        sol.write_csv(tmp_path / "streamed.csv")
        expected = csv_writer_bytes(tmp_path / "reference.csv", xs, fs, us)
        assert (tmp_path / "streamed.csv").read_bytes() == expected

    def test_quadratic_space_solver(self, ou):
        h = make_data_function("gaussian_bump", center=0.0, width=1.0, height=1.0)
        sol = solve_resolvent(ou, 1.0, h, np.linspace(-4.0, 4.0, 400), 1e-8)
        assert sol.residual <= 1e-8
        assert float(np.max(np.abs(sol.f.values))) <= 1.0 + 1e-9


@st.composite
def resolvent_problems(draw, max_nodes=5000):
    """Arguments of solve_resolvent_1d: a uniform grid of 2 to max_nodes
    nodes with CIR drift mu - x and sigma = x, or quadratic drift -grad E
    (zero or quartic perturbation) and sigma = 1; affine-clipped, bump or
    constant data; lambda in [0.2, 5]."""
    n = draw(st.integers(2, max_nodes))
    if draw(st.booleans()):
        lo, hi = draw(st.floats(1e-3, 0.5)), draw(st.floats(2.0, 10.0))
        xs = np.linspace(lo, hi, n)
        drift, sigma = draw(st.floats(0.2, 3.0)) - xs, xs
    else:
        lo = -draw(st.floats(1.0, 6.0))
        hi = -lo
        perturbation = make_potential(draw(st.sampled_from(["zero", "quartic"])))
        space = QuadraticSpace(dimension=1, kappa=draw(st.floats(0.1, 3.0)),
                               perturbation=perturbation)
        xs = np.linspace(lo, hi, n)
        drift, sigma = -space.chart_energy_grad_rows(xs[:, None])[:, 0], np.ones(n)
    kind = draw(st.sampled_from(["affine_clipped", "gaussian_bump", "constant"]))
    if kind == "affine_clipped":
        h = make_data_function(kind, slope=draw(st.floats(-2.0, 2.0)),
                               intercept=draw(st.floats(-1.0, 1.0)),
                               cap=draw(st.floats(0.5, 3.0)))
    elif kind == "gaussian_bump":
        h = make_data_function(kind, center=draw(st.floats(lo, hi)),
                               width=draw(st.floats(0.2, 2.0)),
                               height=draw(st.floats(-1.5, 1.5)))
    else:
        h = make_data_function(kind, value=draw(st.floats(-3.0, 3.0)))
    lam = draw(st.floats(0.2, 5.0))
    tol = draw(st.sampled_from([1e-6, 1e-8, 1e-10]))
    return xs, drift, sigma, lam, np.asarray(h(xs), dtype=float), tol


def outward_slope_problem(half, slope, lam):
    """Quadratic drift -x/10 on [-half, half] and data min(slope x, 3),
    whose solution's slope at one edge points the total drift out of the
    grid there, so only the state constraint keeps the inward branch."""
    xs = np.linspace(-half, half, 200)
    h_vals = make_data_function("affine_clipped", slope=slope, intercept=0.0, cap=3.0)(xs)
    return xs, -0.1 * xs, np.ones(200), lam, h_vals, 1e-8


BLOCK = evikit.hj._BLOCK


def block_edge_problem(kind, n):
    """Arguments of solve_resolvent_1d on n nodes: CIR (BOUNDED's domain, a
    bump at 1.7) or the quartic-perturbed quadratic space on [-3, 3]
    (clipped affine data)."""
    if kind == "cir":
        xs = np.linspace(BOUNDED.x_lo, BOUNDED.x_hi, n)
        h = make_data_function("gaussian_bump", center=1.7, width=1.0, height=1.0)
        return xs, BOUNDED.mu - xs, xs, 1.0, h(xs), 1e-6
    space = QuadraticSpace(dimension=1, kappa=0.5, perturbation=make_potential("quartic"))
    xs = np.linspace(-3.0, 3.0, n)
    drift = -space.chart_energy_grad_rows(xs[:, None])[:, 0]
    return xs, drift, np.ones(n), 2.0, H_CLIP(xs), 1e-8


class TestBufferedResolvent:
    """The solver in block-sized and reused buffers and the chunked writer
    against the fresh-array versions they replace."""

    @given(resolvent_problems())
    @example(outward_slope_problem(1.0, -2.0, 1.0))   # left edge
    @example(outward_slope_problem(2.0, 2.0, 5.0))    # right edge
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_fresh_array_solver(self, problem):
        assert (solve_outcome(solve_resolvent_1d, *problem)
                == solve_outcome(reference_resolvent_1d, *problem))

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("kind", ["cir", "quadratic"])
    def test_bit_equal_across_block_edges(self, kind, n):
        problem = block_edge_problem(kind, n)
        outcome = solve_outcome(solve_resolvent_1d, *problem)
        assert outcome == solve_outcome(reference_resolvent_1d, *problem)
        assert outcome[3] > 1

    @pytest.mark.parametrize("kind", ["cir", "quadratic"])
    def test_stall_across_block_edges_has_reference_residual(self, kind):
        problem = (*block_edge_problem(kind, 2 * BLOCK + 1), 1)   # max_iter 1
        outcome = solve_outcome(solve_resolvent_1d, *problem)
        assert outcome[0] is NumericalError
        assert outcome == solve_outcome(reference_resolvent_1d, *problem)

    @given(resolvent_problems(max_nodes=60), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_in_small_blocks(self, problem, block):
        """Blocks of 1 to 9 nodes put many block edges on small grids."""
        with mock.patch.object(evikit.hj, "_BLOCK", block):
            outcome = solve_outcome(solve_resolvent_1d, *problem)
        assert outcome == solve_outcome(reference_resolvent_1d, *problem)

    def test_two_node_grid_raises_like_reference(self):
        xs = np.array([0.5, 1.5])
        problem = (xs, 1.0 - xs, xs, 1.0, H_CLIP(xs), 1e-6)
        outcome = solve_outcome(solve_resolvent_1d, *problem)
        assert outcome[0] is ValueError
        assert outcome == solve_outcome(reference_resolvent_1d, *problem)

    def test_steep_bump_stalls_with_reference_residual(self):
        xs = np.linspace(BOUNDED.x_lo, BOUNDED.x_hi, 12800)
        h = make_data_function("gaussian_bump", center=2.5, width=0.5, height=1.2)
        problem = (xs, BOUNDED.mu - xs, xs, 1.0, h(xs), 1e-6)
        outcome = solve_outcome(solve_resolvent_1d, *problem)
        assert outcome[0] is NumericalError
        assert outcome == solve_outcome(reference_resolvent_1d, *problem)

    def test_returns_fresh_arrays(self):
        xs = np.linspace(BOUNDED.x_lo, BOUNDED.x_hi, 300)
        h_vals = H_CLIP(xs)
        first = solve_resolvent_1d(xs, BOUNDED.mu - xs, xs, 1.0, h_vals, 1e-8)
        kept = first[0].copy(), first[1].copy()
        solve_resolvent_1d(xs, BOUNDED.mu - xs, xs, 0.5, h_vals + 0.25, 1e-8)
        assert np.array_equal(first[0], kept[0]) and np.array_equal(first[1], kept[1])
        assert not np.shares_memory(first[0], first[1])
        assert np.array_equal(h_vals, H_CLIP(xs))

    @pytest.mark.parametrize("rows", [1, evikit.hj._CSV_CHUNK - 1, evikit.hj._CSV_CHUNK,
                                      evikit.hj._CSV_CHUNK + 1])
    def test_chunked_csv_matches_csv_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        xs, fs, us = rng.normal(0.0, 1.0, (3, rows)) * 10.0 ** rng.integers(-30, 30, (3, rows))
        sol = ResolventSolution(GridFunction(xs[:, None], fs), GridFunction(xs[:, None], us),
                                0.0, 1.0)
        sol.write_csv(tmp_path / "chunked.csv")
        expected = csv_writer_bytes(tmp_path / "reference.csv", xs, fs, us)
        assert (tmp_path / "chunked.csv").read_bytes() == expected

    def test_solve_and_write_memory(self, tmp_path):
        """The 51 200-node solve stays within 10 grid-sized float arrays,
        inputs and result included, and writing its CSV within 1 MB."""
        n = 51200
        h = make_data_function("gaussian_bump", center=1.7, width=1.0, height=1.0)
        solve_cir(1.0, h, 50, 1e-6)  # loads the LAPACK extension
        sol, solve_peak = traced_peak(solve_cir, 1.0, h, n, 1e-6)
        _, write_peak = traced_peak(sol.write_csv, tmp_path / "resolvent.csv")
        assert solve_peak <= 10 * 8 * n
        assert write_peak < 1e6

    def test_large_solve_holds_the_band_and_little_more(self):
        """At 204 800 nodes the block-sized buffers are small beside the
        grid-sized arrays: the three band rows, the iterate, the policy and
        the caller's grid, drift and data, eight in all, and the solve
        stays within 8.5 of them."""
        n = 204800
        h = make_data_function("gaussian_bump", center=1.7, width=1.0, height=1.0)
        solve_cir(1.0, h, 50, 1e-6)  # loads the LAPACK extension
        _, solve_peak = traced_peak(solve_cir, 1.0, h, n, 1e-6)
        assert solve_peak <= 8.5 * 8 * n


def traced_peak(fn, *args):
    """fn(*args) and the peak of tracemalloc's traced memory during the call."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_manufactured_solution_first_order():
    """Manufactured oracle on CIR (mu = lambda = 1): for
    F = exp(-(x - 2)^2 / 0.5) / 2 the data h = F - lambda [(mu - x) F' +
    x F'^2 / 2] has the resolvent f = F.  The upwind scheme is first
    order, so the sup error falls like dx."""
    lam, mu = 1.0, BOUNDED.mu

    def exact(x):
        return 0.5 * np.exp(-((x - 2.0) ** 2) / 0.5)

    def h(x):
        x = np.asarray(x, dtype=float)
        d_exact = -4.0 * (x - 2.0) * exact(x)
        return exact(x) - lam * ((mu - x) * d_exact + 0.5 * x * d_exact**2)

    errors, steps = [], []
    for n in (800, 3200, 12800, 51200):
        sol = solve_cir(lam, h, n, 1e-9)
        xs = sol.f.coords()
        errors.append(float(np.max(np.abs(sol.f.values - exact(xs)))))
        steps.append(float(xs[1] - xs[0]))
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(steps[i] / steps[i + 1])
              for i in range(len(errors) - 1)]
    assert all(0.95 <= p <= 1.05 for p in orders), (errors, orders)
    assert errors[-1] <= 1e-4


def upwind_band(rng, n, scale):
    """The band and right-hand side of a drawn upwind system as
    solve_resolvent_1d assembles it: coefficients co of random sign and
    size up to scale, 1 + |co| on the diagonal, -co ahead of a forward
    node and co behind a backward one.  A large coefficient next to a
    small one makes gtsv pivot on a 2x2 block."""
    co = rng.choice([-1.0, 1.0], n) * scale ** rng.uniform(-1.0, 1.0, n)
    co[0], co[-1] = abs(co[0]), -abs(co[-1])
    band = np.zeros((3, n))
    sup, dia, sub = band
    dia[:] = 1.0 + np.abs(co)
    sup[1:] = np.where(co[:-1] > 0, -co[:-1], 0.0)
    sub[:-1] = np.where(co[1:] < 0, co[1:], 0.0)
    return band, rng.normal(0.0, 1.0, n) * scale


def tridiagonal_outcome(solver, band, f):
    """The solution's bytes, or the type and message of the error raised."""
    try:
        return solver(band.copy(), f.copy()).tobytes()
    except ValueError as err:
        return type(err), str(err)


def banded_reference(band, f):
    from scipy.linalg import solve_banded

    return solve_banded((1, 1), band, f, overwrite_ab=True, overwrite_b=True)


class TestTridiagonalSolve:
    """The direct dgtsv call against scipy.linalg.solve_banded, whose
    (1, 1) branch it reproduces."""

    solve = staticmethod(evikit.hj._solve_tridiagonal)

    def test_bit_equal_on_drawn_upwind_systems(self):
        rng = np.random.default_rng(19)
        pivots = 0
        for _ in range(300):
            n = int(rng.integers(3, 3001))
            band, f = upwind_band(rng, n, 10.0 ** rng.uniform(0.0, 5.0))
            sup, dia, sub = band
            pivots += int(np.any(np.abs(sub[:-1]) > dia[:-1]))
            expected = banded_reference(band.copy(), f.copy()).tobytes()
            assert tridiagonal_outcome(self.solve, band, f) == expected
        assert pivots > 100

    def test_three_nodes(self):
        band = np.array([[0.0, -2.0, -1e5], [3.0, 1e5 + 1.0, 2.0], [-4.0, -0.5, 0.0]])
        f = np.array([1.0, -2.0, 3.0])
        assert (tridiagonal_outcome(self.solve, band, f)
                == banded_reference(band.copy(), f.copy()).tobytes())

    @pytest.mark.parametrize("case", ["zero_row", "zero_band"])
    def test_singular_band_raises_like_reference(self, case):
        band, f = upwind_band(np.random.default_rng(3), 50, 10.0)
        if case == "zero_row":
            band[:, 20] = 0.0
            band[0, 21] = band[2, 19] = 0.0
        else:
            band[:] = 0.0
        outcome = tridiagonal_outcome(self.solve, band, f)
        assert outcome == (np.linalg.LinAlgError, "singular matrix")
        assert outcome == tridiagonal_outcome(banded_reference, band, f)

    @pytest.mark.parametrize("row,col", [(0, 0), (0, 7), (1, 3), (2, 11), (2, 15), (3, 5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_not_finite_raises_like_reference(self, row, col, bad):
        """A non-finite entry of any band row, its unused corners included
        (row 3 is the right-hand side), is a ValueError before the call."""
        band, f = upwind_band(np.random.default_rng(4), 16, 10.0)
        (band[row] if row < 3 else f)[col] = bad
        outcome = tridiagonal_outcome(self.solve, band, f)
        assert outcome == (ValueError, "array must not contain infs or NaNs")
        assert outcome == tridiagonal_outcome(banded_reference, band, f)


def run_child(code: str) -> list[str]:
    """Run code in a fresh interpreter with evikit on its path; its
    standard output lines."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=root)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


SOLVE_IN_CHILD = (
    "import numpy as np\n"
    "from evikit.hj import make_data_function, solve_resolvent\n"
    "from evikit.spaces import CirSpace\n"
    "def solve():\n"
    "    return solve_resolvent(CirSpace(mu=1.0, x_lo=1e-3, x_hi=8.0), 1.0,\n"
    "        make_data_function('gaussian_bump', center=1.7, width=1.0, height=1.0),\n"
    "        np.linspace(1e-3, 8.0, 200), 1e-6).f.values.tobytes()\n"
)


def test_cli_import_loads_no_scipy():
    assert run_child(
        "import sys\n"
        "import evikit.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    ) == ["[]"]


def test_solve_loads_lapack_without_scipy_linalg():
    """A solve loads scipy's LAPACK extension but not scipy.linalg; a later
    `import scipy.linalg` shares the module, so its dgtsv is the function
    the solve called, and the solve's bits do not change."""
    assert run_child(
        "import sys\n" + SOLVE_IN_CHILD +
        "before = solve()\n"
        "print('scipy.linalg' in sys.modules)\n"
        "called = sys.modules['scipy.linalg._flapack'].dgtsv\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack.dgtsv is called)\n"
        "print(solve() == before)\n"
    ) == ["False", "True", "True"]


def test_solve_after_scipy_linalg_uses_its_lapack():
    """With scipy.linalg imported first, the solve calls its dgtsv and
    loads no second copy of the extension."""
    assert run_child(
        "import sys\n"
        "import scipy.linalg\n"
        "module = sys.modules['scipy.linalg._flapack']\n" + SOLVE_IN_CHILD +
        "solve()\n"
        "print(sys.modules['scipy.linalg._flapack'] is module)\n"
        "print(scipy.linalg.lapack.dgtsv is module.dgtsv)\n"
    ) == ["True", "True"]


def test_missing_lapack_extension_names_the_searched_path(tmp_path):
    (tmp_path / "linalg").mkdir()
    lines = run_child(
        "import scipy\n"
        f"scipy.__path__ = [{str(tmp_path)!r}]\n" + SOLVE_IN_CHILD +
        "try:\n"
        "    solve()\n"
        "except ImportError as err:\n"
        "    print(err)\n"
    )
    assert lines == [f"scipy's LAPACK extension scipy.linalg._flapack is not in "
                     f"{tmp_path / 'linalg'}"]


# ---------------------------------------------------------------------------
# Viscosity verification
# ---------------------------------------------------------------------------

class TestViscosity:
    def test_zero_solution_zero_data_passes(self, ou):
        zero = GridFunction(np.linspace(-2, 2, 81)[:, None], np.zeros(81))
        anchor = StatePoint.of(0.0)  # the energy minimizer
        tfs = [ViscosityTestFunction(ou, 1.0, 0.1, 0.0, anchor, anchor)]
        rep = verify_subsolution(zero, tfs, 1.0, zero, 1e-9)
        assert rep.passed
        rep2 = verify_supersolution(zero, tfs, 1.0, zero, 1e-9)
        assert rep2.passed

    def test_resolvent_passes_both_sweeps(self, cir, resolvent):
        xs = resolvent.f.coords()
        tol = 10.0 * (xs[1] - xs[0])
        h_grid = GridFunction(resolvent.f.nodes, H_CLIP(xs))
        tfs = sweep(cir, resolvent.f)
        assert len(tfs) >= 50
        rep_sub = verify_subsolution(resolvent.f, tfs, 1.0, h_grid, tol)
        rep_sup = verify_supersolution(resolvent.f, tfs, 1.0, h_grid, tol)
        assert rep_sub.passed, rep_sub.worst
        assert rep_sup.passed, rep_sup.worst

    def test_shifted_solution_fails(self, cir, resolvent):
        xs = resolvent.f.coords()
        tol = 10.0 * (xs[1] - xs[0])
        h_grid = GridFunction(resolvent.f.nodes, H_CLIP(xs))
        bad_up = GridFunction(resolvent.f.nodes, resolvent.f.values + 5.0)
        tfs = sweep(cir, resolvent.f, a_values=(1.0,), b_values=(1e-2,))
        assert not verify_subsolution(bad_up, tfs, 1.0, h_grid, tol).passed
        bad_low = GridFunction(resolvent.f.nodes, resolvent.f.values - 5.0)
        assert not verify_supersolution(bad_low, tfs, 1.0, h_grid, tol).passed

    @staticmethod
    def assert_records_match_pointwise(grid, tfs, rep, h_grid, kind):
        """Each record of a lambda = 1 sweep against eval_upper / eval_lower
        of its test function at every node."""
        evaluate, pick = (eval_upper, np.argmax) if kind == "upper" else (eval_lower, np.argmin)
        points = [grid.point(i) for i in range(len(grid.nodes))]
        for tf, rec in zip(tfs, rep.records, strict=True):
            f_g = np.array([evaluate(tf, p) for p in points])
            i_star = int(pick(grid.values - f_g[:, 0]))
            assert rec.argopt_index == i_star
            expected = grid.values[i_star] - f_g[i_star, 1] - h_grid.values[i_star]
            assert rec.inequality_value == pytest.approx(expected, abs=1e-12)

    def test_sweeps_match_pointwise_test_functions(self, cir):
        # the grid sweeps against eval_upper / eval_lower at every node
        sol = solve_cir(1.0, H_CLIP, 60, 1e-6)
        h_grid = GridFunction(sol.f.nodes, H_CLIP(sol.f.coords()))
        for kind, verify in (("upper", verify_subsolution), ("lower", verify_supersolution)):
            tfs = sweep(cir, sol.f, a_values=(1.0,), b_values=(1e-2, 1e-1), n_anchors=2)
            rep = verify(sol.f, tfs, 1.0, h_grid, 1.0)
            self.assert_records_match_pointwise(sol.f, tfs, rep, h_grid, kind)

    def test_one_tataru_batch_per_anchor(self, cir, monkeypatch):
        sol = solve_cir(1.0, H_CLIP, 60, 1e-6)
        h_grid = GridFunction(sol.f.nodes, H_CLIP(sol.f.coords()))
        calls = []

        def counting(*args):
            calls.append(args[2])
            return tataru_batch(*args)

        monkeypatch.setattr(evikit.hj, "tataru_batch", counting)
        tfs = sweep(cir, sol.f)
        assert len(tfs) == 60
        for verify in (verify_subsolution, verify_supersolution):
            calls.clear()
            verify(sol.f, tfs, 1.0, h_grid, 1.0)
            assert len(calls) == 5 and len(set(calls)) == 5

    def test_shared_anchor_keeps_flow_dt_and_space_apart(self):
        # one anchor, three test functions: two flow_dt on a space without a
        # closed-form flow, where d_T depends on flow_dt, and one on a second
        # space.  A d_T reused across flow_dt or spaces moves the argmax of
        # -x - f+ (and of x - f-) by two nodes.
        quartic = QuadraticSpace(perturbation=make_potential("quartic", coeff=0.5))
        xs = np.linspace(-2.0, 2.0, 31)
        zero = GridFunction(xs[:, None], np.zeros(31))
        anchor = StatePoint.of(1.5)
        tfs = [ViscosityTestFunction(space, 1.0, 1.0, 0.0, anchor, anchor, flow_dt)
               for space, flow_dt in ((quartic, 0.1), (quartic, 0.5), (QuadraticSpace(), 0.1))]
        for kind, verify, values in (("upper", verify_subsolution, -xs),
                                     ("lower", verify_supersolution, xs)):
            grid = GridFunction(zero.nodes, values)
            rep = verify(grid, tfs, 1.0, zero, 1.0)
            assert [r.argopt_index for r in rep.records] == [23, 25, 25]
            self.assert_records_match_pointwise(grid, tfs, rep, zero, kind)

    def test_report_json(self, cir, resolvent, tmp_path):
        xs = resolvent.f.coords()
        h_grid = GridFunction(resolvent.f.nodes, H_CLIP(xs))
        tfs = sweep(cir, resolvent.f, a_values=(1.0,), b_values=(1e-2,))
        rep = verify_subsolution(resolvent.f, tfs, 1.0, h_grid, 0.1)
        payload = rep.to_json()
        assert payload["kind"] == "subsolution"
        assert len(payload["records"]) == len(tfs)


# ---------------------------------------------------------------------------
# Rollout values
# ---------------------------------------------------------------------------

def interp_value_program(xs, reward, x_next, beta, steps):
    """The rollout's dynamic program with one np.interp call a step."""
    V = np.zeros_like(xs)
    for _ in range(steps):
        V = np.max(reward + beta * np.interp(x_next, xs, V), axis=0)
    return V


def state_grid(space):
    """A 400-node rollout state grid over the space's clipping bounds."""
    if isinstance(space, CirSpace):
        return np.linspace(space.x_lo, space.x_hi, 400)
    return np.linspace(-8.0, 8.0, 400)


class TestRollout:
    def test_zero_data_zero_value(self, cir):
        val, = value_by_rollout(cir, 1.0, make_data_function("constant", value=0.0),
                                [2.0], np.linspace(-2, 2, 11), 1e-2, 5.0, state_grid(cir))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_nonpositive_data_on_quadratic_space(self, ou):
        h = lambda x: -np.asarray(x, dtype=float) ** 2
        us = np.linspace(-2, 2, 21)
        # true value at the origin is 0 (u = 0); the rollout sits just below
        at_zero, at_one = value_by_rollout(ou, 1.0, h, [0.0, 1.0], us, 1e-2, 8.0,
                                           state_grid(ou))
        assert -1e-2 <= at_zero <= 1e-12
        assert at_one <= 0.0

    def test_rollout_within_band_of_resolvent(self, cir, resolvent):
        xs = resolvent.f.coords()
        dx = xs[1] - xs[0]
        dt = 5e-3
        us = np.linspace(-3.0, 3.0, 21)
        indices = [150, 450, 650]
        vals = value_by_rollout(cir, 1.0, H_CLIP, resolvent.f.nodes[indices],
                                us, dt, 10.0, state_grid=xs)
        for idx, val in zip(indices, vals):
            f_i = float(resolvent.f.values[idx])
            assert f_i - 10 * dt - 5 * dx <= val <= f_i


    def test_batched_rollout_bit_equal_to_per_start_loop(self, ou, cir, resolvent):
        xs = resolvent.f.coords()
        # controls whose Python float square is an ulp off u*u, where the
        # platform's pow has them, so the squares' rounding shows in the bits
        drawn = np.random.default_rng(89).uniform(-2.5, 2.5, 20000).tolist()
        odd = sorted(u for u in drawn if u**2 != u * u)[:9]
        controls = [np.linspace(-3.0, 3.0, 21), np.array(sorted(odd + [-2.5, 0.0, 2.5]))]
        # CIR on the resolvent grid, edge nodes included; OU on its own grid,
        # with starts at and beyond the clipping bounds; then OU and CIR on
        # grids narrower than the clipping bounds, so next states fall below
        # the first node and past the last one
        cases = [(cir, H_CLIP, xs[[0, 1, 150, 400, 798, 799]], 5e-3, 1.0, xs),
                 (ou, lambda x: -np.asarray(x, dtype=float) ** 2,
                  np.array([-8.0, -1.3, 0.0, 0.7, 8.0, 9.5]), 1e-2, 3.0, state_grid(ou)),
                 (ou, make_data_function("gaussian_bump", center=0.5, width=1.0, height=1.0),
                  np.array([-6.0, -2.0, -0.3, 1.9, 2.0, 5.0]), 5e-2, 2.0,
                  np.linspace(-2.0, 2.0, 101)),
                 (cir, H_CLIP, np.array([BOUNDED.x_lo, 0.5, 1.3, 4.0, 6.0]), 5e-2, 2.0,
                  np.linspace(0.5, 4.0, 200))]
        for space, h, starts, dt, T, grid in cases:
            for us in controls:
                batch = value_by_rollout(space, 1.0, h, starts[:, None], us, dt, T,
                                         state_grid=grid)
                ref = [scalar_rollout(space, 1.0, h, x, us, dt, T, state_grid=grid)
                       for x in starts]
                assert batch.tolist() == ref

    @pytest.mark.parametrize("on_nodes", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_value_program_bit_equal_to_interp_loop(self, seed, on_nodes):
        # an increasing, unevenly spaced grid of 2 to 60 nodes; next states
        # on nodes, on both ends, between nodes, below the grid and past it,
        # or only on nodes, where slope * offset + V[j] can be an ulp off
        rng = np.random.default_rng(seed)
        n = 2 if seed == 0 else int(rng.integers(3, 60))
        xs = np.cumsum(rng.uniform(0.1, 1.0, n)) - 3.0
        k = 7
        x_next = rng.uniform(xs[0], xs[-1], (k, n))
        where = np.zeros((k, n)) if on_nodes else rng.integers(0, 5, (k, n))
        x_next[where == 0] = rng.choice(xs, int(np.sum(where == 0)))
        x_next[where == 1] = xs[0] - rng.uniform(0.0, 2.0, int(np.sum(where == 1)))
        x_next[where == 2] = xs[-1] + rng.uniform(0.0, 2.0, int(np.sum(where == 2)))
        x_next[0, :2] = xs[0], xs[-1]
        reward = rng.normal(0.0, 1.0, (k, n))
        # an ulp's difference can wash out over many steps, so each count
        for steps in (1, 2, 3, 5, 40):
            V = evikit.hj._value_program(xs, reward, x_next, 0.9, steps)
            assert V.tobytes() == interp_value_program(xs, reward, x_next, 0.9, steps).tobytes()

    def test_next_states_on_nodes_bit_equal_to_scalar_rollout(self):
        # kappa 0 leaves the drift at zero, so on a unit-spaced grid with
        # dt * u integral every next state is a node or clipped to an end
        flat = QuadraticSpace(dimension=1, kappa=0.0)
        grid = np.linspace(-8.0, 8.0, 17)
        us = np.array([-8.0, -4.0, 0.0, 4.0, 8.0])
        h = make_data_function("gaussian_bump", center=1.0, width=2.0, height=1.0)
        starts = np.array([-8.0, -3.0, 0.0, 2.5, 7.0, 8.0])
        batch = value_by_rollout(flat, 1.0, h, starts, us, 0.25, 2.0, grid)
        ref = [scalar_rollout(flat, 1.0, h, x, us, 0.25, 2.0, state_grid=grid)
               for x in starts]
        assert batch.tolist() == ref

    def test_one_node_state_grid_rejected(self, ou):
        with pytest.raises(UsageError):
            value_by_rollout(ou, 1.0, H_CLIP, [0.0], np.zeros(1), 0.1, 1.0, np.zeros(1))

    @pytest.mark.parametrize("dt,T", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -1.0),
                                      (math.nan, 1.0), (0.1, math.nan)])
    def test_time_step_and_horizon_must_be_positive(self, ou, dt, T):
        with pytest.raises(UsageError, match="positive time step dt and horizon T"):
            value_by_rollout(ou, 1.0, H_CLIP, [0.0], np.zeros(1), dt, T,
                             np.linspace(-1.0, 1.0, 5))

    @pytest.mark.parametrize("lam,us", [(0.0, np.zeros(1)), (-1.0, np.zeros(1)),
                                        (math.nan, np.zeros(1)), (1.0, np.zeros(0)),
                                        (math.inf, np.zeros(1))])
    def test_lambda_and_control_grid_checked(self, ou, lam, us):
        # at lambda 0 the discount divides by zero; at lambda -1 a value
        # came back; at lambda inf the discount was inf * 0, a NaN value;
        # an empty control grid reached numpy's max
        with pytest.raises(UsageError, match="lambda must be positive|at least 1 control"):
            value_by_rollout(ou, lam, H_CLIP, [0.5], us, 0.1, 1.0, np.linspace(-1.0, 1.0, 5))

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_resolvent_lambda_checked_first(self, ou, lam):
        # lambda nan or inf was refused as data "too steep for the resolvent grid"
        with pytest.raises(UsageError, match="lambda must be positive and finite"):
            solve_resolvent(ou, lam, H_CLIP, np.linspace(-1.0, 1.0, 5), 1e-8)

    def test_single_start_is_one_row(self, cir):
        us = np.linspace(-2, 2, 11)
        h = make_data_function("gaussian_bump", center=1.0, width=0.5, height=1.0)
        many = value_by_rollout(cir, 1.0, h, [[0.5], [2.0], [4.0]], us, 1e-2, 2.0,
                                state_grid(cir))
        one = value_by_rollout(cir, 1.0, h, [[2.0]], us, 1e-2, 2.0, state_grid(cir))
        assert many.shape == (3,) and one.shape == (1,)
        assert one[0] == many[1]


# ---------------------------------------------------------------------------
# Comparison principle
# ---------------------------------------------------------------------------

class TestComparison:
    def test_trivial_identity(self, ou):
        z = GridFunction(np.linspace(-1, 1, 11)[:, None], np.zeros(11))
        res = check_comparison(z, z, z, z)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.passed

    def test_same_data_same_solution(self, resolvent):
        xs = resolvent.f.coords()
        tol = 10.0 * (xs[1] - xs[0])
        h_grid = GridFunction(resolvent.f.nodes, H_CLIP(xs))
        res = check_comparison(resolvent.f, resolvent.f, h_grid, h_grid, tol)
        assert res.passed and abs(res.lhs) <= tol

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.5])
    def test_shifted_data_bound(self, resolvent, delta):
        xs = resolvent.f.coords()
        tol = 10.0 * (xs[1] - xs[0])
        sol2 = solve_cir(1.0, lambda x: H_CLIP(x) - delta, 800, 1e-6)
        res = check_comparison(
            resolvent.f, sol2.f,
            GridFunction(resolvent.f.nodes, H_CLIP(xs)),
            GridFunction(resolvent.f.nodes, H_CLIP(xs) - delta), tol)
        assert res.passed
        assert res.lhs <= delta + tol

    def test_grid_mismatch_rejected(self, ou):
        g1 = GridFunction(np.linspace(-1, 1, 5)[:, None], np.zeros(5))
        g2 = GridFunction(np.linspace(-1, 1, 7)[:, None], np.zeros(7))
        with pytest.raises(UsageError):
            check_comparison(g1, g2, g1, g1)


# ---------------------------------------------------------------------------
# Hamiltonian sandwich
# ---------------------------------------------------------------------------

class TestSandwich:
    A_VALUES = (0.5, 1.0, 2.0, 4.0)

    def test_coincident_point_trivial(self, ou):
        b0 = 1e-6
        worst = hamiltonian_sandwich_check(ou, (1.0,), [[1.0]], [[1.0]], b0)
        # H_exact = 0 <= g+ = b0 + b0^2/2
        assert worst <= -b0 / 2

    def test_ou_sweep(self, ou):
        anchors = np.array([[-1.0], [0.0], [1.0]])
        samples = np.linspace(-2.0, 3.0, 11)[:, None]
        assert hamiltonian_sandwich_check(ou, self.A_VALUES, anchors, samples) <= 1e-5

    def test_cir_sweep(self, cir):
        anchors = np.array([[0.5], [1.0], [2.0]])
        samples = np.linspace(0.2, 5.0, 11)[:, None]
        assert hamiltonian_sandwich_check(cir, self.A_VALUES, anchors, samples) <= 1e-4

    def test_wrong_modulus_violates_bound(self):
        """With the modulus forced to 1 the upper bound fails on the
        half-line: the sandwich check is sharp enough to detect it."""
        cir = CirSpace(mu=1.0)
        cir.kappa = 1.0
        assert hamiltonian_sandwich_check(cir, (1.0,), [[0.25]], [[4.0]]) > 0.5


def test_grid_function_validation():
    nodes = np.array([[0.0], [1.0]])
    with pytest.raises(UsageError):
        GridFunction(nodes, np.zeros(3))
    with pytest.raises(UsageError):
        GridFunction(nodes, np.array([0.0, np.nan]))
    with pytest.raises(UsageError):
        GridFunction(np.array([0.0, 1.0]), np.zeros(2))


def test_grid_function_points_on_demand():
    grid = GridFunction(np.array([[0.25, -1.0], [3.0, 2.5]]), np.zeros(2))
    assert grid.point(1) == StatePoint.of([3.0, 2.5])
    assert grid.coords().tolist() == [0.25, 3.0]
