"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion including the measured quantity and wall time.
"""

import math
import time

import numpy as np
import pytest

from evikit.core import StatePoint
from evikit.ekeland import (
    EkelandProblem,
    ekeland_optimize,
    quadruplicate,
    jensen_distance_check,
    product_penalty,
    tataru_matrix,
    verify_ekeland_result,
)
from evikit.flow import flow_exact, flow_mms, verify_contraction, \
    verify_energy_identity, verify_evi
from evikit.hj import (
    GridFunction,
    ViscosityTestFunction,
    check_comparison,
    hamiltonian_sandwich_check,
    make_data_function,
    solve_resolvent,
    value_by_rollout,
    verify_subsolution,
    verify_supersolution,
)
from evikit.potentials import Potential, make_potential
from evikit.spaces import (
    CirSpace,
    QuadraticSpace,
    Wasserstein1DSpace,
    mccann_check,
)
from evikit.tataru import (
    tataru_distance,
    verify_tataru_flow_lipschitz,
    verify_tataru_lipschitz,
    verify_tataru_triangle,
)

H_CLIP = make_data_function("affine_clipped", slope=1.0, intercept=0.0, cap=2.0)


def solve_cir(lam, h):
    """The resolvent on the 800-node grid spanning CIR's domain [1e-3, 8]."""
    space = CirSpace(mu=1.0, x_lo=1e-3, x_hi=8.0)
    return solve_resolvent(space, lam, h, np.linspace(space.x_lo, space.x_hi, 800), 1e-6)


def report(criterion, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.1f}s < {budget}s)")
    assert passed, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded budget {budget}s"


@pytest.fixture(scope="module")
def ou():
    return QuadraticSpace()


@pytest.fixture(scope="module")
def cir():
    return CirSpace(mu=1.0, x_lo=1e-3, x_hi=8.0)


@pytest.fixture(scope="module")
def heat400():
    return Wasserstein1DSpace(m=400, internal=make_potential("entropy"))


@pytest.fixture(scope="module")
def cir_resolvent():
    return solve_cir(1.0, H_CLIP)


def test_criterion_01_evi_ou(ou):
    t0 = time.perf_counter()
    dt = 1e-3
    traj = flow_exact(ou, StatePoint.of(1.0), 2.0, dt)
    probes = [StatePoint.of(v) for v in np.linspace(-2.0, 3.0, 20)]
    rep = verify_evi(ou, traj, probes)
    elapsed = time.perf_counter() - t0
    report(1, rep.max_violation <= 1e-2,
           f"EVI (OU, 20 probes): max_violation={rep.max_violation:.2e} <= 1e-2",
           elapsed, 5.0)


def test_criterion_02_contraction(ou, heat400):
    t0 = time.perf_counter()
    viol_ou = verify_contraction(ou, StatePoint.of(1.0), StatePoint.of(-2.0),
                                 2.0, 1e-3)
    q1 = heat400.gaussian_state(0.0, 1.0)
    q2 = heat400.gaussian_state(0.0, 2.0)
    viol_w = verify_contraction(heat400, q1, q2, 2.0, 1e-2)
    elapsed = time.perf_counter() - t0
    report(2, abs(viol_ou) <= 1e-9 and viol_w <= 1e-3,
           f"contraction: OU violation={viol_ou:.1e} <= 1e-9, "
           f"heat-flow violation={viol_w:.1e} <= 1e-3", elapsed, 10.0)


def test_criterion_03_energy_identity(ou, heat400):
    t0 = time.perf_counter()
    resid_ou = verify_energy_identity(ou, flow_exact(ou, StatePoint.of(2.0),
                                                     1.0, 1e-3))
    traj = flow_exact(heat400, heat400.gaussian_state(0.0, 1.0), 1.0, 1e-2)
    resid_w = verify_energy_identity(heat400, traj)
    # cross-check the closed forms: drop = 1/2 log(1 + 2T / sigma0^2) = int I
    drop = float(heat400.energy(traj.start)) - float(heat400.energy(traj.end))
    elapsed = time.perf_counter() - t0
    report(3, resid_ou <= 1e-2 and resid_w <= 1e-2
           and abs(drop - 0.5 * math.log(3.0)) <= 1e-2,
           f"energy identity: OU residual={resid_ou:.2e}, heat residual="
           f"{resid_w:.2e}, drop err={abs(drop - 0.5 * math.log(3.0)):.2e}",
           elapsed, 10.0)


def test_criterion_04_tataru(ou, cir):
    t0 = time.perf_counter()
    res = tataru_distance(ou, StatePoint.of(0.0), StatePoint.of(math.e), 5e-3)
    oracle_ok = abs(res.value - 2.0) <= 1e-3 and abs(res.t_star - 1.0) <= 1e-2
    rng = np.random.default_rng(101)
    worst = -math.inf
    for space in (ou, cir):
        # the numbers of 1000 samples of k sample_point draws each
        quads = space.sample_rows(rng, 4000).reshape(1000, 4, 1)
        worst = max(worst, verify_tataru_lipschitz(space, quads, 5e-3))
        pairs = space.sample_rows(rng, 2000).reshape(1000, 2, 1)
        worst = max(worst, verify_tataru_flow_lipschitz(space, pairs,
                                                        (1e-2, 1e-3), 5e-3))
        triples = space.sample_rows(rng, 3000).reshape(1000, 3, 1)
        worst = max(worst, verify_tataru_triangle(space, triples, 5e-3))
    elapsed = time.perf_counter() - t0
    report(4, oracle_ok and worst <= 1e-4,
           f"tataru: value={res.value:.4f} t*={res.t_star:.4f}, "
           f"suite violation={worst:.2e} <= 1e-4", elapsed, 60.0)


def test_criterion_05_mms_convergence(ou):
    t0 = time.perf_counter()
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = flow_mms(ou, StatePoint.of(1.0), 1.0, dt)
        errs.append(abs(traj.end.coords[0] - math.exp(-1.0)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ratios_ok = all(1.7 <= r <= 2.3 for r in ratios)
    w200 = Wasserstein1DSpace(m=200, internal=make_potential("entropy"))
    traj = flow_mms(w200, w200.gaussian_state(0.0, 1.0), 0.5, 1e-3)
    w2_err = w200.distance(traj.end, w200.gaussian_state(0.0, math.sqrt(2.0)))
    elapsed = time.perf_counter() - t0
    report(5, ratios_ok and w2_err <= 5e-3,
           f"MMS: OU ratios={['%.2f' % r for r in ratios]}, "
           f"JKO endpoint W2 error={w2_err:.2e} <= 5e-3", elapsed, 120.0)


def test_criterion_06_resolvent_viscosity(cir, cir_resolvent):
    t0 = time.perf_counter()
    sol = cir_resolvent
    xs = sol.f.coords()
    dx = xs[1] - xs[0]
    tol = 10.0 * dx
    h_grid = GridFunction(sol.f.nodes, H_CLIP(xs))
    idx = np.linspace(40, 760, 5).astype(int)
    tfs = [ViscosityTestFunction(cir, a, b, 0.0, sol.f.point(i), sol.f.point(i))
           for a in (0.5, 1.0, 2.0, 4.0) for b in (1e-3, 1e-2, 1e-1) for i in idx]
    rep_sub = verify_subsolution(sol.f, tfs, 1.0, h_grid, tol)
    rep_sup = verify_supersolution(sol.f, tfs, 1.0, h_grid, tol)
    dt = 5e-3
    us = np.linspace(-3.0, 3.0, 21)
    band_ok = True
    indices = [100, 250, 400, 550, 700]
    vals = value_by_rollout(cir, 1.0, H_CLIP, sol.f.nodes[indices], us, dt, 10.0,
                            state_grid=xs)
    for i, val in zip(indices, vals):
        f_i = float(sol.f.values[i])
        band_ok &= f_i - 10 * dt - 5 * dx <= val <= f_i
    elapsed = time.perf_counter() - t0
    report(6, sol.residual <= 1e-6 and rep_sub.passed and rep_sup.passed
           and band_ok,
           f"resolvent residual={sol.residual:.2e} <= 1e-6; sweeps "
           f"({len(tfs)}+{len(tfs)} tfs) pass at tol={tol:.3f}; rollout in band",
           elapsed, 300.0)


def test_criterion_07_comparison(cir_resolvent):
    t0 = time.perf_counter()
    base = cir_resolvent
    xs = base.f.coords()
    tol = 10.0 * (xs[1] - xs[0])
    h_grid = GridFunction(base.f.nodes, H_CLIP(xs))
    same = check_comparison(base.f, base.f, h_grid, h_grid, tol)
    ok = abs(same.lhs) <= tol
    details = [f"identical |lhs|={abs(same.lhs):.1e}"]
    for delta in (0.05, 0.1, 0.5):
        shifted = solve_cir(1.0, lambda x: H_CLIP(x) - delta)
        res = check_comparison(base.f, shifted.f, h_grid,
                               GridFunction(base.f.nodes, H_CLIP(xs) - delta), tol)
        ok &= res.lhs <= delta + tol
        details.append(f"lhs({delta})={res.lhs:.4f}")
    elapsed = time.perf_counter() - t0
    report(7, ok, "comparison: " + ", ".join(details), elapsed, 600.0)


def test_criterion_08_hamiltonian_sandwich(ou, cir):
    t0 = time.perf_counter()
    a_values = (0.5, 1.0, 2.0, 4.0)
    v_ou = hamiltonian_sandwich_check(ou, a_values, np.array([[-1.0], [0.0], [1.0]]),
                                      np.linspace(-2.0, 3.0, 21)[:, None])
    v_cir = hamiltonian_sandwich_check(cir, a_values, np.array([[0.5], [1.0], [2.0]]),
                                       np.linspace(0.2, 5.0, 21)[:, None])
    elapsed = time.perf_counter() - t0
    report(8, v_ou <= 1e-4 and v_cir <= 1e-4,
           f"sandwich: OU violation={v_ou:.1e}, CIR violation={v_cir:.1e} <= 1e-4",
           elapsed, 30.0)


def _shipped_ekeland_problems(ou):
    """Three finite-set instances: the desk parabola, a 1e5-point rugged
    objective, and a Tataru-penalized product-grid problem."""
    problems = []
    xs = np.arange(101) / 10.0
    problems.append(("parabola", EkelandProblem(
        -(xs - 3.14) ** 2, lambda j: np.abs(xs - xs[j]), 0.1, 0), 31))
    ys = np.linspace(-5.0, 5.0, 100_000)
    g = np.sin(3.0 * ys) - 0.1 * ys**2
    problems.append(("rugged_1e5", EkelandProblem(g, lambda j: np.abs(ys - ys[j]), 0.05, 0),
                     int(np.argmax(g))))
    base = [StatePoint.of(v) for v in np.linspace(-1.5, 1.5, 7)]
    dt_m = tataru_matrix(ou, base, 1e-2)
    n = len(base)
    eps = 0.1
    rng = np.random.default_rng(55)
    g4 = rng.normal(0.0, 1.0, n**4)
    pen = product_penalty(dt_m, (1.0 / (1.0 - eps), 1.0, 1.0 / (1.0 + eps), 1.0))
    problems.append(("tataru_product", EkelandProblem(g4, pen, 0.2, 0), 0))
    return problems


def test_criterion_09_ekeland_exactness(ou):
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, prob, near_start in _shipped_ekeland_problems(ou):
        res = ekeland_optimize(prob)
        chk = verify_ekeland_result(prob, res)
        good = (chk["inv1_slack"] >= -1e-12 and chk["inv2_max"] <= 1e-12
                and chk["uniqueness_margin"] > 0.0)
        # consequence (a) from a near-optimal start
        prob2 = EkelandProblem(prob.g_values, prob.penalty, prob.delta, near_start)
        res2 = ekeland_optimize(prob2)
        chk2 = verify_ekeland_result(prob2, res2)
        if chk2["near_optimal_start"]:
            good &= chk2["penalty_to_start"] <= prob.delta + 1e-12
        ok &= good
        details.append(f"{name}({len(prob.g_values)} pts)")
    elapsed = time.perf_counter() - t0
    report(9, ok, "ekeland exactness on " + ", ".join(details), elapsed, 60.0)


def test_criterion_10_quadruplication_trend(ou):
    t0 = time.perf_counter()
    h = make_data_function("gaussian_bump", center=0.7, width=0.6, height=1.0)
    xs = np.linspace(-2.0, 2.0, 41)
    u = solve_resolvent(ou, 1.0, h, xs, 1e-8)
    v = solve_resolvent(ou, 1.0, lambda x: 0.9 * h(x), xs, 1e-8)
    res = quadruplicate(ou, u.f, v.f, [10.0, 100.0, 1000.0], StatePoint.of(0.0))
    trend = res.trend()
    mono = all(trend[i + 1] <= trend[i] + 1e-15 for i in range(2))
    ratio = trend[-1] / trend[0]
    r1 = [abs(rep.key1_residual) for rep in res.entries]
    r2 = [abs(rep.key2_residual) for rep in res.entries]
    shrink_ok = all(r[i] / r[i + 1] >= 1.5 for r in (r1, r2) for i in range(2))
    elapsed = time.perf_counter() - t0
    report(10, mono and ratio <= 0.1 and shrink_ok,
           f"quadruplication: trend={['%.1e' % v for v in trend]}, "
           f"ratio={ratio:.3f} <= 0.1, key shrink >= 1.5x/decade",
           elapsed, 600.0)


def test_criterion_11_jensen(ou, cir):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    v_e = jensen_distance_check(ou, ou.sample_rows(rng, 4 * 10_000).reshape(10_000, 4, 1))
    v_c = jensen_distance_check(cir, cir.sample_rows(rng, 4 * 1000).reshape(1000, 4, 1))
    elapsed = time.perf_counter() - t0
    report(11, v_e <= 1e-9 and v_c <= 1e-9,
           f"jensen: euclidean violation={v_e:.1e}, half-line violation={v_c:.1e}"
           " <= 1e-9", elapsed, 10.0)


def test_criterion_12_mccann():
    t0 = time.perf_counter()
    rep_ent = mccann_check(make_potential("entropy"))
    rep_pow = mccann_check(make_potential("power", alpha=2.0))
    concave = Potential("neg", lambda s: -np.asarray(s, dtype=float) ** 2,
                        lambda s: -2.0 * np.asarray(s, dtype=float))
    rep_bad = mccann_check(concave)
    named = any(v.startswith("convexity") for v in rep_bad.violations)
    elapsed = time.perf_counter() - t0
    report(12, rep_ent.passed and rep_pow.passed and not rep_bad.passed and named,
           "mccann: entropy pass, power(2) pass, concave fails with "
           f"'{rep_bad.violations[0].split(':')[0]}' named", elapsed, 1.0)
