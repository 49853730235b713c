"""Tests of the benchmark's oracles and of the checks built on them.

    python3 -m pytest -q perfbench
"""

import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402


def test_ou_formula_gives_two_at_unit_time():
    value, t_star = oracles.ou_tataru(np.array([0.0]), np.array([math.e]))
    assert value[0] == pytest.approx(2.0, abs=1e-15)
    assert t_star[0] == pytest.approx(1.0, abs=1e-15)


def test_ou_formula_cases():
    pi = np.array([3.0, 0.2, -1.0, 1.5, 0.7, -0.5])
    rho = np.array([1.0, 0.8, 2.0, 4.0, 0.0, -2.0])
    value, _ = oracles.ou_tataru(pi, rho)
    expected = [2.0, 0.6, math.log(2.0) + 2.0, math.log(4.0 / 1.5), 0.7,
                math.log(2.0) + 1.0 - 0.5]
    assert value == pytest.approx(expected, abs=1e-15)


def test_ou_formula_agrees_with_dense_minimisation():
    rng = np.random.default_rng(0)
    pi, rho = rng.uniform(-3.0, 3.0, (2, 3000))
    formula, _ = oracles.ou_tataru(pi, rho)
    dense, _ = oracles.ou_dense_tataru(pi, rho)
    assert np.max(np.abs(formula - dense)) <= 1e-11


def test_cir_dense_minimisation_against_a_fine_scan():
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(math.log(0.05), math.log(8.0), (2, 20)))
    value, t_star = oracles.cir_tataru(x[0], x[1], 1.0)
    for p, r, v, t in zip(x[0], x[1], value, t_star):
        d0 = 2.0 * abs(math.sqrt(p) - math.sqrt(r))
        ts = np.linspace(0.0, d0, 400_001)
        phi = ts + 2.0 * np.abs(math.sqrt(p) - np.sqrt(1.0 + (r - 1.0) * np.exp(-ts)))
        # the fine scan is within (Lipschitz constant <= 6) * (step / 2) of the minimum
        assert min(phi) - 6.0 * d0 / 800_000 <= v <= min(phi) + 1e-10
        assert 0.0 <= t <= d0


def test_cir_oracle_is_distance_when_the_flow_leads_away():
    # rho = mu does not move, so the best time is 0
    value, t_star = oracles.cir_tataru(np.array([4.0]), np.array([1.0]), 1.0)
    assert value[0] == pytest.approx(2.0, abs=1e-15)
    assert t_star[0] == 0.0


def test_heat_quantiles_against_the_standard_library():
    q = oracles.heat_quantiles(0.3, 0.8, 0.25, 50)
    levels = oracles.midpoint_levels(50)
    spread = math.sqrt(0.8**2 + 0.5)
    expected = [statistics.NormalDist(0.3, spread).inv_cdf(u) for u in levels]
    assert q == pytest.approx(expected, abs=1e-12)


def test_implicit_euler_evi_against_a_loop_and_its_order():
    probes = np.array([-2.0, 0.5, 3.0])
    dt, steps, x0 = 1e-2, 100, 1.5
    worst = -math.inf
    y = x0
    for _ in range(steps):
        y_next = y / (1.0 + dt)
        for p in probes:
            lhs = ((y_next - p) ** 2 - (y - p) ** 2) / (2.0 * dt)
            rhs = 0.5 * p**2 - 0.5 * y**2 - 0.5 * (y - p) ** 2
            worst = max(worst, lhs - rhs)
        y = y_next
    assert oracles.implicit_euler_evi(x0, probes, dt, steps) == pytest.approx(worst, abs=1e-12)
    # the EVI holds with equality along the exact OU flow, so the violation is O(dt)
    coarse = oracles.implicit_euler_evi(x0, probes, 2e-3, 500)
    fine = oracles.implicit_euler_evi(x0, probes, 1e-3, 1000)
    assert 0.0 < fine and coarse / fine == pytest.approx(2.0, rel=0.01)


def _pairs_check(tmp_path, perturb):
    pi = np.array([0.0, 0.2, 1.5, -2.0])
    rho = np.array([math.e, 0.8, 4.0, 0.5])
    value, t_star = oracles.ou_tataru(pi, rho)
    value[2] += perturb
    out = tmp_path / "out"
    out.mkdir()
    rows = "\n".join(f"{float(v)!r},{float(t)!r}" for v, t in zip(value, t_star))
    (out / "tataru_values.csv").write_text("value,t_star\n" + rows + "\n")
    check = workloads._check_pairs(pi, rho, lambda p, r: np.abs(p - r),
                                   lambda: oracles.ou_tataru(pi, rho))
    check(out)


def test_pairs_check_accepts_the_formula(tmp_path):
    _pairs_check(tmp_path, 0.0)


def test_pairs_check_catches_a_perturbed_value(tmp_path):
    with pytest.raises(workloads.CheckFailed, match="pair 2"):
        _pairs_check(tmp_path, 1e-6)


def test_every_seed_writes_the_same_configs_with_new_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 1, tmp_path / f"{workload}_a")
        b = workloads.build(workload, 1, tmp_path / f"{workload}_b")
        c = workloads.build(workload, 2, tmp_path / f"{workload}_c")
        assert [op.name for op in a] == [op.name for op in b] == [op.name for op in c]
        same = [op.config_path.read_text().replace(f"{workload}_a", "")
                == other.config_path.read_text().replace(f"{workload}_b", "")
                for op, other in zip(a, b)]
        assert all(same)
        assert any(op.config_path.read_text().replace(f"{workload}_a", "")
                   != other.config_path.read_text().replace(f"{workload}_c", "")
                   for op, other in zip(a, c))
