"""The benchmark's workloads: experiment configs and input tables made
from a seed, and a check of every config's result files.

Each workload is a list of operations.  An operation is one experiment
config, run through ``evikit.cli.run`` as ``evikit run <config>`` would
run it, followed by its check.  Checks compare the result files with
the oracles in ``oracles.py`` or with properties the method must have;
none compares with stored output of an earlier run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("tataru_closed_form", "minimizing_movement", "hj_comparison")
KINDS = ("tataru", "flow", "evi", "resolvent", "viscosity", "comparison",
         "quadruplication")

# d_T of the pairs tables: evikit stops its golden section when the bracket
# is below 1e-10 * max(1, d0) with d0 <= 5.2 here, and phi is at most
# 1 + 4.3 Lipschitz in t on these inputs (CIR at x = 0.05), so its value is
# off by at most ~3e-9; the zoomed dense grid is off by under 1e-11.
PAIR_TOL = 1e-8
PAIRS_PER_SPACE = 2000

OU = {"space": "ou", "params": {"kappa": 1.0}}
CIR = {"space": "cir", "params": {"mu": 1.0}}
CIR_BOUNDED = {"space": "cir", "params": {"mu": 1.0, "x_lo": 1e-3, "x_hi": 8.0}}
TATARU_SUITES = {"n_samples": 1000, "flow_dt": 5e-3, "tol": 1e-4,
                 "suites": ["lipschitz", "flow_lipschitz", "triangle"]}


class CheckFailed(Exception):
    """A result file disagrees with its oracle or a required property."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Operation:
    name: str
    kind: str
    config_path: Path
    output_dir: Path
    check: Callable[[Path], None]


class _Builder:
    """Writes configs and tables under ``work`` and collects operations."""

    def __init__(self, work: Path, rng: np.random.Generator):
        self.cfg = work / "cfg"
        self.out = work / "out"
        self.cfg.mkdir(parents=True, exist_ok=True)
        self.rng = rng
        self.ops: list[Operation] = []

    def add(self, name: str, space: dict, kind: str, params: dict,
            check: Callable[[Path], None]) -> None:
        config = {"space": space, "kind": kind, "params": params,
                  "output_dir": str(self.out / name),
                  "seed": int(self.rng.integers(2**31))}
        path = self.cfg / f"{name}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        self.ops.append(Operation(name, kind, path, self.out / name, check))

    def table(self, name: str, header: list[str], rows) -> str:
        path = self.cfg / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(v)) for v in row] for row in rows)
        return str(path)


def build(workload: str, seed: int, work: Path) -> list[Operation]:
    """Write the workload's configs and tables under ``work``."""
    builder = _Builder(work, np.random.default_rng(seed))
    {"tataru_closed_form": _tataru_closed_form,
     "minimizing_movement": _minimizing_movement,
     "hj_comparison": _hj_comparison}[workload](builder)
    return builder.ops


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _once(fn):
    """Evaluate fn on first use; oracles are computed outside set-up."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]
    return get


# ---------------------------------------------------------------------------
# tataru_closed_form
# ---------------------------------------------------------------------------

def _check_suites(tol: float, oracle: bool = False):
    def check(out: Path) -> None:
        report = _read_json(out / "tataru_report.json")
        for suite in TATARU_SUITES["suites"]:
            expect(report[suite] <= tol, f"{suite} violation {report[suite]:.3e} > {tol}")
        if oracle:
            o = report["oracle"]
            expect(abs(o["value"] - 2.0) <= PAIR_TOL and abs(o["t_star"] - 1.0) <= 1e-6,
                   f"OU d_T(0, e) = {o['value']!r} at t* = {o['t_star']!r}, want 2 at 1")
    return check


def _check_pairs(pi, rho, distance, oracle, tol=PAIR_TOL):
    def check(out: Path) -> None:
        got = _read_csv(out / "tataru_values.csv")
        expect(got.shape == (len(pi), 2), f"{got.shape[0]} rows for {len(pi)} pairs")
        value = got[:, 0]
        d = distance(pi, rho)
        expect(np.all(value >= 0.0) and np.all(value <= d + 1e-12),
               "a d_T value lies outside [0, d(pi, rho)]")
        excess = np.abs(value - oracle()[0]) - tol
        worst = int(np.argmax(excess))
        expect(excess[worst] <= 0.0,
               f"pair {worst}: d_T = {value[worst]!r}, oracle {oracle()[0][worst]!r}")
    return check


def _tataru_closed_form(b: _Builder) -> None:
    b.add("ou_tataru", OU, "tataru",
          {**TATARU_SUITES, "oracle": {"pi": [0.0], "rho": [math.e]}},
          _check_suites(TATARU_SUITES["tol"], oracle=True))
    b.add("cir_tataru", CIR, "tataru", dict(TATARU_SUITES),
          _check_suites(TATARU_SUITES["tol"]))

    pi, rho = b.rng.uniform(-3.0, 3.0, (2, PAIRS_PER_SPACE))
    path = b.table("ou_pairs.csv", ["pi_0", "rho_0"], zip(pi, rho))
    b.add("ou_pairs", OU, "tataru", {"pairs_in": path, "flow_dt": 5e-3},
          _check_pairs(pi, rho, lambda p, r: np.abs(p - r),
                       _once(lambda: oracles.ou_tataru(pi, rho))))

    x_pi, x_rho = np.exp(b.rng.uniform(math.log(0.05), math.log(8.0),
                                       (2, PAIRS_PER_SPACE)))
    path = b.table("cir_pairs.csv", ["pi_0", "rho_0"], zip(x_pi, x_rho))
    b.add("cir_pairs", CIR, "tataru", {"pairs_in": path, "flow_dt": 5e-3},
          _check_pairs(x_pi, x_rho,
                       lambda p, r: 2.0 * np.abs(np.sqrt(p) - np.sqrt(r)),
                       _once(lambda: oracles.cir_tataru(x_pi, x_rho, 1.0))))


# ---------------------------------------------------------------------------
# minimizing_movement
# ---------------------------------------------------------------------------

HEAT_M, HEAT_T, HEAT_DT, HEAT_W2_TOL = 200, 0.5, 1e-3, 5e-3
OU_MMS_DTS, OU_MMS_T = (4e-3, 2e-3, 1e-3), 1.0
# Quadratic space with the built-in zero perturbation: it registers no
# closed-form flow, so d_T refines on the interpolant of minimizing-movement
# samples, while the exact flow is still OU's.
QUAD_JKO = {"space": "quadratic",
            "params": {"dimension": 1, "kappa": 1.0, "perturbation": "zero"}}
QUAD_JKO_PAIRS, QUAD_JKO_GAP, QUAD_JKO_DT = 32, 2.0, 5e-3
# the violation along implicit Euler is dt y (3y/2 - p) to first order,
# at most 0.012 for |x0| <= 2 and probes p in [-3, 3]
EVI_T, EVI_DT, EVI_TOL, EVI_PROBES = 2.0, 1e-3, 2e-2, 20


def _check_heat(mean: float, sd: float):
    def check(out: Path) -> None:
        traj = _read_csv(out / "trajectory.csv")
        expect(traj.shape == (round(HEAT_T / HEAT_DT) + 1, HEAT_M + 1),
               f"trajectory has shape {traj.shape}")
        start = oracles.heat_quantiles(mean, sd, 0.0, HEAT_M)
        expect(np.max(np.abs(traj[0, 1:] - start)) <= 1e-12,
               "trajectory does not start at the Gaussian state")
        end = oracles.heat_quantiles(mean, sd, traj[-1, 0], HEAT_M)
        w2 = math.sqrt(float(np.mean((traj[-1, 1:] - end) ** 2)))
        expect(w2 <= HEAT_W2_TOL, f"heat endpoint W2 error {w2:.3e} > {HEAT_W2_TOL}")
    return check


def _check_ou_mms(x0: float, outs: list[Path]):
    def check(_out: Path) -> None:
        errs = []
        for out in outs:
            t_end, y_end = _read_csv(out / "trajectory.csv")[-1]
            expect(abs(t_end - OU_MMS_T) <= 1e-9, f"trajectory ends at t = {t_end}")
            errs.append(abs(y_end - x0 * math.exp(-t_end)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        expect(all(1.7 <= r <= 2.3 for r in ratios),
               f"OU minimizing-movement error ratios {ratios} outside [1.7, 2.3]")
    return check


def _check_evi(x0: float, probes: np.ndarray):
    def check(out: Path) -> None:
        report = _read_json(out / "evi_report.json")
        expect(report["probe_count"] == EVI_PROBES, f"{report['probe_count']} probes")
        worst = max(r["lhs"] - r["rhs"] for r in report["records"])
        expect(abs(worst - report["max_violation"]) <= 1e-12,
               "max_violation disagrees with the probe records")
        # on a quadratic objective the inner solve's Barzilai-Borwein step lands
        # on the minimizer up to rounding (seen within 2e-12 of the oracle)
        expected = oracles.implicit_euler_evi(x0, probes, EVI_DT, round(EVI_T / EVI_DT))
        expect(abs(worst - expected) <= 1e-8,
               f"EVI violation {worst:.6e}, implicit Euler gives {expected:.6e}")
        expect(worst <= EVI_TOL, f"EVI violation {worst:.3e} > {EVI_TOL}")
    return check


def _check_interpolant_pairs(pi, rho):
    # Minimizing movement on E = y^2 / 2 is implicit Euler, rho / (1 + dt)^n,
    # which trails rho e^{-t} by at most |rho| dt / (2e) (1 + O(dt)); d_T is
    # 1-Lipschitz in the flow, so it moves by no more than that.
    bound = np.abs(rho) * QUAD_JKO_DT / (2.0 * math.e) * (1.0 + 2.0 * QUAD_JKO_DT) + 1e-9
    return _check_pairs(pi, rho, lambda p, r: np.abs(p - r),
                        _once(lambda: oracles.ou_tataru(pi, rho)), tol=bound)


def _minimizing_movement(b: _Builder) -> None:
    # the unit-variance start of acceptance criterion 5, shifted; the amount
    # of JKO work depends on the variance, so it stays fixed
    mean, sd = b.rng.uniform(-0.25, 0.25), 1.0
    b.add("heat_mms", {"space": "wasserstein1d",
                       "params": {"m": HEAT_M, "internal": "entropy"}}, "flow",
          {"x0": {"gaussian": {"mean": mean, "sd": sd}}, "T": HEAT_T, "dt": HEAT_DT,
           "mode": "mms", "energy_tol": 0.01},
          _check_heat(mean, sd))

    x0 = float(b.rng.choice([-1.0, 1.0]) * b.rng.uniform(0.5, 2.0))
    outs = [b.out / f"ou_mms_{i}" for i in range(len(OU_MMS_DTS))]
    for i, dt in enumerate(OU_MMS_DTS):
        params = {"x0": [x0], "T": OU_MMS_T, "dt": dt, "mode": "mms"}
        if i == len(OU_MMS_DTS) - 1:
            params["mms_convergence"] = {"dts": list(OU_MMS_DTS),
                                         "ratio_range": [1.7, 2.3]}
            check = _check_ou_mms(x0, outs)
        else:
            check = lambda out: None  # checked with the finest step
        b.add(f"ou_mms_{i}", OU, "flow", params, check)

    x0 = float(b.rng.choice([-1.0, 1.0]) * b.rng.uniform(0.5, 2.0))
    probes = np.sort(b.rng.uniform(-3.0, 3.0, EVI_PROBES))
    b.add("quadratic_evi", QUAD_JKO, "evi",
          {"x0": [x0], "T": EVI_T, "dt": EVI_DT, "tol": EVI_TOL,
           "probes": [[float(p)] for p in probes]},
          _check_evi(x0, probes))

    pi = b.rng.uniform(-2.0, 2.0, QUAD_JKO_PAIRS)
    rho = pi + QUAD_JKO_GAP * b.rng.choice([-1.0, 1.0], QUAD_JKO_PAIRS)
    path = b.table("quadratic_pairs.csv", ["pi_0", "rho_0"], zip(pi, rho))
    b.add("quadratic_jko_pairs", QUAD_JKO, "tataru",
          {"pairs_in": path, "flow_dt": QUAD_JKO_DT},
          _check_interpolant_pairs(pi, rho))


# ---------------------------------------------------------------------------
# hj_comparison
# ---------------------------------------------------------------------------

ROLLOUT_DT = 5e-3
REFINE_GRIDS = (12800, 25600, 51200, 102400, 204800)
COMPARISON_GRID = 51200
QUAD_GRID = 51


def _affine_clipped(slope: float, cap: float):
    return lambda x: np.minimum(slope * np.asarray(x, dtype=float), cap)


def _gaussian_bump(center: float, width: float, height: float):
    return lambda x: height * np.exp(-((np.asarray(x, dtype=float) - center) ** 2)
                                     / (2.0 * width**2))


def _check_resolvent(h, n_grid: int, tol: float, rollout_nodes=()):
    def check(out: Path) -> None:
        x, f, _ = _read_csv(out / "resolvent.csv").T
        lo, hi = CIR_BOUNDED["params"]["x_lo"], CIR_BOUNDED["params"]["x_hi"]
        expect(len(x) == n_grid and np.max(np.abs(x - np.linspace(lo, hi, n_grid))) <= 1e-12,
               "resolvent grid is not the uniform grid asked for")
        meta = _read_json(out / "resolvent.json")
        expect(meta["residual"] <= tol, f"resolvent residual {meta['residual']:.3e} > {tol}")
        expect(np.max(np.abs(f)) <= np.max(np.abs(h(x))) + 1e-9,
               "maximum principle ||f|| <= ||h|| fails")
        if rollout_nodes:
            dx = x[1] - x[0]
            rows = _read_json(out / "rollout.json")
            expect([r["node"] for r in rows] == list(rollout_nodes), "rollout nodes differ")
            for r in rows:
                f_i = f[r["node"]]
                expect(r["f"] == f_i, f"rollout f at node {r['node']} is not the solution's")
                expect(f_i - 10 * ROLLOUT_DT - 5 * dx <= r["rollout"] <= f_i,
                       f"rollout value {r['rollout']:.6f} outside the band below {f_i:.6f}")
    return check


def _check_refinement(h, tol: float, outs: list[Path]):
    last = _check_resolvent(h, REFINE_GRIDS[-1], tol)

    def check(out: Path) -> None:
        last(out)
        lo, hi = CIR_BOUNDED["params"]["x_lo"], CIR_BOUNDED["params"]["x_hi"]
        probe = np.linspace(lo, hi, 1001)
        values = []
        for path in outs:
            x, f, _ = _read_csv(path / "resolvent.csv").T
            values.append(np.interp(probe, x, f))
        gaps = [float(np.max(np.abs(values[i + 1] - values[i])))
                for i in range(len(values) - 1)]
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        expect(all(1.8 <= r <= 2.2 for r in ratios),
               f"refinement differences {gaps} do not halve with the step")
    return check


def _check_viscosity(n_records: int, tol: float):
    def check(out: Path) -> None:
        report = _read_json(out / "viscosity_report.json")
        sub, sup = report["subsolution"]["records"], report["supersolution"]["records"]
        expect(len(sub) == len(sup) == n_records, "sweep record count differs")
        expect(all(r["inequality_value"] <= tol and r["passed"] for r in sub),
               "a subsolution sweep record fails")
        expect(all(r["inequality_value"] >= -tol and r["passed"] for r in sup),
               "a supersolution sweep record fails")
    return check


def _check_comparison(deltas: list[float], tol: float):
    def check(out: Path) -> None:
        report = _read_json(out / "comparison_report.json")
        expect(abs(report["identical"]["lhs"]) <= tol, "identical data: lhs != 0")
        for d in deltas:
            lhs = report["shifted"][repr(d)]["lhs"]
            # h -> h - delta shifts the solution by -delta, so sup(u - v) = delta
            expect(abs(lhs - d) <= tol, f"shift {d}: sup(u - v) = {lhs:.6f}")
    return check


def _check_quadruplication(out: Path) -> None:
    entries = _read_json(out / "quadruplication_report.json")
    expect(len(entries) == 3, f"{len(entries)} alpha entries")
    for e in entries:
        expect(abs(e["alphaPsi"] - e["alpha"] * e["Psi"]) <= 1e-12 * max(1.0, abs(e["alphaPsi"])),
               "alphaPsi != alpha * Psi")
    trend = [e["alphaPsi"] + e["Xi"] for e in entries]
    expect(all(trend[i + 1] <= trend[i] for i in range(len(trend) - 1)),
           f"quadruplication trend {trend} increases")
    expect(trend[-1] <= 0.1 * trend[0], f"trend ratio {trend[-1] / trend[0]:.3f} > 0.1")
    for key in ("key1_residual", "key2_residual"):
        r = [abs(e[key]) for e in entries]
        expect(all(r[i] >= 1.5 * r[i + 1] for i in range(len(r) - 1)),
               f"{key} {r} does not shrink by 1.5x per alpha")


def _hj_comparison(b: _Builder) -> None:
    # policy iteration counts move with the slope, so only the cap varies
    slope, cap = 1.0, b.rng.uniform(1.9, 2.1)
    h_spec = {"name": "affine_clipped",
              "params": {"slope": slope, "intercept": 0.0, "cap": cap}}
    h = _affine_clipped(slope, cap)
    tol = 1e-6
    lo, hi = CIR_BOUNDED["params"]["x_lo"], CIR_BOUNDED["params"]["x_hi"]

    nodes = sorted(int(i) for i in b.rng.choice(np.arange(80, 721), 5, replace=False))
    b.add("cir_resolvent", CIR_BOUNDED, "resolvent",
          {"lambda": 1.0, "h": h_spec, "n_grid": 800, "tol": tol,
           "rollout": {"nodes": nodes, "control": {"lo": -3.0, "hi": 3.0, "n": 21},
                       "dt": ROLLOUT_DT, "T": 10.0}},
          _check_resolvent(h, 800, tol, nodes))

    sweep = {"a_values": [0.5, 1.0, 2.0, 4.0], "b_values": [1e-3, 1e-2, 1e-1],
             "n_anchors": 5}
    b.add("cir_viscosity", CIR_BOUNDED, "viscosity",
          {"lambda": 1.0, "h": h_spec, "n_grid": 800, "tol": tol, "tol_factor": 10.0,
           "sweep": sweep},
          _check_viscosity(4 * 3 * 5, 10.0 * (hi - lo) / 799))

    deltas = sorted(float(d) for d in b.rng.uniform(0.02, 0.5, 3))
    b.add("cir_comparison", CIR_BOUNDED, "comparison",
          {"lambda": 1.0, "h": h_spec, "n_grid": COMPARISON_GRID, "tol": tol,
           "tol_factor": 10.0, "deltas": deltas},
          _check_comparison(deltas, 10.0 * (hi - lo) / (COMPARISON_GRID - 1)))

    # smooth data, so the first-order scheme's error halves with the step
    # (a kink in h makes the error depend on where the kink meets the grid)
    bump = {"center": b.rng.uniform(1.5, 2.0), "width": b.rng.uniform(0.8, 1.2),
            "height": b.rng.uniform(0.9, 1.1)}
    smooth = _gaussian_bump(**bump)
    outs = [b.out / f"cir_refine_{n}" for n in REFINE_GRIDS]
    for n in REFINE_GRIDS:
        check = (_check_refinement(smooth, tol, outs) if n == REFINE_GRIDS[-1]
                 else _check_resolvent(smooth, n, tol))
        b.add(f"cir_refine_{n}", CIR_BOUNDED, "resolvent",
              {"lambda": 1.0, "h": {"name": "gaussian_bump", "params": bump},
               "n_grid": n, "tol": tol}, check)

    bump = {"center": b.rng.uniform(0.5, 0.9), "width": b.rng.uniform(0.5, 0.7),
            "height": b.rng.uniform(0.8, 1.2)}
    b.add("ou_quadruplication", OU, "quadruplication",
          {"lambda": 1.0, "h": {"name": "gaussian_bump", "params": bump},
           "v_scale": 0.9, "grid": {"lo": -2.0, "hi": 2.0, "n": QUAD_GRID},
           "alphas": [10.0, 100.0, 1000.0], "nu0": [0.0],
           "ratio_max": 0.1, "shrink_min": 1.5},
          _check_quadruplication)
