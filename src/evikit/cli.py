"""Config-driven experiment runner.

Usage:
    evikit run <config.json>
    evikit list-builtins

A config is a single JSON object:

    {
      "space":  {"space": "cir", "params": {...}},
      "kind":   "flow" | "evi" | "tataru" | "resolvent" | "viscosity"
                | "comparison" | "quadruplication" | "properties",
      "params": { ... kind-specific ... },
      "output_dir": "out",
      "seed": 0
    }

Result files (CSV per RFC 4180 with '.' decimals, JSON in UTF-8 with
sorted keys) are byte-identical for a fixed config and seed; the
manifest.json echoing the config additionally records versions and wall
time.  Exit codes: 0 all assertions pass, 1 assertion failure, 2 config
error, 3 numerical-solver failure.  Every kind runs serially.

Every field is declared once, in the table of its kind, space or nested
object.  A key no table declares, a number that is not finite, an empty
list or a value of the wrong type is a config error, raised before any
result file is written.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (ConstructionError, DomainError, NumericalError, Space, StatePoint,
                   UnsupportedFlowError, UsageError, check_geodesic_property,
                   check_kappa_convexity, check_metric_axioms, check_noise_identity)
from .potentials import builtin_potentials, make_potential
from .spaces import (AllenCahnSpace, CirSpace, QuadraticSpace, Wasserstein1DSpace,
                     mccann_check)
from .flow import (flow_any, flow_exact, flow_exact_at, flow_mms, verify_contraction,
                   verify_energy_identity, verify_evi)
from .tataru import (tataru_batch_csv, tataru_distance, verify_tataru_flow_lipschitz,
                     verify_tataru_lipschitz, verify_tataru_triangle)
from .hj import (GridFunction, ViscosityTestFunction, builtin_data_functions,
                 check_comparison, hamiltonian_sandwich_check, make_data_function,
                 solve_resolvent, value_by_rollout, verify_subsolution,
                 verify_supersolution)
from .ekeland import (EkelandProblem, ekeland_optimize, jensen_distance_check, product_penalty,
                      quadruplicate, tataru_matrix, verify_ekeland_result)


class ConfigError(ValueError):
    pass


_REQUIRED = object()    # the default of a field that has none
_STATE = "state"        # a number, a list of numbers or {"gaussian": {...}}
_POTENTIAL = "potential"    # a built-in's name or {"name": ..., "params": {...}}
_DATA_FUNCTION = "data function"    # {"name": ..., "params": {...}}
# built-in kind -> (factory, its names)
_BUILTINS = {_POTENTIAL: (make_potential, tuple(builtin_potentials())),
             _DATA_FUNCTION: (make_data_function, tuple(builtin_data_functions()))}


@dataclass(frozen=True)
class Field:
    """One config field.  kind is float, int, bool, str, _STATE, a _BUILTINS
    kind, a table (a dict of Fields: a nested object), dict (an object whose
    table a sibling field selects), [k] (a non-empty list of k) or [k1, k2]
    (a list of exactly two).  default is _REQUIRED when the field must be
    given, None when it is None unless given, or else a value read as a
    given one is.  positive asks numbers above 0; choices lists the values
    a string may take."""
    kind: object
    default: object = _REQUIRED
    positive: bool = False
    choices: tuple = ()


_WHAT = {(bool, False): "true or false", (str, False): "a string",
         (int, False): "an integer", (int, True): "a positive integer",
         (float, False): "a finite number", (float, True): "a finite positive number"}


def _number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _field(section: dict, key: str, spec: Field):
    """section[key] read as spec declares, or its default when the key is
    absent.  A float is a finite JSON number and an int an integral one,
    a list is not empty, and an object has no key its table does not
    declare; anything else is a ConfigError naming the field."""
    if key in section:
        val = section[key]
    elif spec.default is _REQUIRED:
        raise ConfigError(f"missing config field '{key}'")
    elif spec.default is None:
        return None
    else:
        val = spec.default
    kind = spec.kind
    if isinstance(kind, list):
        if not (isinstance(val, list) and val and len(kind) in (1, len(val))):
            size = "a non-empty list" if len(kind) == 1 else f"a list of {len(kind)}"
            raise ConfigError(f"config field '{key}' must be {size}, got {val!r}")
        item = [Field(k, positive=spec.positive, choices=spec.choices) for k in kind]
        return [_field({key: v}, key, item[i % len(item)]) for i, v in enumerate(val)]
    if kind is _STATE:
        if isinstance(val, dict):
            return _read(val, _GAUSSIAN_STATE)
        return _field({key: val if isinstance(val, list) else [val]}, key, Field([float]))
    if isinstance(kind, dict) or kind is dict:
        if not isinstance(val, dict):
            raise ConfigError(f"config field '{key}' must be an object, got {val!r}")
        return val if kind is dict else _read(val, kind)
    if kind in _BUILTINS:
        make, names = _BUILTINS[kind]
        if kind is _POTENTIAL and isinstance(val, str):
            val = {"name": val}
        table = {"name": Field(str, choices=names), "params": Field(dict, {})}
        named = _field({key: val}, key, Field(table))
        # any numbers: the built-in checks its own parameters
        for k, v in named["params"].items():
            if not _number(v):
                raise ConfigError(f"config field '{k}' must be a number, got {v!r}")
        return make(named["name"], **{k: float(v) for k, v in named["params"].items()})
    if kind in (bool, str):
        ok = isinstance(val, kind) and (not spec.choices or val in spec.choices)
    else:
        ok = (_number(val) and abs(val) <= sys.float_info.max
              and (kind is float or isinstance(val, int) or val.is_integer())
              and (not spec.positive or val > 0))
    if not ok:
        what = f"one of {list(spec.choices)}" if spec.choices else _WHAT[kind, spec.positive]
        raise ConfigError(f"config field '{key}' must be {what}, got {val!r}")
    return kind(val)


def _read(section: dict, table: dict) -> dict:
    """Every field of table read from the JSON object section."""
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown config field '{key}'; expected one of {sorted(table)}")
    return {key: _field(section, key, spec) for key, spec in table.items()}


_GAUSSIAN_STATE = {"gaussian": Field({"mean": Field(float, 0.0),
                                      "sd": Field(float, 1.0, positive=True)})}

# space name -> (its class, the table of its constructor's parameters)
_SPACES = {
    "allen_cahn": (AllenCahnSpace,
                   {"grid_size": Field(int, positive=True),
                    "length": Field(float, positive=True),
                    "kappa": Field(float, 0.0), "well": Field(_POTENTIAL, None)}),
    "cir": (CirSpace,
            {"mu": Field(float, positive=True), "x_lo": Field(float, 1e-4),
             "x_hi": Field(float, None)}),
    "ou": (QuadraticSpace, {"kappa": Field(float, 1.0)}),
    "quadratic": (QuadraticSpace,
                  {"dimension": Field(int, 1, positive=True), "kappa": Field(float, 1.0),
                   "perturbation": Field(_POTENTIAL, None)}),
    "wasserstein1d": (Wasserstein1DSpace,
                      {"m": Field(int, positive=True), "internal": Field(_POTENTIAL, None),
                       "potential": Field(_POTENTIAL, None),
                       "interaction": Field(_POTENTIAL, None),
                       "kappa_v": Field(float, 0.0), "kappa_w": Field(float, 0.0)}),
}


def _state(space: Space, spec) -> StatePoint:
    """The state point of a read coordinate field."""
    if isinstance(spec, list):
        return StatePoint.of(spec)
    if not hasattr(space, "gaussian_state"):
        raise ConfigError(f"space '{space.name}' has no gaussian state family")
    return space.gaussian_state(spec["gaussian"]["mean"], spec["gaussian"]["sd"])


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Experiment kinds: each reads the parameters its table declares
# ---------------------------------------------------------------------------

_FLOW = {"x0": Field(_STATE), "T": Field(float, positive=True),
         "dt": Field(float, positive=True),
         "mode": Field(str, "auto", choices=("exact", "mms", "auto")),
         "energy_tol": Field(float, None),
         "contraction": Field({"q0": Field(_STATE), "tol": Field(float, 1e-6)}, None),
         "mms_convergence": Field({"dts": Field([float], positive=True),
                                   "ratio_range": Field([float, float], [1.7, 2.3])}, None)}


def run_flow(space, p, out: Path, rng):
    dt, T = p["dt"], p["T"]
    if dt > T:
        raise ConfigError("config field 'dt' must not exceed 'T'")
    x0 = _state(space, p["x0"])
    contraction, convergence = p["contraction"], p["mms_convergence"]
    if contraction is not None:
        q0 = _state(space, contraction["q0"])
    if p["mode"] == "exact":
        traj = flow_exact(space, x0, T, dt)
    elif p["mode"] == "mms":
        traj = flow_mms(space, x0, T, dt)
    else:
        traj = flow_any(space, x0, T, dt)
    traj.to_csv(out / "trajectory.csv")
    assertions = []
    if p["energy_tol"] is not None:
        resid = verify_energy_identity(space, traj)
        assertions.append(("energy_identity", resid <= p["energy_tol"],
                           f"residual {resid:.3e}"))
    if contraction is not None:
        viol = verify_contraction(space, x0, q0, T, dt)
        assertions.append(("contraction", viol <= contraction["tol"],
                           f"violation {viol:.3e}"))
    if convergence is not None:
        errs = []
        for dt_k in convergence["dts"]:
            # the config's own flow, when it is this one, is not run twice
            mms = traj if p["mode"] == "mms" and dt_k == dt else flow_mms(space, x0, T, dt_k)
            # the closed form at the time the minimizing movement ends, which
            # is past T when dt_k does not divide it
            ref = flow_exact_at(space, x0, mms.times[-1:])
            errs.append(space.distance(mms.end, StatePoint.of(ref[0])))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        lo_r, hi_r = convergence["ratio_range"]
        ok = all(lo_r <= r <= hi_r for r in ratios)
        assertions.append(("mms_convergence", ok,
                           f"ratios {['%.2f' % r for r in ratios]}"))
    return assertions


_EVI = {"x0": Field(_STATE), "T": Field(float, positive=True),
        "dt": Field(float, positive=True), "tol": Field(float, positive=True),
        "probes": Field([_STATE])}


def run_evi(space, p, out: Path, rng):
    x0 = _state(space, p["x0"])
    probes = [_state(space, q) for q in p["probes"]]
    traj = flow_any(space, x0, p["T"], p["dt"])
    report = verify_evi(space, traj, probes)
    report.write_json(out / "evi_report.json")
    return [("evi", report.max_violation <= p["tol"],
             f"max_violation {report.max_violation:.3e} <= {p['tol']}")]


# suite name -> (points per sample, verifier)
_TATARU_SUITES = {"lipschitz": (4, verify_tataru_lipschitz),
                  "flow_lipschitz": (2, verify_tataru_flow_lipschitz),
                  "triangle": (3, verify_tataru_triangle)}
# the suites; a config with pairs_in evaluates a table instead
_TATARU = {"n_samples": Field(int, 1000, positive=True), "flow_dt": Field(float, 5e-3),
           "tol": Field(float, positive=True),
           "suites": Field([str], list(_TATARU_SUITES), choices=tuple(_TATARU_SUITES)),
           "oracle": Field({"pi": Field(_STATE), "rho": Field(_STATE)}, None)}
_TATARU_PAIRS = {"pairs_in": Field(str), "flow_dt": Field(float, 1e-2)}


def run_tataru(space, p, out: Path, rng):
    if "pairs_in" in p:
        n = tataru_batch_csv(space, p["pairs_in"], out / "tataru_values.csv", p["flow_dt"])
        return [("batch", True, f"{n} pairs evaluated")]
    n, flow_dt, tol, oracle = p["n_samples"], p["flow_dt"], p["tol"], p["oracle"]
    if oracle is not None:
        pi, rho = _state(space, oracle["pi"]), _state(space, oracle["rho"])

    def cell(suite):
        local = np.random.default_rng(rng.integers(2**63))
        k, verify = _TATARU_SUITES[suite]
        # n samples of k points each, drawn point after point
        samples = space.sample_rows(local, n * k).reshape(n, k, space.dimension)
        return suite, verify(space, samples, flow_dt=flow_dt)

    # serial, in listed order, so each suite's seed is the same draw from rng
    results = dict(cell(suite) for suite in p["suites"])
    payload = {k: results[k] for k in sorted(results)}
    if oracle is not None:
        res = tataru_distance(space, pi, rho, flow_dt)
        payload["oracle"] = {"value": res.value, "t_star": res.t_star}
    _write_json(out / "tataru_report.json", payload)
    return [(k, v <= tol, f"violation {v:.3e} <= {tol}") for k, v in sorted(results.items())]


def _solve_for(space, lam, h_fn, n_grid, tol, lo, hi):
    """The resolvent on n_grid nodes spanning [lo, hi], or the space's
    domain where its table has no lo and hi (see _params_table)."""
    if n_grid < 3:
        raise ConfigError(f"a resolvent grid needs at least 3 nodes, got {n_grid}")
    if lo is None:
        lo, hi = space.x_lo, space.x_hi
    return solve_resolvent(space, lam, h_fn, np.linspace(lo, hi, n_grid), tol)


# the fields of every kind that solves a resolvent on a grid of n_grid nodes
_GRID_SOLVE = {"lambda": Field(float, positive=True), "h": Field(_DATA_FUNCTION),
               "n_grid": Field(int, 800), "tol": Field(float, 1e-6),
               "x_lo": Field(float, -4.0), "x_hi": Field(float, 4.0)}
_RESOLVENT = {**_GRID_SOLVE, "rollout": Field({
    "nodes": Field([int]),
    "control": Field({"lo": Field(float, -3.0), "hi": Field(float, 3.0),
                      "n": Field(int, 21, positive=True)}, {}),
    "dt": Field(float, 5e-3, positive=True),
    "T": Field(float, None, positive=True)}, None)}


def _grid_solve(space, p, h_fn):
    return _solve_for(space, p["lambda"], h_fn, p["n_grid"], p["tol"], p.get("x_lo"),
                      p.get("x_hi"))


def run_resolvent(space, p, out: Path, rng):
    lam, tol, n_grid, ro = p["lambda"], p["tol"], p["n_grid"], p["rollout"]
    h_fn = p["h"]
    if ro is not None:
        for idx in ro["nodes"]:
            if not 0 <= idx < n_grid:
                raise ConfigError(f"rollout node {idx} is not a node of the {n_grid}-node grid")
    sol = _grid_solve(space, p, h_fn)
    sol.write_csv(out / "resolvent.csv")
    sol.write_json(out / "resolvent.json")
    assertions = [("residual", sol.residual <= tol, f"{sol.residual:.3e} <= {tol}"),
                  ("max_principle",
                   float(np.max(np.abs(sol.f.values)))
                   <= float(np.max(np.abs(h_fn(sol.f.coords())))) + 1e-9,
                   "||f|| <= ||h||")]
    if ro is not None:
        xs = sol.f.coords()
        dx = xs[1] - xs[0]
        cg, dt = ro["control"], ro["dt"]
        us = np.linspace(cg["lo"], cg["hi"], cg["n"])
        T = lam * math.log(1e4) if ro["T"] is None else ro["T"]
        vals = value_by_rollout(space, lam, h_fn, sol.f.nodes[ro["nodes"]], us, dt, T,
                                state_grid=xs)
        rows = []
        ok = True
        for idx, val in zip(ro["nodes"], vals.tolist()):
            f_i = float(sol.f.values[idx])
            in_band = f_i - 10 * dt - 5 * dx <= val <= f_i
            ok = ok and in_band
            rows.append({"node": idx, "rollout": val, "f": f_i,
                         "in_band": in_band})
        _write_json(out / "rollout.json", rows)
        assertions.append(("rollout_band", ok, f"{len(rows)} nodes"))
    return assertions


_VISCOSITY = {**_GRID_SOLVE, "tol_factor": Field(float, 10.0), "sweep": Field({
    "a_values": Field([float], [0.5, 1.0, 2.0, 4.0], positive=True),
    "b_values": Field([float], [1e-3, 1e-2, 1e-1], positive=True),
    "n_anchors": Field(int, 5, positive=True)}, {})}


def run_viscosity(space, p, out: Path, rng):
    lam, n_grid, sweep = p["lambda"], p["n_grid"], p["sweep"]
    h_fn = p["h"]
    sol = _grid_solve(space, p, h_fn)
    xs = sol.f.coords()
    dx = xs[1] - xs[0]
    tol = p["tol_factor"] * dx
    idx = np.linspace(0.05 * n_grid, 0.95 * n_grid, sweep["n_anchors"]).astype(int)
    h_grid = GridFunction(sol.f.nodes, h_fn(xs))
    anchors = [sol.f.point(i) for i in idx]
    a_values, b_values = sweep["a_values"], sweep["b_values"]
    tfs = [ViscosityTestFunction(space, a, b, 0.0, q, q)
           for a in a_values for b in b_values for q in anchors]
    rep_sub = verify_subsolution(sol.f, tfs, lam, h_grid, tol)
    rep_sup = verify_supersolution(sol.f, tfs, lam, h_grid, tol)
    _write_json(out / "viscosity_report.json",
                {"subsolution": rep_sub.to_json(), "supersolution": rep_sup.to_json()})
    return [(f"{rep.kind}_sweep", rep.passed,
             f"{len(tfs)} test functions, worst {rep.worst:.3e}") for rep in (rep_sub, rep_sup)]


_COMPARISON = {**_GRID_SOLVE, "tol_factor": Field(float, 10.0), "deltas": Field([float])}


def run_comparison(space, p, out: Path, rng):
    h_fn = p["h"]
    base = _grid_solve(space, p, h_fn)
    xs = base.f.coords()
    dx = xs[1] - xs[0]
    tol = p["tol_factor"] * dx
    h_grid = GridFunction(base.f.nodes, h_fn(xs))

    def cell(delta):
        shifted = _grid_solve(space, p, lambda x: h_fn(x) - delta)
        res = check_comparison(base.f, shifted.f, h_grid,
                               GridFunction(base.f.nodes, h_fn(xs) - delta), tol)
        return delta, res

    results = dict(cell(delta) for delta in p["deltas"])
    same = check_comparison(base.f, base.f, h_grid, h_grid, tol)
    payload = {"identical": same.to_json(),
               "shifted": {repr(d): results[d].to_json() for d in sorted(results)}}
    _write_json(out / "comparison_report.json", payload)
    assertions = [("identical_data", abs(same.lhs) <= tol, f"|lhs| = {abs(same.lhs):.3e}")]
    for d in sorted(results):
        r = results[d]
        assertions.append((f"delta_{d}", r.lhs <= d + tol,
                           f"lhs {r.lhs:.4f} <= {d} + {tol:.4f}"))
    return assertions


_QUADRUPLICATION = {
    "lambda": Field(float, positive=True), "h": Field(_DATA_FUNCTION),
    "grid": Field({"lo": Field(float, -2.0), "hi": Field(float, 2.0),
                   "n": Field(int, 41)}, {}),
    "alphas": Field([float], [10.0, 100.0, 1000.0], positive=True),
    "v_scale": Field(float, 0.9), "nu0": Field(_STATE, [0.0]),
    "ratio_max": Field(float, 0.1), "shrink_min": Field(float, 1.5)}


def run_quadruplication(space, p, out: Path, rng):
    lam, grid, ratio_max, shrink_min = p["lambda"], p["grid"], p["ratio_max"], p["shrink_min"]
    h_fn = p["h"]
    nu0 = _state(space, p["nu0"])
    domain = (grid["n"], 1e-8, grid.get("lo"), grid.get("hi"))
    sol_u = _solve_for(space, lam, h_fn, *domain)
    sol_v = _solve_for(space, lam, lambda x: p["v_scale"] * h_fn(x), *domain)
    result = quadruplicate(space, sol_u.f, sol_v.f, p["alphas"], nu0)
    result.write_json(out / "quadruplication_report.json")
    trend = result.trend()
    mono = all(trend[i + 1] <= trend[i] + 1e-15 for i in range(len(trend) - 1))
    ratio = trend[-1] / trend[0] if trend[0] > 0 else 0.0
    residuals = [abs(rep.key1_residual) + abs(rep.key2_residual) for rep in result.entries]
    shrinks = [r0 / r1 if r1 > 0 else math.inf for r0, r1 in zip(residuals, residuals[1:])]
    return [("trend_nonincreasing", mono, f"{trend}"),
            ("trend_ratio", ratio <= ratio_max, f"{ratio:.4f} <= {ratio_max}"),
            ("key_residual_shrink", all(s >= shrink_min for s in shrinks),
             f"ratios {['%.2f' % s for s in shrinks]}"),
            ("gap_bound", True, f"C = {result.gap_constant:.4f}")]


# properties check -> assertion name of each check that reports a worst violation
_PROPERTY_LABELS = {"metric": "metric_axioms", "geodesic": "geodesic_property",
                    "kappa_convexity": "kappa_convexity", "noise_identity": "noise_identity",
                    "jensen": "jensen", "sandwich": "hamiltonian_sandwich"}
_PROPERTIES = {
    "checks": Field([str], ["metric", "geodesic", "kappa_convexity"],
                    choices=(*_PROPERTY_LABELS, "mccann", "ekeland")),
    "n_samples": Field(int, 1000, positive=True), "n_geodesics": Field(int, 100, positive=True),
    "mccann_potential": Field(_POTENTIAL, None), "mccann_expect_pass": Field(bool, True),
    "convexity_tol": Field(float, 1e-8), "n_pairs": Field(int, 20, positive=True),
    "jensen_tol": Field(float, 1e-9), "ekeland_points": Field(int, 2001, positive=True)}


def run_properties(space, p, out: Path, rng):
    if "mccann" in p["checks"] and p["mccann_potential"] is None:
        raise ConfigError("the mccann check needs config field 'mccann_potential'")
    n, n_geodesics = p["n_samples"], p["n_geodesics"]
    assertions = []
    payload = {}

    def draw(k, count):
        # count samples of k points each, drawn point after point
        return space.sample_rows(rng, count * k).reshape(count, k, space.dimension)

    for check in p["checks"]:
        if check == "mccann":
            rep = mccann_check(p["mccann_potential"])
            payload["mccann"] = rep.to_json()
            assertions.append(("mccann", rep.passed == p["mccann_expect_pass"],
                               "; ".join(rep.violations) or "all predicates hold"))
            continue
        if check == "ekeland":
            ok, detail = _ekeland_exactness_cell(space, p)
            payload["ekeland"] = detail
            assertions.append(("ekeland_exactness", ok, detail))
            continue
        if check == "metric":
            worst, tol = check_metric_axioms(space, draw(3, n)), space.tol_metric
        elif check == "geodesic":
            worst, tol = check_geodesic_property(space, draw(2, n_geodesics)), space.tol_geo
        elif check == "kappa_convexity":
            worst, tol = check_kappa_convexity(space, n_geodesics, rng=rng), p["convexity_tol"]
        elif check == "noise_identity":
            pairs = [(space.sample_point(rng), space.sample_point(rng))
                     for _ in range(p["n_pairs"])]
            worst, tol = check_noise_identity(space, pairs), 1e-4
        elif check == "jensen":
            worst, tol = jensen_distance_check(space, draw(4, n)), p["jensen_tol"]
        else:
            anchors, samples = space.sample_rows(rng, 5), space.sample_rows(rng, 20)
            worst = hamiltonian_sandwich_check(space, (0.5, 1.0, 2.0), anchors, samples)
            tol = 1e-4
        payload[check] = worst
        assertions.append((_PROPERTY_LABELS[check], worst <= tol, f"violation {worst:.3e}"))
    _write_json(out / "properties_report.json", payload)
    return assertions


def _ekeland_exactness_cell(space, params):
    """Exhaustive Ekeland run: a line problem on the space's chart plus a
    Tataru-penalized product-grid problem, both verified exhaustively."""
    n_line = params["ekeland_points"]
    xs = np.linspace(-5.0, 5.0, n_line)
    g = np.sin(3.0 * xs) - 0.1 * xs**2
    line = EkelandProblem(g, lambda j: np.abs(xs - xs[j]), 0.05, 0)
    res = verify_ekeland_result(line, ekeland_optimize(line))
    ok = (res["inv1_slack"] >= -1e-12 and res["inv2_max"] <= 1e-12
          and res["uniqueness_margin"] > 0.0)

    base_rng = np.random.default_rng(5)
    base = [space.sample_point(base_rng) for _ in range(6)]
    n = len(base)
    g4 = np.random.default_rng(9).normal(0.0, 1.0, n**4)
    pen = product_penalty(tataru_matrix(space, base, 1e-2), (1.0, 1.0, 1.0, 1.0))
    prod = EkelandProblem(g4, pen, 0.2, 0)
    res2 = verify_ekeland_result(prod, ekeland_optimize(prod))
    ok = ok and (res2["inv1_slack"] >= -1e-12 and res2["inv2_max"] <= 1e-12
                 and res2["uniqueness_margin"] > 0.0)
    return ok, f"line({n_line}) and product({n**4}) instances exhaustive"


# experiment kind -> (runner, table of its params)
_KINDS = {
    "flow": (run_flow, _FLOW),
    "evi": (run_evi, _EVI),
    "tataru": (run_tataru, _TATARU),
    "resolvent": (run_resolvent, _RESOLVENT),
    "viscosity": (run_viscosity, _VISCOSITY),
    "comparison": (run_comparison, _COMPARISON),
    "quadruplication": (run_quadruplication, _QUADRUPLICATION),
    "properties": (run_properties, _PROPERTIES),
}
_CONFIG = {"space": Field({"space": Field(str, choices=tuple(_SPACES)),
                           "params": Field(dict, {})}),
           "kind": Field(str, choices=tuple(_KINDS)), "params": Field(dict, {}),
           "output_dir": Field(str, "out"), "seed": Field(int, 0)}


def _params_table(space: str, kind: str, params: dict) -> dict:
    """The table a kind's params are read through on the named space.  A
    tataru config with pairs_in evaluates a table instead of drawing
    suites.  A field the run would read and then ignore is left out, so
    that setting it is an unknown key: on cir a grid solve's grid spans
    the space's domain, so x_lo and x_hi, and quadruplication's grid.lo
    and grid.hi, bound it only on the scalar quadratic space."""
    if kind == "tataru" and "pairs_in" in params:
        return _TATARU_PAIRS
    # dotted paths of the fields left out
    unused = {"x_lo", "x_hi", "grid.lo", "grid.hi"} if space == "cir" else set()

    def pruned(table, prefix=""):
        return {key: (replace(spec, kind=pruned(spec.kind, f"{prefix}{key}."))
                      if isinstance(spec.kind, dict) else spec)
                for key, spec in table.items() if prefix + key not in unused}
    return pruned(_KINDS[kind][1])


def read_config(config) -> dict:
    """config read through its tables: the top level's, its space's and its
    kind's.  Raises ConfigError on the first field that breaks them."""
    if not isinstance(config, dict):
        raise ConfigError(f"a config must be a JSON object, got {config!r}")
    cfg = _read(config, _CONFIG)
    space, kind, params = cfg["space"], cfg["kind"], cfg["params"]
    space["params"] = _read(space["params"], _SPACES[space["space"]][1])
    cfg["params"] = _read(params, _params_table(space["space"], kind, params))
    return cfg


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str) -> int:
    t0 = time.time()
    try:
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        cfg = read_config(config)
        space = _SPACES[cfg["space"]["space"]][0](**cfg["space"]["params"])
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(cfg["seed"])
    except (ConfigError, UsageError, ConstructionError, OSError,
            json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    kind = cfg["kind"]
    try:
        assertions = _KINDS[kind][0](space, cfg["params"], out, rng)
    except (ConfigError, UsageError, DomainError, UnsupportedFlowError) as exc:
        # DomainError: a point of the config or of an input table lies
        # outside the space; UnsupportedFlowError: a closed-form flow asked
        # of a state that has none
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    passed = all(ok for _, ok, _ in assertions)
    manifest = {
        "config": config,
        "versions": {
            "evikit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": round(time.time() - t0, 3),
        "summary": {
            "passed": passed,
            "assertions": [{"name": name, "passed": ok, "detail": detail}
                           for name, ok, detail in assertions],
        },
    }
    _write_json(out / "manifest.json", manifest)
    for name, ok, detail in assertions:
        print(f"[{'PASS' if ok else 'FAIL'}] {kind}.{name}: {detail}")
    return 0 if passed else 1


def list_builtins() -> int:
    print("spaces:")
    for name in sorted(_SPACES):
        print(f"  {name}")
    print("potentials:")
    for name in builtin_potentials():
        print(f"  {name}")
    print("data functions:")
    for name in builtin_data_functions():
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="evikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    sub.add_parser("list-builtins", help="list spaces, potentials and data functions")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    return list_builtins()


if __name__ == "__main__":
    sys.exit(main())
