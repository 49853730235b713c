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
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConstructionError,
    DomainError,
    NumericalError,
    Space,
    StatePoint,
    UsageError,
    check_geodesic_property,
    check_kappa_convexity,
    check_metric_axioms,
    check_noise_identity,
)
from .potentials import builtin_potentials, make_potential
from .spaces import (
    AllenCahnDescriptor,
    CirDescriptor,
    QuadraticDescriptor,
    Wasserstein1DDescriptor,
    builtin_spaces,
    make_allen_cahn,
    make_cir,
    make_ou,
    make_quadratic,
    make_wasserstein1d,
    mccann_check,
)
from .flow import (
    FlowConfig,
    flow_any,
    flow_exact,
    flow_mms,
    verify_contraction,
    verify_energy_identity,
    verify_evi,
)
from .tataru import (
    tataru_batch_csv,
    tataru_distance,
    verify_tataru_flow_lipschitz,
    verify_tataru_lipschitz,
    verify_tataru_triangle,
)
from .hj import (
    GridFunction,
    LowerTestFunction,
    UpperTestFunction,
    builtin_data_functions,
    check_comparison,
    hamiltonian_sandwich_check,
    make_data_function,
    solve_resolvent_cir,
    solve_resolvent_quadratic,
    value_by_rollout,
    verify_subsolution,
    verify_supersolution,
)
from .ekeland import (
    EkelandProblem,
    ekeland_optimize,
    jensen_distance_check,
    product_penalty,
    quadruplicate,
    tataru_matrix,
    verify_ekeland_result,
)


class ConfigError(ValueError):
    pass


_REQUIRED = object()   # the default of a field that has none


def _require(params: dict, key: str, kind=None):
    if key not in params:
        raise ConfigError(f"missing config field '{key}'")
    val = params[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field '{key}' has wrong type")
    return val


def _field(params: dict, key: str, default=_REQUIRED, kind=float, positive: bool = False):
    """params[key] as a `kind` (float, int, bool or dict, a nested JSON
    object of fields, or [float] / [int] for a list of them), or default
    when the key is absent.  A float takes any JSON number, an int an
    integral one; any other value, or with positive a number not above 0,
    is a ConfigError naming the field."""
    if key not in params:
        if default is _REQUIRED:
            raise ConfigError(f"missing config field '{key}'")
        return default
    val = params[key]
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ConfigError(f"config field '{key}' must be a list, got {val!r}")
        return [_field({key: v}, key, kind=kind[0], positive=positive) for v in val]
    if kind is bool or kind is dict:
        ok = isinstance(val, kind)
    else:
        ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
              and (kind is float or isinstance(val, int) or val.is_integer())
              and (not positive or val > 0))
    if not ok:
        what = {bool: "true or false", int: "an integer", float: "a number",
                dict: "an object"}[kind]
        if positive:
            what = "a positive " + what.split()[-1]
        raise ConfigError(f"config field '{key}' must be {what}, got {val!r}")
    return kind(val)


def _builtin(spec: dict, make):
    """make(name, **params) for a named built-in {"name": ..., "params": {...}},
    its parameters read as numbers."""
    params = _field(spec, "params", {}, dict)
    return make(_require(spec, "name"), **{k: _field(params, k) for k in params})


def _potential_from(spec) -> object | None:
    if spec is None:
        return None
    if isinstance(spec, str):
        return make_potential(spec)
    return _builtin(spec, make_potential)


def build_space(desc: dict) -> Space:
    name = _require(desc, "space")
    params = _field(desc, "params", {}, dict)
    try:
        if name == "cir":
            return make_cir(CirDescriptor(
                mu=_field(params, "mu", positive=True),
                x_lo=_field(params, "x_lo", 1e-4),
                x_hi=_field(params, "x_hi", None),
            ))
        if name == "ou":
            return make_ou(_field(params, "kappa", 1.0))
        if name == "quadratic":
            return make_quadratic(QuadraticDescriptor(
                dimension=_field(params, "dimension", 1, int),
                kappa=_field(params, "kappa", 1.0),
                perturbation=_potential_from(params.get("perturbation")),
            ))
        if name == "allen_cahn":
            return make_allen_cahn(AllenCahnDescriptor(
                grid_size=_field(params, "grid_size", kind=int),
                length=_field(params, "length", positive=True),
                kappa=_field(params, "kappa", 0.0),
                well=_potential_from(params.get("well")),
            ))
        if name == "wasserstein1d":
            return make_wasserstein1d(Wasserstein1DDescriptor(
                m=_field(params, "m", kind=int),
                internal=_potential_from(params.get("internal")),
                potential=_potential_from(params.get("potential")),
                interaction=_potential_from(params.get("interaction")),
                kappa_v=_field(params, "kappa_v", 0.0),
                kappa_w=_field(params, "kappa_w", 0.0),
            ))
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown space '{name}'; available: {builtin_spaces()}")


def _state(space: Space, params: dict, key: str, default=_REQUIRED) -> StatePoint:
    """The state point of a coordinate field: a number, a list of numbers,
    or {"gaussian": {"mean": m, "sd": s}} on a space with a Gaussian family."""
    spec = _require(params, key) if default is _REQUIRED else params.get(key, default)
    if isinstance(spec, dict) and spec.get("gaussian") is not None:
        if not hasattr(space, "gaussian_state"):
            raise ConfigError(f"space '{space.name}' has no gaussian state family")
        g = _field(spec, "gaussian", kind=dict)
        return space.gaussian_state(_field(g, "mean", 0.0), _field(g, "sd", 1.0))
    coords = spec if isinstance(spec, list) else [spec]
    return StatePoint.of(_field({key: coords}, key, kind=[float]))


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
# Experiment kinds
# ---------------------------------------------------------------------------

def run_flow(space, params, out: Path, rng):
    dt = _field(params, "dt", positive=True)
    T = _field(params, "T", positive=True)
    if dt > T:
        raise ConfigError("config field 'dt' must not exceed 'T'")
    x0 = _state(space, params, "x0")
    mode = params.get("mode", "auto")
    if mode not in ("exact", "mms", "auto"):
        raise ConfigError(f"config field 'mode' must be \"exact\", \"mms\" or \"auto\", "
                          f"got {mode!r}")
    energy_tol = _field(params, "energy_tol", None)
    contraction = _field(params, "contraction", None, dict)
    if contraction is not None:
        q0 = _state(space, contraction, "q0")
        contraction_tol = _field(contraction, "tol", 1e-6)
    convergence = _field(params, "mms_convergence", None, dict)
    if convergence is not None:
        dts = _field(convergence, "dts", kind=[float])
        ratio_range = _field(convergence, "ratio_range", [1.7, 2.3], [float])
        if len(ratio_range) != 2:
            raise ConfigError(f"config field 'ratio_range' must be [lo, hi], got {ratio_range}")
        lo_r, hi_r = ratio_range
    mms_config = None
    if mode == "exact":
        traj = flow_exact(space, x0, T, dt)
    elif mode == "mms":
        mms_config = FlowConfig(
            dt=dt, horizon=T,
            jko_inner_tol=_field(params, "jko_inner_tol", 1e-9),
            jko_max_iter=_field(params, "jko_max_iter", 500, int))
        traj = flow_mms(space, x0, mms_config)
    else:
        traj = flow_any(space, x0, T, dt)
    traj.to_csv(out / "trajectory.csv")
    assertions = []
    if energy_tol is not None:
        resid = verify_energy_identity(space, traj)
        assertions.append(("energy_identity", resid <= energy_tol, f"residual {resid:.3e}"))
    if contraction is not None:
        viol = verify_contraction(space, x0, q0, T, dt)
        assertions.append(("contraction", viol <= contraction_tol, f"violation {viol:.3e}"))
    if convergence is not None:
        errs = []
        for dt_k in dts:
            cfg_k = FlowConfig(dt=dt_k, horizon=T)
            # the config's own flow, when it is this one, is not run twice
            mms = traj if cfg_k == mms_config else flow_mms(space, x0, cfg_k)
            ref = flow_exact(space, x0, T, dt_k)
            errs.append(space.distance(mms.end, ref.end))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ok = all(lo_r <= r <= hi_r for r in ratios)
        assertions.append(("mms_convergence", ok,
                           f"ratios {['%.2f' % r for r in ratios]}"))
    return assertions


def run_evi(space, params, out: Path, rng):
    dt = _field(params, "dt", positive=True)
    T = _field(params, "T", positive=True)
    tol = _field(params, "tol", positive=True)
    x0 = _state(space, params, "x0")
    probes = [_state(space, {"probes": p}, "probes") for p in _require(params, "probes", list)]
    if not probes:
        raise ConfigError("config field 'probes' must list at least one probe")
    traj = flow_any(space, x0, T, dt)
    report = verify_evi(space, traj, probes)
    report.write_json(out / "evi_report.json")
    return [("evi", report.max_violation <= tol,
             f"max_violation {report.max_violation:.3e} <= {tol}")]


# suite name -> (points per sample, verifier)
_TATARU_SUITES = {"lipschitz": (4, verify_tataru_lipschitz),
                  "flow_lipschitz": (2, verify_tataru_flow_lipschitz),
                  "triangle": (3, verify_tataru_triangle)}


def run_tataru(space, params, out: Path, rng):
    if "pairs_in" in params:
        n = tataru_batch_csv(space, params["pairs_in"], out / "tataru_values.csv",
                             _field(params, "flow_dt", 1e-2))
        return [("batch", True, f"{n} pairs evaluated")]
    n = _field(params, "n_samples", 1000, int, positive=True)
    flow_dt = _field(params, "flow_dt", 5e-3)
    tol = _field(params, "tol", positive=True)
    suites = params.get("suites", ["lipschitz", "flow_lipschitz", "triangle"])
    oracle = _field(params, "oracle", None, dict)
    if oracle is not None:
        pi, rho = _state(space, oracle, "pi"), _state(space, oracle, "rho")

    def cell(suite):
        local = np.random.default_rng(rng.integers(2**63))
        if suite not in _TATARU_SUITES:
            raise ConfigError(f"unknown tataru suite '{suite}'")
        k, verify = _TATARU_SUITES[suite]
        # n samples of k points each, drawn point after point
        samples = space.sample_rows(local, n * k).reshape(n, k, space.dimension)
        return suite, verify(space, samples, flow_dt=flow_dt)

    # serial, in listed order, so each suite's seed is the same draw from rng
    results = dict(cell(suite) for suite in suites)
    payload = {k: results[k] for k in sorted(results)}
    if oracle is not None:
        res = tataru_distance(space, pi, rho, flow_dt)
        payload["oracle"] = {"value": res.value, "t_star": res.t_star}
    _write_json(out / "tataru_report.json", payload)
    return [(k, v <= tol, f"violation {v:.3e} <= {tol}") for k, v in sorted(results.items())]


def _solve_for(space, params, lam, h_fn, n_grid, tol):
    if n_grid < 3:
        raise ConfigError(f"a resolvent grid needs at least 3 nodes, got {n_grid}")
    if space.name == "cir":
        return solve_resolvent_cir(space.desc, lam, h_fn, n_grid, tol)
    if space.name == "quadratic" and space.dimension == 1:
        lo = _field(params, "x_lo", -4.0)
        hi = _field(params, "x_hi", 4.0)
        return solve_resolvent_quadratic(space, lam, h_fn, lo, hi, n_grid, tol)
    raise ConfigError(f"resolvent solving is not supported on space '{space.name}'")


def run_resolvent(space, params, out: Path, rng):
    lam = _field(params, "lambda", positive=True)
    tol = _field(params, "tol", 1e-6)
    n_grid = _field(params, "n_grid", 800, int)
    h_fn = _builtin(_field(params, "h", kind=dict), make_data_function)
    ro = _field(params, "rollout", None, dict)
    indices = _field(ro or {}, "nodes", [], [int])
    for idx in indices:
        if not 0 <= idx < n_grid:
            raise ConfigError(f"rollout node {idx} is not a node of the {n_grid}-node grid")
    if ro is not None:
        cg = _field(ro, "control", {}, dict)
        us = np.linspace(_field(cg, "lo", -3.0), _field(cg, "hi", 3.0),
                         _field(cg, "n", 21, int, positive=True))
        dt = _field(ro, "dt", 5e-3, positive=True)
        T = _field(ro, "T", lam * math.log(1e4), positive=True)
    sol = _solve_for(space, params, lam, h_fn, n_grid, tol)
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
        vals = value_by_rollout(space, lam, h_fn, sol.f.nodes[indices], us, dt, T,
                                state_grid=xs)
        rows = []
        ok = True
        for idx, val in zip(indices, vals.tolist()):
            f_i = float(sol.f.values[idx])
            in_band = f_i - 10 * dt - 5 * dx <= val <= f_i
            ok = ok and in_band
            rows.append({"node": idx, "rollout": val, "f": f_i,
                         "in_band": in_band})
        _write_json(out / "rollout.json", rows)
        assertions.append(("rollout_band", ok, f"{len(rows)} nodes"))
    return assertions


def run_viscosity(space, params, out: Path, rng):
    lam = _field(params, "lambda", positive=True)
    n_grid = _field(params, "n_grid", 800, int)
    h_fn = _builtin(_field(params, "h", kind=dict), make_data_function)
    tol_factor = _field(params, "tol_factor", 10.0)
    sweep = _field(params, "sweep", {}, dict)
    a_values = _field(sweep, "a_values", [0.5, 1.0, 2.0, 4.0], [float])
    b_values = _field(sweep, "b_values", [1e-3, 1e-2, 1e-1], [float])
    for key, values in (("a_values", a_values), ("b_values", b_values)):
        if not values:
            raise ConfigError(f"config field '{key}' must list at least one value")
    n_anchors = _field(sweep, "n_anchors", 5, int, positive=True)
    sol = _solve_for(space, params, lam, h_fn, n_grid, _field(params, "tol", 1e-6))
    xs = sol.f.coords()
    dx = xs[1] - xs[0]
    tol = tol_factor * dx
    idx = np.linspace(0.05 * n_grid, 0.95 * n_grid, n_anchors).astype(int)
    h_grid = GridFunction(sol.f.nodes, h_fn(xs))
    anchors = [sol.f.point(i) for i in idx]
    tfs_up = [UpperTestFunction(space, a, b, 0.0, p, p)
              for a in a_values for b in b_values for p in anchors]
    tfs_low = [LowerTestFunction(space, a, b, 0.0, p, p)
               for a in a_values for b in b_values for p in anchors]
    rep_sub = verify_subsolution(sol.f, tfs_up, lam, h_grid, tol)
    rep_sup = verify_supersolution(sol.f, tfs_low, lam, h_grid, tol)
    _write_json(out / "viscosity_report.json",
                {"subsolution": rep_sub.to_json(), "supersolution": rep_sup.to_json()})
    return [("subsolution_sweep", rep_sub.passed,
             f"{len(tfs_up)} test functions, worst {rep_sub.worst:.3e}"),
            ("supersolution_sweep", rep_sup.passed,
             f"{len(tfs_low)} test functions, worst {rep_sup.worst:.3e}")]


def run_comparison(space, params, out: Path, rng):
    lam = _field(params, "lambda", positive=True)
    n_grid = _field(params, "n_grid", 800, int)
    deltas = _field(params, "deltas", kind=[float])
    h_fn = _builtin(_field(params, "h", kind=dict), make_data_function)
    tol_sol = _field(params, "tol", 1e-6)
    tol_factor = _field(params, "tol_factor", 10.0)
    base = _solve_for(space, params, lam, h_fn, n_grid, tol_sol)
    xs = base.f.coords()
    dx = xs[1] - xs[0]
    tol = tol_factor * dx
    h_grid = GridFunction(base.f.nodes, h_fn(xs))

    def cell(delta):
        shifted = _solve_for(space, params, lam, lambda x: h_fn(x) - delta,
                             n_grid, tol_sol)
        res = check_comparison(base.f, shifted.f, h_grid,
                               GridFunction(base.f.nodes, h_fn(xs) - delta), tol)
        return delta, res

    results = dict(cell(delta) for delta in deltas)
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


def run_quadruplication(space, params, out: Path, rng):
    lam = _field(params, "lambda", positive=True)
    grid = _field(params, "grid", {}, dict)
    lo, hi = _field(grid, "lo", -2.0), _field(grid, "hi", 2.0)
    n = _field(grid, "n", 41, int)
    alphas = _field(params, "alphas", [10.0, 100.0, 1000.0], [float])
    if not alphas:
        raise ConfigError("config field 'alphas' must list at least one weight")
    h_fn = _builtin(_field(params, "h", kind=dict), make_data_function)
    v_scale = _field(params, "v_scale", 0.9)
    nu0 = _state(space, params, "nu0", [0.0])
    ratio_max = _field(params, "ratio_max", 0.1)
    shrink_min = _field(params, "shrink_min", 1.5)
    sol_u = _solve_for(space, params, lam, h_fn, n, 1e-8)
    sol_v = _solve_for(space, params, lam, lambda x: v_scale * h_fn(x), n, 1e-8)
    result = quadruplicate(space, sol_u.f, sol_v.f, alphas, nu0)
    result.write_json(out / "quadruplication_report.json")
    trend = result.trend()
    mono = all(trend[i + 1] <= trend[i] + 1e-15 for i in range(len(trend) - 1))
    ratio = trend[-1] / trend[0] if trend[0] > 0 else 0.0
    shrinks = []
    for i in range(len(result.entries) - 1):
        r0 = abs(result.entries[i][1].key1_residual) + abs(result.entries[i][1].key2_residual)
        r1 = abs(result.entries[i + 1][1].key1_residual) + abs(result.entries[i + 1][1].key2_residual)
        shrinks.append(r0 / r1 if r1 > 0 else math.inf)
    return [("trend_nonincreasing", mono, f"{trend}"),
            ("trend_ratio", ratio <= ratio_max, f"{ratio:.4f} <= {ratio_max}"),
            ("key_residual_shrink", all(s >= shrink_min for s in shrinks),
             f"ratios {['%.2f' % s for s in shrinks]}"),
            ("gap_bound", True, f"C = {result.gap_constant:.4f}")]


# properties check -> assertion name of each check that reports a worst violation
_PROPERTY_LABELS = {"metric": "metric_axioms", "geodesic": "geodesic_property",
                    "kappa_convexity": "kappa_convexity", "noise_identity": "noise_identity",
                    "jensen": "jensen", "sandwich": "hamiltonian_sandwich"}


def run_properties(space, params, out: Path, rng):
    checks = params.get("checks", ["metric", "geodesic", "kappa_convexity"])
    n = _field(params, "n_samples", 1000, int, positive=True)
    n_geodesics = _field(params, "n_geodesics", 100, int, positive=True)
    assertions = []
    payload = {}

    def draw(k, count):
        # count samples of k points each, drawn point after point
        return space.sample_rows(rng, count * k).reshape(count, k, space.dimension)

    for check in checks:
        if check == "mccann":
            pot = _potential_from(_require(params, "mccann_potential"))
            expected = _field(params, "mccann_expect_pass", True, bool)
            rep = mccann_check(pot)
            payload["mccann"] = rep.to_json()
            assertions.append(("mccann", rep.passed == expected,
                               "; ".join(rep.violations) or "all predicates hold"))
            continue
        if check == "ekeland":
            ok, detail = _ekeland_exactness_cell(space, params)
            payload["ekeland"] = detail
            assertions.append(("ekeland_exactness", ok, detail))
            continue
        if check == "metric":
            worst, tol = check_metric_axioms(space, draw(3, n)), space.tol_metric
        elif check == "geodesic":
            worst, tol = check_geodesic_property(space, draw(2, n_geodesics)), space.tol_geo
        elif check == "kappa_convexity":
            worst = check_kappa_convexity(space, n_geodesics, rng=rng)
            tol = _field(params, "convexity_tol", 1e-8)
        elif check == "noise_identity":
            n_pairs = _field(params, "n_pairs", 20, int, positive=True)
            pairs = [(space.sample_point(rng), space.sample_point(rng)) for _ in range(n_pairs)]
            worst, tol = check_noise_identity(space, pairs, rng), 1e-4
        elif check == "jensen":
            worst = jensen_distance_check(space, draw(4, n))
            tol = _field(params, "jensen_tol", 1e-9)
        elif check == "sandwich":
            anchors, samples = space.sample_rows(rng, 5), space.sample_rows(rng, 20)
            worst = hamiltonian_sandwich_check(space, (0.5, 1.0, 2.0), anchors, samples)
            tol = 1e-4
        else:
            raise ConfigError(f"unknown properties check '{check}'")
        payload[check] = worst
        assertions.append((_PROPERTY_LABELS[check], worst <= tol, f"violation {worst:.3e}"))
    _write_json(out / "properties_report.json", payload)
    return assertions


def _ekeland_exactness_cell(space, params):
    """Exhaustive Ekeland run: a line problem on the space's chart plus a
    Tataru-penalized product-grid problem, both verified exhaustively."""
    n_line = _field(params, "ekeland_points", 2001, int, positive=True)
    xs = np.linspace(-5.0, 5.0, n_line)
    g = np.sin(3.0 * xs) - 0.1 * xs**2
    line = EkelandProblem(list(range(n_line)), g, lambda j: np.abs(xs - xs[j]), 0.05, 0)
    res = verify_ekeland_result(line, ekeland_optimize(line))
    ok = (res["inv1_slack"] >= -1e-12 and res["inv2_max"] <= 1e-12
          and res["uniqueness_margin"] > 0.0)

    base_rng = np.random.default_rng(5)
    base = [space.sample_point(base_rng) for _ in range(6)]
    n = len(base)
    g4 = np.random.default_rng(9).normal(0.0, 1.0, n**4)
    pen = product_penalty(tataru_matrix(space, base, 1e-2), (1.0, 1.0, 1.0, 1.0))
    prod = EkelandProblem(list(range(n**4)), g4, pen, 0.2, 0)
    res2 = verify_ekeland_result(prod, ekeland_optimize(prod))
    ok = ok and (res2["inv1_slack"] >= -1e-12 and res2["inv2_max"] <= 1e-12
                 and res2["uniqueness_margin"] > 0.0)
    return ok, f"line({n_line}) and product({n**4}) instances exhaustive"


_RUNNERS = {
    "flow": run_flow,
    "evi": run_evi,
    "tataru": run_tataru,
    "resolvent": run_resolvent,
    "viscosity": run_viscosity,
    "comparison": run_comparison,
    "quadruplication": run_quadruplication,
    "properties": run_properties,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str) -> int:
    t0 = time.time()
    try:
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        kind = _require(config, "kind")
        if kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind '{kind}'")
        space = build_space(_field(config, "space", kind=dict))
        out = Path(config.get("output_dir", "out"))
        out.mkdir(parents=True, exist_ok=True)
        seed = _field(config, "seed", 0, int)
        rng = np.random.default_rng(seed)
        params = _field(config, "params", {}, dict)
    except (ConfigError, UsageError, ConstructionError, OSError,
            json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        assertions = _RUNNERS[kind](space, params, out, rng)
    except (ConfigError, UsageError, DomainError) as exc:
        # DomainError: a point of the config or of an input table lies
        # outside the space
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
    for name in builtin_spaces():
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
