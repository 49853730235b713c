"""Command-line runner: exit codes, determinism, manifest, built-ins."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evikit
import evikit.cli
import evikit.cli as cli
from evikit.cli import _ekeland_exactness_cell, list_builtins, run
from evikit.core import StatePoint, UsageError
from evikit.ekeland import quadruplicate
from evikit.hj import make_data_function, solve_resolvent, value_by_rollout
from evikit.spaces import CirSpace, QuadraticSpace
from evikit.tataru import (
    verify_tataru_flow_lipschitz,
    verify_tataru_lipschitz,
    verify_tataru_triangle,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def invoke(args, cwd):
    """Run `python -m evikit.cli` in a child process started in `cwd`.

    The child finds the package through an absolute path to `src`, put in
    front of any inherited PYTHONPATH, so a relative entry such as
    PYTHONPATH=src still works when `cwd` is elsewhere and nothing is
    installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "evikit.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestListBuiltins:
    def test_contains_all_names(self, capsys):
        assert list_builtins() == 0
        out = capsys.readouterr().out
        for name in ("cir", "ou", "allen_cahn", "wasserstein1d",
                     "entropy", "power", "quadratic",
                     "affine_clipped", "constant", "gaussian_bump"):
            assert name in out

    def test_stable_ordering(self, capsys):
        list_builtins()
        first = capsys.readouterr().out
        list_builtins()
        second = capsys.readouterr().out
        assert first == second


class TestRunConfigs:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def base_config(self, tmp_path, **overrides):
        cfg = {
            "space": {"space": "ou", "params": {"kappa": 1.0}},
            "kind": "evi",
            "params": {"x0": [1.0], "T": 0.2, "dt": 0.001, "tol": 0.01,
                       "probes": [[0.5], [-0.5]]},
            "output_dir": str(tmp_path / "out"),
            "seed": 0,
        }
        cfg.update(overrides)
        return cfg

    def test_successful_run_writes_manifest(self, tmp_path):
        cfg = self.base_config(tmp_path)
        assert run(self.write_config(tmp_path, cfg)) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["summary"]["passed"] is True
        assert manifest["config"]["kind"] == "evi"
        assert "evikit" in manifest["versions"]
        assert (tmp_path / "out" / "evi_report.json").exists()

    def test_negative_dt_is_config_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path)
        cfg["params"]["dt"] = -0.001
        assert run(self.write_config(tmp_path, cfg)) == 2

    def test_missing_field_named_in_message(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path)
        del cfg["params"]["probes"]
        code = run(self.write_config(tmp_path, cfg))
        assert code == 2

    def test_unknown_space_is_config_error(self, tmp_path):
        cfg = self.base_config(tmp_path, space={"space": "nope", "params": {}})
        assert run(self.write_config(tmp_path, cfg)) == 2

    def test_assertion_failure_exit_code(self, tmp_path):
        cfg = self.base_config(tmp_path)
        cfg["params"]["tol"] = 1e-12  # unattainably tight
        assert run(self.write_config(tmp_path, cfg)) == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = {
            "space": {"space": "cir", "params": {"mu": 1.0, "x_lo": 0.001,
                                                 "x_hi": 8.0}},
            "kind": "resolvent",
            "params": {"lambda": 1.0, "tol": 1e-16,
                       "h": {"name": "affine_clipped",
                             "params": {"slope": 1.0, "intercept": 0.0, "cap": 2.0}},
                       "n_grid": 200},
            "output_dir": str(tmp_path / "out"),
        }
        assert run(self.write_config(tmp_path, cfg)) == 3

    @pytest.mark.parametrize("cell", ["-0.5", "abc"])
    def test_bad_pairs_table_is_config_error(self, tmp_path, capsys, cell):
        # a CIR coordinate below 0 (DomainError) or a cell that is not a
        # number (ValueError) in a pairs_in table
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"pi_0,rho_0\n1.0,2.0\n0.5,{cell}\n")
        cfg = self.base_config(tmp_path, space={"space": "cir", "params": {"mu": 1.0}},
                               kind="tataru", params={"pairs_in": str(pairs)})
        assert run(self.write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("flow_dt", [0, -0.01])
    @pytest.mark.parametrize("route", ["suites", "pairs_in"])
    def test_flow_dt_not_positive_is_config_error(self, tmp_path, capsys, route, flow_dt):
        if route == "pairs_in":
            pairs = tmp_path / "pairs.csv"
            pairs.write_text("pi_0,rho_0\n1.0,2.0\n")
            params = {"pairs_in": str(pairs), "flow_dt": flow_dt}
        else:
            params = {"n_samples": 5, "flow_dt": flow_dt, "tol": 1e-4}
        cfg = self.base_config(tmp_path, space={"space": "cir", "params": {"mu": 1.0}},
                               kind="tataru", params=params)
        assert run(self.write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: flow_dt must be finite and positive, got {float(flow_dt)}\n")
        assert not (tmp_path / "out" / "tataru_values.csv").exists()
        assert not (tmp_path / "out" / "tataru_report.json").exists()

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5])
    def test_n_samples_not_a_positive_integer_is_config_error(self, tmp_path, capsys,
                                                               n_samples):
        cfg = self.base_config(tmp_path, kind="tataru",
                               params={"n_samples": n_samples, "tol": 1e-4})
        assert run(self.write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: config field 'n_samples' must be a positive integer, "
            f"got {n_samples!r}\n")
        assert not (tmp_path / "out" / "tataru_report.json").exists()

    def shipped_config(self, tmp_path, name):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        return cfg

    @pytest.mark.parametrize("name", ["cir_resolvent", "cir_viscosity", "cir_comparison",
                                      "ou_quadruplication"])
    @pytest.mark.parametrize("n_grid", [1, 2, -5])
    def test_grid_below_three_nodes_is_config_error(self, tmp_path, capsys, name, n_grid):
        cfg = self.shipped_config(tmp_path, name)
        cfg["params"].pop("rollout", None)
        if name == "ou_quadruplication":
            cfg["params"]["grid"]["n"] = n_grid
        else:
            cfg["params"]["n_grid"] = n_grid
        assert run(self.write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: a resolvent grid needs at least 3 nodes, got {n_grid}\n")

    @pytest.mark.parametrize("node", [-1, 800, 900])
    def test_rollout_node_off_the_grid_is_config_error(self, tmp_path, capsys, node):
        cfg = self.shipped_config(tmp_path, "cir_resolvent")
        cfg["params"]["rollout"]["nodes"] = [100, node]
        assert run(self.write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: rollout node {node} is not a node of the 800-node grid\n")
        assert not (tmp_path / "out" / "rollout.json").exists()

    def test_mms_convergence_reuses_the_configs_flow(self, tmp_path, monkeypatch):
        """The run's own minimizing movement is the convergence study's flow
        at dt, so it is not run twice."""
        steps = []

        def counting(space, p, T, dt):
            steps.append(dt)
            return flow_mms(space, p, T, dt)

        flow_mms = evikit.cli.flow_mms
        monkeypatch.setattr(evikit.cli, "flow_mms", counting)
        params = {"x0": [1.0], "T": 1.0, "dt": 1e-3, "mode": "mms",
                  "mms_convergence": {"dts": [4e-3, 2e-3, 1e-3]}}
        cfg = self.base_config(tmp_path, kind="flow", params=params)
        assert run(self.write_config(tmp_path, cfg)) == 0
        assert steps == [1e-3, 4e-3, 2e-3]

    def test_mms_convergence_compares_at_equal_times(self, tmp_path, capsys):
        """Minimizing movement at dt = 0.3 ends at 1.2 and at 0.15 or 0.075
        at 1.05, past T = 1: each end is compared with the closed form at
        its own time, not at T (which read ratios 2.20 and 1.76)."""
        params = {"x0": [1.0], "T": 1.0, "dt": 0.075,
                  "mms_convergence": {"dts": [0.3, 0.15, 0.075], "ratio_range": [1.0, 3.0]}}
        cfg = self.base_config(tmp_path, kind="flow", params=params)
        assert run(self.write_config(tmp_path, cfg)) == 0
        assert "mms_convergence: ratios ['1.88', '1.94']" in capsys.readouterr().out

    @pytest.mark.parametrize("params", [{"mode": "exact"},
                                        {"mms_convergence": {"dts": [0.02, 0.01]}}])
    def test_flow_without_closed_form_is_config_error(self, tmp_path, capsys, params):
        """A closed form asked of a state that has none: the quartic
        quadratic space registers no closed-form flow."""
        cfg = self.base_config(
            tmp_path, kind="flow",
            space={"space": "quadratic", "params": {"perturbation": "quartic"}},
            params={"x0": [1.0], "T": 0.1, "dt": 0.01, **params})
        assert run(self.write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: quadratic flow with perturbation has no closed form\n")

    def test_byte_identical_outputs(self, tmp_path):
        cfg = {
            "space": {"space": "cir", "params": {"mu": 1.0, "x_lo": 0.001,
                                                 "x_hi": 8.0}},
            "kind": "resolvent",
            "params": {"lambda": 1.0, "tol": 1e-06,
                       "h": {"name": "affine_clipped",
                             "params": {"slope": 1.0, "intercept": 0.0, "cap": 2.0}},
                       "n_grid": 300},
            "output_dir": str(tmp_path / "out"),
            "seed": 7,
        }
        path = self.write_config(tmp_path, cfg)
        assert run(path) == 0
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"}
        assert run(path) == 0
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"}
        assert first == second and first

    def test_tataru_report_byte_identical(self, tmp_path):
        # the suites run serially, drawing their seeds in listed order
        cfg = {
            "space": {"space": "cir", "params": {"mu": 1.0}},
            "kind": "tataru",
            "params": {"n_samples": 20, "flow_dt": 0.01, "tol": 0.001,
                       "suites": ["lipschitz", "flow_lipschitz", "triangle"]},
            "output_dir": str(tmp_path / "out"),
            "seed": 3,
        }
        path = self.write_config(tmp_path, cfg)
        reports = []
        for _ in range(2):
            assert run(path) == 0
            reports.append((tmp_path / "out" / "tataru_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_tataru_suites_draw_sample_after_sample(self, tmp_path):
        """Each suite's samples are the numbers of n samples of k
        sample_point draws each, from a generator seeded by the run's rng
        in listed suite order."""
        cfg = {"space": {"space": "cir", "params": {"mu": 1.0}}, "kind": "tataru",
               "params": {"n_samples": 7, "flow_dt": 0.01, "tol": 0.001,
                          "suites": ["triangle", "lipschitz", "flow_lipschitz"]},
               "output_dir": str(tmp_path / "out"), "seed": 5}
        assert run(self.write_config(tmp_path, cfg)) == 0
        report = json.loads((tmp_path / "out" / "tataru_report.json").read_text())
        space, rng = CirSpace(mu=1.0), np.random.default_rng(5)
        for suite, k, verify in (("triangle", 3, verify_tataru_triangle),
                                 ("lipschitz", 4, verify_tataru_lipschitz),
                                 ("flow_lipschitz", 2, verify_tataru_flow_lipschitz)):
            local = np.random.default_rng(rng.integers(2**63))
            samples = [[space.sample_point(local).coords for _ in range(k)] for _ in range(7)]
            assert report[suite] == verify(space, samples, flow_dt=0.01), suite

    def test_comparison_report_byte_identical(self, tmp_path):
        # the shifted-data cells run serially and draw nothing from rng,
        # so neither a rerun nor the order of the deltas moves the report
        cfg = {
            "space": {"space": "cir", "params": {"mu": 1.0, "x_lo": 0.001,
                                                 "x_hi": 8.0}},
            "kind": "comparison",
            "params": {"lambda": 1.0, "n_grid": 200, "tol": 1e-06,
                       "h": {"name": "affine_clipped",
                             "params": {"slope": 1.0, "intercept": 0.0, "cap": 2.0}},
                       "deltas": [0.05, 0.2, 0.5]},
            "output_dir": str(tmp_path / "out"),
            "seed": 0,
        }
        reports = []
        for deltas in ([0.05, 0.2, 0.5], [0.05, 0.2, 0.5], [0.5, 0.2, 0.05]):
            cfg["params"]["deltas"] = deltas
            assert run(self.write_config(tmp_path, cfg)) == 0
            reports.append((tmp_path / "out" / "comparison_report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]


def set_field(params, path, value):
    """Set the field at a dotted path ("rollout.nodes") of params to value."""
    *outer, key = path.split(".")
    for part in outer:
        params = params[part]
    params[key] = value


# (shipped config, dotted path of a float field under params) for each kind
FLOAT_FIELDS = [("ou_flow_contraction", "dt"), ("ou_flow_contraction", "contraction.tol"),
                ("ou_evi", "tol"), ("ou_cir_tataru", "flow_dt"), ("ou_cir_tataru", "tol"),
                ("cir_resolvent", "lambda"), ("cir_resolvent", "tol"),
                ("cir_resolvent", "rollout.dt"), ("cir_viscosity", "lambda"),
                ("cir_viscosity", "tol"), ("cir_comparison", "lambda"),
                ("cir_comparison", "tol"), ("ou_quadruplication", "lambda"),
                ("ou_quadruplication", "ratio_max"), ("cir_properties", "jensen_tol")]
# (shipped config, dotted path under params, malformed value)
OTHER_FIELDS = [
    ("cir_resolvent", "n_grid", 800.7),
    ("cir_viscosity", "n_grid", 800.7),
    ("cir_comparison", "n_grid", 800.7),
    ("cir_resolvent", "rollout.nodes", [100.5]),
    ("ou_flow_contraction", "x0", "abc"),
    ("ou_evi", "x0", "abc"),
    ("ou_evi", "probes", [[0.5], ["abc"]]),
    ("ou_flow_contraction", "contraction.q0", [None]),
    ("ou_quadruplication", "nu0", "abc"),
    ("ou_quadruplication", "grid.n", 41.5),
    ("ou_cir_tataru", "oracle.pi", ["abc"]),
    ("ou_cir_tataru", "n_samples", True),
    ("cir_viscosity", "sweep.a_values", [1.0, "2"]),
    ("cir_comparison", "deltas", [0.05, None]),
    ("mccann_checks", "mccann_expect_pass", "false"),
    ("cir_properties", "n_geodesics", 100.5),
    ("ou_mms_convergence", "mms_convergence.ratio_range", [1.7]),
    ("ou_flow_contraction", "mode", "exactt"),
    ("ou_flow_contraction", "mode", 5),
    ("ou_evi", "probes", []),
    ("ou_quadruplication", "alphas", []),
    ("cir_resolvent", "rollout.dt", 0),
    ("cir_resolvent", "rollout.dt", -0.005),
    ("cir_resolvent", "rollout.T", 0),
    ("cir_resolvent", "rollout.T", -10.0),
    ("cir_viscosity", "sweep.n_anchors", 0),
    ("cir_viscosity", "sweep.n_anchors", -3),
    ("cir_viscosity", "sweep.a_values", []),
    ("cir_viscosity", "sweep.b_values", []),
]

# (shipped config, dotted path under params of a nested object, a value of
# another JSON type)
SECTION_FIELDS = [
    ("cir_resolvent", "rollout", 5),
    ("cir_resolvent", "rollout.control", [-3.0, 3.0]),
    ("cir_resolvent", "h", "affine_clipped"),
    ("cir_viscosity", "sweep", [1]),
    ("ou_quadruplication", "grid", None),
    ("ou_flow_contraction", "contraction", [-1.0]),
    ("ou_mms_convergence", "mms_convergence", "abc"),
    ("ou_cir_tataru", "oracle", [0.0]),
    ("wasserstein_heat_mms", "x0.gaussian", 1.0),
]


class TestMalformedFields:
    """A malformed numeric or coordinate field is a config error (exit 2)
    that names the field, and the run writes no result file."""

    @staticmethod
    def shipped(tmp_path, name):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        return cfg

    @staticmethod
    def assert_config_error(tmp_path, capsys, cfg, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run(str(config)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"'{key}'" in err, err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def run_with(self, tmp_path, capsys, name, path, value):
        cfg = self.shipped(tmp_path, name)
        set_field(cfg["params"], path, value)
        self.assert_config_error(tmp_path, capsys, cfg, path.split(".")[-1])

    @pytest.mark.parametrize("value", ["abc", None, True, [1.0]],
                             ids=["string", "null", "bool", "list"])
    @pytest.mark.parametrize("name,path", FLOAT_FIELDS)
    def test_float_field(self, tmp_path, capsys, name, path, value):
        self.run_with(tmp_path, capsys, name, path, value)

    @pytest.mark.parametrize("name,path,value", OTHER_FIELDS)
    def test_integer_coordinate_and_bool_fields(self, tmp_path, capsys, name, path, value):
        self.run_with(tmp_path, capsys, name, path, value)

    @pytest.mark.parametrize("key,value", [("x_hi", "8"), ("mu", True), ("cap", None)])
    def test_space_and_data_function_parameters(self, tmp_path, capsys, key, value):
        cfg = self.shipped(tmp_path, "cir_resolvent")
        section = cfg["params"]["h"] if key == "cap" else cfg["space"]
        section["params"][key] = value
        self.assert_config_error(tmp_path, capsys, cfg, key)

    @pytest.mark.parametrize("name,path,value", SECTION_FIELDS)
    def test_section_must_be_an_object(self, tmp_path, capsys, name, path, value):
        self.run_with(tmp_path, capsys, name, path, value)

    @pytest.mark.parametrize("where", ["config", "space", "h"])
    def test_params_must_be_an_object(self, tmp_path, capsys, where):
        cfg = self.shipped(tmp_path, "cir_resolvent")
        section = {"config": cfg, "space": cfg["space"], "h": cfg["params"]["h"]}[where]
        section["params"] = [1.0]
        self.assert_config_error(tmp_path, capsys, cfg, "params")

    @pytest.mark.parametrize("name,h_params,reason", [
        ("cir_resolvent", {"slope": 1e308, "cap": 1e308}, "too steep"),
        ("cir_viscosity", {"slope": 1e308, "cap": 1e308}, "too steep"),
        ("cir_comparison", {"slope": 1e308, "cap": 1e308}, "too steep"),
        ("cir_resolvent", {"slope": 1e308, "cap": float("inf")}, "not finite"),
        ("cir_resolvent", {"cap": float("nan")}, "not finite"),
        # -inf below the origin
        ("ou_quadruplication", {"slope": 1e308, "cap": 1e308}, "not finite")])
    def test_data_function_unfit_for_the_grid(self, tmp_path, capsys, name, h_params, reason):
        """Data that is not finite on the resolvent grid, or whose difference
        quotients square to an overflow, is exit 2 before the solve and
        before any result file."""
        cfg = self.shipped(tmp_path, name)
        cfg["params"]["h"] = {"name": "affine_clipped",
                              "params": {"slope": 1.0, "intercept": 0.0, **h_params}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        with np.errstate(over="ignore"):
            assert run(str(tmp_path / "config.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the data function is " + reason), err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = self.shipped(tmp_path, "cir_comparison")
        cfg["params"].update(n_grid=200.0, deltas=[0.5])
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert run(str(tmp_path / "config.json")) == 0


class TestEkelandCell:
    def test_product_base_points_are_distinct(self, monkeypatch):
        # the product problem's base points come from one generator, so
        # they differ and its Tataru penalty is not identically zero
        seen = []

        def recording(space, base, flow_dt=1e-2):
            matrix = tataru_matrix(space, base, flow_dt)
            seen.append((base, matrix))
            return matrix

        tataru_matrix = evikit.cli.tataru_matrix
        monkeypatch.setattr(evikit.cli, "tataru_matrix", recording)
        ok, _ = _ekeland_exactness_cell(QuadraticSpace(), {"ekeland_points": 201})
        assert ok
        (base, matrix), = seen
        assert len({p.coords for p in base}) == len(base) == 6
        assert np.max(matrix[~np.eye(len(base), dtype=bool)]) > 0.0


class TestShippedConfigs:
    def test_every_experiment_kind_is_shipped(self):
        kinds = set()
        for path in CONFIGS.glob("*.json"):
            kinds.add(json.loads(path.read_text())["kind"])
        assert {"flow", "evi", "tataru", "resolvent", "viscosity", "comparison",
                "quadruplication", "properties"} <= kinds

    def test_shipped_configs_parse_and_validate(self):
        paths = sorted(CONFIGS.glob("*.json"))
        for path in paths:
            cli.read_config(json.loads(path.read_text()))
        assert len(paths) == 15

    def test_benchmark_configs_read(self, tmp_path, monkeypatch):
        """Every config the benchmark writes, at seeds 0-4, reads through
        the tables.  perfbench/ is only read: no bytecode is written."""
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        paths = [op.config_path for name in workloads.WORKLOADS for seed in range(5)
                 for op in workloads.build(name, seed, tmp_path / f"{name}_{seed}")]
        for path in paths:
            cli.read_config(json.loads(path.read_text()))
        assert len(paths) == 5 * 19

    def test_quick_config_runs_from_cli(self, tmp_path):
        res = invoke(["run", str(CONFIGS / "ou_flow_contraction.json")], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "[PASS]" in res.stdout

    def test_cli_usage_error(self, tmp_path):
        res = invoke(["run", str(tmp_path / "missing.json")], tmp_path)
        assert res.returncode == 2


# ---------------------------------------------------------------------------
# The field tables: bad inputs made from the tables themselves
# ---------------------------------------------------------------------------

# a config that reads, for each table a field can be reached through:
# every kind's, the tataru pairs table, every space's and the nested ones
BASES = {name: json.loads((CONFIGS / f"{name}.json").read_text())
         for name in ("ou_flow_contraction", "ou_mms_convergence", "wasserstein_heat_mms",
                      "ou_evi", "ou_cir_tataru", "cir_resolvent", "cir_viscosity",
                      "cir_comparison", "ou_quadruplication", "cir_properties",
                      "mccann_checks", "allen_cahn_properties")}
BASES["tataru_pairs"] = {"space": {"space": "ou", "params": {"kappa": 1.0}}, "kind": "tataru",
                         "params": {"pairs_in": "pairs.csv", "flow_dt": 0.01}}
BASES["quadratic_evi"] = {"space": {"space": "quadratic",
                                    "params": {"dimension": 1, "kappa": 1.0,
                                               "perturbation": "zero"}},
                          "kind": "evi", "params": {"x0": [1.0], "T": 0.1, "dt": 0.01,
                                                    "tol": 0.1, "probes": [0.5]}}

# a grid solve on the scalar quadratic space, the one that reads x_lo and x_hi
BASES["ou_resolvent"] = {"space": {"space": "ou", "params": {"kappa": 1.0}},
                         "kind": "resolvent",
                         "params": {"lambda": 1.0, "n_grid": 50, "x_lo": -2.0, "x_hi": 2.0,
                                    "h": {"name": "constant", "params": {"value": 1.0}}}}

NAN, INF = float("nan"), float("inf")


def wrong_values(spec):
    """(value, the name its config error must quote, or None for the
    field's own) for values the field's spec refuses: NaN and +-inf, a
    wrong type, 0 and a negative where it must be positive, an empty list
    or a list with a bad item, a string outside its choices, and an object
    with an unknown key."""
    kind = spec.kind
    bad = [NAN, INF, -INF]
    if kind is float or kind is int:
        bad += ["1", None, True, [1]] + ([2.5] if kind is int else [])
        bad += [0, -1] if spec.positive else []
    elif kind is bool:
        bad += [1, "true", None]
    elif kind is str:
        bad += [5, None, ["a"]] + (["no_such_choice"] if spec.choices else [])
    elif isinstance(kind, list) and len(kind) == 1:
        item = cli.Field(kind[0], positive=spec.positive, choices=spec.choices)
        bad += ["abc", {}, [], [None]] + [[v] for v, own in wrong_values(item) if own is None]
    elif isinstance(kind, list):
        bad += ["abc", {}, [], [1.0], [1.0, 2.0, 3.0], [NAN, 2.0]]
    elif kind is cli._STATE:
        bad += ["abc", None, True, [], [NAN], [1.0, "2"]]
        return [(v, None) for v in bad] + [({"gaussian": None}, "gaussian"),
                                           ({"no_such_field": 1}, "no_such_field")]
    elif kind in (cli._POTENTIAL, cli._DATA_FUNCTION):
        name = cli._BUILTINS[kind][1][0]
        bad += [5, None, []] + ([name] if kind is cli._DATA_FUNCTION else [])
        return [(v, None) for v in bad] + [
            ({}, "name"), ({"name": 5}, "name"), ({"name": "no_such_builtin"}, "name"),
            ({"name": name, "params": {"p": "abc"}}, "p"),
            ({"name": name, "params": [1.0]}, "params"),
            ({"name": name, "no_such_field": 1}, "no_such_field")]
    else:   # an object: a nested table, or one a sibling's table reads
        bad += [5, None, [], "abc"]
        return [(v, None) for v in bad] + [({"no_such_field": 1}, "no_such_field")]
    return [(v, None) for v in bad]


def fields(section, table, path=()):
    """(path, key, spec, table) of every field of table and of the nested
    tables whose objects section holds."""
    for key, spec in table.items():
        yield path, key, spec, table
        nested = (spec.kind if isinstance(spec.kind, dict)
                  else cli._GAUSSIAN_STATE if spec.kind is cli._STATE else None)
        if nested is not None and isinstance(section.get(key), dict):
            yield from fields(section[key], nested, path + (key,))


def cases(cfg):
    """(path into cfg, bad value, the name its error must quote, the table
    of the field, its key) for every field the config's tables declare,
    and an unknown key in each object."""
    read = cli.read_config(json.loads(json.dumps(cfg)))
    params = cfg.get("params", {})
    kind_table = (cli._TATARU_PAIRS if "pairs_in" in params
                  else cli._KINDS[read["kind"]][1])
    for prefix, section, table in (((), cfg, cli._CONFIG),
                                   (("params",), params, kind_table),
                                   (("space", "params"), cfg["space"].get("params", {}),
                                    cli._SPACES[read["space"]["space"]][1])):
        objects = set()
        for path, key, spec, owner in fields(section, table):
            for value, own in wrong_values(spec):
                yield prefix + path + (key,), value, own or key, owner, key
            if path not in objects:
                objects.add(path)
                yield prefix + path + ("no_such_field",), 1, "no_such_field", None, None


def declared():
    """(id of its table, key) of every field a table declares."""
    out = set()
    todo = [cli._CONFIG, cli._TATARU_PAIRS, cli._GAUSSIAN_STATE]
    todo += [table for _, table in [*cli._KINDS.values(), *cli._SPACES.values()]]
    while todo:
        table = todo.pop()
        for key, spec in table.items():
            out.add((id(table), key))
            kinds = spec.kind if isinstance(spec.kind, list) else [spec.kind]
            todo += [k for k in kinds if isinstance(k, dict)]
    return out


class TestFieldTables:
    """Every field of every table refuses what its table says it must:
    exit 2, a config error quoting the field, and no result file."""

    def test_every_declared_field_is_tried(self):
        tried = {(id(owner), key) for cfg in BASES.values()
                 for *_, owner, key in cases(cfg) if owner is not None}
        assert declared() - tried == set()

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_bad_values_are_config_errors(self, tmp_path, capsys, name):
        out, path = tmp_path / "out", tmp_path / "config.json"
        for where, value, quoted, _, _ in cases(BASES[name]):
            cfg = json.loads(json.dumps(BASES[name]))
            cfg["output_dir"] = str(out)
            set_field(cfg, ".".join(where), value)
            path.write_text(json.dumps(cfg))
            assert run(str(path)) == 2, (where, value)
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and f"'{quoted}'" in err, (where, value, err)
            assert not out.exists(), (where, value)

    @pytest.mark.parametrize("name", sorted(cli._SPACES))
    def test_space_tables_match_the_constructors(self, name):
        """Every field of a space's table is a parameter of its class,
        every required parameter a required field, and where both have a
        default the two are equal."""
        cls, table = cli._SPACES[name]
        params = inspect.signature(cls).parameters
        assert set(table) <= set(params)
        for key, param in params.items():
            if param.default is inspect.Parameter.empty:
                assert key in table and table[key].default is cli._REQUIRED, key
        for key, spec in table.items():
            if spec.default is not cli._REQUIRED:
                assert spec.default == params[key].default, key


def test_public_names_resolve():
    assert [name for name in evikit.__all__ if not hasattr(evikit, name)] == []


DELETE = object()
# (shipped config, dotted path in it, value or DELETE, the field the error names)
PROBES = [
    ("cir_viscosity", "params.tol_facter", 1e-9, "tol_facter"),
    ("cir_resolvent", "no_such_key", 1, "no_such_key"),
    ("ou_evi", "params.tol", INF, "tol"),
    ("cir_resolvent", "params.tol", INF, "tol"),
    ("cir_viscosity", "params.tol_factor", NAN, "tol_factor"),
    ("cir_comparison", "params.deltas", [], "deltas"),
    ("cir_tataru", "params.suites", [], "suites"),
    ("cir_resolvent", "params.rollout.nodes", [], "nodes"),
    ("cir_resolvent", "params.rollout.nodes", DELETE, "nodes"),
    ("ou_flow_contraction", "params.T", INF, "T"),
    ("ou_quadruplication", "params.x_lo", -2.0, "x_lo"),
    # read and then ignored: cir's resolvent grid spans its domain, a
    # misspelt data parameter
    ("cir_resolvent", "params.x_lo", -1.0, "x_lo"),
    ("cir_viscosity", "params.x_hi", 1.0, "x_hi"),
    ("cir_comparison", "params.x_lo", 0.5, "x_lo"),
    # no flow reads JKO tolerances: the inner solve's are fixed
    ("ou_flow_contraction", "params.jko_inner_tol", 1e-10, "jko_inner_tol"),
    ("ou_flow_contraction", "params.jko_max_iter", 100, "jko_max_iter"),
    ("wasserstein_heat_mms", "params.jko_inner_tol", 1e-10, "jko_inner_tol"),
    ("ou_mms_convergence", "params.jko_max_iter", 400, "jko_max_iter"),
    ("cir_resolvent", "params.h.params.slop", 5.0, "slop"),
    ("ou_quadruplication", "params.h.params.slope", 1.0, "slope"),
]


@pytest.mark.parametrize("name,path,value,key", PROBES)
def test_probe_is_config_error(tmp_path, capsys, name, path, value, key):
    """Configs that ran and passed while checking less than they said, or
    stopped with a traceback: an infinite bound is written as 1e999, which
    Python's json reads as inf."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    *outer, last = path.split(".")
    section = cfg
    for part in outer:
        section = section[part]
    if value is DELETE:
        del section[last]
    else:
        section[last] = value
    (tmp_path / "config.json").write_text(json.dumps(cfg).replace("Infinity", "1e999"))
    assert run(str(tmp_path / "config.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{key}'" in err, err
    assert not (tmp_path / "out").exists()


def test_quadratic_resolvent_solves_on_x_lo_x_hi(tmp_path):
    grids = []
    for lo, hi in ((-2.0, 2.0), (-1.0, 3.0)):
        cfg = json.loads(json.dumps(BASES["ou_resolvent"]))
        cfg["params"].update(x_lo=lo, x_hi=hi)
        cfg["output_dir"] = str(tmp_path / str(lo))
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert run(str(tmp_path / "config.json")) == 0
        grids.append(json.loads((tmp_path / str(lo) / "resolvent.json").read_text())["grid"])
    assert grids == [{"n": 50, "lo": -2.0, "hi": 2.0}, {"n": 50, "lo": -1.0, "hi": 3.0}]


def test_quadruplication_solves_on_its_grid(tmp_path):
    """grid.lo and grid.hi are the resolvent's domain: moving them moves
    the report."""
    reports = []
    for lo, hi in ((-2.0, 2.0), (-1.0, 1.0)):
        cfg = json.loads((CONFIGS / "ou_quadruplication.json").read_text())
        cfg["params"]["grid"].update(lo=lo, hi=hi)
        cfg["output_dir"] = str(tmp_path / str(lo))
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert run(str(tmp_path / "config.json")) in (0, 1)
        reports.append((tmp_path / str(lo) / "quadruplication_report.json").read_bytes())
    assert reports[0] != reports[1]


CIR_QUADRUPLICATION = {
    "space": {"space": "cir", "params": {"mu": 1.0, "x_lo": 1e-3, "x_hi": 8.0}},
    "kind": "quadruplication",
    "params": {"lambda": 1.0, "grid": {"n": 41}, "nu0": [1.0],
               "h": {"name": "gaussian_bump",
                     "params": {"center": 0.7, "width": 0.6, "height": 1.0}}}}


@pytest.mark.parametrize("grid,key", [({"lo": -2.0, "hi": 2.0, "n": 41}, "lo"),
                                      ({"lo": 0.5, "n": 41}, "lo"),
                                      ({"hi": 3.0}, "hi")])
def test_cir_quadruplication_grid_bounds_are_unknown_keys(tmp_path, capsys, grid, key):
    """On cir the grid spans the space's domain, so grid.lo and grid.hi,
    which the run would ignore, are unknown keys."""
    cfg = json.loads(json.dumps(CIR_QUADRUPLICATION))
    cfg["params"]["grid"] = grid
    cfg["output_dir"] = str(tmp_path / "out")
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run(str(tmp_path / "config.json")) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown config field '{key}'; expected one of ['n']\n")
    assert not (tmp_path / "out").exists()


def test_cir_quadruplication_solves_on_the_domain(tmp_path):
    """{"grid": {"n": 41}} on cir writes the report of the two resolvents
    on the 41-node grid spanning [x_lo, x_hi]."""
    cfg = json.loads(json.dumps(CIR_QUADRUPLICATION))
    cfg["output_dir"] = str(tmp_path / "out")
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run(str(tmp_path / "config.json")) == 0
    space = CirSpace(mu=1.0, x_lo=1e-3, x_hi=8.0)
    h = make_data_function("gaussian_bump", center=0.7, width=0.6, height=1.0)
    xs = np.linspace(1e-3, 8.0, 41)
    u = solve_resolvent(space, 1.0, h, xs, 1e-8)
    v = solve_resolvent(space, 1.0, lambda x: 0.9 * h(x), xs, 1e-8)
    quadruplicate(space, u.f, v.f, [10.0, 100.0, 1000.0], StatePoint.of(1.0)).write_json(
        tmp_path / "expected.json")
    assert ((tmp_path / "out" / "quadruplication_report.json").read_bytes()
            == (tmp_path / "expected.json").read_bytes())


# spaces with no scalar control problem, and the fields each grid-solve kind needs
NO_CONTROL = {"allen_cahn": {"grid_size": 8, "length": 6.0, "kappa": 1.0},
              "quadratic": {"dimension": 2},
              "wasserstein1d": {"m": 8}}
GRID_SOLVES = {"resolvent": {}, "viscosity": {}, "comparison": {"deltas": [0.1]},
               "quadruplication": {}}


@pytest.mark.parametrize("kind", sorted(GRID_SOLVES))
@pytest.mark.parametrize("name", sorted(NO_CONTROL))
def test_grid_solve_needs_a_scalar_control_problem(tmp_path, capsys, name, kind):
    """Every grid-solve kind on a space without a scalar control problem
    is exit 2 with the resolvent's own UsageError, which a rollout on that
    space raises too."""
    cfg = {"space": {"space": name, "params": NO_CONTROL[name]}, "kind": kind,
           "params": {"lambda": 1.0, "h": {"name": "constant"}, **GRID_SOLVES[kind]},
           "output_dir": str(tmp_path / "out")}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run(str(tmp_path / "config.json")) == 2
    read = cli.read_config(cfg)
    space = cli._SPACES[name][0](**read["space"]["params"])
    with pytest.raises(UsageError) as exc:
        value_by_rollout(space, 1.0, make_data_function("constant"),
                         np.zeros((1, space.dimension)), np.zeros(1), 0.1, 1.0,
                         np.linspace(-1.0, 1.0, 5))
    assert capsys.readouterr().err == f"config error: {exc.value}\n"
    assert f"space '{name}' has no scalar control problem" in str(exc.value)


def test_noise_identity_above_dimension_one_is_config_error(tmp_path, capsys):
    """The sup over a sphere of finitely many directions misses the
    gradient's above dimension 1, where the check read a false violation
    (0.585 on this config) and exited 1."""
    cfg = {"space": {"space": "quadratic", "params": {"dimension": 2}}, "kind": "properties",
           "params": {"checks": ["noise_identity"]}, "output_dir": str(tmp_path / "out")}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run(str(tmp_path / "config.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: space 'quadratic' has dimension 2"), err
    assert not (tmp_path / "out" / "properties_report.json").exists()
