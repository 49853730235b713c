"""The benchmark's traced run still finds every evikit function it wraps.

perfbench/tracing.py rebinds evikit functions by name and reads counters
from their arguments and results.  A rename or a changed signature can
pass every other test and still break the traced run, so this runs, under
the tracer, a small resolvent config (with rollout), a small viscosity
config, a minimizing-movement EVI config, a Tataru pairs table without
a closed-form flow, a small quadruplication config, an Ekeland properties
check, two Tataru suite configs and two properties configs, in a child
process started at the repository root.  It checks that the
counters moved, that the viscosity sweeps make one tataru_batch call per
anchor and build no StatePoint beyond the anchors, and that neither the suites nor the property checks build a
StatePoint per sample.  It only reads perfbench/: the child
writes no bytecode and its results go to tmp_path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)   # raises if a wrapped name is gone
import evikit.cli
codes, runs = [], []
for path in sys.argv[1:]:
    codes.append(evikit.cli.run(path))
    runs.append(tracer.snapshot())
print(json.dumps({"codes": codes, "totals": tracer.snapshot(), "runs": runs}))
"""

CIR = {"space": "cir", "params": {"mu": 1.0, "x_lo": 1e-3, "x_hi": 8.0}}
OU = {"space": "ou", "params": {"kappa": 1.0}}
H = {"name": "affine_clipped", "params": {"slope": 1.0, "cap": 2.0}}
# no closed-form flow: EVI and d_T run on minimizing movement
QUAD_JKO = {"space": "quadratic",
            "params": {"dimension": 1, "kappa": 1.0, "perturbation": "zero"}}


def test_traced_runs_count_every_hook(tmp_path):
    params = {
        "resolvent": {"lambda": 1.0, "h": H, "n_grid": 200, "tol": 1e-6,
                      "rollout": {"nodes": [40, 120], "dt": 1e-2, "T": 2.0,
                                  "control": {"lo": -3.0, "hi": 3.0, "n": 11}}},
        "viscosity": {"lambda": 1.0, "h": H, "n_grid": 200, "tol": 1e-6,
                      "sweep": {"a_values": [1.0, 2.0], "b_values": [1e-2, 1e-1],
                                "n_anchors": 2}},
    }
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("pi_0,rho_0\n0.0,1.0\n0.5,-0.7\n-1.0,-1.02\n")
    params["evi"] = {"x0": [1.0], "T": 0.05, "dt": 1e-2, "tol": 1.0,
                     "probes": [[0.5], [-0.5]]}
    params["tataru"] = {"pairs_in": str(pairs), "flow_dt": 0.05}
    configs = [(kind, QUAD_JKO if kind in ("evi", "tataru") else CIR, kind, p)
               for kind, p in params.items()]
    # the Ekeland path: a small OU quadruplication and the exhaustive
    # Ekeland cell of the properties kind
    configs.append(("quadruplication", OU, "quadruplication",
                    {"lambda": 1.0, "h": {"name": "gaussian_bump",
                                          "params": {"center": 0.7, "width": 0.6}},
                     "grid": {"n": 41}}))
    configs.append(("ekeland", OU, "properties", {"checks": ["ekeland"], "ekeland_points": 201}))
    # the OU suites with the d_T(0, e) oracle, at two sample counts
    for n in (5, 50):
        configs.append((f"suites_{n}", OU, "tataru",
                        {"n_samples": n, "flow_dt": 0.01, "tol": 1e-3,
                         "oracle": {"pi": [0.0], "rho": [2.718281828459045]}}))
    # the row-drawn property checks, at two sample counts
    for n in (10, 100):
        configs.append((f"properties_{n}", {"space": "cir", "params": {"mu": 1.0}},
                        "properties",
                        {"checks": ["metric", "geodesic", "kappa_convexity", "jensen"],
                         "n_samples": n, "n_geodesics": n}))
    paths = []
    for name, space, kind, p in configs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"space": space, "kind": kind, "params": p,
                                    "output_dir": str(tmp_path / name), "seed": 0}))
        paths.append(str(path))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, "-c", CHILD, *paths], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0] * len(configs)
    totals = out["totals"]
    for counter in ("core.StatePoint.of.calls", "hj.value_by_rollout.calls",
                    "hj.solve_resolvent_1d.iterations", "cli.write.calls",
                    "tataru.tataru_batch.pairs", "flow.jko_step.calls",
                    "flow.flow_mms.calls", "flow.verify_evi.calls",
                    "ekeland.quadruplicate.calls", "ekeland.tataru_matrix.calls",
                    "ekeland.ekeland_optimize.calls", "flow.fit_quadratic_lower_bound.calls"):
        assert totals.get(counter, 0) > 0, counter
    # one tataru_batch call per distinct anchor in each of the two reports,
    # however many (a, b) share it
    report = json.loads((tmp_path / "viscosity" / "viscosity_report.json").read_text())
    anchors = {tuple(r["anchor_tataru"]) for r in report["subsolution"]["records"]}
    assert len(report["subsolution"]["records"]) == 4 * len(anchors)
    visc = [name for name, *_ in configs].index("viscosity")
    before, after = ({} if visc == 0 else out["runs"][visc - 1]), out["runs"][visc]
    assert (after["tataru.tataru_batch.calls"] - before.get("tataru.tataru_batch.calls", 0)
            == 2 * len(anchors))
    # the anchors are the only StatePoints the viscosity config builds: the
    # sweeps read node energies from the grid's chart rows
    assert (after["core.StatePoint.of.calls"] - before.get("core.StatePoint.of.calls", 0)
            == params["viscosity"]["sweep"]["n_anchors"])
    built = [after.get("core.StatePoint.of.calls", 0) - before.get("core.StatePoint.of.calls", 0)
             for before, after in zip(out["runs"][-5:-1], out["runs"][-4:])]
    # the suites' samples are coordinate rows: the two oracle points are the
    # only StatePoints either suite config builds, whatever its sample count;
    # the property checks build none
    assert built == [2, 2, 0, 0]
