"""tools/bench_pairs.py: its summary on fixed numbers, and its runs and
result-file comparison on fake checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": name, "unit": "s", "better": "lower", "bound": 0.25}
           for name in ("fast", "noisy", "slow", "same", "clear")]


def runs_from(table):
    """Runs of workload "w", seed 0: table[side][metric] lists one value
    a pair."""
    runs = []
    for side, metrics in table.items():
        n = len(next(iter(metrics.values())))
        for pair in range(n):
            runs.append({"workload": "w", "seed": 0, "pair": pair + 1, "side": side,
                         "exit": 0, "attempted": 4, "failed": int(side == "change" and pair == 3),
                         "metrics": {name: values[pair] for name, values in metrics.items()}})
    return runs


def test_summary_on_fixed_numbers():
    ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    table = {
        "parent": {"fast": [78.0 + 0.1 * v for v in ten], "noisy": ten,
                   "slow": [10.0] * 10, "same": [2.0] * 10, "clear": [1.0] * 5 + [10.0] * 5},
        "change": {"fast": [61.0 + 0.1 * v for v in ten[::-1]], "noisy": ten[::-1],
                   "slow": [13.0] * 10, "same": [2.0] * 9 + [1.0], "clear": [0.99] * 10},
    }
    summary = bench_pairs.summarize(runs_from(table), METRICS)
    entry = summary["w"]["0"]
    assert entry["pairs"] == 10
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["nonzero_exits"] == {"parent": 0, "change": 0}
    fast = entry["metrics"]["fast"]
    # inclusive quartiles of 78.1 .. 79.0: positions 2.25, 4.5 and 6.75
    assert fast["parent"] == pytest.approx({"median": 78.55, "q1": 78.325, "q3": 78.775})
    assert fast["change"] == pytest.approx({"median": 61.55, "q1": 61.325, "q3": 61.775})
    assert fast["change_better"] == 10 and fast["verdict"] == "better"
    assert fast["relative"] == pytest.approx(61.55 / 78.55 - 1.0)
    noisy = entry["metrics"]["noisy"]
    assert noisy["change_better"] == 5 and noisy["verdict"] == "unresolved"
    assert noisy["parent"] == pytest.approx({"median": 5.5, "q1": 3.25, "q3": 7.75})
    slow = entry["metrics"]["slow"]
    assert slow["change_better"] == 0 and slow["verdict"] == "worse"
    same = entry["metrics"]["same"]
    # better in one pair only, and the medians are equal
    assert same["change_better"] == 1 and same["verdict"] == "within bound"
    clear = entry["metrics"]["clear"]
    # a spread wider than the bound, and wider than the gain, but every
    # run of the change is better than every run of the parent
    assert clear["parent"] == pytest.approx({"median": 5.5, "q1": 1.0, "q3": 10.0})
    assert clear["change_better"] == 10 and clear["verdict"] == "within bound"


def test_summary_skips_a_metric_a_side_did_not_report():
    runs = runs_from({"parent": {"fast": [1.0, 2.0, 3.0]}, "change": {"fast": [1.0, 2.0, 3.0]}})
    del runs[-1]["metrics"]["fast"]
    del runs[-2]["metrics"]["fast"]
    assert "fast" not in bench_pairs.summarize(runs, METRICS)["w"]["0"]["metrics"]


FAILING_RUN = """import sys
for i in range(50):
    print(f"line {i}", file=sys.stderr)
sys.exit(1)
"""


def test_a_failing_run_keeps_its_stderr_tail(tmp_path):
    """A run that exits non-zero keeps the last 40 lines of its stderr, so
    a refused pair can be told apart from a slow one afterwards."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAILING_RUN)
    run = bench_pairs.run_once(tmp_path, "w", 0)
    assert run["exit"] == 1 and run["metrics"] == {}
    assert run["stderr"] == [f"line {i}" for i in range(10, 50)]
    (tmp_path / "perfbench" / "run.py").write_text('print(\'{"attempted": 2, "failed": 0, '
                                                   '"metrics": {"run_s": {"value": 1.5}}}\')\n')
    assert bench_pairs.run_once(tmp_path, "w", 0) == {
        "exit": 0, "attempted": 2, "failed": 0, "metrics": {"run_s": 1.5}}


FAKE_RUN = """import json, sys, time
from pathlib import Path
out = Path(".perfbench_out") / sys.argv[2] / "out"
for name, text in {names}.items():
    (out / name).parent.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)
(out / "cfg" / "manifest.json").write_text(json.dumps({{"wall_time_s": time.time()}}))
print(json.dumps({{"attempted": 1, "failed": 0, "metrics": {{"run_s": {{"value": 1.0}}}}}}))
"""


def fake_checkout(root, names):
    """A checkout whose perfbench/run.py writes the result files names
    (path under out/ -> text) and a manifest.json that differs every run."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(names=names))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return root


def test_pairs_compare_result_files_but_not_manifests(tmp_path):
    same = {"cfg/result.csv": "x,f\r\n1.0,2.0\r\n", "cfg/report.json": "{}"}
    parent = fake_checkout(tmp_path / "parent", {**same, "only_parent.csv": "1"})
    change = fake_checkout(tmp_path / "change",
                           {**same, "cfg/report.json": '{"moved": 1}', "only_change.csv": "1"})
    out = tmp_path / "BENCH.json"
    args = ["--parent", str(parent), "--change", str(change), "--workloads", "w",
            "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    doc = json.loads(out.read_text())
    assert [o["pair"] for o in doc["outputs"]] == [1, 2]
    assert doc["outputs"][0]["files"] == 4 and doc["outputs"][0]["identical"] == 1
    assert doc["summary"]["w"]["0"]["outputs"] == {
        "pairs": 2, "files": 8, "identical": 2, "text": "2 of 8 identical",
        "differ": ["cfg/report.json", "only_change.csv", "only_parent.csv"]}


def test_identical_result_files(tmp_path):
    names = {"a/resolvent.csv": "x\r\n", "b/trajectory.csv": "t\r\n"}
    checkouts = {"parent": fake_checkout(tmp_path / "p", names),
                 "change": fake_checkout(tmp_path / "c", names)}
    for root in checkouts.values():
        bench_pairs.run_once(root, "w", 0)
    assert bench_pairs.compare_outputs(checkouts, "w") == {
        "files": 2, "identical": 2, "differ": []}
