"""Alternated benchmark pairs: a parent checkout against a change checkout.

    python3 tools/bench_pairs.py --parent <dir> --change <dir> --out BENCH_<n>.json \
        --workloads hj_comparison tataru_closed_form --seed 0 --pairs 10

Each pair runs ``python3 perfbench/run.py --workload W --seed S`` once in
each checkout, from its root; the side that runs first alternates from
pair to pair, so a drift in the machine's load falls on both sides
alike.  Every run's exit code, operation counts and end-to-end metrics,
and the last lines of its stderr when it exits non-zero, go to the output
file.  After each pair the result files the two runs wrote under
``.perfbench_out/<workload>/out/`` are compared byte for byte,
``manifest.json`` left out, since it records wall times.  The output file
also holds a summary per workload and seed: how many of the compared
files were identical and the names of those that were not, and for each
metric each side's median and quartiles, the number of pairs in which
the change is better, and a verdict against the bound of that metric in
the parent's ``BENCHMARK.json``.  If the output file exists, its runs
and comparisons are kept and the summary is made again over all of them,
so one file can gather several seeds.  Only the standard library is
used, and nothing under either checkout's ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
STDERR_LINES = 40   # kept from the end of a failing run's stderr
UNCOMPARED = {"manifest.json"}   # result files that record wall times


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in checkout, at the run length perfbench sets: its
    exit code, operation counts and metric values (none when it printed
    no result line), and for a run that exits non-zero the last
    STDERR_LINES lines of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    run = {"exit": res.returncode,
           "attempted": result.get("attempted"),
           "failed": result.get("failed"),
           "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}
    if res.returncode != 0:
        run["stderr"] = res.stderr.splitlines()[-STDERR_LINES:]
    return run


def compare_outputs(checkouts: dict, workload: str) -> dict:
    """The result files of the checkouts' last runs of workload, compared
    byte for byte: their number over both sides, how many are identical,
    and the sorted paths, relative to ``out/``, of those that differ or
    that only one side wrote."""
    files = {}
    for side in SIDES:
        base = checkouts[side] / ".perfbench_out" / workload / "out"
        files[side] = {p.relative_to(base).as_posix(): p for p in base.rglob("*")
                       if p.is_file() and p.name not in UNCOMPARED}
    names = sorted(files["parent"].keys() | files["change"].keys())
    differ = [name for name in names
              if not (name in files["parent"] and name in files["change"]
                      and files["parent"][name].read_bytes() == files["change"][name].read_bytes())]
    return {"files": len(names), "identical": len(names) - len(differ), "differ": differ}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict], outputs: list[dict] = ()) -> dict:
    """{workload: {seed: {"failed": ..., "metrics": {name: ...}}}} over the
    runs, with metrics the parent's ``end_to_end`` list of BENCHMARK.json.

    outputs holds one compare_outputs result a pair, with its workload,
    seed and pair; a workload and seed that has any gets ``"outputs"``:
    the files compared over its pairs, how many were identical, the text
    "n of m identical", and the sorted paths that differed in any pair.

    A metric's entry holds each side's median and quartiles over the
    pairs in which both sides reported it, ``change_better`` (the number
    of those pairs in which the change's value is better), ``relative``
    (the change's median over the parent's, less 1) and a verdict:
    ``better`` when the change is better in at least nine pairs in ten
    and its median beats the parent's by more than the parent's quartile
    spread; ``worse`` when its median is worse by more than the bound;
    ``unresolved`` when the parent's quartile spread exceeds the bound,
    unless every run of the change is better than every run of the
    parent; else ``within bound``.  Bounds are relative to the parent's median.
    """
    groups: dict = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    out: dict = {}
    for (workload, seed), pairs in sorted(groups.items()):
        failed = {side: sum(p[side]["failed"] or 0 for p in pairs.values() if side in p)
                  for side in SIDES}
        bad_exits = {side: sum(p[side]["exit"] != 0 for p in pairs.values() if side in p)
                     for side in SIDES}
        entry = {"pairs": len(pairs), "failed": failed, "nonzero_exits": bad_exits,
                 "metrics": {}}
        compared = [o for o in outputs if (o["workload"], o["seed"]) == (workload, seed)]
        if compared:
            files = sum(o["files"] for o in compared)
            identical = sum(o["identical"] for o in compared)
            entry["outputs"] = {"pairs": len(compared), "files": files, "identical": identical,
                                "text": f"{identical} of {files} identical",
                                "differ": sorted({name for o in compared for name in o["differ"]})}
        for metric in metrics:
            name = metric["name"]
            lower = metric["better"] == "lower"

            def better(x, y):
                return x < y if lower else x > y

            both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                    for _, p in sorted(pairs.items())
                    if all(name in p.get(side, {}).get("metrics", {}) for side in SIDES)]
            if len(both) < 2:
                continue
            parents, changes = [a for a, _ in both], [b for _, b in both]
            parent, change = quartiles(parents), quartiles(changes)
            wins = sum(better(b, a) for a, b in both)
            gain = (parent["median"] - change["median"]) * (1 if lower else -1)
            spread = parent["q3"] - parent["q1"]
            relative = change["median"] / parent["median"] - 1.0
            if wins >= 0.9 * len(both) and gain > spread:
                verdict = "better"
            elif -gain > metric["bound"] * abs(parent["median"]):
                verdict = "worse"
            elif (spread > metric["bound"] * abs(parent["median"])
                  and not all(better(b, a) for a in parents for b in changes)):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            entry["metrics"][name] = {"unit": metric["unit"], "bound": metric["bound"],
                                      "parent": parent, "change": change,
                                      "change_better": wins, "pairs": len(both),
                                      "relative": relative, "verdict": verdict}
        out.setdefault(workload, {})[str(seed)] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    runs, outputs = doc["runs"], doc.setdefault("outputs", [])
    for workload in args.workloads:
        start = 1 + max((r["pair"] for r in runs
                         if r["workload"] == workload and r["seed"] == args.seed), default=0)
        for pair in range(start, start + args.pairs):
            order = SIDES if pair % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, args.seed)
                runs.append({"workload": workload, "seed": args.seed, "pair": pair,
                             "side": side, "ran": "first" if position == 0 else "second",
                             **run})
                print(f"{workload} seed {args.seed} pair {pair} {side}: exit {run['exit']} "
                      f"{json.dumps(run['metrics'])}", flush=True)
            compared = compare_outputs(checkouts, workload)
            outputs.append({"workload": workload, "seed": args.seed, "pair": pair, **compared})
            print(f"{workload} seed {args.seed} pair {pair}: {compared['identical']} of "
                  f"{compared['files']} result files identical", flush=True)
            doc["summary"] = summarize(runs, bench["end_to_end"], outputs)
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
