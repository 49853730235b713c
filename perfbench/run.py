"""evikit benchmark: run one workload through ``evikit.cli.run``.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; evikit is imported from ``src/``.  The
workload's configs and tables are made from the seed; then whole rounds
of its configs run, each config followed by a check of its result
files, until another round would end after ``--seconds``.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``); with ``--trace 1`` evikit's functions are
wrapped by timers (``tracing.py``) and the metrics are the per-layer
ones.  Every round's figures are written to
``.perfbench_out/<workload>/rounds.json``.  A config's time is its
median over rounds; ``run_s`` and the per-kind times add these up, and
``setup_s`` is the median over fresh processes.
The exit code is 1 when any config fails its run or its check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def import_cli():
    src = ROOT / "src"
    if not (src / "evikit" / "cli.py").is_file():
        sys.exit(f"perfbench: no evikit sources under {src}")
    sys.path.insert(0, str(src))
    import evikit.cli

    return evikit.cli


def setup_times(workload: str, seed: int) -> list[float]:
    """Seconds from the start of a fresh process to its first
    ``evikit.cli.run`` call: importing evikit and writing the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(seed), "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            sys.exit(f"perfbench: set-up process exited {proc.returncode}")
    return times


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(cli, ops, tracer) -> dict:
    before = tracer.snapshot() if tracer else {}
    seconds = {}
    failed = 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(str(op.config_path))
        except Exception:
            traceback.print_exc()
            code = None
        seconds[op.name] = time.perf_counter() - t0
        if tracer:
            tracer.add("cli.write.bytes", dir_bytes(op.output_dir))
        if code != 0:
            print(f"perfbench: {op.name}: evikit run returned {code}", file=sys.stderr)
            failed += 1
            continue
        try:
            op.check(op.output_dir)
        except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
            print(f"perfbench: {op.name}: check failed: {exc}", file=sys.stderr)
            failed += 1
    after = tracer.snapshot() if tracer else {}
    return {"seconds": seconds, "failed": failed,
            "trace": {k: v - before.get(k, 0.0) for k, v in after.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # the runner's default thread pool, as users run it
    os.environ.pop("EVIKIT_THREADS", None)
    work = WORK / args.workload

    if args.setup_only:
        import_cli()
        workloads.build(args.workload, args.seed, work / "setup")
        print("ready", flush=True)
        return 0

    cli = import_cli()
    shutil.rmtree(work, ignore_errors=True)
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, work)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, ops, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    def median(values):
        return float(statistics.median(values))

    # each config's median over rounds, so that a burst of load from
    # elsewhere on the machine during one round's run of a config is dropped
    op_s = {op.name: median([r["seconds"][op.name] for r in rounds]) for op in ops}
    kind_s = {kind: sum(op_s[op.name] for op in ops if op.kind == kind)
              for kind in workloads.KINDS}

    if tracer:
        metrics = {name: {"value": median([r["trace"].get(name, 0.0) for r in rounds]),
                          "unit": unit}
                   for name, unit in tracing.metric_units().items()}
        for kind, value in kind_s.items():
            metrics[f"{kind}_s"] = {"value": value, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "run_s": {"value": sum(op_s.values()), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    (work / "rounds.json").write_text(json.dumps(rounds, indent=1) + "\n")
    failed = sum(r["failed"] for r in rounds)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
