"""The golden result files of the shipped configs.

    python3 tools/golden.py

runs every ``configs/*.json`` of this checkout and rewrites
``tests/golden/``: ``<config>/<file>`` for each result file a config
writes (``manifest.json`` left out, since it records wall times), and
``versions.json``, the Python, numpy and scipy versions that wrote them.
It prints each file that moved, with the largest difference between its
old and new numbers.  ``tests/test_golden.py`` runs the configs again and
compares: byte for byte on the recorded versions, and on any other stack
number by number, within ``TOL`` relative to 1 or the number's size
when that is larger, since a last bit may move there.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "tests" / "golden"
VERSIONS = "versions.json"
UNCOMPARED = {"manifest.json"}   # result files that record wall times
TOL = 1e-12


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "python": platform.python_version(),
            "scipy": scipy.__version__}


def run_configs(dest: Path) -> dict:
    """Run every shipped config with its output under dest/<config name>;
    the exit code of each, by name."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from evikit.cli import run

    exits = {}
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        cfg["output_dir"] = str(dest / path.stem)
        config = dest / f"{path.stem}.config.json"
        config.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            exits[path.stem] = run(str(config))
        config.unlink()
    return exits


def result_files(root: Path) -> dict:
    """{path relative to root: path} of every result file in the config
    directories under root."""
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in UNCOMPARED and p.parent != root}


def _parse(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.reader(io.StringIO(text, newline="")))
    return json.loads(text)


def _apart(a, b) -> float:
    """The largest difference between the numbers of a and b, relative to
    1 or the number's size when that is larger; inf where they differ in
    anything else.  CSV cells are strings that may hold numbers."""
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            a, b = float(a), float(b)
        except ValueError:
            return math.inf
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        return abs(a - b) / max(1.0, abs(a)) if math.isfinite(a - b) else math.inf
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(map(_apart, a, b), default=0.0)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_apart(a[k], b[k]) for k in a), default=0.0)
    return 0.0 if a == b else math.inf


def apart(expected: Path, got: Path) -> float:
    """The largest difference between the parsed numbers of two result
    files; inf where anything else differs or a file does not parse."""
    try:
        return _apart(_parse(expected), _parse(got))
    except (UnicodeDecodeError, ValueError):
        return math.inf


def differences(got_root: Path, same_stack: bool) -> list[str]:
    """What differs between the result files under got_root and the golden
    ones: a file only one side has, and a file whose bytes differ on the
    recorded stack (same_stack) or whose numbers differ by more than TOL
    on another."""
    expected, got = result_files(GOLDEN), result_files(got_root)
    out = [f"{name}: only in {'the golden files' if name in expected else 'the run'}"
           for name in sorted(expected.keys() ^ got.keys())]
    for name in sorted(expected.keys() & got.keys()):
        if expected[name].read_bytes() == got[name].read_bytes():
            continue
        gap = apart(expected[name], got[name])
        if same_stack or gap > TOL:
            out.append(f"{name}: bytes differ, largest difference {gap:.3e}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        exits = run_configs(fresh)
        failed = {name: code for name, code in exits.items() if code != 0}
        if failed:
            print(f"golden: configs did not pass: {failed}", file=sys.stderr)
            return 1
        if GOLDEN.is_dir():
            for line in differences(fresh, same_stack=True):
                print(f"moved: {line}")
            shutil.rmtree(GOLDEN)
        for name, path in result_files(fresh).items():
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, GOLDEN / name)
    (GOLDEN / VERSIONS).write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    print(f"golden: {len(result_files(GOLDEN))} result files of {len(exits)} configs "
          f"written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
