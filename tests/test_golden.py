"""Every shipped config writes the committed result files of tests/golden/:
byte for byte on the Python, numpy and scipy versions that wrote them,
and number by number within 1e-12 on any other stack."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

RECORDED = json.loads((golden.GOLDEN / golden.VERSIONS).read_text())


def test_shipped_configs_write_the_golden_files(tmp_path):
    exits = golden.run_configs(tmp_path)
    assert exits == {path.stem: 0 for path in golden.CONFIGS.glob("*.json")}
    assert len(golden.result_files(tmp_path)) == 16
    assert golden.differences(tmp_path, same_stack=golden.versions() == RECORDED) == []


RESOLVENT = "cir_resolvent/resolvent.csv"


def copy_with(tmp_path, change) -> Path:
    """A copy of the golden files with the resolvent's f at node 100 changed
    by change(f)."""
    shutil.copytree(golden.GOLDEN, tmp_path / "run")
    path = tmp_path / "run" / RESOLVENT
    lines = path.read_bytes().split(b"\r\n")
    x, f, u = lines[101].split(b",")
    lines[101] = b",".join([x, repr(change(float(f))).encode(), u])
    path.write_bytes(b"\r\n".join(lines))
    return tmp_path / "run"


def test_one_ulp_is_a_difference_on_the_recorded_stack_only(tmp_path):
    run = copy_with(tmp_path, lambda f: float(np.nextafter(f, math.inf)))
    # one ulp of f = 1.1725 relative to f
    assert golden.differences(run, same_stack=True) == [
        f"{RESOLVENT}: bytes differ, largest difference 1.894e-16"]
    assert golden.differences(run, same_stack=False) == []


def test_a_moved_number_is_a_difference_on_any_stack(tmp_path):
    run = copy_with(tmp_path, lambda f: f + 1e-9)
    for same_stack in (True, False):
        assert golden.differences(run, same_stack) == [
            f"{RESOLVENT}: bytes differ, largest difference 8.529e-10"]


def test_a_missing_or_extra_file_is_a_difference(tmp_path):
    run = tmp_path / "run"
    shutil.copytree(golden.GOLDEN, run)
    (run / "ou_evi" / "evi_report.json").rename(run / "ou_evi" / "evi.json")
    assert golden.differences(run, same_stack=False) == [
        "ou_evi/evi.json: only in the run",
        "ou_evi/evi_report.json: only in the golden files"]
