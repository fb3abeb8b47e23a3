"""Smoke tests: the scripts under `scripts/` still run against the library."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cueplace as cp

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_calibrate_reproduces_frozen_params(tmp_path):
    pytest.importorskip("scipy")
    done = run_script("calibrate_confusion.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    fitted = {}
    for line in done.stdout.splitlines():
        key, sep, value = line.strip().partition("=")
        if sep and key in ("blur_sd_deg", "flip_prob"):
            fitted[key] = ast.literal_eval(value)
    frozen = cp.calibrated_params()
    assert fitted == {"blur_sd_deg": dict(frozen.blur_sd_deg), "flip_prob": dict(frozen.flip_prob)}


def test_compare_strategies_writes_csv(tmp_path):
    done = run_script("compare_strategies.py", "--trials", "2000", "--csv", "out.csv", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "layout,strategy,accuracy,stderr,exact_accuracy"
    assert len(lines) == 11


def test_compare_strategies_at_zero_stderr(tmp_path):
    # one trial per run: every accuracy is 0 or 1, so each gap's stderr is 0
    done = run_script("compare_strategies.py", "--trials", "1", "--csv", "out.csv", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "n/a" in done.stdout
    lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "layout,strategy,accuracy,stderr,exact_accuracy"
    assert len(lines) == 11


def test_perfbench_faults_counts_the_timed_loop():
    pytest.importorskip("scipy")  # perfbench's machine facts import it
    args = ("--workload", "interactive-default", "--seed", "1", "--seconds", "1", "--trace", "0")
    done = run_script("perfbench_faults.py", ".", *args, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    faults = [json.loads(line[len("FAULTS ") :]) for line in lines if line.startswith("FAULTS ")]
    assert len(faults) == 1
    total = faults[0]
    assert total["requests"] > 0 and total["minflt"] >= 0
    assert total["minflt_per_request"] == total["minflt"] / total["requests"]
    # every request of this workload is a placement, counted around its own call
    ((kind, placements),) = total["by_kind"].items()
    assert kind == "placement" and placements["requests"] == total["requests"]
    assert 0 <= placements["minflt"] <= total["minflt"]
    assert json.loads(lines[-1])["correct"] is True
