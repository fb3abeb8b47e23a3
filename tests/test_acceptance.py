"""Acceptance gate: end-to-end checks of the shipped component.

Each test prints one PASS/FAIL line (uncaptured) and then asserts. The
diagonal-argmax check runs against a measured confusion matrix when one is
present under data/ and otherwise falls back to the calibrated synthetic
model; see the README for why the synthetic fallback cannot go green.
"""

import json
import time
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest

import cueplace as cp
from cueplace.cli import main
from tests.conftest import random_layout, random_scores
from tests.test_placement import assert_feasible

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
EMPIRICAL_MODEL = DATA_DIR / "empirical_model.csv"
EMPIRICAL_TRIALS = DATA_DIR / "empirical_trials.csv"

SIDE_BY_SIDE = cp.Layout((cp.Element("a", 354.0), cp.Element("b", 6.0)))
CONE_PAIR = cp.Layout((cp.Element("a", 30.0), cp.Element("b", 150.0)))


def _emit(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _empirical_model():
    if EMPIRICAL_MODEL.exists():
        return cp.load_model(EMPIRICAL_MODEL)
    if EMPIRICAL_TRIALS.exists():
        return cp.model_from_trials(EMPIRICAL_TRIALS)
    return None


@pytest.fixture(scope="module")
def model():
    empirical = _empirical_model()
    return empirical if empirical is not None else cp.synthesize_model(cp.calibrated_params())


def test_criterion_1_solver_exactness(capsys, identity):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    mismatches = 0
    for k in range(500):
        n = k % 4 + 1
        scores = random_scores(rng, n, identity, quantize=0.05 if k % 2 else None)
        dp = cp.solve(scores)
        bf = cp.brute_force_solve(scores)
        same = (
            dp.objective == bf.objective
            and [a.sound_bin for a in dp.assignments] == [a.sound_bin for a in bf.assignments]
            and dp.cut_rotation == bf.cut_rotation
        )
        mismatches += not same
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _emit(
        capsys, 1,
        ok,
        f"dp vs brute force on 500 instances (n in 1..4, 30 bins): "
        f"{mismatches} mismatches, {elapsed:.1f} s (< 30 s)",
    )
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_2_constraint_soundness(capsys, calibrated_model):
    rng = np.random.default_rng(7)
    configs = [(calibrated_model, 9)] * 700 + [(cp.identity_model(30), 6)] * 200 + [
        (cp.identity_model(120), 3)
    ] * 100
    violations = 0
    for mod, n_max in configs:
        n = int(rng.integers(1, n_max + 1))
        scores = random_scores(rng, n, mod)
        sol = cp.solve(scores)
        try:
            assert_feasible(scores, sol)
        except AssertionError:
            violations += 1
    ok = violations == 0
    _emit(
        capsys, 2,
        ok,
        f"1000 random solves: {violations} ordering/distinctness violations (require 0)",
    )
    assert violations == 0


def test_criterion_3_displacement_beats_colocation(capsys, model):
    details = []
    ok = True
    for layout, name, trials in ((SIDE_BY_SIDE, "side-by-side", 30000), (CONE_PAIR, "cone", 100000)):
        scores = cp.build_score_matrix(model, layout)
        opt = cp.run_simulation(cp.solve(scores), layout, model, trials=trials, seed=0)
        co = cp.run_simulation(cp.colocated_solution(scores), layout, model, trials=trials, seed=0)
        gap, se = opt.accuracy_gap(co)
        ok = ok and gap > 2.0 * se
        details.append(f"{name}: opt {opt.accuracy:.4f} vs co {co.accuracy:.4f}, gap {gap:+.4f} = {gap / se:.1f} SE")
    _emit(capsys, 3, ok, "optimized > colocated by > 2 combined SEs on both layouts; " + "; ".join(details))
    assert ok, details


def test_criterion_4_diagonal_argmax(capsys):
    empirical = _empirical_model()
    if empirical is not None:
        frac = cp.diagonal_argmax_fraction(empirical)
        count = round(frac * empirical.bin_count)
        ok = count == 4 and empirical.bin_count == 30
        _emit(
            capsys, 4,
            ok,
            f"empirical matrix diagonal argmax count {count}/30 (require exactly 4/30)",
        )
        assert ok
        return
    synthetic = cp.synthesize_model(cp.calibrated_params())
    frac = cp.diagonal_argmax_fraction(synthetic)
    ok = frac < 0.5
    _emit(
        capsys, 4,
        ok,
        f"no measured matrix under data/; synthetic fallback fraction {frac:.4f} "
        f"(require < 0.5). The calibrated wrapped-Gaussian family is diagonal-dominant "
        f"by construction, so this bound is not reachable; see README.",
    )
    assert ok, (
        f"synthetic diagonal argmax fraction {frac:.4f} >= 0.5: the calibrated model's "
        "columns peak on the diagonal whenever flip probability < 0.5, and the measured "
        "cone-effect targets pin the fitted flips at 0.24..0.32"
    )


def test_criterion_5_table1_calibration(capsys, calibrated_model):
    t0 = time.perf_counter()
    stats = cp.table1_statistics(calibrated_model, trials_per_bin=200, seed=5)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    ordered = True
    for region, target in cp.LOCALIZATION_ERROR_TARGETS.items():
        rel = abs(stats[region].circular_mean - target["circular"]) / target["circular"]
        worst = max(worst, rel)
        ordered = ordered and stats[region].adjusted_mean < stats[region].circular_mean
    ok = worst <= 0.20 and ordered and elapsed < 10.0
    _emit(
        capsys, 5,
        ok,
        f"per-region circular means within 20% of targets (worst {worst:.1%}), "
        f"adjusted < circular in all regions: {ordered}, "
        f"200 trials/bin in {elapsed:.2f} s (< 10 s)",
    )
    assert worst <= 0.20
    assert ordered
    assert elapsed < 10.0


def _mean_solve_ms(scores, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cp.solve(scores)
        times.append((time.perf_counter() - t0) * 1e3)
    return fmean(times)


def test_criterion_6_runtime(capsys, calibrated_model):
    rng = np.random.default_rng(3)
    small = {
        n: _mean_solve_ms(random_scores(rng, n, calibrated_model)) for n in (2, 5, 10)
    }
    fine_model = cp.synthesize_model(cp.calibrated_params(bin_size_deg=3))
    large_ms = _mean_solve_ms(random_scores(rng, 100, fine_model))
    ok = all(ms < 10.0 for ms in small.values()) and large_ms < 500.0
    _emit(
        capsys, 6,
        ok,
        "mean-of-5 solve times: "
        + ", ".join(f"n={n}: {ms:.2f} ms (< 10)" for n, ms in small.items())
        + f", n=100 at 120 bins: {large_ms:.1f} ms (< 500)",
    )
    for n, ms in small.items():
        assert ms < 10.0, (n, ms)
    assert large_ms < 500.0


def test_criterion_7_byte_determinism(capsys, tmp_path, calibrated_model):
    layout = tmp_path / "layout.json"
    layout.write_text(
        json.dumps({"elements": [{"id": "a", "azimuth_deg": 354.0}, {"id": "b", "azimuth_deg": 6.0}]})
    )
    model_path = tmp_path / "model.csv"
    cp.save_model(calibrated_model, model_path)
    outputs = []
    for tag in ("x", "y"):
        sol = tmp_path / f"sol_{tag}.json"
        rep = tmp_path / f"rep_{tag}.json"
        csv = tmp_path / f"plot_{tag}.csv"
        assert main(["solve", "--layout", str(layout), "--model", str(model_path), "--out", str(sol)]) == 0
        code = main(
            ["eval", "--layout", str(layout), "--model", str(model_path),
             "--trials", "5000", "--seed", "11", "--out", str(rep), "--csv", str(csv)]
        )
        assert code == 0
        outputs.append((sol.read_bytes(), rep.read_bytes(), csv.read_bytes()))
    ok = outputs[0] == outputs[1]
    _emit(
        capsys, 7,
        ok,
        "solution JSON, report JSON, and plot CSV byte-identical across two runs",
    )
    assert ok


def test_criterion_8_score_and_solve_runtime(capsys):
    # end to end: criterion 6 times the solve alone, on a prebuilt matrix
    fine_model = cp.synthesize_model(cp.calibrated_params(bin_size_deg=3))
    layout = random_layout(np.random.default_rng(3), 100)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        cp.solve(cp.build_score_matrix(fine_model, layout))
        times.append((time.perf_counter() - t0) * 1e3)
    mean_ms = fmean(times)
    ok = mean_ms < 500.0
    _emit(
        capsys, 8,
        ok,
        f"mean-of-5 score build + solve, n=100 at 120 bins: {mean_ms:.1f} ms (< 500)",
    )
    assert mean_ms < 500.0
