"""Self-tests of the benchmark: seeded inputs, correctness checks, and the
metric names against BENCHMARK.json.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RAW, CLI = run.library()


def make(name, seed, workdir):
    w = workloads.WORKLOADS[name](seed, workdir)
    w.setup(RAW)
    w.bind_reference(RAW)
    return w


def first_inputs(w, rounds=2):
    return [[req.inputs for req in rnd] for rnd in itertools.islice(w.rounds(), rounds)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_regenerates_identical_inputs(name, tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = first_inputs(make(name, 7, a))
    assert first == first_inputs(make(name, 7, b))
    assert first != first_inputs(make(name, 8, c))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_repeat_the_same_slots(name, tmp_path):
    w = make(name, 3, tmp_path)
    r0, r1 = itertools.islice(w.rounds(), 2)
    assert [q.kind for q in r0] == [q.kind for q in r1]
    if name != "cli-files":

        def sizes(r):
            return [len(q.inputs[0]) if isinstance(q.inputs[0], list) else q.inputs[0] for q in r]

        assert sizes(r0) == sizes(r1)


@pytest.fixture(scope="module")
def model30():
    return RAW.synthesize_model(RAW.calibrated_params(12))


@pytest.fixture(scope="module")
def good(model30):
    p = workloads.place(RAW, model30, ["a", "b", "c", "d"], [20.0, 100.0, 200.0, 300.0])
    assert workloads.check_placement(p) == []
    return p


def with_optimized(p, **changes):
    return dataclasses.replace(p, optimized=dataclasses.replace(p.optimized, **changes))


def with_bins(p, bins):
    assignments = tuple(dataclasses.replace(a, sound_bin=b) for a, b in zip(p.optimized.assignments, bins))
    per = tuple(float(p.scores.values[i, b]) for i, b in enumerate(bins))
    return with_optimized(p, assignments=assignments, per_element_score=per, objective=sum(per))


def test_duplicate_bins_are_flagged(good):
    bins = workloads.bins_of(good.optimized)
    assert any("not distinct" in m for m in workloads.check_placement(with_bins(good, [bins[0]] + bins[1:-1] + [bins[0]])))


def test_broken_circular_order_is_flagged(good):
    bins = workloads.bins_of(good.optimized)
    swapped = [bins[1], bins[0]] + bins[2:]
    assert any("circular order" in m for m in workloads.check_placement(with_bins(good, swapped)))


def test_cap_violation_is_flagged(good):
    bins = workloads.bins_of(good.optimized)
    visual = [float(a) for a in good.layout.visual_azimuths]
    assert checks.placement(bins, good.optimized.cut_rotation, visual, 30, 12, 180.0) == []
    assert any("cap" in m for m in checks.placement(bins, good.optimized.cut_rotation, visual, 30, 12, 1.0))


def test_wrong_objective_is_flagged(good):
    bumped = with_optimized(good, objective=good.optimized.objective + 1e-12)
    assert any("fsum" in m for m in workloads.check_placement(bumped))


def test_per_element_score_off_the_matrix_is_flagged(good):
    per = list(good.optimized.per_element_score)
    per[0] += 0.5
    changed = with_optimized(good, per_element_score=tuple(per), objective=sum(per))
    assert any("per-element" in m for m in workloads.check_placement(changed))


def test_optimum_below_colocated_is_flagged(good):
    worse = dataclasses.replace(good, colocated=dataclasses.replace(good.colocated, objective=good.optimized.objective + 1e-6))
    assert any("below feasible baseline" in m for m in workloads.check_placement(worse))


def test_monte_carlo_check():
    se = (0.5 * 0.5 / 10_000) ** 0.5
    assert checks.monte_carlo(0.5 + 3 * se, 0.5, 10_000, "x") == []
    assert checks.monte_carlo(0.5 + 6 * se, 0.5, 10_000, "x")
    assert checks.monte_carlo(1.0, 1.0, 10_000, "x") == []
    assert checks.monte_carlo(0.9999, 1.0, 10_000, "x")


def test_table1_check(model30):
    stats = {k: vars(v) for k, v in RAW.table1_statistics(model30, trials_per_bin=200, seed=1).items()}
    expected = RAW.expected_localization_errors(model30)
    assert checks.table1(stats, expected) == []
    front = stats["front"]
    shift = 6 * front["adjusted_sd"] / front["trials"] ** 0.5
    stats["front"] = dict(front, adjusted_mean=front["adjusted_mean"] + shift)
    assert any("front.adjusted" in m for m in checks.table1(stats, expected))


def in_process(argv):
    return run.in_process_cli(CLI.main)(argv)


@pytest.fixture
def cli_round(tmp_path):
    w = make("cli-files", 5, tmp_path)
    lib = SimpleNamespace(cli_call=in_process)
    reqs = next(w.rounds())
    return [(req, req.call(lib)) for req in reqs]


def test_cli_outputs_pass_their_checks(cli_round):
    assert [(req.kind, req.check(out)) for req, out in cli_round] == [(req.kind, []) for req, _ in cli_round]


def corrupt(out, edit):
    code, stdout = out
    doc = json.loads(stdout)
    edit(doc)
    return code, json.dumps(doc).encode()


def test_corrupted_cli_outputs_are_flagged(cli_round):
    by_kind = {}
    for req, out in cli_round:
        by_kind.setdefault(req.kind, (req, out))

    req, out = by_kind["cli_solve"]
    assert req.check(corrupt(out, lambda d: d.update(objective=d["objective"] + 1e-9)))
    assert req.check(corrupt(out, lambda d: d["assignments"][0].update(bin=d["assignments"][1]["bin"])))
    assert req.check((3, out[1]))

    req, out = by_kind["cli_eval"]
    assert req.check(corrupt(out, lambda d: d["strategies"]["optimized"].update(accuracy=0.0)))

    req, out = by_kind["cli_inspect_model"]
    assert req.check(corrupt(out, lambda d: d["expected_errors_deg"]["all"].update(circular=1.0)))
    assert req.check(corrupt(out, lambda d: d.update(row_sum_max=1.01)))


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match_the_code():
    spec = declared()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload,trace", [("listener-eval", "0"), ("cli-files", "1")])
def test_printed_metrics_match_the_declared_ones(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "interactive-default", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unparsable_cli_output_is_a_failure_not_a_crash(cli_round):
    req, out = cli_round[0]
    assert run.checked(req, (0, b"not json"))
