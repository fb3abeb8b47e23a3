import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace.cli import _emit_json, _solution_dict, main

LAYOUT = {
    "elements": [
        {"id": "a", "azimuth_deg": 354.0},
        {"id": "b", "azimuth_deg": 6.0},
    ]
}


@pytest.fixture
def files(tmp_path, calibrated_model):
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(LAYOUT))
    model = tmp_path / "model.csv"
    cp.save_model(calibrated_model, model)
    return tmp_path, str(layout), str(model)


def assert_solve_matches_library(files, model, flags, weights, cone_rule, cap):
    """`solve` writes the given weights and cone rule, and the bytes of
    `_solution_dict` applied to the library's own solution."""

    tmp, layout_path, model_path = files
    out = tmp / "sol.json"
    cap_flags = [] if cap is None else ["--max-displacement", str(cap)]
    argv = ["solve", "--layout", layout_path, "--model", model_path, "--out", str(out)]
    assert main(argv + flags + cap_flags) == 0
    sol = json.loads(out.read_text())
    assert sol["weights"] == {"blur": weights.blur, "cone": weights.cone}
    assert sol["cone_rule"] == cone_rule
    scores = cp.build_score_matrix(model, cp.load_layout(layout_path), weights, cone_rule)
    solution = cp.solve(scores, max_displacement_deg=cap)
    expected = _solution_dict(solution, model.bin_size_deg, weights, cone_rule, cap)
    assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


class TestSolve:
    def test_writes_solution_json(self, files):
        tmp, layout, model = files
        out = tmp / "sol.json"
        assert main(["solve", "--layout", layout, "--model", model, "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert sol["solver"] == "dp_exact"
        assert [a["bin"] for a in sol["assignments"]] == [28, 1]
        assert sol["weights"] == {"blur": 0.9, "cone": 0.1}
        assert "solve_time" not in json.dumps(sol)

    def test_stdout_output(self, files, capsys):
        _, layout, model = files
        assert main(["solve", "--layout", layout, "--model", model]) == 0
        sol = json.loads(capsys.readouterr().out)
        assert len(sol["assignments"]) == 2

    def test_byte_identical_across_runs(self, files):
        tmp, layout, model = files
        out1, out2 = tmp / "s1.json", tmp / "s2.json"
        main(["solve", "--layout", layout, "--model", model, "--out", str(out1)])
        main(["solve", "--layout", layout, "--model", model, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_library_output(self, files, calibrated_model):
        assert_solve_matches_library(files, calibrated_model, [], cp.Weights(), "point-plus-mirror", None)

    @pytest.mark.parametrize("cap", [None, 40.0])
    def test_records_scoring_flags(self, files, calibrated_model, cap):
        flags = ["--weights", "0.7,0.3", "--cone-rule", "mirror-only"]
        assert_solve_matches_library(files, calibrated_model, flags, cp.Weights(0.7, 0.3), "mirror-only", cap)

    def test_max_displacement_flag(self, files):
        tmp, layout, model = files
        out = tmp / "sol.json"
        code = main(
            ["solve", "--layout", layout, "--model", model, "--out", str(out), "--max-displacement", "14"]
        )
        assert code == 0
        sol = json.loads(out.read_text())
        for a in sol["assignments"]:
            assert cp.angular_distance(a["sound_azimuth_deg"], a["visual_azimuth_deg"]) <= 14.0

    def test_infeasible_exit_code(self, tmp_path):
        layout = tmp_path / "layout.json"
        layout.write_text(
            json.dumps({"elements": [{"id": f"e{i}", "azimuth_deg": i * 36.0} for i in range(4)]})
        )
        model = tmp_path / "model.csv"
        cp.save_model(cp.identity_model(120), model)
        assert main(["solve", "--layout", str(layout), "--model", str(model)]) == 3

    @pytest.mark.parametrize("weights", ["nan,0.1", "0.9,inf", "0.9,-inf"])
    def test_non_finite_weights_are_input_errors(self, files, capsys, weights):
        _, layout, model = files
        assert main(["solve", "--layout", layout, "--model", model, "--weights", weights]) == 2
        assert "weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "eval"])
    def test_overflowing_weights_are_input_errors(self, files, capsys, command):
        _, layout, model = files
        argv = [command, "--layout", layout, "--model", model, "--weights", "1.7e308,1.7e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input: scores must be finite")
        assert "Warning" not in err

    @pytest.mark.parametrize("azimuth", ["NaN", "Infinity"])
    def test_non_finite_azimuth_is_input_error(self, tmp_path, capsys, azimuth):
        layout = tmp_path / "layout.json"
        layout.write_text(
            '{"elements": [{"id": "a", "azimuth_deg": 10},'
            f' {{"id": "b", "azimuth_deg": {azimuth}}}]}}'
        )
        out = tmp_path / "sol.json"
        assert main(["solve", "--layout", str(layout), "--out", str(out)]) == 2
        assert "element 1: azimuth_deg of 'b' must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["nan", "-5"])
    @pytest.mark.parametrize("command", ["solve", "eval"])
    def test_nan_or_negative_cap_is_input_error(self, files, capsys, command, cap):
        _, layout, model = files
        code = main([command, "--layout", layout, "--model", model, "--max-displacement", cap])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert "max_displacement_deg" in err

    def test_infinite_cap_is_no_cap(self, files):
        tmp, layout, model = files
        capped, free = tmp / "capped.json", tmp / "free.json"
        args = ["solve", "--layout", layout, "--model", model]
        assert main(args + ["--max-displacement", "inf", "--out", str(capped)]) == 0
        assert main(args + ["--out", str(free)]) == 0
        assert capped.read_bytes() == free.read_bytes()
        assert json.loads(capped.read_text())["max_displacement_deg"] is None

    def test_non_finite_elevation_is_input_error(self, tmp_path, capsys):
        layout = tmp_path / "layout.json"
        layout.write_text('{"elements": [{"id": "a", "azimuth_deg": 10, "elevation_deg": NaN}]}')
        out = tmp_path / "sol.json"
        assert main(["solve", "--layout", str(layout), "--out", str(out)]) == 2
        assert "element 0: elevation_deg of 'a' must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"elements": [{"id": 1, "azimuth_deg": true}, {"id": "b", "azimuth_deg": "90"}]}',
                "element 0: id must be a string, got 1",
            ),
            (
                '{"elements": [{"id": "a", "azimuth_deg": 10, "elevation_deg": true}]}',
                "element 0: elevation_deg of 'a' must be a number, got True",
            ),
        ],
    )
    def test_mistyped_layout_field_is_input_error(self, tmp_path, capsys, text, message):
        layout = tmp_path / "layout.json"
        layout.write_text(text)
        out = tmp_path / "sol.json"
        assert main(["solve", "--layout", str(layout), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "eval"])
    @pytest.mark.parametrize("first, second", [("0", "360"), ("0.0", "-0.0")])
    def test_shared_azimuth_is_input_error(self, tmp_path, capsys, command, first, second):
        layout = tmp_path / "layout.json"
        layout.write_text(
            f'{{"elements": [{{"id": "a", "azimuth_deg": {first}}}, '
            f'{{"id": "m", "azimuth_deg": 90}}, {{"id": "b", "azimuth_deg": {second}}}]}}'
        )
        out = tmp_path / "out.json"
        assert main([command, "--layout", str(layout), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: input: {layout}: elements 'a' and 'b' share azimuth 0.0\n"
        assert not out.exists()

    def test_missing_layout_is_input_error(self, tmp_path, capsys):
        assert main(["solve", "--layout", str(tmp_path / "none.json")]) == 2
        assert capsys.readouterr().err.startswith("error: input:")

    def test_malformed_model_is_input_error(self, tmp_path):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(LAYOUT))
        model = tmp_path / "model.csv"
        model.write_text("bin_size_deg,12\n1,2,3\n")
        assert main(["solve", "--layout", str(layout), "--model", str(model)]) == 2


class TestEval:
    def test_report_and_csv(self, files):
        tmp, layout, model = files
        out, csv_path = tmp / "eval.json", tmp / "plot.csv"
        code = main(
            ["eval", "--layout", layout, "--model", model, "--trials", "4000",
             "--seed", "1", "--out", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["strategies"]) == {"colocated", "optimized"}
        gap = report["optimized_minus_colocated"]
        assert gap["accuracy_gap"] == pytest.approx(
            report["strategies"]["optimized"]["accuracy"]
            - report["strategies"]["colocated"]["accuracy"]
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "strategy,accuracy,stderr"
        assert len(lines) == 3

    def test_degenerate_baseline_is_warned(self, tmp_path, capsys, calibrated_model):
        # 0 and 5 degrees share the 12-degree bin 0, so the colocated
        # baseline puts both sounds there
        layout = tmp_path / "layout.json"
        layout.write_text(
            json.dumps({"elements": [{"id": "a", "azimuth_deg": 0}, {"id": "b", "azimuth_deg": 5}]})
        )
        out, csv_path = tmp_path / "eval.json", tmp_path / "plot.csv"
        args = ["eval", "--layout", str(layout), "--trials", "3000", "--seed", "4"]
        assert main(args + ["--out", str(out), "--csv", str(csv_path)]) == 0
        warning = "warning: degenerate baseline: multiple elements share a visual bin\n"
        assert capsys.readouterr().err == warning
        assert main(args + ["--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text() and captured.err == warning
        # the CSV holds the library's numbers, and the warning is in neither file
        lay = cp.load_layout(layout)
        scores = cp.build_score_matrix(calibrated_model, lay)
        lines = ["strategy,accuracy,stderr"]
        for name, sol in [("colocated", cp.colocated_solution(scores)), ("optimized", cp.solve(scores))]:
            r = cp.run_simulation(sol, lay, calibrated_model, 3000, 4)
            lines.append(f"{name},{r.accuracy!r},{r.accuracy_stderr!r}")
        assert csv_path.read_text() == "\n".join(lines) + "\n"

    def test_identity_model_perfect_and_equal(self, tmp_path):
        layout = tmp_path / "layout.json"
        layout.write_text(
            json.dumps({"elements": [{"id": "a", "azimuth_deg": 6.0}, {"id": "b", "azimuth_deg": 90.0}]})
        )
        model = tmp_path / "model.csv"
        cp.save_model(cp.identity_model(12), model)
        out = tmp_path / "eval.json"
        main(["eval", "--layout", str(layout), "--model", str(model), "--trials", "2000", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["strategies"]["colocated"]["accuracy"] == 1.0
        assert report["strategies"]["optimized"]["accuracy"] == 1.0
        assert report["optimized_minus_colocated"]["accuracy_gap"] == 0.0

    def test_element_without_trials_is_null(self, files):
        tmp, layout, model = files
        out = tmp / "eval.json"
        assert main(["eval", "--layout", layout, "--model", model, "--trials", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        for strategy in report["strategies"].values():
            per_element = strategy["per_element_accuracy"]
            assert sorted(per_element) == ["a", "b"]
            assert sum(v is None for v in per_element.values()) == 1
            assert all(v in (0.0, 1.0) for v in per_element.values() if v is not None)

    def test_zero_trials_is_input_error(self, files):
        _, layout, model = files
        assert main(["eval", "--layout", layout, "--model", model, "--trials", "0"]) == 2

    def test_byte_identical_across_runs(self, files):
        tmp, layout, model = files
        out1, out2 = tmp / "e1.json", tmp / "e2.json"
        args = ["eval", "--layout", layout, "--model", model, "--trials", "3000", "--seed", "7"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


PARAMS = cp.calibrated_params().to_dict()


def params_with(field, region, value, **top):
    """Params JSON text with one region's value of `field` replaced."""

    return json.dumps({**PARAMS, field: {**PARAMS[field], region: value}, **top})


class TestModelCommands:
    def test_synth_then_inspect(self, tmp_path, capsys):
        model_path = tmp_path / "model.csv"
        assert main(["synth-model", "--out", str(model_path)]) == 0
        assert main(["inspect-model", "--model", str(model_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["bin_count"] == 30
        assert stats["diagonal_argmax_fraction"] == pytest.approx(25.0 / 30.0)
        assert stats["row_sum_max"] == pytest.approx(1.0, abs=1e-9)

    def test_synth_params_file(self, tmp_path):
        params = cp.calibrated_params().to_dict()
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out = tmp_path / "model.csv"
        assert main(["synth-model", "--out", str(out), "--params", str(params_path)]) == 0
        loaded = cp.load_model(out)
        assert loaded.bin_count == 30

    def test_synth_params_file_with_legacy_seed(self, tmp_path):
        # params files written by earlier versions carry an unused "seed" and
        # the region arcs, which are now fixed
        params = cp.calibrated_params().to_dict()
        legacy = {**params, "region_bounds_deg": {k: list(v) for k, v in cp.DEFAULT_REGION_BOUNDS.items()}}
        outputs = []
        for name, d in (
            ("plain", params),
            ("seeded", {**params, "seed": 7}),
            ("legacy", legacy),
            ("legacy-seeded", {**legacy, "seed": 7}),
        ):
            params_path = tmp_path / f"{name}.json"
            params_path.write_text(json.dumps(d))
            out = tmp_path / f"{name}.csv"
            assert main(["synth-model", "--out", str(out), "--params", str(params_path)]) == 0
            outputs.append(out.read_bytes())
        default = tmp_path / "default.csv"
        assert main(["synth-model", "--out", str(default)]) == 0
        assert outputs == [default.read_bytes()] * 4

    @pytest.mark.parametrize(
        "text, bin_size",
        [
            pytest.param("[1,2]", 12, id="top-level-list"),
            pytest.param(json.dumps({**PARAMS, "blur_sd_deg": [20.0] * 4}), 12, id="sd-list"),
            pytest.param(params_with("blur_sd_deg", "front", "20"), 12, id="sd-string"),
            pytest.param(params_with("flip_prob", "front", "20"), 12, id="flip-string"),
            pytest.param(params_with("blur_sd_deg", "up", 3), 12, id="sd-unknown-region"),
            pytest.param(params_with("blur_sd_deg", "front", True), 12, id="sd-bool"),
            pytest.param(params_with("blur_sd_deg", "front", 1e300, bin_size_deg=1), 1, id="sd-huge"),
            pytest.param(params_with("blur_sd_deg", "front", 3600.5, bin_size_deg=1), 1, id="sd-above-max"),
            pytest.param(json.dumps({**PARAMS, "region_bounds_deg": {"front": 5}}), 12, id="bounds-malformed"),
            pytest.param(json.dumps({"flip_prob": PARAMS["flip_prob"]}), 12, id="sd-missing"),
            pytest.param(json.dumps({**PARAMS, "bin_size_deg": True}), 1, id="bin-size-bool"),
            pytest.param(json.dumps({**PARAMS, "bin_size_deg": 12.0}), 12, id="bin-size-float"),
        ],
    )
    def test_synth_rejects_malformed_params(self, tmp_path, capsys, text, bin_size):
        params_path = tmp_path / "params.json"
        params_path.write_text(text)
        out = tmp_path / "m.csv"
        argv = ["synth-model", "--out", str(out), "--params", str(params_path), "--bin-size", str(bin_size)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: input: ")
        assert not out.exists()

    def test_synth_conflicting_bin_size(self, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(cp.calibrated_params().to_dict()))
        code = main(
            ["synth-model", "--out", str(tmp_path / "m.csv"), "--params", str(params_path), "--bin-size", "30"]
        )
        assert code == 2
        assert not (tmp_path / "m.csv").exists()

    def test_synth_bin_size_from_flag_when_file_has_none(self, tmp_path):
        params = cp.calibrated_params().to_dict()
        without, with3 = tmp_path / "without.json", tmp_path / "with3.json"
        without.write_text(json.dumps({k: v for k, v in params.items() if k != "bin_size_deg"}))
        with3.write_text(json.dumps({**params, "bin_size_deg": 3}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth-model", "--out", str(a), "--params", str(without), "--bin-size", "3"]) == 0
        assert main(["synth-model", "--out", str(b), "--params", str(with3)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_bin_size_from_file_without_flag(self, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({**cp.calibrated_params().to_dict(), "bin_size_deg": 3}))
        out = tmp_path / "m.csv"
        assert main(["synth-model", "--out", str(out), "--params", str(params_path)]) == 0
        assert cp.load_model(out).matrix.shape == (120, 120)

    def test_synth_trials_csv(self, tmp_path):
        model_path, trials_path = tmp_path / "m.csv", tmp_path / "t.csv"
        code = main(
            ["synth-model", "--out", str(model_path), "--trials-csv", str(trials_path),
             "--trials-per-bin", "40"]
        )
        assert code == 0
        rebuilt = cp.model_from_trials(trials_path)
        assert rebuilt.bin_count == 30

    def test_synth_trials_csv_rejects_empty_budget(self, tmp_path, capsys):
        trials_path = tmp_path / "t.csv"
        code = main(
            ["synth-model", "--out", str(tmp_path / "m.csv"), "--trials-csv", str(trials_path),
             "--trials-per-bin", "0"]
        )
        assert code == 2
        assert "trials_per_bin must be >= 1" in capsys.readouterr().err
        assert not trials_path.exists()

    def test_rejected_trial_budget_leaves_no_model_file(self, tmp_path):
        model_path = tmp_path / "m.csv"
        code = main(
            ["synth-model", "--out", str(model_path), "--trials-csv", str(tmp_path / "t.csv"),
             "--trials-per-bin", "0"]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["table1", "--trials-per-bin", "5"], ["inspect-model"]])
    def test_region_without_bin_center_is_input_error(self, tmp_path, capsys, command):
        model_path = tmp_path / "model.csv"
        cp.save_model(cp.identity_model(120), model_path)
        assert main([*command, "--model", str(model_path)]) == 2
        assert capsys.readouterr().err == (
            "error: input: no bin center of a 120-degree model lies in region 'front'\n"
        )

    def test_table1_one_bin_region_needs_two_trials(self, tmp_path, capsys):
        model_path, out = tmp_path / "model.csv", tmp_path / "t1.json"
        cp.save_model(cp.identity_model(60), model_path)
        args = ["table1", "--model", str(model_path), "--out", str(out)]
        assert main(args + ["--trials-per-bin", "1"]) == 2
        err = capsys.readouterr().err
        assert "region 'right'" in err and "trials_per_bin must be >= 2" in err
        assert not out.exists()
        assert main(args + ["--trials-per-bin", "2"]) == 0
        stats = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert stats["regions"]["right"]["trials"] == 2

    def test_inspect_human_readable(self, tmp_path, capsys):
        model_path = tmp_path / "model.csv"
        main(["synth-model", "--out", str(model_path)])
        assert main(["inspect-model", "--model", str(model_path)]) == 0
        text = capsys.readouterr().out
        assert "diagonal argmax fraction" in text
        assert "expected localization errors" in text

    def test_table1_command(self, tmp_path):
        out = tmp_path / "t1.json"
        assert main(["table1", "--trials-per-bin", "50", "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert set(stats["regions"]) == {"front", "right", "back", "left", "all"}
        assert stats["regions"]["all"]["trials"] == 1500


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_emit_json_refuses_non_finite(tmp_path):
    out = tmp_path / "out.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _emit_json({"x": value}, str(out))
        assert not out.exists()


COLD_START = """
import importlib.abc, json, sys


class NoSciPy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not available")
        return None


sys.meta_path.insert(0, NoSciPy())
from cueplace import calibrated_params, synthesize_model
from cueplace.cli import main

tmp, layout, model = sys.argv[1:]
loaded = {"import": "scipy" in sys.modules}
for argv in (
    ["solve", "--layout", layout, "--model", model, "--out", f"{tmp}/sol.json"],
    ["eval", "--layout", layout, "--model", model, "--trials", "200", "--out", f"{tmp}/eval.json"],
    ["inspect-model", "--model", model, "--json"],
    ["table1", "--trials-per-bin", "5", "--out", f"{tmp}/t1.json"],
    ["synth-model", "--out", f"{tmp}/synth.csv"],
):
    code = main(argv)
    loaded[argv[0]] = [code, "scipy" in sys.modules, "numpy.ma" in sys.modules]
synthesize_model(calibrated_params(1))
loaded["1-degree model"] = "scipy" in sys.modules
with open(f"{tmp}/loaded.json", "w") as fh:
    json.dump(loaded, fh)
"""


def test_no_command_loads_scipy(files, calibrated_model):
    # a fresh interpreter in which `import scipy` fails: this test process
    # may have imported SciPy for the oracles. No command loads `numpy.ma`
    # either, which takes about 8 ms of a cold start.
    tmp, layout, model = files
    src = str(Path(cp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp), layout, model],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert json.loads((tmp / "loaded.json").read_text()) == {
        "import": False,
        "solve": [0, False, False],
        "eval": [0, False, False],
        "inspect-model": [0, False, False],
        "table1": [0, False, False],
        "synth-model": [0, False, False],
        "1-degree model": False,
    }
    expected = tmp / "expected.csv"
    cp.save_model(calibrated_model, expected)
    assert (tmp / "synth.csv").read_bytes() == expected.read_bytes()


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert cp.__version__ in capsys.readouterr().out


any_float = st.floats(allow_nan=True, allow_infinity=True)
# JSON values that are not numbers, where a layout file wants one
mistyped_numbers = st.one_of(st.booleans(), st.text(max_size=4), st.none())


@st.composite
def layout_texts(draw):
    """Layout JSON: mostly well-formed, with odd azimuths or elevations, a
    full turn apart from the first, repeated ids or bad JSON."""

    if draw(st.integers(0, 5)) == 0:
        return draw(
            st.sampled_from(["", "{", "[]", '{"elements": 3}', '{"elements": [{"id": "a"}]}'])
        )
    azimuths = draw(st.lists(st.floats(-720.0, 720.0), min_size=1, max_size=8))
    ids = [f"e{i}" for i in range(len(azimuths))]
    if draw(st.integers(0, 5)) == 0:
        azimuths[-1] = azimuths[0] + 360.0
    if draw(st.integers(0, 5)) == 0:
        azimuths[-1] = draw(any_float)
    if draw(st.integers(0, 5)) == 0:
        azimuths[-1] = draw(mistyped_numbers)
    if draw(st.integers(0, 5)) == 0:
        ids[-1] = ids[0]
    if draw(st.integers(0, 7)) == 0:
        ids[-1] = draw(st.integers())
    elements = [{"id": i, "azimuth_deg": a} for i, a in zip(ids, azimuths)]
    if draw(st.integers(0, 5)) == 0:
        elements[-1]["elevation_deg"] = draw(st.one_of(any_float, mistyped_numbers))
    return json.dumps({"elements": elements})


@st.composite
def model_texts(draw):
    """Model CSV text: a valid matrix, or one with a bad cell, shape or header."""

    size = draw(st.sampled_from([30, 45, 60, 90, 120]))
    n = 360 // size
    matrix = np.eye(n) if draw(st.booleans()) else np.full((n, n), 1.0 / n)
    kind = draw(st.sampled_from(["valid", "valid", "cell", "shape", "text"]))
    if kind == "cell":  # negative, > 1, NaN, inf, or a row-sum error
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[r, c] = draw(any_float)
    elif kind == "shape":
        rows, cols = draw(st.integers(0, n + 1)), draw(st.integers(1, n + 1))
        matrix = np.full((rows, cols), 1.0 / cols)
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    if kind == "text" and lines:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=8))
    header = f"bin_size_deg,{size}"
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.sampled_from(["", "bin_size_deg,7", "bins,12", "bin_size_deg,x"]))
    return "\n".join([header, *lines]) + "\n"


unit = st.floats(0.0, 1.0)
weight_texts = st.one_of(
    st.tuples(unit, unit).map(lambda w: f"{w[0]!r},{w[1]!r}"),
    st.tuples(any_float, any_float).map(lambda w: f"{w[0]!r},{w[1]!r}"),
    st.text(max_size=6),
)

# Valid inputs. The fuzz test draws them as a whole, next to the inputs
# above, so that solve and eval often reach the solver, the sampler and the
# report instead of stopping at the first bad argument.
valid_layout_texts = st.lists(
    st.floats(0.0, 360.0, exclude_max=True), min_size=1, max_size=8, unique=True
).map(
    lambda az: json.dumps(
        {"elements": [{"id": f"e{i}", "azimuth_deg": a} for i, a in enumerate(az)]}
    )
)
valid_weight_texts = st.one_of(
    st.just("0.9,0.1"), st.tuples(unit, unit).map(lambda w: f"{w[0]!r},{w[1]!r}")
)


@functools.lru_cache(maxsize=None)
def _calibrated_model_text(bin_size: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.csv"
        cp.save_model(cp.synthesize_model(cp.calibrated_params(bin_size)), path)
        return path.read_text(encoding="utf-8")


valid_model_texts = st.sampled_from([3, 12, 30, 45]).map(_calibrated_model_text)


class TestFuzz:
    """Any layout, model file, weights or cap ends in exit 0, 2 or 3, never 4,
    and every JSON written on exit 0 is strict (no NaN or Infinity)."""

    @given(
        command=st.sampled_from(["solve", "eval", "inspect-model", "table1"]),
        inputs=st.one_of(
            st.tuples(
                layout_texts(),
                st.one_of(st.none(), model_texts(), st.just("missing")),
                weight_texts,
                st.one_of(st.none(), st.floats(0.0, 180.0), any_float),
                st.integers(-1, 30),
            ),
            st.tuples(
                valid_layout_texts,
                st.one_of(st.none(), valid_model_texts),
                valid_weight_texts,
                st.one_of(st.none(), st.floats(0.0, 180.0)),
                st.integers(2, 30),
            ),
        ),
        as_json=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_exit_code_is_never_internal(self, calibrated_model, command, inputs, as_json):
        layout, model, weights, cap, count = inputs
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            layout_path, model_path = tmp / "layout.json", tmp / "model.csv"
            layout_path.write_text(layout, encoding="utf-8")
            if model is None:
                # the other commands fall back to this model; inspect-model
                # needs the file
                cp.save_model(calibrated_model, model_path)
            elif model != "missing":
                model_path.write_text(model, encoding="utf-8")
            model_args = [] if model is None else [f"--model={model_path}"]
            scoring_args = [f"--weights={weights}"]
            if cap is not None:
                scoring_args.append(f"--max-displacement={cap!r}")
            out = f"--out={tmp / 'out'}"
            argv = {
                "solve": ["solve", f"--layout={layout_path}", *model_args, *scoring_args, out],
                "eval": ["eval", f"--layout={layout_path}", *model_args, *scoring_args,
                         f"--trials={count * 10}", out],
                "inspect-model": ["inspect-model", f"--model={model_path}"] + ["--json"] * as_json,
                "table1": ["table1", *model_args, f"--trials-per-bin={count}", out],
            }[command]
            stdout, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), err.getvalue()
            if code == 0 and (command != "inspect-model" or as_json):
                text = stdout.getvalue() if command == "inspect-model" else (tmp / "out").read_text()
                json.loads(text, parse_constant=_reject_constant)
