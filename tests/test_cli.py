import json

import pytest

import cueplace as cp
from cueplace.cli import main

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
        from cueplace.cli import _solution_dict

        tmp, layout_path, model = files
        out = tmp / "sol.json"
        main(["solve", "--layout", layout_path, "--model", model, "--out", str(out)])
        layout = cp.load_layout(layout_path)
        scores = cp.build_score_matrix(calibrated_model, layout)
        expected = json.dumps(_solution_dict(cp.solve(scores), scores, None), sort_keys=True, indent=2) + "\n"
        assert out.read_text() == expected

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

    @pytest.mark.parametrize("cap", ["nan", "-5"])
    @pytest.mark.parametrize("command", ["solve", "eval"])
    def test_nan_or_negative_cap_is_input_error(self, files, capsys, command, cap):
        _, layout, model = files
        code = main([command, "--layout", layout, "--model", model, "--max-displacement", cap])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert "max_displacement_deg" in err

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

    def test_synth_conflicting_bin_size(self, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(cp.calibrated_params().to_dict()))
        code = main(
            ["synth-model", "--out", str(tmp_path / "m.csv"), "--params", str(params_path), "--bin-size", "30"]
        )
        assert code == 2

    def test_synth_trials_csv(self, tmp_path):
        model_path, trials_path = tmp_path / "m.csv", tmp_path / "t.csv"
        code = main(
            ["synth-model", "--out", str(model_path), "--trials-csv", str(trials_path),
             "--trials-per-bin", "40"]
        )
        assert code == 0
        rebuilt = cp.model_from_trials(trials_path)
        assert rebuilt.bin_count == 30

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


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "2,3", "--repeats", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,bin_size_deg,bin_count,mean_ms,min_ms,max_ms,repeats"
        assert len(lines) == 3
        assert lines[1].startswith("2,12,30,")


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert cp.__version__ in capsys.readouterr().out
