import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cueplace as cp
from cueplace.confusion import sample_bins
from cueplace.simulate import expected_accuracy
from tests.conftest import random_layout
from tests.oracles import gather_sample_rows, nearest_element_decision, table1_per_trial

CENTERED = cp.Layout((cp.Element("a", 6.0), cp.Element("b", 90.0), cp.Element("c", 186.0)))


def solved(model, layout, **kwargs):
    return cp.solve(cp.build_score_matrix(model, layout), **kwargs)


class TestDecision:
    def test_nearest(self):
        lay = cp.Layout((cp.Element("a", 0.0), cp.Element("b", 100.0)))
        assert nearest_element_decision(20.0, lay) == 0
        assert nearest_element_decision(80.0, lay) == 1
        assert nearest_element_decision(310.0, lay) == 0

    def test_tie_goes_to_first_element(self):
        lay = cp.Layout((cp.Element("a", 0.0), cp.Element("b", 100.0)))
        assert nearest_element_decision(50.0, lay) == 0
        lay2 = cp.Layout((cp.Element("b", 100.0), cp.Element("a", 0.0)))
        assert nearest_element_decision(50.0, lay2) == 0


class TestDecisionByBin:
    def test_tie_goes_to_first_element(self):
        # bin 4 of 12 degrees has its center at 54, equidistant from 0 and 108
        for first, second in (("a", "b"), ("b", "a")):
            lay = cp.Layout((cp.Element(first, 0.0), cp.Element(second, 108.0)))
            assert cp.decision_by_bin(lay, 12)[4] == 0

    @given(
        az=st.lists(
            st.one_of(
                st.sampled_from([0.0, 6.0, 54.0, 90.0, 108.0, 180.0, 270.0]),
                st.floats(0.0, 360.0, exclude_max=True, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
        bin_size=st.sampled_from([1, 3, 12, 30]),
    )
    @settings(max_examples=100)
    def test_matches_per_percept_oracle(self, az, bin_size):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(az)))
        expected = [nearest_element_decision(c, lay) for c in cp.bin_centers(bin_size)]
        assert np.array_equal(cp.decision_by_bin(lay, bin_size), expected)


class TestSampler:
    @given(
        data=st.data(),
        bins=st.sampled_from([2, 3, 5, 30]),
        trials=st.integers(1, 200),
    )
    @settings(max_examples=60)
    def test_matches_gather_sampler(self, data, bins, trials):
        # weights include exact zeros, so rows have flat CDF stretches
        raw = data.draw(
            hnp.arrays(float, (bins, bins), elements=st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]))
        )
        raw[:, 0] += 1.0  # no empty row
        matrix = raw / raw.sum(axis=1, keepdims=True)
        model = cp.ConfusionModel(360 // bins, matrix)
        true_bins = data.draw(hnp.arrays(np.int64, trials, elements=st.integers(0, bins - 1)))
        u = data.draw(
            hnp.arrays(
                float, trials,
                elements=st.one_of(
                    st.floats(0.0, 1.0, exclude_max=True),
                    st.sampled_from(sorted(set(np.cumsum(matrix, axis=1).ravel()))),
                ),
            )
        )
        assert np.array_equal(sample_bins(model, true_bins, u), gather_sample_rows(matrix, true_bins, u))

    def test_sample_perceived_matches_gather_sampler(self, calibrated_model):
        draws = cp.sample_perceived(calibrated_model, 7, np.random.default_rng(3), size=5000)
        u = np.random.default_rng(3).random(5000)
        expected = gather_sample_rows(calibrated_model.matrix, np.full(5000, 7), u)
        assert np.array_equal(draws, expected)


class TestRunSimulation:
    def test_identity_model_is_perfect(self, identity):
        sol = solved(identity, CENTERED)
        report = cp.run_simulation(sol, CENTERED, identity, trials=2000, seed=0)
        assert report.accuracy == 1.0
        assert report.accuracy_stderr == 0.0
        assert report.mean_circular_error_deg == 0.0
        assert report.mean_adjusted_error_deg == 0.0
        assert report.mean_cone_effect_deg == 0.0
        np.testing.assert_array_equal(
            report.confusion_counts, np.diag(report.per_element_trials)
        )

    def test_deterministic_same_seed(self, calibrated_model, side_by_side):
        sol = solved(calibrated_model, side_by_side)
        r1 = cp.run_simulation(sol, side_by_side, calibrated_model, trials=5000, seed=4)
        r2 = cp.run_simulation(sol, side_by_side, calibrated_model, trials=5000, seed=4)
        assert r1.accuracy == r2.accuracy
        np.testing.assert_array_equal(r1.confusion_counts, r2.confusion_counts)
        assert r1.per_element_accuracy == r2.per_element_accuracy

    def test_seed_changes_draws(self, calibrated_model, side_by_side):
        sol = solved(calibrated_model, side_by_side)
        r1 = cp.run_simulation(sol, side_by_side, calibrated_model, trials=5000, seed=4)
        r2 = cp.run_simulation(sol, side_by_side, calibrated_model, trials=5000, seed=5)
        assert not np.array_equal(r1.confusion_counts, r2.confusion_counts)

    def test_counts_are_consistent(self, calibrated_model):
        lay = CENTERED
        sol = solved(calibrated_model, lay)
        r = cp.run_simulation(sol, lay, calibrated_model, trials=9000, seed=1)
        assert r.trials == 9000
        assert r.confusion_counts.sum() == 9000
        assert sum(r.per_element_trials) == 9000
        for i in range(3):
            row = r.confusion_counts[i]
            assert r.per_element_trials[i] == row.sum()
            assert r.per_element_accuracy[i] == pytest.approx(row[i] / row.sum())
        assert r.accuracy == pytest.approx(np.trace(r.confusion_counts) / 9000)
        assert r.accuracy_stderr == pytest.approx(
            math.sqrt(r.accuracy * (1 - r.accuracy) / 9000)
        )

    def test_matches_exact_accuracy(self, calibrated_model, cone_pair):
        sol = solved(calibrated_model, cone_pair)
        exact = expected_accuracy(sol, cone_pair, calibrated_model)
        r = cp.run_simulation(sol, cone_pair, calibrated_model, trials=40000, seed=2)
        assert r.accuracy == pytest.approx(exact, abs=4.5 * r.accuracy_stderr)

    def test_rejects_bad_trials(self, identity):
        sol = solved(identity, CENTERED)
        with pytest.raises(ValueError):
            cp.run_simulation(sol, CENTERED, identity, trials=0)

    def test_accuracy_gap(self, calibrated_model, side_by_side):
        scores = cp.build_score_matrix(calibrated_model, side_by_side)
        opt = cp.run_simulation(cp.solve(scores), side_by_side, calibrated_model, 5000, seed=0)
        co = cp.run_simulation(
            cp.colocated_solution(scores), side_by_side, calibrated_model, 5000, seed=0
        )
        gap, se = opt.accuracy_gap(co)
        assert gap == pytest.approx(opt.accuracy - co.accuracy)
        assert se == pytest.approx(math.hypot(opt.accuracy_stderr, co.accuracy_stderr))


class TestExpectedErrors:
    def test_identity_has_zero_error(self, identity):
        expected = cp.expected_localization_errors(identity)
        for stats in expected.values():
            assert stats["circular"] == 0.0
            assert stats["adjusted"] == 0.0
            assert stats["cone_effect"] == 0.0

    def test_full_flip_gives_mirror_distance(self):
        # flip=1 with tiny blur: circular error is the distance to the mirror
        # bin; front-region mirror distances average (168+144+120+144+168+120)/6
        params = cp.SyntheticModelParams(
            blur_sd_deg={r: 0.5 for r in cp.REGIONS},
            flip_prob={r: 1.0 for r in cp.REGIONS},
        )
        expected = cp.expected_localization_errors(cp.synthesize_model(params))
        assert expected["front"]["circular"] == pytest.approx(144.0, abs=0.1)
        assert expected["front"]["adjusted"] == pytest.approx(0.0, abs=0.1)

    def test_calibration_matches_targets(self, calibrated_model):
        expected = cp.expected_localization_errors(calibrated_model)
        for region, target in cp.LOCALIZATION_ERROR_TARGETS.items():
            assert expected[region]["circular"] == pytest.approx(target["circular"], rel=0.01)
            assert expected[region]["adjusted"] == pytest.approx(target["adjusted"], rel=0.01)


class TestTable1Statistics:
    def test_region_trial_counts(self, calibrated_model):
        stats = cp.table1_statistics(calibrated_model, trials_per_bin=100, seed=0)
        assert stats["front"].trials == 600  # 6 bins in the front arc
        assert stats["right"].trials == 900
        assert stats["back"].trials == 600
        assert stats["left"].trials == 900
        assert stats["all"].trials == 3000

    def test_adjusted_never_exceeds_circular(self, calibrated_model):
        stats = cp.table1_statistics(calibrated_model, trials_per_bin=150, seed=3)
        for s in stats.values():
            assert s.adjusted_mean <= s.circular_mean
            assert s.cone_effect_mean == pytest.approx(s.circular_mean - s.adjusted_mean)

    def test_identity_is_zero(self, identity):
        stats = cp.table1_statistics(identity, trials_per_bin=50, seed=0)
        assert stats["all"].circular_mean == 0.0

    def test_tracks_closed_form(self, calibrated_model):
        stats = cp.table1_statistics(calibrated_model, trials_per_bin=800, seed=6)
        expected = cp.expected_localization_errors(calibrated_model)
        for region in (*cp.REGIONS, "all"):
            assert stats[region].circular_mean == pytest.approx(
                expected[region]["circular"], rel=0.08
            )

    def test_deterministic(self, calibrated_model):
        a = cp.table1_statistics(calibrated_model, trials_per_bin=100, seed=9)
        b = cp.table1_statistics(calibrated_model, trials_per_bin=100, seed=9)
        assert a == b

    def test_rejects_bad_budget(self, identity):
        with pytest.raises(ValueError):
            cp.table1_statistics(identity, trials_per_bin=0)

    @given(
        bin_size=st.sampled_from([3, 12, 30]),
        trials_per_bin=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25)
    def test_matches_per_trial_regions(self, bin_size, trials_per_bin, seed):
        model = cp.synthesize_model(cp.calibrated_params(bin_size))
        got = cp.table1_statistics(model, trials_per_bin=trials_per_bin, seed=seed)
        assert got == table1_per_trial(model, trials_per_bin, seed)


class TestDumpTrials:
    def test_round_trip_recovers_model(self, tmp_path, calibrated_model):
        path = tmp_path / "trials.csv"
        written = cp.dump_trials(calibrated_model, path, trials_per_bin=1000, seed=0)
        assert written == 30000
        rebuilt = cp.model_from_trials(path)
        assert np.abs(rebuilt.matrix - calibrated_model.matrix).max() < 0.05

    def test_header(self, tmp_path, identity):
        path = tmp_path / "trials.csv"
        cp.dump_trials(identity, path, trials_per_bin=1, seed=0)
        assert path.read_text().splitlines()[0] == "true_azimuth_deg,predicted_azimuth_deg"


class TestSanityFloor:
    def test_optimized_beats_random_feasible_on_average(self, calibrated_model):
        rng = np.random.default_rng(21)
        bins_total = calibrated_model.bin_count
        opt_acc, rand_acc = [], []
        for _ in range(100):
            n = int(rng.integers(2, 6))
            layout = random_layout(rng, n)
            scores = cp.build_score_matrix(calibrated_model, layout)
            sol = cp.solve(scores)
            opt_acc.append(expected_accuracy(sol, layout, calibrated_model))
            order = layout.circular_order()
            cut = int(rng.integers(bins_total))
            pos = np.sort(rng.choice(bins_total, size=n, replace=False))
            random_bins = (pos + cut) % bins_total
            by_id = {layout.elements[order[j]].id: int(random_bins[j]) for j in range(n)}
            rand_sol = cp.PlacementSolution(
                assignments=tuple(
                    cp.Assignment(
                        id=e.id,
                        sound_bin=by_id[e.id],
                        sound_azimuth_deg=cp.bin_center(by_id[e.id], 12),
                        visual_azimuth_deg=e.visual_azimuth_deg,
                        elevation_deg=e.elevation_deg,
                    )
                    for e in layout.elements
                ),
                objective=0.0,
                per_element_score=(0.0,) * n,
                solver="random",
                cut_rotation=cut,
            )
            rand_acc.append(expected_accuracy(rand_sol, layout, calibrated_model))
        assert np.mean(opt_acc) >= np.mean(rand_acc)
