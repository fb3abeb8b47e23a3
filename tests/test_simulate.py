import dataclasses
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cueplace as cp
from cueplace.confusion import (
    DEFAULT_REGION_BOUNDS,
    ModelFormatError,
    _build_guide,
    _guide_cells,
    _regions_by_bin,
    sample_bins,
)
from cueplace.simulate import _LEAF_TRIALS, _pairwise_sum, _regions_with_centers, expected_accuracy
from tests.conftest import random_layout
from tests.oracles import (
    expected_accuracy_per_element,
    gather_sample_rows,
    nearest_element_decision,
    region_of,
    run_simulation_per_trial,
    table1_per_trial,
)

CENTERED = cp.Layout((cp.Element("a", 6.0), cp.Element("b", 90.0), cp.Element("c", 186.0)))


def solved(model, layout, **kwargs):
    return cp.solve(cp.build_score_matrix(model, layout), **kwargs)


@lru_cache(maxsize=None)
def model_of(kind, bin_size):
    if kind == "identity":
        return cp.identity_model(bin_size)
    return cp.synthesize_model(cp.calibrated_params(bin_size))


def assert_same_report(got, want):
    """Every field equal bit for bit: arrays in dtype, values and
    writeability, everything else by repr, so NaN equals NaN and -0.0 is
    not 0.0."""

    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.flags.writeable == w.flags.writeable, field.name
            assert np.array_equal(g, w), field.name
        else:
            assert repr(g) == repr(w), field.name


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
        bin_size=st.sampled_from([1, 3, 12, 30, 8, 24]),
    )
    @settings(max_examples=100)
    def test_matches_per_percept_oracle(self, az, bin_size):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(az)))
        expected = [nearest_element_decision(c, lay) for c in cp.bin_centers(bin_size)]
        assert np.array_equal(cp.decision_by_bin(lay, bin_size), expected)


class TestSampler:
    @staticmethod
    def sample(model, true_bins, u):
        """`sample_bins` with a guide over the rows the trials play, so its
        table has the K that `searched` assumes."""

        rows = np.unique(true_bins)
        return sample_bins(_build_guide(model, rows, u.size), np.searchsorted(rows, true_bins), u)

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
        assert np.array_equal(self.sample(model, true_bins, u), gather_sample_rows(matrix, true_bins, u))

    # The cases below use enough trials per row for a fine guide table, and
    # each checks that trials land in cells holding a CDF entry, where the
    # sampler has to search instead of reading the table.

    @staticmethod
    def uniforms(rng, matrix, true_bins):
        """Random uniforms with 0, the largest double below 1, 1, a value
        past 1 and the trial's own row CDF values mixed in."""

        u = rng.random(true_bins.size)
        cdf = np.cumsum(matrix, axis=1)
        pick = rng.random(u.size) < 0.2
        u[pick] = cdf[true_bins[pick], rng.integers(matrix.shape[1], size=pick.sum())]
        edges = np.array([0.0, np.nextafter(1.0, 0.0), 1.0, 1.5])
        pick = rng.random(u.size) < 0.03
        u[pick] = rng.choice(edges, size=pick.sum())
        return u

    @staticmethod
    def searched(matrix, true_bins, u):
        """Trials whose guide-table cell holds a CDF entry (after the cap)."""

        bins, rows = matrix.shape[1], np.unique(true_bins)
        cells = _guide_cells(bins, u.size // rows.size)
        cdf = np.cumsum(matrix, axis=1)
        cell = np.minimum(np.floor(u * cells), cells)
        total = 0
        for b in rows:
            c = cell[true_bins == b]
            below = np.searchsorted(cdf[b], c / cells, side="left")
            upto = np.where(c < cells, np.searchsorted(cdf[b], (c + 1) / cells, side="left"), bins)
            total += np.count_nonzero(np.minimum(below, bins - 1) != np.minimum(upto, bins - 1))
        return total

    def check(self, matrix, true_bins, u):
        model = cp.ConfusionModel(360 // matrix.shape[0], matrix)
        assert np.array_equal(self.sample(model, true_bins, u), gather_sample_rows(matrix, true_bins, u))
        assert self.searched(matrix, true_bins, u) > 0

    @pytest.mark.parametrize("bin_size", [12, 3, 1])
    def test_fine_table_matches_gather_sampler(self, bin_size):
        matrix = cp.synthesize_model(cp.calibrated_params(bin_size)).matrix
        rng = np.random.default_rng(bin_size)
        rows = rng.choice(matrix.shape[0], size=5, replace=False)
        true_bins = rows[rng.integers(5, size=20000)]  # ~4000 trials per row
        self.check(matrix, true_bins, self.uniforms(rng, matrix, true_bins))

    @pytest.mark.parametrize("bin_size", [12, 90])
    def test_entries_on_dyadic_cell_edges(self, bin_size):
        # weights 0.25 and 0.5 put every CDF entry on a cell edge
        bins = 360 // bin_size
        rng = np.random.default_rng(bins)
        matrix = np.zeros((bins, bins))
        for row in matrix:
            cols = rng.choice(bins, size=min(3, bins), replace=False)
            row[cols] = [0.25, 0.25, 0.5][: cols.size]
            row[cols[0]] += 1.0 - row.sum()
        true_bins = rng.integers(bins, size=bins * 1000)
        self.check(matrix, true_bins, self.uniforms(rng, matrix, true_bins))

    def test_all_rows_at_200_per_bin_with_crowded_tails(self):
        # at 1-degree bins many tiny entries share the first and last cells
        matrix = cp.synthesize_model(cp.calibrated_params(1)).matrix
        rng = np.random.default_rng(1)
        true_bins = np.repeat(np.arange(360), 200)
        self.check(matrix, true_bins, self.uniforms(rng, matrix, true_bins))

    @pytest.mark.parametrize("bin_size", [12, 1])
    def test_identity_model(self, bin_size):
        matrix = cp.identity_model(bin_size).matrix
        rng = np.random.default_rng(bin_size)
        true_bins = rng.integers(matrix.shape[0], size=30000)
        self.check(matrix, true_bins, self.uniforms(rng, matrix, true_bins))

    @pytest.mark.parametrize("bin_size", [12, 1])
    def test_one_row(self, bin_size):
        matrix = cp.synthesize_model(cp.calibrated_params(bin_size)).matrix
        rng = np.random.default_rng(7)
        true_bins = np.full(50000, matrix.shape[0] // 3)
        self.check(matrix, true_bins, self.uniforms(rng, matrix, true_bins))

    def test_memory_at_finest_bins(self):
        # 1-degree bins, all rows at 200 trials, as `table1_statistics` draws:
        # the result and the guide over all rows take about 2.46 MB
        model = cp.synthesize_model(cp.calibrated_params(1))
        true_bins = np.repeat(np.arange(360), 200)
        u = np.random.default_rng(0).random(true_bins.size)
        tracemalloc.start()
        try:
            sample_bins(_build_guide(model, np.arange(360), u.size), true_bins, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_550_000

    def test_table1_memory_at_finest_bins(self):
        # the draw, the B x B error tables and one region's rows; trial-length
        # cells and region masks next to them reach 6.48 MB
        model = cp.synthesize_model(cp.calibrated_params(1))
        tracemalloc.start()
        try:
            cp.table1_statistics(model, trials_per_bin=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_600_000


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

    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 12), st.sampled_from([12, 3, 8, 24])),  # B = 30, 120, 45, 15
            st.sampled_from([(100, 3), (300, 1)]),
        ),
        trials=st.sampled_from([1, 7, 8, 129, 4097, 50_000]),
        colocated=st.booleans(),
        kind=st.sampled_from(["identity", "calibrated"]),
        seed=st.integers(0, 2**32 - 1),
        # Colliding and mirrored azimuths (instead of `shape`'s n drawn ones)
        # give elements that decide no bin, whose confusion columns stay 0.
        azimuths=st.none()
        | st.lists(
            st.one_of(
                st.sampled_from([0.0, 6.0, 90.0, 174.0, 180.0, 186.0, 354.0]),
                st.floats(0.0, 360.0, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @example(shape=(300, 1), trials=50_000, colocated=True, kind="calibrated", seed=0, azimuths=None)
    @example(shape=(300, 1), trials=4097, colocated=False, kind="identity", seed=1, azimuths=None)
    @example(shape=(100, 3), trials=50_000, colocated=False, kind="calibrated", seed=2, azimuths=None)
    @example(shape=(12, 12), trials=1, colocated=True, kind="calibrated", seed=3, azimuths=None)
    @example(
        shape=(1, 12),
        trials=4097,
        colocated=False,
        kind="calibrated",
        seed=4,
        azimuths=[6.0, 6.0, 174.0, 186.0, 90.0],
    )
    # One leaf; two leaves, split at 8192; three leaves, two levels deep;
    # and leaves of 18000, 9000 and 9001 trials set by n * B = 18000.
    @example(
        shape=(12, 12),
        trials=_LEAF_TRIALS,
        colocated=False,
        kind="calibrated",
        seed=5,
        azimuths=None,
    )
    @example(
        shape=(7, 3),
        trials=_LEAF_TRIALS + 1,
        colocated=True,
        kind="calibrated",
        seed=6,
        azimuths=None,
    )
    @example(
        shape=(12, 12),
        trials=2 * _LEAF_TRIALS + 1,
        colocated=False,
        kind="calibrated",
        seed=7,
        azimuths=None,
    )
    @example(
        shape=(50, 1),
        trials=36_001,
        colocated=False,
        kind="calibrated",
        seed=8,
        azimuths=None,
    )
    @settings(max_examples=120)
    def test_matches_per_trial_oracle(self, shape, trials, colocated, kind, seed, azimuths):
        # the colocated baseline repeats a bin when two elements share one
        n, bin_size = shape
        model = model_of(kind, bin_size)
        if azimuths is None:
            layout = random_layout(np.random.default_rng(seed), n)
        else:
            layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        scores = cp.build_score_matrix(model, layout)
        solution = cp.colocated_solution(scores) if colocated else cp.solve(scores)
        assert_same_report(
            cp.run_simulation(solution, layout, model, trials, seed),
            run_simulation_per_trial(solution, layout, model, trials, seed),
        )

    @pytest.mark.parametrize(
        "n, bin_size, bound",
        [
            (12, 12, 1_000_000),  # the per-trial version peaked at 3.26 MB
            (300, 1, 5_400_000),  # and here at 5.72 MB
        ],
    )
    def test_memory_at_50k_trials(self, n, bin_size, bound):
        model = model_of("calibrated", bin_size)
        layout = random_layout(np.random.default_rng(n), n)
        solution = solved(model, layout)
        tracemalloc.start()
        try:
            cp.run_simulation(solution, layout, model, trials=50_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestPairwiseSum:
    """`_pairwise_sum` must add as NumPy's `add.reduce` does, or the error
    means of `run_simulation` move in their last bits."""

    @staticmethod
    def lengths(rng):
        edges = {2**k + d for k in range(1, 19) for d in (-1, 0, 1)}
        leaves = {
            k * leaf + d for leaf in (_LEAF_TRIALS, 18_000) for k in (1, 2, 3) for d in (-1, 0, 1)
        }
        drawn = np.exp(rng.uniform(0.0, np.log(300_000), 200)).astype(int)
        return sorted({1, 7, 8, 9, 127, 128, 129, 300_000, *edges, *leaves, *drawn.tolist()})

    @pytest.mark.parametrize("leaf", [_LEAF_TRIALS, 18_000, 128])
    def test_equals_add_reduce(self, leaf):
        # magnitudes spread over 16 decades, so another order changes the bits
        rng = np.random.default_rng(leaf)
        for size in self.lengths(rng):
            a = rng.random(size) * 10.0 ** rng.integers(-8, 8, size)
            got = _pairwise_sum(lambda lo, hi: np.add.reduce(a[lo:hi]), 0, size, leaf)
            assert repr(got) == repr(np.add.reduce(a)), size

    def test_leaves_ascend_and_tile(self):
        seen = []
        _pairwise_sum(lambda lo, hi: seen.append((lo, hi)) or 0.0, 0, 50_000, _LEAF_TRIALS)
        assert seen == [(0, 12496), (12496, 25000), (25000, 37496), (37496, 50000)]


class TestExpectedAccuracy:
    def test_exported(self):
        assert cp.expected_accuracy is expected_accuracy
        assert "expected_accuracy" in cp.__all__

    # Colliding and mirrored azimuths give decision ties and elements that
    # decide no bin at all; every strategy is summed exactly like the oracle.
    @given(
        azimuths=st.lists(
            st.one_of(
                st.sampled_from([0.0, 6.0, 90.0, 174.0, 180.0, 186.0, 354.0]),
                st.floats(0.0, 360.0, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
        ),
        bin_size=st.sampled_from([12, 30, 45, 8, 24]),
        calibrated=st.booleans(),
    )
    @settings(max_examples=80)
    def test_equals_per_element_oracle(self, azimuths, bin_size, calibrated):
        assume(len(azimuths) <= 360 // bin_size)
        model = (
            cp.synthesize_model(cp.calibrated_params(bin_size_deg=bin_size))
            if calibrated
            else cp.identity_model(bin_size)
        )
        layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        scores = cp.build_score_matrix(model, layout)
        for sol in (cp.colocated_solution(scores), cp.solve(scores)):
            assert expected_accuracy(sol, layout, model) == expected_accuracy_per_element(
                sol, layout, model
            )


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

    @pytest.mark.parametrize("bin_size", [90, 120])
    def test_rejects_region_without_bin_center(self, bin_size):
        with pytest.raises(cp.ModelFormatError, match="lies in region 'front'"):
            cp.expected_localization_errors(cp.identity_model(bin_size))


class TestRegionsByBin:
    @pytest.mark.parametrize("bin_size", [d for d in range(1, 361) if 360 % d == 0])
    def test_default_bounds(self, bin_size):
        centers = cp.bin_centers(bin_size)
        for c in centers:
            holders = [
                name
                for name, (lo, hi) in DEFAULT_REGION_BOUNDS.items()
                if (c - lo) % 360.0 < (hi - lo) % 360.0
            ]
            assert len(holders) == 1, (c, holders)
        expected = [region_of(c) for c in centers]
        assert _regions_by_bin(bin_size).tolist() == expected
        if set(expected) == set(cp.REGIONS):
            assert _regions_with_centers(bin_size).tolist() == expected
        else:  # 90- and 120-degree bins leave a region without a center
            with pytest.raises(ModelFormatError):
                _regions_with_centers(bin_size)


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

    @pytest.mark.parametrize("bin_size", [90, 120])
    def test_rejects_region_without_bin_center(self, bin_size):
        with pytest.raises(cp.ModelFormatError, match="lies in region 'front'"):
            cp.table1_statistics(cp.identity_model(bin_size), trials_per_bin=5)

    def test_one_bin_region_needs_two_trials_per_bin(self):
        # 60-degree bins: 'right' and 'left' each hold one bin center
        model = cp.identity_model(60)
        with pytest.raises(ValueError, match=r"region 'right'.*trials_per_bin must be >= 2"):
            cp.table1_statistics(model, trials_per_bin=1)
        stats = cp.table1_statistics(model, trials_per_bin=2)
        assert stats["right"].trials == stats["left"].trials == 2
        assert all(math.isfinite(v) for s in stats.values() for v in vars(s).values())

    @given(
        bin_size=st.sampled_from([3, 12, 30, 8, 24]),
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

    @pytest.mark.parametrize("trials_per_bin", [0, -1])
    def test_rejects_empty_budget(self, tmp_path, identity, trials_per_bin):
        path = tmp_path / "trials.csv"
        with pytest.raises(ValueError, match="trials_per_bin must be >= 1"):
            cp.dump_trials(identity, path, trials_per_bin=trials_per_bin)
        assert not path.exists()

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
