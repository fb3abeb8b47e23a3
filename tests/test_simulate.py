import dataclasses
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace import simulate
from cueplace.confusion import DEFAULT_REGION_BOUNDS, ModelFormatError, _regions_by_bin
from cueplace.simulate import (
    _discordant_trials,
    _histogram,
    _keyed,
    _percepts,
    _regions_with_centers,
    expected_accuracy,
)
from tests.conftest import random_layout
from tests.oracles import (
    correct_per_trial,
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
            assert lay.geometry(12).decided[4] == 0

    @given(
        az=st.lists(
            st.one_of(
                st.sampled_from([0.0, 5.9995, 6.0, 6.0005, 54.0, 90.0, 108.0, 180.0, 270.0]),
                st.floats(0.0, 360.0, exclude_max=True, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        bin_size=st.sampled_from([1, 3, 12, 30, 8, 24]),
    )
    @settings(max_examples=100)
    def test_matches_per_percept_oracle(self, az, bin_size):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(az)))
        expected = [nearest_element_decision(c, lay) for c in cp.bin_centers(bin_size)]
        assert np.array_equal(lay.geometry(bin_size).decided, expected)


class TestSampler:
    """The keyed sampler (`_keyed`, `_bounds`, `_histogram`, `_percepts`)
    against the gather oracle, on uniforms of `Generator.random`'s 2^-53
    grid."""

    @staticmethod
    def uniforms(rng, matrix, true_bins):
        """Random grid uniforms with 0, the last grid value below 1 and, for
        CDF entries of each trial's own row, the least grid value at or
        above the entry or the grid value one step below it mixed in."""

        u = rng.random(true_bins.size)
        least = np.ceil(np.cumsum(matrix, axis=1) * 2.0**53)
        pick = rng.random(u.size) < 0.3
        m = least[true_bins[pick], rng.integers(matrix.shape[1], size=pick.sum())]
        m -= rng.integers(2, size=m.size)
        u[pick] = np.clip(m, 0, 2**53 - 1) * 2.0**-53
        pick = rng.random(u.size) < 0.03
        u[pick] = rng.choice([0.0, 1.0 - 2.0**-53], size=pick.sum())
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
        return u

    @staticmethod
    def check(matrix, bins, targets, u):
        """Percepts in draw order, with keyed model rows `bins[targets]`,
        and the histogram by (target, percept), with keyed targets whose
        rows are `bins` (repeats allowed), both equal the gather oracle's."""

        model = cp.ConfusionModel(360 // matrix.shape[0], matrix)
        true_bins = bins[targets]
        want = gather_sample_rows(matrix, true_bins, u)
        assert np.array_equal(_percepts(model, _keyed(true_bins.astype(np.int64), u.copy())), want)
        keys = np.sort(_keyed(targets.astype(np.int64), u.copy()))
        nb = matrix.shape[1]
        hist = np.bincount(targets * nb + want, minlength=bins.size * nb)
        assert np.array_equal(_histogram(model, bins, keys), hist)

    @given(
        bins=st.sampled_from([2, 3, 5, 30, 120, 360]),
        kind=st.sampled_from(["weights", "identity", "calibrated"]),
        n=st.integers(1, 12),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matches_gather_sampler(self, bins, kind, n, trials, seed):
        rng = np.random.default_rng(seed)
        if kind == "weights":
            # exact zeros give flat CDF stretches, and a zero tail a CDF
            # that reaches its last value before the last bin
            raw = rng.choice([0.0, 0.1, 0.25, 1.0, 3.0], size=(bins, bins))
            raw[:, 0] += 1.0  # no empty row
            for row in raw:
                row[rng.integers(1, bins + 1) :] = 0.0
            matrix = raw / raw.sum(axis=1, keepdims=True)
        else:
            matrix = model_of(kind, 360 // bins).matrix
        element_bins = rng.integers(bins, size=n)  # a shared bin repeats a row
        targets = rng.integers(n, size=trials)
        self.check(matrix, element_bins, targets, self.uniforms(rng, matrix, element_bins[targets]))

    @pytest.mark.parametrize("bin_size", [12, 3, 1])
    def test_fine_table_matches_gather_sampler(self, bin_size):
        # the calibrated confusion table at 12, 3 and 1-degree bins
        matrix = cp.synthesize_model(cp.calibrated_params(bin_size)).matrix
        rng = np.random.default_rng(bin_size)
        bins = rng.choice(matrix.shape[0], size=5, replace=False)
        targets = rng.integers(5, size=20000)  # ~4000 trials per row
        self.check(matrix, bins, targets, self.uniforms(rng, matrix, bins[targets]))

    @pytest.mark.parametrize("bin_size", [12, 90])
    def test_entries_on_dyadic_cell_edges(self, bin_size):
        # weights 0.25 and 0.5 put every CDF entry on the 2^-53 grid, so a
        # uniform equal to an entry counts it
        bins = 360 // bin_size
        rng = np.random.default_rng(bins)
        matrix = np.zeros((bins, bins))
        for row in matrix:
            cols = rng.choice(bins, size=min(3, bins), replace=False)
            row[cols] = [0.25, 0.25, 0.5][: cols.size]
            row[cols[0]] += 1.0 - row.sum()
        targets = rng.integers(bins, size=bins * 1000)
        self.check(matrix, np.arange(bins), targets, self.uniforms(rng, matrix, targets))

    def test_all_rows_at_200_per_bin_with_crowded_tails(self):
        # at 1-degree bins many tiny entries share a few grid values at the tails
        matrix = cp.synthesize_model(cp.calibrated_params(1)).matrix
        rng = np.random.default_rng(1)
        targets = np.repeat(np.arange(360), 200)
        self.check(matrix, np.arange(360), targets, self.uniforms(rng, matrix, targets))

    @pytest.mark.parametrize("bin_size", [12, 1])
    def test_identity_model(self, bin_size):
        matrix = cp.identity_model(bin_size).matrix
        rng = np.random.default_rng(bin_size)
        targets = rng.integers(matrix.shape[0], size=30000)
        self.check(matrix, np.arange(matrix.shape[0]), targets, self.uniforms(rng, matrix, targets))

    @pytest.mark.parametrize("bin_size", [12, 1])
    def test_one_row(self, bin_size):
        matrix = cp.synthesize_model(cp.calibrated_params(bin_size)).matrix
        rng = np.random.default_rng(7)
        bins, targets = np.array([matrix.shape[0] // 3]), np.zeros(50000, np.int64)
        self.check(matrix, bins, targets, self.uniforms(rng, matrix, bins[targets]))

    @pytest.mark.parametrize(
        "seed, n, trials",
        [(0, 1, 1), (1, 2, 7), (2, 12, 50_000), (3, 300, 4097), (2**32 - 1, 1023, 999)],
    )
    def test_stream_holds_grid_uniforms(self, seed, n, trials):
        # `Generator.random` draws m / 2^53 for integers m < 2^53, the
        # contract the keys rest on; the stream is their sorted keys
        rng = np.random.default_rng(seed)
        targets, u = rng.integers(n, size=trials), rng.random(trials)
        m = u * 2.0**53
        assert np.array_equal(m, np.floor(m)) and m.max() < 2.0**53
        simulate._kept.clear()
        keys = simulate._stream(seed, n, trials)
        simulate._kept.clear()
        assert keys.dtype == np.int64 and not keys.flags.writeable
        assert np.array_equal(keys, np.sort((targets << 53) + m.astype(np.int64)))

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

    def test_at_most_1023_elements(self):
        # a key holds its target in the 10 bits above the uniform's 53
        # (the solvers place at most B elements; a hand-built solution may share bins)
        model = model_of("calibrated", 1)
        for n in (1023, 1024):
            layout = cp.Layout(tuple(cp.Element(f"e{i}", i * 0.25) for i in range(n)))
            assignments = tuple(
                cp.Assignment(e.id, int(az), int(az) + 0.5, az, 0.0)
                for e, az in zip(layout.elements, layout.visual_azimuths.tolist())
            )
            solution = cp.PlacementSolution(assignments, 0.0, (0.0,) * n, "shared", 0)
            if n == 1024:
                with pytest.raises(ValueError, match="^a run simulates at most 1023 elements"):
                    cp.run_simulation(solution, layout, model, 3000, 5)
                continue
            got = cp.run_simulation(solution, layout, model, 3000, 5)
            want = run_simulation_per_trial(solution, layout, model, 3000, 5)
            assert np.array_equal(got.histogram, want.histogram)
            assert np.array_equal(got.confusion_counts, want.confusion_counts)

    def test_rejects_bad_trials(self, identity):
        sol = solved(identity, CENTERED)
        with pytest.raises(ValueError):
            cp.run_simulation(sol, CENTERED, identity, trials=0)

    @pytest.mark.parametrize(
        "trials, seed, bad",
        [
            (np.int64(5), np.uint32(3), None),
            (np.int32(1), np.int64(0), None),
            (np.int64(-1), 0, "trials"),
            (True, 0, "trials"),
            (np.True_, 0, "trials"),
            (2.5, 0, "trials"),
            (5.0, 0, "trials"),
            ("5", 0, "trials"),
            (5, -1, "seed"),
            (5, np.int64(-1), "seed"),
            (5, True, "seed"),
            (5, 1.0, "seed"),
        ],
    )
    def test_trials_and_seed_at_the_boundary(self, calibrated_model, trials, seed, bad):
        sol = solved(calibrated_model, CENTERED)
        if bad:
            with pytest.raises(ValueError, match=f"^{bad} must be >= "):
                cp.run_simulation(sol, CENTERED, calibrated_model, trials, seed)
            return
        got = cp.run_simulation(sol, CENTERED, calibrated_model, trials, seed)
        assert type(got.trials) is int and type(got.seed) is int
        want = cp.run_simulation(sol, CENTERED, calibrated_model, int(trials), int(seed))
        assert_same_report(got, want)

    def test_accuracy_gap(self, calibrated_model, side_by_side):
        # the gap's error is the SD of the per-trial difference in
        # correctness over sqrt(trials), from the trials of both runs
        model, layout = calibrated_model, side_by_side
        scores = cp.build_score_matrix(model, layout)
        solutions = cp.solve(scores), cp.colocated_solution(scores)
        opt, co = (cp.run_simulation(s, layout, model, 5000, seed=0) for s in solutions)
        gap, se = opt.accuracy_gap(co)
        assert gap == opt.accuracy - co.accuracy
        opt_ok, co_ok = (correct_per_trial(s, layout, model, 5000, 0) for s in solutions)
        diff = opt_ok.astype(float) - co_ok
        assert gap == pytest.approx(diff.mean(), rel=1e-12)
        assert se == pytest.approx(diff.std() / math.sqrt(5000), rel=1e-9)
        # the runs share their stream, so the paired error is the smaller
        assert 0 < se < math.hypot(opt.accuracy_stderr, co.accuracy_stderr)

    @pytest.mark.parametrize(
        "trials, seed, layout", [(5000, 1, None), (4999, 0, None), (5000, 0, CENTERED)]
    )
    def test_accuracy_gap_needs_one_stream(self, calibrated_model, side_by_side, trials, seed, layout):
        model, layout = calibrated_model, layout or side_by_side
        run = cp.run_simulation(solved(model, side_by_side), side_by_side, model, 5000, 0)
        other = cp.run_simulation(solved(model, layout), layout, model, trials, seed)
        for a, b in ((run, other), (other, run)):
            with pytest.raises(ValueError, match="^a paired gap needs two runs on one stream"):
                a.accuracy_gap(b)

    @given(
        bin_size=st.sampled_from([12, 3, 1]),
        n=st.integers(1, 59),
        trials=st.one_of(
            st.integers(1, 5000), st.integers(2 * 2**14 + 1, 3 * 2**14)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(bin_size=1, n=59, trials=2 * 2**14 + 1, seed=7)
    @example(bin_size=12, n=2, trials=3 * 2**14, seed=0)
    @settings(max_examples=40)
    def test_discordant_trials_match_per_trial_oracle(self, bin_size, n, trials, seed):
        # every run's trials pair up by their uniforms' rank within a
        # target, runs of up to 3 * 2^14 trials included
        model = model_of("calibrated", bin_size)
        layout = random_layout(np.random.default_rng(seed), min(n, model.bin_count))
        scores = cp.build_score_matrix(model, layout)
        solutions = cp.colocated_solution(scores), cp.solve(scores)
        reports = [cp.run_simulation(s, layout, model, trials, seed) for s in solutions]
        co_ok, opt_ok = (correct_per_trial(s, layout, model, trials, seed) for s in solutions)
        assert _discordant_trials(*reports) == np.count_nonzero(co_ok != opt_ok)
        assert _discordant_trials(reports[0], reports[0]) == 0

    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 12), st.sampled_from([12, 3, 8, 24])),  # B = 30, 120, 45, 15
            st.sampled_from([(100, 3), (300, 1)]),
        ),
        trials=st.sampled_from([1, 7, 8, 129, 4097, 50_000]),
        colocated=st.booleans(),
        kind=st.sampled_from(["identity", "calibrated"]),
        seed=st.integers(0, 2**32 - 1),
        # Near-coincident and mirrored azimuths (instead of `shape`'s n drawn
        # ones) give elements that decide no bin, whose confusion columns stay 0.
        azimuths=st.none()
        | st.lists(
            st.one_of(
                st.sampled_from([0.0, 5.9995, 6.0, 6.0005, 90.0, 174.0, 180.0, 186.0, 354.0]),
                st.floats(0.0, 360.0, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
            unique=True,
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
        azimuths=[5.9995, 6.0005, 174.0, 186.0, 90.0],
    )
    # 2^14, 2^14 + 1 and 2 * 2^14 + 1 trials, and 36 001 trials over
    # n * B = 18 000 (target, percept) cells.
    @example(
        shape=(12, 12),
        trials=2**14,
        colocated=False,
        kind="calibrated",
        seed=5,
        azimuths=None,
    )
    @example(
        shape=(7, 3),
        trials=2**14 + 1,
        colocated=True,
        kind="calibrated",
        seed=6,
        azimuths=None,
    )
    @example(
        shape=(12, 12),
        trials=2 * 2**14 + 1,
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
    # Elements just left of 90 degrees, one displaced across it: a cone
    # effect of about 2.5e-4 degrees, the difference of two means of about
    # 9 degrees, where the per-trial oracle's cone mean is 5e-12 apart
    # relative to itself.
    @example(
        shape=(1, 3),
        trials=50_000,
        colocated=False,
        kind="identity",
        seed=1,
        azimuths=[89.999, 89.9995, 30.0, 200.0],
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
        got = cp.run_simulation(solution, layout, model, trials, seed)
        want = run_simulation_per_trial(solution, layout, model, trials, seed)
        # The means are count-weighted sums over cells, not sums over
        # trials, so only their last bits may differ. The cone mean is the
        # difference of the other two, so its error is theirs, and is
        # bounded relative to the circular mean, not to itself.
        circular = want.mean_circular_error_deg
        for name in ("mean_circular_error_deg", "mean_adjusted_error_deg"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
        assert got.mean_cone_effect_deg == pytest.approx(
            want.mean_cone_effect_deg, rel=1e-12, abs=1e-12 * circular
        )
        assert got.mean_cone_effect_deg >= 0.0
        means = ("mean_circular_error_deg", "mean_adjusted_error_deg", "mean_cone_effect_deg")
        assert_same_report(got, dataclasses.replace(want, **{m: getattr(got, m) for m in means}))

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
        simulate._kept.clear()  # so the first run draws its stream, whatever ran before
        peaks = []
        for _ in ("draw", "take"):
            tracemalloc.start()
            try:
                # a fresh, equal layout, so the run builds its geometry in here
                fresh = cp.Layout(layout.elements)
                cp.run_simulation(solution, fresh, model, trials=50_000, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert not simulate._kept
        assert max(peaks) <= bound


class TestKeptStream:
    """A run keeps its drawn stream for the next run with the same (seed,
    n, trials), which takes it; every report equals a cold run's."""

    @staticmethod
    def cold(*args):
        simulate._kept.clear()
        return cp.run_simulation(*args)

    def test_reports_equal_cold_runs(self, calibrated_model, side_by_side, cone_pair):
        three = random_layout(np.random.default_rng(3), 3)
        model = calibrated_model
        runs = []
        for layout in (side_by_side, cone_pair, three):
            scores = cp.build_score_matrix(model, layout)
            runs.append((layout, cp.colocated_solution(scores), cp.solve(scores)))
        (lay, co, opt), (lay2, co2, opt2), (lay3, co3, opt3) = runs
        sequence = [
            (co, lay, 5000, 3),
            (opt, lay, 5000, 3),  # the pair's second run takes the stream
            (opt, lay, 5000, 3),  # and the third draws it again
            (co, lay, 5000, 4),  # another seed in between
            (opt, lay, 5000, 3),
            (co3, lay3, 5000, 3),  # the same seed with another n
            (opt3, lay3, 5000, 3),
            (co, lay, 4999, 3),  # or another trial count
            (co2, lay2, 4999, 3),  # another solution and layout under one key
            (opt2, lay2, 4999, 3),
            (co, lay, 2 * 2**14 + 1, 3),  # a larger stream, both strategies
            (opt, lay, 2 * 2**14 + 1, 3),
        ]
        simulate._kept.clear()
        got = []
        for sol, layout, trials, seed in sequence:
            got.append(cp.run_simulation(sol, layout, model, trials, seed))
            assert len(simulate._kept) <= 1
        assert not simulate._kept  # the last pair's second run took its stream
        for report, (sol, layout, trials, seed) in zip(got, sequence):
            assert_same_report(report, self.cold(sol, layout, model, trials, seed))

    @pytest.mark.parametrize("n, bin_size", [(2, 12), (300, 1)])
    def test_kept_arrays_are_read_only(self, n, bin_size):
        # one sorted int64 key array, 8 bytes per trial
        model = model_of("calibrated", bin_size)
        layout = random_layout(np.random.default_rng(n), n)
        solution = solved(model, layout)
        want = self.cold(solution, layout, model, 2000, 9)
        ((key, kept),) = simulate._kept.items()
        assert key == (9, n, 2000)
        assert kept.dtype == np.int64 and kept.shape == (2000,)
        assert np.all(kept[:-1] <= kept[1:]) and 0 <= kept[0] and kept[-1] >> 53 < n
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0
        assert_same_report(cp.run_simulation(solution, layout, model, 2000, 9), want)
        assert not simulate._kept


class TestForeignSolution:
    """Both scorers reject a solution that is not the layout's and the
    model's, naming the id or bin, instead of scoring it as if it were."""

    @pytest.fixture(params=["expected_accuracy", "run_simulation"])
    def score(self, request):
        if request.param == "expected_accuracy":
            return expected_accuracy
        return lambda *args: cp.run_simulation(*args, trials=2000).accuracy

    def test_solution_at_another_bin_size(self, score, calibrated_model, side_by_side):
        fine = model_of("calibrated", 3)
        solution = solved(calibrated_model, side_by_side)
        # its 12-degree bins read as 3-degree ones gave an exact accuracy of
        # 0.277, against 0.999 for the 3-degree model's own solution
        message = "^'a' plays at 342.0 degrees, not at the center of bin 28 of 3-degree bins$"
        with pytest.raises(ValueError, match=message):
            score(solution, side_by_side, fine)
        assert score(solved(fine, side_by_side), side_by_side, fine) > 0.99

    @pytest.mark.parametrize(
        "ids, message",
        [
            (("a",), "^the solution does not place element 'b'$"),
            (("a", "b", "c"), "^the solution places 'c', which is not in the layout$"),
            (("a", "b", "b"), "^the solution places 'b' twice$"),
            (("b", "a"), None),  # any order of the layout's ids is the same solution
        ],
    )
    def test_ids_must_be_the_layouts(self, score, calibrated_model, side_by_side, ids, message):
        solution = solved(calibrated_model, side_by_side)
        by_id = {a.id: a for a in solution.assignments}
        by_id["c"] = dataclasses.replace(by_id["b"], id="c", sound_bin=10, sound_azimuth_deg=126.0)
        other = dataclasses.replace(solution, assignments=tuple(by_id[i] for i in ids))
        if message is None:
            want = score(solution, side_by_side, calibrated_model)
            assert score(other, side_by_side, calibrated_model) == want
            return
        with pytest.raises(ValueError, match=message):
            score(other, side_by_side, calibrated_model)

    @pytest.mark.parametrize(
        "bin_, azimuth, message",
        [
            (30, 366.0, "^bin 30 of 'b' is not one of the model's 30 bins$"),
            (-1, -6.0, "^bin -1 of 'b' is not one of the model's 30 bins$"),
            (1, 12.0, "^'b' plays at 12.0 degrees, not at the center of bin 1 of 12-degree bins$"),
            (1, math.nextafter(18.0, 0.0), "^'b' plays at 17.999999999999996 degrees, not at"),
            (1, math.nan, "^'b' plays at nan degrees, not at the center of bin 1 of"),
        ],
    )
    def test_bin_of_the_model_played_at_its_center(
        self, score, calibrated_model, side_by_side, bin_, azimuth, message
    ):
        solution = solved(calibrated_model, side_by_side)
        a, b = solution.assignments
        b = dataclasses.replace(b, sound_bin=bin_, sound_azimuth_deg=azimuth)
        with pytest.raises(ValueError, match=message):
            score(dataclasses.replace(solution, assignments=(a, b)), side_by_side, calibrated_model)


class TestExpectedAccuracy:
    def test_exported(self):
        assert cp.expected_accuracy is expected_accuracy
        assert "expected_accuracy" in cp.__all__

    # Near-coincident and mirrored azimuths give decision ties and elements
    # that decide no bin at all; every strategy is summed exactly like the oracle.
    # At 1 and 3 degree bins a group can pass the 128 items at which NumPy's
    # pairwise sum splits; the example's two groups hold 180 bins each.
    @example(azimuths=[0.0, 100.0], bin_size=1, calibrated=True)
    @given(
        azimuths=st.lists(
            st.one_of(
                st.sampled_from([0.0, 5.9995, 6.0, 6.0005, 90.0, 174.0, 180.0, 186.0, 354.0]),
                st.floats(0.0, 360.0, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        bin_size=st.sampled_from([12, 30, 45, 8, 24, 3, 1]),
        calibrated=st.booleans(),
    )
    @settings(max_examples=80)
    def test_equals_per_element_oracle(self, azimuths, bin_size, calibrated):
        assume(len(azimuths) <= 360 // bin_size)
        model = model_of("calibrated" if calibrated else "identity", bin_size)
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

    @pytest.mark.parametrize("trials_per_bin", [np.int64(3), True, np.True_, 2.5, 3.0, "3", -2])
    def test_budget_at_the_boundary(self, calibrated_model, trials_per_bin):
        if isinstance(trials_per_bin, np.integer):
            got = cp.table1_statistics(calibrated_model, trials_per_bin=trials_per_bin, seed=2)
            assert got == cp.table1_statistics(calibrated_model, trials_per_bin=3, seed=2)
            return
        with pytest.raises(ValueError, match="^trials_per_bin must be >= 1"):
            cp.table1_statistics(calibrated_model, trials_per_bin=trials_per_bin)

    @pytest.mark.parametrize("seed", [np.int64(2), np.uint32(2), True, np.True_, 2.5, 2.0, "2", -1])
    def test_seed_at_the_boundary(self, calibrated_model, seed):
        if isinstance(seed, np.integer):
            got = cp.table1_statistics(calibrated_model, trials_per_bin=3, seed=seed)
            assert got == cp.table1_statistics(calibrated_model, trials_per_bin=3, seed=2)
            return
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            cp.table1_statistics(calibrated_model, trials_per_bin=3, seed=seed)

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

    @pytest.mark.parametrize("trials_per_bin", [np.int64(3), True, np.True_, 2.5, 3.0, "3"])
    def test_budget_at_the_boundary(self, tmp_path, calibrated_model, trials_per_bin):
        path, want = tmp_path / "trials.csv", tmp_path / "want.csv"
        if isinstance(trials_per_bin, np.integer):
            written = cp.dump_trials(calibrated_model, path, trials_per_bin=trials_per_bin, seed=2)
            assert type(written) is int
            assert written == cp.dump_trials(calibrated_model, want, trials_per_bin=3, seed=2)
            assert path.read_bytes() == want.read_bytes()
            return
        with pytest.raises(ValueError, match="^trials_per_bin must be >= 1"):
            cp.dump_trials(calibrated_model, path, trials_per_bin=trials_per_bin)
        assert not path.exists()

    @pytest.mark.parametrize("seed", [np.int64(2), np.uint32(2), True, np.True_, 2.5, 2.0, "2", -1])
    def test_seed_at_the_boundary(self, tmp_path, calibrated_model, seed):
        path, want = tmp_path / "trials.csv", tmp_path / "want.csv"
        if isinstance(seed, np.integer):
            written = cp.dump_trials(calibrated_model, path, trials_per_bin=3, seed=seed)
            assert written == cp.dump_trials(calibrated_model, want, trials_per_bin=3, seed=2)
            assert path.read_bytes() == want.read_bytes()
            return
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            cp.dump_trials(calibrated_model, path, trials_per_bin=3, seed=seed)
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
                        sound_azimuth_deg=float(cp.bin_centers(12)[by_id[e.id]]),
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
