import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace.placement import (
    MASKED,
    InfeasibleLayoutError,
    _extract_lex_min,
    _ordered_quantized,
)
from tests.conftest import random_scores
from tests.oracles import brute_force_solve, extract_lex_min


def scores_from(values, azimuths, bin_size):
    """ScoreMatrix with explicit utilities for hand-checked instances."""

    model = cp.identity_model(bin_size)
    layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
    values = np.asarray(values, dtype=float)
    values.flags.writeable = False
    return cp.ScoreMatrix(values, model, layout)


def assert_feasible(scores, solution):
    """Distinct bins, all in range, strictly increasing under the cut."""

    layout = scores.layout
    bins = [solution.bins_by_element()[layout.elements[i].id] for i in layout.circular_order()]
    assert len(set(bins)) == len(bins)
    assert all(0 <= b < scores.bin_count for b in bins)
    pos = [(b - solution.cut_rotation) % scores.bin_count for b in bins]
    assert all(p < q for p, q in zip(pos, pos[1:]))


class TestHandInstances:
    def test_single_element_identity(self, identity):
        lay = cp.Layout((cp.Element("a", 90.0),))  # bin 7
        scores = cp.build_score_matrix(identity, lay, cp.Weights(blur=1.0, cone=0.0))
        for solver in (cp.solve, brute_force_solve):
            sol = solver(scores)
            assert sol.assignments[0].sound_bin == 7
            assert sol.objective == 1.0
            assert sol.assignments[0].sound_azimuth_deg == 90.0

    def test_two_elements_three_bins(self):
        scores = scores_from([[5.0, 1.0, 0.0], [0.0, 2.0, 4.0]], (60.0, 180.0), 120)
        for solver in (cp.solve, brute_force_solve):
            sol = solver(scores)
            assert sol.objective == 9.0
            assert [a.sound_bin for a in sol.assignments] == [0, 2]

    def test_tie_break_lowest_cut_then_lex_smallest(self):
        scores = scores_from(np.ones((2, 3)), (60.0, 180.0), 120)
        for solver in (cp.solve, brute_force_solve):
            sol = solver(scores)
            assert sol.objective == 2.0
            assert sol.cut_rotation == 0
            assert [a.sound_bin for a in sol.assignments] == [0, 1]

    def test_crossing_assignment_is_rejected(self):
        # each element's favorite bin would cross; only rotations are feasible
        values = [[10.0, 0.0, 0.0], [0.0, 0.0, 10.0], [0.0, 10.0, 0.0]]
        scores = scores_from(values, (60.0, 180.0, 300.0), 120)
        for solver in (cp.solve, brute_force_solve):
            sol = solver(scores)
            assert sol.objective == 10.0  # not the crossing 30.0
            assert [a.sound_bin for a in sol.assignments] == [0, 1, 2]
            assert_feasible(scores, sol)

    def test_side_by_side_identity_keeps_bins(self, identity, side_by_side):
        scores = cp.build_score_matrix(identity, side_by_side)
        sol = cp.solve(scores)
        assert [a.sound_bin for a in sol.assignments] == [29, 0]
        assert sol.warning is None


class TestAgainstBruteForce:
    def test_fixed_seed_batch(self, identity):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            scores = random_scores(rng, n, identity)
            dp = cp.solve(scores)
            bf = brute_force_solve(scores)
            assert dp.objective == bf.objective
            assert [a.sound_bin for a in dp.assignments] == [a.sound_bin for a in bf.assignments]
            assert dp.cut_rotation == bf.cut_rotation

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_property_exact_match(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = random_scores(rng, n, cp.identity_model(12), quantize=0.05 if seed % 2 else None)
        dp = cp.solve(scores)
        bf = brute_force_solve(scores)
        assert dp.objective == bf.objective
        assert [a.sound_bin for a in dp.assignments] == [a.sound_bin for a in bf.assignments]
        assert dp.cut_rotation == bf.cut_rotation

    def test_guard_rejects_large_instances(self, identity):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            brute_force_solve(random_scores(rng, 6, identity))


class TestSolveProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_feasible_and_canonical(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = random_scores(rng, n, cp.identity_model(12))
        sol = cp.solve(scores)
        assert_feasible(scores, sol)
        assert sol.objective == math.fsum(sol.per_element_score)
        layout = scores.layout
        for i, a in enumerate(sol.assignments):
            assert sol.per_element_score[i] == scores.values[i, a.sound_bin]
            assert a.id == layout.elements[i].id
            assert a.visual_azimuth_deg == layout.elements[i].visual_azimuth_deg

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_beats_random_feasible_assignment(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        scores = random_scores(rng, n, cp.identity_model(12))
        sol = cp.solve(scores)
        order = scores.layout.circular_order()
        for _ in range(20):
            cut = int(rng.integers(scores.bin_count))
            pos = np.sort(rng.choice(scores.bin_count, size=n, replace=False))
            bins = (pos + cut) % scores.bin_count
            alt = math.fsum(scores.values[order[j], bins[j]] for j in range(n))
            assert sol.objective >= alt - 1e-9

    def test_deterministic_across_runs(self, calibrated_model):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        s1 = random_scores(rng1, 5, calibrated_model)
        s2 = random_scores(rng2, 5, calibrated_model)
        a, b = cp.solve(s1), cp.solve(s2)
        assert a.objective == b.objective
        assert [x.sound_bin for x in a.assignments] == [x.sound_bin for x in b.assignments]
        assert a.cut_rotation == b.cut_rotation


class TestDisplacementLimit:
    def test_limits_every_assignment(self, calibrated_model):
        rng = np.random.default_rng(11)
        for _ in range(10):
            scores = random_scores(rng, 4, calibrated_model)
            sol = cp.solve(scores, max_displacement_deg=30.0)
            for a in sol.assignments:
                assert cp.angular_distance(a.sound_azimuth_deg, a.visual_azimuth_deg) <= 30.0

    def test_matches_brute_force_under_limit(self, identity):
        # a cap equal to a cell's exact distance keeps that cell: the
        # oracle's scalar mask checks the solver's at its boundary
        rng = np.random.default_rng(13)
        infeasible = 0
        for k in range(60):
            scores = random_scores(rng, k % 4 + 1, identity)
            vis = scores.layout.visual_azimuths
            exact = [
                cp.angular_distance(cp.bin_center(int(s), 12), float(vis[i]))
                for s, i in zip(rng.integers(30, size=2), rng.integers(len(vis), size=2))
            ]
            for cap in (40.0, *exact):
                try:
                    dp = cp.solve(scores, max_displacement_deg=cap)
                except InfeasibleLayoutError:
                    with pytest.raises(InfeasibleLayoutError):
                        brute_force_solve(scores, max_displacement_deg=cap)
                    infeasible += 1
                    continue
                bf = brute_force_solve(scores, max_displacement_deg=cap)
                assert dp.objective == bf.objective
                assert dp.cut_rotation == bf.cut_rotation
                assert [a.sound_bin for a in dp.assignments] == [
                    a.sound_bin for a in bf.assignments
                ]
        assert 0 < infeasible < 30

    def test_infeasible_when_limit_too_tight(self, identity):
        lay = cp.Layout((cp.Element("a", 5.9), cp.Element("b", 6.1)))
        scores = cp.build_score_matrix(identity, lay)
        # within 1 degree each element reaches only bin 0's center, and the
        # two elements cannot share it
        with pytest.raises(InfeasibleLayoutError):
            cp.solve(scores, max_displacement_deg=1.0)
        with pytest.raises(InfeasibleLayoutError):
            brute_force_solve(scores, max_displacement_deg=1.0)


    def test_all_masked_at_finest_bins_is_infeasible(self):
        # 300 elements at 1-degree bins, none within 0 degrees of a bin
        # centre: every path sums 300 masked cells, which must not overflow
        scores = random_scores(np.random.default_rng(5), 300, cp.identity_model(1))
        with pytest.raises(InfeasibleLayoutError):
            cp.solve(scores, max_displacement_deg=0.0)

    @pytest.mark.parametrize("cap", [float("nan"), -5.0])
    def test_rejects_nan_and_negative_cap_as_bad_input(self, identity, side_by_side, cap):
        scores = cp.build_score_matrix(identity, side_by_side)
        for solver in (cp.solve, brute_force_solve):
            with pytest.raises(ValueError) as exc:
                solver(scores, max_displacement_deg=cap)
            assert not isinstance(exc.value, InfeasibleLayoutError)


class TestLexMinExtraction:
    """The keyed band extraction picks the same bins as the full-width greedy
    on every cut whose optimum is feasible."""

    @staticmethod
    def assert_matches_oracle(q):
        compared = 0
        for cut in range(q.shape[1]):
            expected = extract_lex_min(q, cut)
            if expected is None:
                continue  # no feasible path under this cut; never extracted
            assert _extract_lex_min(q, cut) == expected.tolist(), cut
            compared += 1
        return compared

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bin_size=st.sampled_from([30, 45, 60, 120]),
        levels=st.integers(1, 4),
        masked=st.sampled_from([0.0, 0.2, 0.5]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_scores_with_ties_and_masks(self, seed, bin_size, levels, masked, data):
        bins = 360 // bin_size
        n = data.draw(st.integers(1, bins))
        rng = np.random.default_rng(seed)
        q = rng.integers(0, levels, size=(n, bins)).astype(np.int64) << 38
        q[rng.random((n, bins)) < masked] = MASKED
        self.assert_matches_oracle(q)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(1, 10),
        cap=st.one_of(st.none(), st.floats(0.0, 120.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantized_scores_under_a_cap(self, calibrated_model, seed, n, cap):
        rng = np.random.default_rng(seed)
        scores = random_scores(rng, n, calibrated_model, quantize=0.25 if seed % 2 else None)
        _, q = _ordered_quantized(scores, cap)
        self.assert_matches_oracle(q)

    def test_every_cut_feasible_without_masks(self):
        q = np.random.default_rng(8).integers(0, 2, size=(5, 12)).astype(np.int64)
        assert self.assert_matches_oracle(q) == 12


class TestSolverMemory:
    def test_peak_bounded_at_finest_bins(self):
        # 1-degree bins with one element per bin: the DP must not hold an
        # n x bins x bins table (about 370 MB of int64 here)
        scores = random_scores(np.random.default_rng(5), 360, cp.identity_model(1))
        tracemalloc.start()
        try:
            cp.solve(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


class TestInfeasible:
    def test_more_elements_than_bins(self):
        model = cp.identity_model(120)  # 3 bins
        lay = cp.Layout(tuple(cp.Element(f"e{i}", i * 36.0) for i in range(4)))
        scores = cp.build_score_matrix(model, lay)
        with pytest.raises(InfeasibleLayoutError):
            cp.solve(scores)
        with pytest.raises(InfeasibleLayoutError):
            brute_force_solve(scores)


class TestColocated:
    def test_uses_visual_bins(self, calibrated_model, side_by_side):
        scores = cp.build_score_matrix(calibrated_model, side_by_side)
        sol = cp.colocated_solution(scores)
        assert sol.solver == "colocated"
        assert [a.sound_bin for a in sol.assignments] == [29, 0]
        assert sol.warning is None
        assert sol.objective == math.fsum(sol.per_element_score)

    def test_warns_on_shared_bin(self, calibrated_model):
        lay = cp.Layout((cp.Element("a", 3.0), cp.Element("b", 4.0)))  # both bin 0
        scores = cp.build_score_matrix(calibrated_model, lay)
        sol = cp.colocated_solution(scores)
        assert sol.warning is not None
        assert [a.sound_bin for a in sol.assignments] == [0, 0]

    def test_never_beats_solver(self, calibrated_model):
        rng = np.random.default_rng(17)
        for _ in range(10):
            scores = random_scores(rng, 4, calibrated_model)
            best = cp.solve(scores)
            base = cp.colocated_solution(scores)
            if base.warning is None:  # colocated feasible: optimality applies
                assert best.objective >= base.objective - 1e-9


class TestSolutionMetadata:
    def test_fields(self, calibrated_model, side_by_side):
        scores = cp.build_score_matrix(calibrated_model, side_by_side)
        sol = cp.solve(scores)
        assert sol.solver == "dp_exact"
        assert 0 <= sol.cut_rotation < 30
        assert set(sol.bins_by_element()) == {"a", "b"}
