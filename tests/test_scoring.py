from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace.scoring import MAX_CONE_DISTANCE_DEG
from tests.oracles import blur_probability, cone_distance, score_values


class TestWeights:
    def test_defaults(self):
        w = cp.Weights()
        assert (w.blur, w.cone) == (0.9, 0.1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cp.Weights(blur=-0.1)
        with pytest.raises(ValueError):
            cp.Weights(cone=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            cp.Weights(blur=bad)
        with pytest.raises(ValueError):
            cp.Weights(cone=bad)

    @pytest.mark.parametrize("bad", [True, np.True_, "0.9", None])
    def test_rejects_bools_and_non_numbers(self, bad):
        # True would weigh as 1.0, and a str failed with a TypeError
        for weights in ({"blur": bad}, {"cone": bad}):
            with pytest.raises(ValueError, match="^weights must be finite and non-negative"):
                cp.Weights(**weights)
        assert cp.Weights(np.float32(0.5), 1) == cp.Weights(0.5, 1.0)

    def test_fractions_are_stored_as_floats(self, calibrated_model, side_by_side):
        # a Fraction passed the check, then made the score build fail in np.isfinite
        w = cp.Weights(Fraction(9, 10), Fraction(1, 10))
        assert (type(w.blur), type(w.cone)) == (float, float) and w == cp.Weights()
        got = cp.build_score_matrix(calibrated_model, side_by_side, w).values
        assert np.array_equal(got, cp.build_score_matrix(calibrated_model, side_by_side).values)


class TestBlurProbability:
    def test_identity_model(self, identity):
        assert blur_probability(identity, 90.0, 7) == 1.0
        assert blur_probability(identity, 90.0, 8) == 0.0

    def test_reads_sound_row(self, calibrated_model):
        # element in bin 0; playing from bin 2 gives P(perceived 0 | true 2)
        assert blur_probability(calibrated_model, 6.0, 2) == calibrated_model.matrix[2, 0]


class TestConeDistance:
    def test_single_element_is_max(self):
        lay = cp.Layout((cp.Element("a", 0.0),))
        assert cone_distance(lay, 0, 123.0) == MAX_CONE_DISTANCE_DEG

    def test_point_plus_mirror(self):
        lay = cp.Layout((cp.Element("a", 0.0), cp.Element("b", 150.0)))
        # sound at 30: cone set {30, 150}; other element at 150 -> distance 0
        assert cone_distance(lay, 0, 30.0) == 0.0
        # sound at 0: cone set {0, 180}; other at 150 -> min(150, 30) = 30
        assert cone_distance(lay, 0, 0.0) == 30.0

    def test_mirror_only(self):
        lay = cp.Layout((cp.Element("a", 0.0), cp.Element("b", 30.0)))
        # mirror of 30 is 150; distance to the other element at 30 is 120
        assert cone_distance(lay, 0, 30.0, cone_rule="mirror-only") == 120.0
        # point-plus-mirror sees the direct collision at 30
        assert cone_distance(lay, 0, 30.0) == 0.0

    def test_unknown_rule(self):
        lay = cp.Layout((cp.Element("a", 0.0), cp.Element("b", 30.0)))
        with pytest.raises(ValueError):
            cone_distance(lay, 0, 30.0, cone_rule="bogus")


class TestBuildScoreMatrix:
    def test_shape_and_immutability(self, calibrated_model, side_by_side):
        scores = cp.build_score_matrix(calibrated_model, side_by_side)
        assert scores.values.shape == (2, 30)
        with pytest.raises(ValueError):
            scores.values[0, 0] = 1.0

    def test_hand_computed_entry(self, identity):
        lay = cp.Layout((cp.Element("a", 6.0), cp.Element("b", 150.0)))
        scores = cp.build_score_matrix(identity, lay)
        # element a, candidate bin 0 (center 6): blur 1 (identity, own bin);
        # cone set {6, 174} vs other at 150 -> min(144, 24) = 24
        assert scores.values[0, 0] == pytest.approx(0.9 * 1.0 + 0.1 * 24.0 / 180.0)
        # element a, candidate bin 2 (center 30): blur 0; cone {30,150} -> 0
        assert scores.values[0, 2] == pytest.approx(0.0)

    def test_blur_term_uses_sound_row(self, calibrated_model):
        lay = cp.Layout((cp.Element("a", 6.0),))
        scores = cp.build_score_matrix(calibrated_model, lay, cp.Weights(blur=1.0, cone=0.0))
        np.testing.assert_array_equal(scores.values[0], calibrated_model.matrix[:, 0])

    def test_single_element_cone_term_is_constant_max(self, identity):
        lay = cp.Layout((cp.Element("a", 6.0),))
        scores = cp.build_score_matrix(identity, lay, cp.Weights(blur=0.0, cone=1.0))
        np.testing.assert_allclose(scores.values[0], 1.0)

    def test_weights_scale_linearly(self, calibrated_model, side_by_side):
        blur_only = cp.build_score_matrix(calibrated_model, side_by_side, cp.Weights(1.0, 0.0))
        cone_only = cp.build_score_matrix(calibrated_model, side_by_side, cp.Weights(0.0, 1.0))
        mixed = cp.build_score_matrix(calibrated_model, side_by_side, cp.Weights(0.9, 0.1))
        np.testing.assert_allclose(
            mixed.values, 0.9 * blur_only.values + 0.1 * cone_only.values, atol=1e-12
        )

    def test_values_bounded_for_default_weights(self, calibrated_model, side_by_side):
        scores = cp.build_score_matrix(calibrated_model, side_by_side)
        assert np.all(scores.values >= 0.0)
        assert np.all(scores.values <= 1.0 + 1e-12)

    def test_mirror_only_rule_changes_scores(self, calibrated_model, side_by_side):
        a = cp.build_score_matrix(calibrated_model, side_by_side)
        b = cp.build_score_matrix(calibrated_model, side_by_side, cone_rule="mirror-only")
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unknown_rule_rejected_for_any_size(self, identity, n):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", 30.0 * i) for i in range(n)))
        with pytest.raises(ValueError):
            cp.build_score_matrix(identity, lay, cone_rule="bogus")


MODELS = {
    12: cp.synthesize_model(cp.calibrated_params(12)),
    3: cp.synthesize_model(cp.calibrated_params(3)),
    30: cp.identity_model(30),
    # odd bin counts (45, 15): a center's mirror lands on a bin edge
    8: cp.synthesize_model(cp.calibrated_params(8)),
    24: cp.synthesize_model(cp.calibrated_params(24)),
}
# Bin centers and edges, the interaural axis, and a mirror pair, so that
# exact ties between elements and between a point and its mirror occur.
SPECIAL_AZIMUTHS = [0.0, 6.0, 12.0, 30.0, 90.0, 150.0, 174.0, 180.0, 186.0, 270.0, 354.0]
azimuths = st.one_of(
    st.sampled_from(SPECIAL_AZIMUTHS),
    st.floats(0.0, 360.0, exclude_max=True, allow_nan=False),
)


class TestScoreMatrixMatchesScalarOracle:
    @given(
        az=st.lists(azimuths, min_size=1, max_size=8, unique=True),
        bin_size=st.sampled_from(sorted(MODELS)),
        cone_rule=st.sampled_from(["point-plus-mirror", "mirror-only"]),
        weights=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    )
    # Ties for nearest: bin center 6 (and mirror 174) is 6 degrees from both 0
    # and 12, bin center 18 (and mirror 162) from both 12 and 24.
    @example(az=[0.0, 12.0, 24.0], bin_size=12, cone_rule="point-plus-mirror", weights=(0.0, 1.0))
    @example(az=[0.0, 12.0, 24.0], bin_size=12, cone_rule="mirror-only", weights=(0.0, 1.0))
    @settings(max_examples=150)
    def test_array_equal(self, az, bin_size, cone_rule, weights):
        model = MODELS[bin_size]
        layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(az)))
        w = cp.Weights(*weights)
        got = cp.build_score_matrix(model, layout, w, cone_rule).values
        assert np.array_equal(got, score_values(model, layout, w, cone_rule))

    @pytest.mark.parametrize(
        "az",
        [
            [90.0],
            [90.0, 270.0],
            [30.0, 150.0],  # mirror pair: every cone touches both
            [30.0, 150.0, 210.0, 330.0],
            # a thousandth of a degree apart, around 0 and elsewhere
            [359.99983333333336, 0.0008333333333372745, 359.9988333333333],
            [9.998750000000001, 9.99975, 10.000750000000002, 10.001750000000001],
        ],
    )
    @pytest.mark.parametrize("cone_rule", ["point-plus-mirror", "mirror-only"])
    def test_named_layouts(self, calibrated_model, az, cone_rule):
        layout = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(az)))
        got = cp.build_score_matrix(calibrated_model, layout, cone_rule=cone_rule).values
        assert np.array_equal(got, score_values(calibrated_model, layout, cone_rule=cone_rule))
