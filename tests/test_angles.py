import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cueplace as cp
from cueplace import (
    angular_distance,
    bin_centers,
    bin_count_for,
    bin_of,
    mirror_front_back,
    normalize,
)
from tests.oracles import cone_set

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (360.0, 0.0), (-6.0, 354.0), (725.0, 5.0), (359.5, 359.5), (-360.0, 0.0)],
    )
    def test_values(self, raw, expected):
        assert normalize(raw) == expected

    def test_tiny_negative_stays_in_range(self):
        # np.mod(-1e-16, 360) rounds to 360.0; the result must still be < 360
        assert 0.0 <= normalize(-1e-16) < 360.0

    def test_array_input(self):
        out = normalize(np.array([-6.0, 725.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [354.0, 5.0])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                normalize(bad)

    @given(finite_angles)
    def test_range_property(self, a):
        assert 0.0 <= normalize(a) < 360.0

    @given(finite_angles, st.integers(min_value=-3, max_value=3))
    def test_period_property(self, a, k):
        assert normalize(a + 360.0 * k) == pytest.approx(normalize(a), abs=1e-6)


class TestAngularDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.0, 0.0, 0.0), (350.0, 10.0, 20.0), (0.0, 180.0, 180.0), (90.0, 270.0, 180.0), (10.0, 40.0, 30.0)],
    )
    def test_values(self, a, b, expected):
        assert angular_distance(a, b) == expected

    @given(finite_angles, finite_angles)
    def test_symmetric_and_bounded(self, a, b):
        a, b = normalize(a), normalize(b)
        d = angular_distance(a, b)
        assert d == angular_distance(b, a)
        assert 0.0 <= d <= 180.0

    @given(finite_angles, finite_angles, finite_angles)
    def test_triangle_inequality(self, a, b, c):
        a, b, c = normalize(a), normalize(b), normalize(c)
        assert angular_distance(a, c) <= angular_distance(a, b) + angular_distance(b, c) + 1e-9


class TestMirror:
    @pytest.mark.parametrize(
        "a,expected",
        [(0.0, 180.0), (30.0, 150.0), (90.0, 90.0), (270.0, 270.0), (200.0, 340.0), (350.0, 190.0)],
    )
    def test_values(self, a, expected):
        assert mirror_front_back(a) == expected

    @given(finite_angles)
    def test_involution(self, a):
        a = normalize(a)
        assert mirror_front_back(mirror_front_back(a)) == pytest.approx(a, abs=1e-9)

    @given(finite_angles)
    def test_preserves_lateral_distance(self, a):
        # mirror points share the interaural axis distance, so d(a, 90) is preserved
        a = normalize(a)
        assert angular_distance(a, 90.0) == pytest.approx(
            angular_distance(mirror_front_back(a), 90.0), abs=1e-9
        )

    def test_cone_set(self):
        assert cone_set(30.0) == {30.0, 150.0}
        assert cone_set(90.0) == {90.0}
        assert cone_set(270.0) == {270.0}


class TestBins:
    def test_bin_count(self):
        assert bin_count_for(12) == 30
        assert bin_count_for(120) == 3
        for bad in (0, -12, 7, 11):
            with pytest.raises(ValueError):
                bin_count_for(bad)

    @pytest.mark.parametrize("bad", [None, 12 + 0j, [12], float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "call",
        [
            lambda size: cp.ConfusionModel(size, np.eye(30)),
            lambda size: cp.Layout((cp.Element("a", 6.0),)).geometry(size),
            bin_centers,
            lambda size: bin_of(6.0, size),
            bin_count_for,
            cp.identity_model,
        ],
        ids=["ConfusionModel", "geometry", "bin_centers", "bin_of", "bin_count_for", "identity"],
    )
    def test_non_numbers_are_no_bin_size(self, call, bad):
        # these escaped as TypeError (None, complex, list) or OverflowError (inf)
        with pytest.raises(ValueError, match="^bin size must be a positive divisor of 360"):
            call(bad)

    @pytest.mark.parametrize(
        "a,expected",
        [(0.0, 0), (11.999, 0), (12.0, 1), (354.0, 29), (359.999, 29), (-6.0, 29)],
    )
    def test_bin_of(self, a, expected):
        assert bin_of(a, 12) == expected

    def test_bin_center(self):
        centers = bin_centers(12)
        assert centers.shape == (30,)
        assert (centers[0], centers[7], centers[29]) == (6.0, 90.0, 354.0)
        assert bin_of(centers, 12).tolist() == list(range(30))

    @given(st.integers(min_value=0, max_value=29))
    def test_center_round_trip(self, k):
        assert bin_of(bin_centers(12)[k], 12) == k

    @given(finite_angles)
    def test_bin_of_always_valid(self, a):
        assert 0 <= bin_of(a, 12) < 30
