import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace.layout import DECONFLICT_STEP_DEG, LayoutError


class TestConstruction:
    def test_normalizes_azimuths(self):
        lay = cp.Layout((cp.Element("a", -6.0), cp.Element("b", 370.0)))
        assert lay.elements[0].visual_azimuth_deg == 354.0
        assert lay.elements[1].visual_azimuth_deg == 10.0

    def test_preserves_input_order_and_ids(self):
        lay = cp.Layout((cp.Element("b", 10.0), cp.Element("a", 5.0)))
        assert lay.ids == ["b", "a"]

    def test_rejects_empty(self):
        with pytest.raises(LayoutError):
            cp.Layout(())

    def test_rejects_duplicate_ids(self):
        with pytest.raises(LayoutError) as exc:
            cp.Layout((cp.Element("a", 0.0), cp.Element("a", 10.0)))
        assert "a" in str(exc.value)

    def test_circular_order(self):
        lay = cp.Layout((cp.Element("x", 300.0), cp.Element("y", 20.0), cp.Element("z", 150.0)))
        assert lay.circular_order() == [1, 2, 0]

    @pytest.mark.parametrize("azimuth", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_azimuth(self, azimuth):
        with pytest.raises(LayoutError, match=r"^azimuth_deg of 'b' must be finite"):
            cp.Layout((cp.Element("a", 10.0), cp.Element("b", azimuth)))

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 10.0, 359.9995]), st.floats(-720.0, 720.0)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_cached_azimuths_and_order(self, azimuths):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        per_element = [e.visual_azimuth_deg for e in lay.elements]
        vis = lay.visual_azimuths
        assert not vis.flags.writeable
        with pytest.raises(ValueError):
            vis[0] = 1.0
        assert vis.tolist() == per_element
        assert lay.visual_azimuths is vis
        order = lay.circular_order()
        assert order == sorted(range(len(per_element)), key=lambda i: per_element[i])
        assert lay.circular_order() is not order  # a fresh list each call


class TestDeconflict:
    def test_pair_is_spread_in_id_order(self):
        lay = cp.Layout((cp.Element("b", 30.0), cp.Element("a", 30.0)))
        by_id = {e.id: e.visual_azimuth_deg for e in lay.elements}
        assert by_id["a"] == pytest.approx(30.0 - DECONFLICT_STEP_DEG / 2.0)
        assert by_id["b"] == pytest.approx(30.0 + DECONFLICT_STEP_DEG / 2.0)

    def test_triple_keeps_mean_and_distinct(self):
        lay = cp.Layout(tuple(cp.Element(i, 90.0) for i in ("c", "a", "b")))
        azs = sorted(e.visual_azimuth_deg for e in lay.elements)
        assert len(set(azs)) == 3
        assert np.mean(azs) == pytest.approx(90.0)
        assert max(azs) - min(azs) == pytest.approx(2 * DECONFLICT_STEP_DEG)

    def test_distinct_azimuths_untouched(self):
        lay = cp.Layout((cp.Element("a", 10.0), cp.Element("b", 20.0)))
        assert [e.visual_azimuth_deg for e in lay.elements] == [10.0, 20.0]

    @given(st.lists(st.sampled_from([0.0, 90.0, 180.0]), min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_all_azimuths_distinct_after_construction(self, azimuths):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        values = [e.visual_azimuth_deg for e in lay.elements]
        assert len(set(values)) == len(values)

    @pytest.mark.parametrize(
        "azimuths",
        [[0.0, 0.0, 359.9995], [10.0, 10.0, 10.0, 10.001], [10.0, 10.0, 10.0005, 10.0005, 9.9995]],
    )
    def test_spread_landing_on_another_element_is_respread(self, azimuths):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        values = [e.visual_azimuth_deg for e in lay.elements]
        assert len(set(values)) == len(values)

    # Angles a spread step (or half of one) apart, around 0 and elsewhere,
    # so spreads collide with other elements, plus arbitrary angles.
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [0.0, 0.0005, 0.001, 359.999, 359.9995, 9.999, 9.9995, 10.0, 10.0005, 10.001]
                ),
                st.floats(-720.0, 720.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_distinct_and_close_for_any_input(self, azimuths):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        values = [e.visual_azimuth_deg for e in lay.elements]
        assert len(set(values)) == len(values)
        assert all(0.0 <= v < 360.0 for v in values)
        for a, v in zip(azimuths, values):
            assert cp.angular_distance(cp.normalize(a), v) <= len(values) * DECONFLICT_STEP_DEG


class TestJson:
    def test_load_layout(self, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(
            json.dumps(
                {
                    "elements": [
                        {"id": "a", "azimuth_deg": 354, "elevation_deg": 5.0, "label": "mail"},
                        {"id": "b", "azimuth_deg": 6},
                    ]
                }
            )
        )
        lay = cp.load_layout(path)
        assert lay.ids == ["a", "b"]
        assert lay.elements[0].elevation_deg == 5.0
        assert lay.elements[1].elevation_deg == 0.0
        # a legacy "label" is ignored like any other unknown key
        assert lay.elements[0] == cp.Element("a", 354.0, 5.0)

    @pytest.mark.parametrize(
        "element, message",
        [
            ({"id": 1, "azimuth_deg": 10}, "id must be a string, got 1"),
            ({"id": None, "azimuth_deg": 10}, "id must be a string, got None"),
            ({"id": "a", "azimuth_deg": True}, "azimuth_deg of 'a' must be a number, got True"),
            ({"id": "a", "azimuth_deg": "90"}, "azimuth_deg of 'a' must be a number, got '90'"),
            ({"id": "a", "azimuth_deg": None}, "azimuth_deg of 'a' must be a number, got None"),
            ({"id": "a", "azimuth_deg": [90]}, "azimuth_deg of 'a' must be a number, got [90]"),
            ({"id": "a", "azimuth_deg": 9, "elevation_deg": False}, "elevation_deg of 'a' must be a number"),
            ({"id": "a", "azimuth_deg": 9, "elevation_deg": "5"}, "elevation_deg of 'a' must be a number"),
            ({"id": "a", "azimuth_deg": 10**400}, "azimuth_deg of 'a' must be finite"),
            ({"id": "a"}, "must be an object with 'id' and 'azimuth_deg', got {'id': 'a'}"),
            ("a", "must be an object with 'id' and 'azimuth_deg', got 'a'"),
        ],
    )
    def test_fields_are_type_checked_not_coerced(self, element, message):
        ok = {"id": "z", "azimuth_deg": 200}
        with pytest.raises(LayoutError) as exc:
            cp.layout_from_dict({"elements": [ok, element]})
        assert str(exc.value).startswith(f"element 1: {message}")

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            "{}",
            '{"elements": []}',
            '{"elements": [{"azimuth_deg": 10}]}',
            '{"elements": [{"id": "a", "azimuth_deg": "north"}]}',
        ],
    )
    def test_bad_files(self, tmp_path, payload):
        path = tmp_path / "layout.json"
        path.write_text(payload)
        with pytest.raises(LayoutError) as exc:
            cp.load_layout(path)
        assert str(path) in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            cp.load_layout(tmp_path / "nope.json")

    @pytest.mark.parametrize("azimuth", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_azimuth_is_located(self, tmp_path, azimuth):
        path = tmp_path / "layout.json"
        path.write_text(
            '{"elements": [{"id": "a", "azimuth_deg": 10},'
            f' {{"id": "b", "azimuth_deg": {azimuth}}}]}}'
        )
        with pytest.raises(LayoutError, match=r"element 1: azimuth_deg of 'b' must be finite"):
            cp.load_layout(path)

    @pytest.mark.parametrize("elevation", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_elevation_is_located(self, tmp_path, elevation):
        path = tmp_path / "layout.json"
        path.write_text(
            '{"elements": [{"id": "a", "azimuth_deg": 10},'
            f' {{"id": "b", "azimuth_deg": 90, "elevation_deg": {elevation}}}]}}'
        )
        with pytest.raises(LayoutError, match=r"element 1: elevation_deg of 'b' must be finite"):
            cp.load_layout(path)
