import dataclasses
import gc
import json
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace.layout import LayoutError
from tests.oracles import angular_distance, nearest_element_decision, score_values

# Azimuths a thousandth of a degree apart, near 0 and elsewhere.
NEAR = cp.Layout(
    tuple(
        cp.Element(f"e{i}", a)
        for i, a in enumerate(
            [9.9995, 10.0005, 100.0, 189.9995, 190.0005, 250.0, 359.9995, 0.0, 95.0]
        )
    )
)


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

    # Zero from either side, a full turn, and angles that normalize to 0.0.
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 360.0, -1e-20, -5e-324, 10.0, 359.9995]),
                st.floats(-720.0, 720.0),
            ),
            min_size=1,
            max_size=12,
            unique_by=cp.normalize,
        )
    )
    @settings(max_examples=100)
    def test_cached_azimuths_and_order(self, azimuths):
        lay = cp.Layout(tuple(cp.Element(f"e{i}", a) for i, a in enumerate(azimuths)))
        per_element = [e.visual_azimuth_deg for e in lay.elements]
        assert [v.hex() for v in per_element] == [cp.normalize(a).hex() for a in azimuths]
        vis = lay.visual_azimuths
        assert not vis.flags.writeable
        with pytest.raises(ValueError):
            vis[0] = 1.0
        assert vis.tolist() == per_element
        assert lay.visual_azimuths is vis
        order = lay.circular_order()
        assert order == sorted(range(len(per_element)), key=lambda i: per_element[i])
        assert lay.circular_order() is not order  # a fresh list each call


class TestAngleChecks:
    """`Layout` checks each angle as a layout file's element is checked."""

    @pytest.mark.parametrize(
        "azimuth, elevation, message",
        [
            (10.0, float("nan"), "elevation_deg of 'b' must be finite, got nan"),
            (10.0, float("-inf"), "elevation_deg of 'b' must be finite, got -inf"),
            (True, 0.0, "azimuth_deg of 'b' must be a number, got True"),
            (np.True_, 0.0, f"azimuth_deg of 'b' must be a number, got {np.True_!r}"),
            (10.0, False, "elevation_deg of 'b' must be a number, got False"),
            (10.0, "x", "elevation_deg of 'b' must be a number, got 'x'"),
            ("90", 0.0, "azimuth_deg of 'b' must be a number, got '90'"),
            (None, 0.0, "azimuth_deg of 'b' must be a number, got None"),
            (10**400, 0.0, f"azimuth_deg of 'b' must be finite, got {10**400!r}"),
            (np.float32("nan"), 0.0, "azimuth_deg of 'b' must be finite"),
        ],
    )
    def test_rejects(self, azimuth, elevation, message):
        with pytest.raises(LayoutError) as exc:
            cp.Layout((cp.Element("a", 10.0), cp.Element("b", azimuth, elevation)))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize(
        "azimuth, elevation, expected",
        [
            (10, 0, (10.0, 0.0)),
            (360, 5, (0.0, 5.0)),
            (725, -5, (5.0, -5.0)),
            (-90, 0.0, (270.0, 0.0)),
            (-0.0, -0.0, (0.0, -0.0)),
            (370.0, 1.5, (10.0, 1.5)),
            (np.int64(-30), np.float32(1.5), (330.0, 1.5)),
            (np.float64(720.5), np.int8(2), (0.5, 2.0)),
        ],
    )
    def test_elements_hold_floats(self, azimuth, elevation, expected):
        element = cp.Layout((cp.Element("a", azimuth, elevation),)).elements[0]
        got = (element.visual_azimuth_deg, element.elevation_deg)
        assert [type(v) for v in got] == [float, float]
        assert repr(got) == repr(expected)

    def test_unchanged_element_is_kept(self):
        kept, moved, as_int = cp.Element("a", 10.0, 2.0), cp.Element("b", 375.0), cp.Element("c", 20)
        lay = cp.Layout((kept, moved, as_int))
        assert lay.elements[0] is kept
        assert lay.elements[1] is not moved and lay.elements[2] is not as_int
        assert lay.elements[1:] == (cp.Element("b", 15.0), cp.Element("c", 20.0))


class TestSlottedRecords:
    """`Element` and `Assignment` are frozen, slotted dataclasses that
    compare, hash, copy and pickle by value."""

    @pytest.mark.parametrize(
        "record, change",
        [
            (cp.Element("a", 10.0, 2.0), {"visual_azimuth_deg": 20.0}),
            (cp.Assignment("a", 3, 42.0, 40.0, 0.0), {"sound_bin": 4}),
        ],
    )
    def test_value_semantics(self, record, change):
        twin = dataclasses.replace(record)
        assert twin == record and twin is not record and hash(twin) == hash(record)
        other = dataclasses.replace(record, **change)
        assert other != record
        assert {**dataclasses.asdict(record), **change} == dataclasses.asdict(other)
        assert pickle.loads(pickle.dumps(record)) == record
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.id = "b"


class TestGeometry:
    def test_read_only_and_built_once(self):
        lay = cp.Layout((cp.Element("a", 10.0), cp.Element("b", 200.0)))
        geometry = lay.geometry(12)
        assert lay.geometry(12) is geometry
        assert geometry._fields == ("circular", "adjusted", "decided")
        for table in geometry:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_keyed_by_checked_bin_size(self):
        lay = cp.Layout((cp.Element("a", 10.0), cp.Element("b", 200.0)))
        assert lay.geometry(np.int64(12)) is lay.geometry(12) is lay.geometry(12.0)
        assert lay.geometry(3) is not lay.geometry(12)
        for bad in (7, 0, -12, 12.5, True, np.True_):  # True == 1, but is no size
            with pytest.raises(ValueError):
                lay.geometry(bad)
        assert [type(size) for size in lay._geometry] == [int, int]

    def test_lives_with_its_layout(self):
        lay = cp.Layout((cp.Element("a", 10.0), cp.Element("b", 200.0)))
        table = weakref.ref(lay.geometry(12).circular)
        del lay
        gc.collect()
        assert table() is None

    def test_repr_unchanged(self):
        lay = cp.Layout((cp.Element("a", 10.0), cp.Element("b", -20.0, 5.0)))
        want = (
            "Layout(elements=(Element(id='a', visual_azimuth_deg=10.0, elevation_deg=0.0), "
            "Element(id='b', visual_azimuth_deg=340.0, elevation_deg=5.0)))"
        )
        assert repr(lay) == want
        lay.geometry(12)
        assert repr(lay) == want

    @pytest.mark.parametrize("bin_size", [12, 3, 8, 24, 1])
    def test_matches_per_cell_oracles(self, bin_size):
        geometry = NEAR.geometry(bin_size)
        centers = cp.bin_centers(bin_size)
        for i, v in enumerate(NEAR.visual_azimuths.tolist()):
            for p, c in enumerate(centers.tolist()):
                circular = angular_distance(c, v)
                assert geometry.circular[i, p] == circular
                mirrored = angular_distance(cp.mirror_front_back(c), v)
                assert geometry.adjusted[i, p] == min(circular, mirrored)
        decided = [nearest_element_decision(c, NEAR) for c in centers]
        assert geometry.decided.tolist() == decided
        # the score matrix reads the geometry under either cone rule
        model = cp.synthesize_model(cp.calibrated_params(bin_size))
        for cone_rule in ("point-plus-mirror", "mirror-only"):
            got = cp.build_score_matrix(model, NEAR, cone_rule=cone_rule).values
            assert np.array_equal(got, score_values(model, NEAR, cone_rule=cone_rule))


class TestSharedAzimuth:
    @pytest.mark.parametrize(
        "first, second, shared",
        [(30, 30, 30.0), (0, 360, 0.0), (-0.0, 0.0, 0.0), (10, 370.0, 10.0), (-1e-20, 0.0, 0.0)],
    )
    def test_rejected_naming_both(self, first, second, shared):
        elements = (cp.Element("b", first), cp.Element("z", 200.0), cp.Element("a", second))
        with pytest.raises(LayoutError) as exc:
            cp.Layout(elements)
        assert str(exc.value) == f"elements 'b' and 'a' share azimuth {shared!r}"


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
