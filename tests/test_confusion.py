import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cueplace as cp
from cueplace.confusion import (
    LOCALIZATION_ERROR_TARGETS,
    MAX_BLUR_SD_DEG,
    ModelFormatError,
    _ndtr,
    _wrapped_normal_bin_mass,
)
from tests.oracles import gather_sample_rows, region_of, synthesize_model_scipy, trial_counts

DIVISORS = [d for d in range(1, 361) if 360 % d == 0]


@pytest.fixture(scope="module")
def scipy_special():
    return pytest.importorskip("scipy.special")


def saved_bytes(model, directory) -> bytes:
    path = directory / "model.csv"
    cp.save_model(model, path)
    return path.read_bytes()


def small_model(rows, bin_size=120):
    matrix = np.asarray(rows, dtype=float)
    matrix.flags.writeable = False
    return cp.ConfusionModel(bin_size, matrix)


class TestIdentityModel:
    def test_shape_and_rows(self):
        m = cp.identity_model(12)
        assert m.bin_count == 30
        assert m.matrix.shape == (30, 30)
        np.testing.assert_array_equal(m.matrix.sum(axis=1), np.ones(30))
        m.validate()

    def test_matrix_is_immutable(self):
        m = cp.identity_model(12)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 0.5


class TestValidate:
    def test_wrong_shape(self):
        with pytest.raises(ModelFormatError):
            small_model(np.ones((2, 3)) / 3.0).validate()

    def test_out_of_range_cell_located(self):
        rows = np.eye(3)
        rows[1, 2] = -0.25
        rows[1, 1] = 1.25
        with pytest.raises(ModelFormatError) as exc:
            small_model(rows).validate()
        assert exc.value.row == 1

    def test_row_sum_violation_located(self):
        rows = np.eye(3)
        rows[2, 2] = 0.5
        with pytest.raises(ModelFormatError) as exc:
            small_model(rows).validate()
        assert exc.value.row == 2

    @pytest.mark.parametrize("tol", [float("nan"), math.inf, -1e-9, True, np.True_, "1e-9", None])
    def test_rejects_a_tolerance_that_is_no_finite_non_negative_number(self, tol):
        # a NaN tolerance would pass every matrix: no difference exceeds it
        rows = np.eye(3)
        rows[2, 2] = 0.5
        with pytest.raises(ValueError, match="^row_sum_tol must be a finite non-negative number"):
            small_model(rows).validate(row_sum_tol=tol)
        small_model(np.eye(3)).validate(row_sum_tol=np.float32(0.0))


class TestConstructorInvariants:
    @pytest.mark.parametrize("cell", [-0.2, 1.25, np.nan, np.inf, -np.inf])
    def test_rejects_bad_entries(self, cell):
        rows = np.full((3, 3), 1.0 / 3.0)
        rows[1, 2] = cell
        with pytest.raises(ModelFormatError):
            cp.ConfusionModel(120, rows)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4), (3,), (3, 3, 1)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ModelFormatError):
            cp.ConfusionModel(120, np.full(shape, 1.0 / 3.0))

    def test_negative_row_never_reaches_sampler(self):
        # With -0.2 the row CDF is not monotone, and the binary search would
        # draw bin 2 for u=0.45 where counting CDF entries <= u gives bin 1.
        rows = np.array([[0.6, -0.2, 0.6], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert gather_sample_rows(rows, np.array([0]), np.array([0.45]))[0] == 1
        with pytest.raises(ModelFormatError) as exc:
            cp.ConfusionModel(120, rows)
        assert (exc.value.row, exc.value.column) == (0, 1)

    def test_keeps_a_read_only_float_copy(self):
        rows = np.eye(3)
        model = cp.ConfusionModel(120, rows)
        rows[0, 0] = 0.5  # the caller's array stays theirs to change
        assert model.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            model.matrix[0, 0] = 0.5
        assert cp.ConfusionModel(120, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).matrix.dtype == float

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_a_bool_bin_size(self, flag):
        # True == 1, so an integrality check alone took it for 1-degree bins
        with pytest.raises(ValueError, match="bin size"):
            cp.ConfusionModel(flag, np.eye(360))

    def test_load_model_names_file_and_cell(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("bin_size_deg,120\n1,0,0\n0.5,0.75,-0.25\n0,0,1\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert str(exc.value).startswith(f"{path}: probability out of [0, 1]")
        assert (exc.value.row, exc.value.column) == (1, 2)


class TestNdtr:
    def test_equals_scipy_bit_for_bit(self, scipy_special):
        rng = np.random.default_rng(20240818)
        # With x = a / sqrt(2), the branches change at |x| = 1/sqrt(2), at
        # erfc's 1 and 8, and where -x^2 < -MAXLOG makes erfc underflow,
        # that is at |a| = 1, sqrt(2), 8 sqrt(2) and sqrt(2 MAXLOG) ~ 37.68.
        edges = [0.0, math.sqrt(0.5), 1.0, math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0), 37.68, 40.0]
        edges.append(math.sqrt(2.0 * 7.09782712893383996843e2))
        special = [
            v
            for e in edges
            for sign in (1.0, -1.0)
            for v in (sign * e, np.nextafter(sign * e, np.inf), np.nextafter(sign * e, -np.inf))
        ]
        a = np.concatenate(
            [
                rng.normal(0.0, 1.0, 400_000),
                rng.normal(0.0, 12.0, 300_000),
                rng.uniform(-45.0, 45.0, 300_000),
                rng.uniform(-3.0, 3.0, 100_000),
                [-0.0, np.inf, -np.inf],
                special,
            ]
        )
        got, want = _ndtr(a), scipy_special.ndtr(a)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, a[differ[:10]]


class TestWrappedNormalMass:
    @pytest.mark.parametrize("mean,sd", [(6.0, 10.0), (174.0, 34.8), (354.0, 80.0)])
    def test_matches_numerical_integration(self, mean, sd):
        quad = pytest.importorskip("scipy.integrate").quad
        norm = pytest.importorskip("scipy.stats").norm
        edges = np.arange(31, dtype=float) * 12.0
        # indexed by lower edge - mean in 6-degree half bins, plus 59
        mass = _wrapped_normal_bin_mass(12, sd)[2 * np.arange(30) + 59 - round(mean / 6.0)]

        def density(x):
            ks = np.arange(-8, 9)
            return norm.pdf(x + 360.0 * ks, loc=mean, scale=sd).sum()

        for k in range(30):
            ref, _ = quad(density, edges[k], edges[k + 1], limit=200)
            assert mass[k] == pytest.approx(ref, abs=1e-9)
        assert mass.sum() == pytest.approx(1.0, abs=1e-9)


class TestSynthesize:
    def test_rows_are_stochastic(self, calibrated_model):
        m = calibrated_model.matrix
        assert m.shape == (30, 30)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_full_flip_concentrates_at_mirror(self):
        params = cp.SyntheticModelParams(
            blur_sd_deg={r: 0.5 for r in cp.REGIONS},
            flip_prob={r: 1.0 for r in cp.REGIONS},
        )
        m = cp.synthesize_model(params)
        # true bin 2 (center 30) should land in the mirror bin 12 (center 150)
        assert m.matrix[2, 12] > 0.999
        assert m.matrix[2, 2] < 1e-6

    def test_zero_flip_peaks_on_diagonal(self):
        params = cp.SyntheticModelParams(
            blur_sd_deg={r: 8.0 for r in cp.REGIONS},
            flip_prob={r: 0.0 for r in cp.REGIONS},
        )
        m = cp.synthesize_model(params)
        assert np.all(np.argmax(m.matrix, axis=1) == np.arange(30))

    @given(
        sd=st.floats(min_value=0.5, max_value=120.0),
        flip=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_params_give_valid_model(self, sd, flip):
        params = cp.SyntheticModelParams(
            blur_sd_deg={r: sd for r in cp.REGIONS},
            flip_prob={r: flip for r in cp.REGIONS},
        )
        cp.synthesize_model(params).validate(row_sum_tol=1e-9)

    @pytest.mark.parametrize("bin_size", DIVISORS)
    def test_calibrated_bytes_match_scipy_oracle(self, scipy_special, tmp_path, bin_size):
        params = cp.calibrated_params(bin_size)
        assert saved_bytes(cp.synthesize_model(params), tmp_path) == saved_bytes(
            synthesize_model_scipy(params), tmp_path
        )

    SD = st.floats(min_value=0.5, max_value=400.0)
    FLIP = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))

    @given(
        bin_size=st.sampled_from(DIVISORS),
        sd=st.tuples(SD, SD, SD, SD),
        flip=st.tuples(FLIP, FLIP, FLIP, FLIP),
    )
    @example(bin_size=1, sd=(0.5, 0.5, 400.0, 400.0), flip=(0.0, 1.0, 0.3, 1.0))
    @example(bin_size=360, sd=(400.0,) * 4, flip=(0.5,) * 4)
    @settings(max_examples=60, deadline=None)
    def test_drawn_bytes_match_scipy_oracle(self, scipy_special, tmp_path_factory, bin_size, sd, flip):
        params = cp.SyntheticModelParams(
            blur_sd_deg=dict(zip(cp.REGIONS, sd)),
            flip_prob=dict(zip(cp.REGIONS, flip)),
            bin_size_deg=bin_size,
        )
        tmp = tmp_path_factory.mktemp("synth")
        assert saved_bytes(cp.synthesize_model(params), tmp) == saved_bytes(
            synthesize_model_scipy(params), tmp
        )


class TestParams:
    def test_rejects_bad_values(self):
        good_sd = {r: 20.0 for r in cp.REGIONS}
        good_flip = {r: 0.2 for r in cp.REGIONS}
        with pytest.raises(ModelFormatError):
            cp.SyntheticModelParams(blur_sd_deg={**good_sd, "front": 0.0}, flip_prob=good_flip)
        with pytest.raises(ModelFormatError):
            cp.SyntheticModelParams(blur_sd_deg=good_sd, flip_prob={**good_flip, "left": 1.5})
        with pytest.raises(ModelFormatError):
            cp.SyntheticModelParams(blur_sd_deg={"front": 20.0}, flip_prob=good_flip)

    def test_largest_blur_sd_is_accepted(self):
        sd = {r: MAX_BLUR_SD_DEG for r in cp.REGIONS}
        params = cp.SyntheticModelParams(blur_sd_deg=sd, flip_prob={r: 0.2 for r in cp.REGIONS})
        np.testing.assert_allclose(cp.synthesize_model(params).matrix, 1.0 / 30, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("sd", [1e-300, 5e-324])
    def test_tiny_blur_sd_synthesizes_without_warnings(self, sd):
        params = cp.SyntheticModelParams(
            blur_sd_deg={r: sd for r in cp.REGIONS}, flip_prob={r: 0.0 for r in cp.REGIONS}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = cp.synthesize_model(params)
        np.testing.assert_array_equal(model.matrix, np.eye(30))

    def test_dict_round_trip(self):
        params = cp.calibrated_params()
        again = cp.SyntheticModelParams.from_dict(params.to_dict())
        assert again.blur_sd_deg == dict(params.blur_sd_deg)
        assert again.flip_prob == dict(params.flip_prob)
        assert again.bin_size_deg == params.bin_size_deg

    @pytest.mark.parametrize("size", [np.int64(12), np.int32(3)])
    def test_numpy_bin_size_dumps_to_json(self, size):
        params = cp.calibrated_params(size)
        d = json.loads(json.dumps(params.to_dict()))
        assert d["bin_size_deg"] == size and type(params.bin_size_deg) is int
        assert cp.SyntheticModelParams.from_dict(d) == params

    def test_from_dict_rejects_unknown_fields(self):
        d = cp.calibrated_params().to_dict()
        d["bogus"] = 1
        with pytest.raises(ModelFormatError):
            cp.SyntheticModelParams.from_dict(d)

    def test_to_dict_writes_no_region_bounds(self):
        assert set(cp.calibrated_params().to_dict()) == {"blur_sd_deg", "flip_prob", "bin_size_deg"}

    # earlier versions wrote the region arcs, as lists in JSON
    LEGACY_BOUNDS = {k: list(v) for k, v in cp.DEFAULT_REGION_BOUNDS.items()}

    @pytest.mark.parametrize("bounds", [LEGACY_BOUNDS, dict(cp.DEFAULT_REGION_BOUNDS)])
    def test_from_dict_drops_default_region_bounds(self, bounds):
        params = cp.calibrated_params()
        again = cp.SyntheticModelParams.from_dict({**params.to_dict(), "region_bounds_deg": bounds})
        assert again == cp.SyntheticModelParams.from_dict(params.to_dict())

    @pytest.mark.parametrize(
        "bounds",
        [
            {**LEGACY_BOUNDS, "right": [36.0, 150.0]},
            {"front": 5},
            {k: v for k, v in LEGACY_BOUNDS.items() if k != "left"},
            [[-36.0, 36.0]] * 4,
            None,
        ],
    )
    def test_from_dict_rejects_other_region_bounds(self, bounds):
        d = {**cp.calibrated_params().to_dict(), "region_bounds_deg": bounds}
        with pytest.raises(ModelFormatError, match="region_bounds_deg"):
            cp.SyntheticModelParams.from_dict(d)


class TestFileRoundTrip:
    def test_save_load_bitwise(self, tmp_path, calibrated_model):
        path = tmp_path / "model.csv"
        cp.save_model(calibrated_model, path)
        loaded = cp.load_model(path)
        assert loaded.bin_size_deg == 12
        np.testing.assert_array_equal(loaded.matrix, calibrated_model.matrix)

    @pytest.mark.parametrize("size", [12.0, np.int64(12)])
    def test_integral_bin_size_saves_as_int(self, tmp_path, size):
        model = cp.ConfusionModel(size, np.eye(30))
        assert type(model.bin_size_deg) is int
        path = tmp_path / "model.csv"
        cp.save_model(model, path)
        assert path.read_text().splitlines()[0] == "bin_size_deg,12"
        loaded = cp.load_model(path)
        assert loaded.bin_size_deg == 12
        np.testing.assert_array_equal(loaded.matrix, model.matrix)

    def test_save_is_byte_stable(self, tmp_path, calibrated_model):
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        cp.save_model(calibrated_model, p1)
        cp.save_model(calibrated_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bins,12\n")
        with pytest.raises(ModelFormatError):
            cp.load_model(path)
        path.write_text("bin_size_deg,7\n")
        with pytest.raises(ModelFormatError):
            cp.load_model(path)
        path.write_text("")
        with pytest.raises(ModelFormatError):
            cp.load_model(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bin_size_deg,120\n1,0,0\n0,1,0\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert "3" in str(exc.value)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bin_size_deg,120\n1,0,0\n0,1\n0,0,1\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert exc.value.row == 1

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bin_size_deg,120\n1,0,0\n0,x,0\n0,0,1\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert (exc.value.row, exc.value.column) == (1, 1)

    def test_row_sum_tolerance(self, tmp_path):
        path = tmp_path / "off.csv"
        path.write_text("bin_size_deg,120\n0.5,0.25,0.25\n0.2,0.6,0.1\n0,0,1\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert exc.value.row == 1


class TestModelFromTrials:
    def test_hand_counted_matrix(self, tmp_path):
        rows = [
            (45, 45), (45, 135),
            (135, 135),
            (225, 315),
            (315, 315), (315, 45), (315, 225), (315, 315),
        ]
        path = tmp_path / "trials.csv"
        path.write_text(
            "true_azimuth_deg,predicted_azimuth_deg\n"
            + "\n".join(f"{t},{p}" for t, p in rows)
            + "\n"
        )
        m = cp.model_from_trials(path, bin_size_deg=90)
        expected = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.25, 0.0, 0.25, 0.5],
            ]
        )
        np.testing.assert_array_equal(m.matrix, expected)

    @pytest.mark.parametrize("bin_size", [12, 24, 36, 120])
    def test_dumped_trials_match_per_row_counts(self, tmp_path, calibrated_model, bin_size):
        path = tmp_path / "trials.csv"
        cp.dump_trials(calibrated_model, path, trials_per_bin=60, seed=3)
        counts = trial_counts(path, bin_size)
        expected = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(cp.model_from_trials(path, bin_size).matrix, expected)

    @given(
        trials=st.lists(
            st.tuples(*[st.floats(-1e4, 1e4) | st.sampled_from([-1e-300, 360.0, -360.0])] * 2),
            max_size=40,
        ),
        bin_size=st.sampled_from([45, 90, 120]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_azimuths_match_per_row_counts(self, tmp_path_factory, trials, bin_size):
        # one trial per true bin, so every row has a count
        covering = [(float(c), float(c)) for c in cp.bin_centers(bin_size)]
        path = tmp_path_factory.mktemp("trials") / "trials.csv"
        lines = [f"{t!r},{p!r}" for t, p in covering + trials]
        path.write_text("true_azimuth_deg,predicted_azimuth_deg\n" + "\n".join(lines) + "\n\n")
        counts = trial_counts(path, bin_size)
        expected = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(cp.model_from_trials(path, bin_size).matrix, expected)

    @pytest.mark.parametrize("row", ["nan,45", "45,inf"])
    def test_non_finite_trial_is_located(self, tmp_path, row):
        path = tmp_path / "trials.csv"
        path.write_text(f"true_azimuth_deg,predicted_azimuth_deg\n45,45\n{row}\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.model_from_trials(path, bin_size_deg=90)
        assert exc.value.row == 1

    def test_missing_bin_is_error(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("true_azimuth_deg,predicted_azimuth_deg\n45,45\n")
        with pytest.raises(ModelFormatError):
            cp.model_from_trials(path, bin_size_deg=90)

    def test_bad_header_and_bad_row(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("a,b\n45,45\n")
        with pytest.raises(ModelFormatError):
            cp.model_from_trials(path, bin_size_deg=90)
        path.write_text("true_azimuth_deg,predicted_azimuth_deg\n45,oops\n")
        with pytest.raises(ModelFormatError):
            cp.model_from_trials(path, bin_size_deg=90)


class TestDiagonalArgmax:
    def test_identity_is_all_diagonal(self, identity):
        assert cp.diagonal_argmax_fraction(identity) == 1.0

    def test_hand_case_zero(self):
        m = small_model([[0.2, 0.4, 0.4], [0.5, 0.25, 0.25], [0.3, 0.4, 0.3]])
        assert cp.diagonal_argmax_fraction(m) == 0.0

    def test_hand_case_one_third(self):
        # columns: best source for perceived 0 is 1, for 1 is 2, for 2 is 2
        m = small_model([[0.5, 0.5, 0.0], [0.6, 0.2, 0.2], [0.0, 0.6, 0.4]])
        assert cp.diagonal_argmax_fraction(m) == pytest.approx(1.0 / 3.0)

    def test_calibrated_fraction_frozen(self, calibrated_model):
        # measured once on the frozen calibration; most columns stay diagonal
        assert cp.diagonal_argmax_fraction(calibrated_model) == pytest.approx(25.0 / 30.0)


class TestRegions:
    @pytest.mark.parametrize(
        "azimuth,region",
        [
            (0.0, "front"), (35.9, "front"), (324.0, "front"), (-36.0, "front"),
            (36.0, "right"), (143.9, "right"),
            (144.0, "back"), (215.9, "back"),
            (216.0, "left"), (323.9, "left"),
        ],
    )
    def test_boundaries(self, azimuth, region):
        assert region_of(azimuth) == region

    def test_targets_are_internally_consistent(self):
        for t in LOCALIZATION_ERROR_TARGETS.values():
            assert t["circular"] - t["adjusted"] == pytest.approx(t["cone_effect"], abs=0.02)


class TestRowEntropies:
    def test_identity_and_uniform(self, identity):
        np.testing.assert_allclose(cp.row_entropies(identity), 0.0)
        uniform = small_model(np.full((3, 3), 1.0 / 3.0))
        np.testing.assert_allclose(cp.row_entropies(uniform), np.log2(3.0))
