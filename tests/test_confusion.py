import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import cueplace as cp
from cueplace.confusion import LOCALIZATION_ERROR_TARGETS, ModelFormatError, _wrapped_normal_bin_mass
from tests.oracles import gather_sample_rows, trial_counts


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

    def test_load_model_names_file_and_cell(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("bin_size_deg,120\n1,0,0\n0.5,0.75,-0.25\n0,0,1\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert str(exc.value).startswith(f"{path}: probability out of [0, 1]")
        assert (exc.value.row, exc.value.column) == (1, 2)


class TestWrappedNormalMass:
    @pytest.mark.parametrize("mean,sd", [(6.0, 10.0), (174.0, 34.8), (354.0, 80.0)])
    def test_matches_numerical_integration(self, mean, sd):
        edges = np.arange(31, dtype=float) * 12.0
        mass = _wrapped_normal_bin_mass(mean, sd, edges)

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

    def test_rejects_bad_region_bounds(self):
        with pytest.raises(ModelFormatError):
            cp.SyntheticModelParams(
                blur_sd_deg={r: 20.0 for r in cp.REGIONS},
                flip_prob={r: 0.2 for r in cp.REGIONS},
                region_bounds_deg={
                    "front": (-36.0, 36.0),
                    "right": (36.0, 150.0),  # overlaps back
                    "back": (144.0, 216.0),
                    "left": (216.0, 324.0),
                },
            )

    def test_dict_round_trip(self):
        params = cp.calibrated_params()
        again = cp.SyntheticModelParams.from_dict(params.to_dict())
        assert again.blur_sd_deg == dict(params.blur_sd_deg)
        assert again.flip_prob == dict(params.flip_prob)
        assert again.bin_size_deg == params.bin_size_deg

    def test_from_dict_rejects_unknown_fields(self):
        d = cp.calibrated_params().to_dict()
        d["bogus"] = 1
        with pytest.raises(ModelFormatError):
            cp.SyntheticModelParams.from_dict(d)


class TestFileRoundTrip:
    def test_save_load_bitwise(self, tmp_path, calibrated_model):
        path = tmp_path / "model.csv"
        cp.save_model(calibrated_model, path)
        loaded = cp.load_model(path)
        assert loaded.bin_size_deg == 12
        np.testing.assert_array_equal(loaded.matrix, calibrated_model.matrix)

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

    def test_row_sum_tolerance_and_renormalize(self, tmp_path):
        path = tmp_path / "off.csv"
        path.write_text("bin_size_deg,120\n0.5,0.25,0.25\n0.2,0.6,0.1\n0,0,1\n")
        with pytest.raises(ModelFormatError) as exc:
            cp.load_model(path)
        assert exc.value.row == 1
        m = cp.load_model(path, renormalize=True)
        np.testing.assert_allclose(m.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert m.matrix[1, 1] == pytest.approx(0.6 / 0.9)


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


class TestSamplePerceived:
    def test_deterministic_given_seed(self, calibrated_model):
        a = cp.sample_perceived(calibrated_model, 3, np.random.default_rng(9), size=100)
        b = cp.sample_perceived(calibrated_model, 3, np.random.default_rng(9), size=100)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self, calibrated_model):
        out = cp.sample_perceived(calibrated_model, 0, np.random.default_rng(0))
        assert isinstance(out, int)
        assert 0 <= out < 30

    def test_frequencies_track_row(self, calibrated_model):
        draws = cp.sample_perceived(calibrated_model, 5, np.random.default_rng(1), size=200000)
        freq = np.bincount(draws, minlength=30) / draws.size
        assert np.abs(freq - calibrated_model.matrix[5]).max() < 0.01

    def test_rejects_bad_bin(self, calibrated_model):
        with pytest.raises(ValueError):
            cp.sample_perceived(calibrated_model, 30, np.random.default_rng(0))


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
        assert cp.region_of(azimuth) == region

    def test_targets_are_internally_consistent(self):
        for t in LOCALIZATION_ERROR_TARGETS.values():
            assert t["circular"] - t["adjusted"] == pytest.approx(t["cone_effect"], abs=0.02)


class TestRowEntropies:
    def test_identity_and_uniform(self, identity):
        np.testing.assert_allclose(cp.row_entropies(identity), 0.0)
        uniform = small_model(np.full((3, 3), 1.0 / 3.0))
        np.testing.assert_allclose(cp.row_entropies(uniform), np.log2(3.0))
