"""Scalar reference implementations that the array paths are checked against.

Each function computes one cell, one percept or one trial at a time, the
way the definitions read. The library's vectorized versions must agree with
them exactly (`np.array_equal`), not within a tolerance: the arithmetic per
element is the same, only the looping moved into NumPy.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

import cueplace as cp
from cueplace.angles import angular_distance, bin_center, bin_centers, bin_of, cone_set
from cueplace.confusion import DEFAULT_REGION_BOUNDS, region_of
from cueplace.scoring import MAX_CONE_DISTANCE_DEG


def blur_probability(model: cp.ConfusionModel, visual_azimuth_deg: float, sound_bin: int) -> float:
    """P(perceived in the visual element's bin | cue played in sound_bin)."""

    v_bin = bin_of(visual_azimuth_deg, model.bin_size_deg)
    return float(model.matrix[sound_bin, v_bin])


def cone_distance(
    layout: cp.Layout,
    element_index: int,
    sound_azimuth_deg: float,
    cone_rule: str = "point-plus-mirror",
) -> float:
    """Shortest arc from the sound's cone of confusion to any other element."""

    others = [
        e.visual_azimuth_deg for i, e in enumerate(layout.elements) if i != element_index
    ]
    if cone_rule == "mirror-only":
        points = [cp.mirror_front_back(sound_azimuth_deg)]
    elif cone_rule == "point-plus-mirror":
        points = sorted(cone_set(sound_azimuth_deg))
    else:
        raise ValueError(f"unknown cone rule {cone_rule!r}")
    if not others:
        return MAX_CONE_DISTANCE_DEG
    return min(angular_distance(p, v) for p in points for v in others)


def score_values(
    model: cp.ConfusionModel,
    layout: cp.Layout,
    weights: cp.Weights = cp.Weights(),
    cone_rule: str = "point-plus-mirror",
) -> np.ndarray:
    """`build_score_matrix(...).values`, one `cone_distance` call per cell."""

    values = np.empty((len(layout), model.bin_count))
    for i, element in enumerate(layout.elements):
        blur = np.array(
            [
                blur_probability(model, element.visual_azimuth_deg, s)
                for s in range(model.bin_count)
            ]
        )
        cone = np.array(
            [
                cone_distance(layout, i, bin_center(s, model.bin_size_deg), cone_rule)
                for s in range(model.bin_count)
            ]
        )
        values[i] = weights.blur * blur + weights.cone * cone / MAX_CONE_DISTANCE_DEG
    return values


def nearest_element_decision(perceived_azimuth_deg: float, layout: cp.Layout) -> int:
    """Index of the element whose visual azimuth is closest to the percept.

    Ties go to the earliest element in layout order.
    """

    d = angular_distance(perceived_azimuth_deg, layout.visual_azimuths)
    return int(np.argmin(d))


def gather_sample_rows(matrix: np.ndarray, true_bins: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per trial by counting, over a trials x bins gather,
    the CDF entries at or below each uniform."""

    cdf = np.cumsum(matrix, axis=1)
    idx = (cdf[true_bins] <= u[:, None]).sum(axis=1)
    return np.minimum(idx, matrix.shape[1] - 1)


def table1_per_trial(
    model: cp.ConfusionModel,
    trials_per_bin: int,
    seed: int,
    region_bounds: Mapping[str, tuple[float, float]] | None = None,
) -> dict[str, cp.LocalizationStats]:
    """`table1_statistics` with the gather sampler and one `region_of` per trial."""

    bounds = DEFAULT_REGION_BOUNDS if region_bounds is None else region_bounds
    true_bins = np.repeat(np.arange(model.bin_count), trials_per_bin)
    rng = np.random.default_rng(seed)
    perceived = gather_sample_rows(model.matrix, true_bins, rng.random(true_bins.size))
    centers = bin_centers(model.bin_size_deg)
    true_az, perceived_az = centers[true_bins], centers[perceived]
    circular = angular_distance(perceived_az, true_az)
    adjusted = np.minimum(circular, angular_distance(cp.mirror_front_back(perceived_az), true_az))
    regions = np.array([region_of(a, bounds) for a in true_az])
    cone = circular - adjusted
    out = {}
    for name in (*bounds, "all"):
        m = regions == name if name != "all" else np.ones_like(circular, dtype=bool)
        out[name] = cp.LocalizationStats(
            circular_mean=float(circular[m].mean()),
            circular_sd=float(circular[m].std(ddof=1)),
            adjusted_mean=float(adjusted[m].mean()),
            adjusted_sd=float(adjusted[m].std(ddof=1)),
            cone_effect_mean=float(cone[m].mean()),
            cone_effect_sd=float(cone[m].std(ddof=1)),
            trials=int(m.sum()),
        )
    return out
