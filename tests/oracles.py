"""Reference implementations that the library is checked against.

Most functions compute one cell, one percept, one trial or one file row at
a time, the way the definitions read. The library's vectorized versions
must agree with them exactly (`np.array_equal`), not within a tolerance:
the arithmetic per element is the same, only the looping moved into NumPy.
`brute_force_solve` enumerates every feasible assignment as an independent
check on the solver's dynamic program.
"""

from __future__ import annotations

import csv
import itertools
from functools import lru_cache
from pathlib import Path
from typing import Mapping

import numpy as np

import cueplace as cp
from cueplace.angles import angular_distance, bin_center, bin_centers, bin_of, normalize
from cueplace.confusion import DEFAULT_REGION_BOUNDS, region_of
from cueplace.placement import (
    INFEASIBLE_THRESHOLD,
    MASKED,
    _check_instance,
    _finish,
    _ordered_quantized,
    _raise_infeasible,
)
from cueplace.scoring import MAX_CONE_DISTANCE_DEG

BRUTE_FORCE_MAX_ELEMENTS = 5
BRUTE_FORCE_MAX_BINS = 36


def cone_set(a: float) -> set[float]:
    """Azimuth reduction of the cone of confusion: {a, mirror(a)}.

    Degenerates to a singleton on the interaural axis (90 or 270).
    """

    a = float(a)
    return {a, cp.mirror_front_back(a)}


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


@lru_cache(maxsize=8)
def _combos(bins: int, n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(bins), n)), dtype=int)


def brute_force_solve(
    scores: cp.ScoreMatrix, max_displacement_deg: float | None = None
) -> cp.PlacementSolution:
    """Exhaustive reference solver; `solve` must agree including tie-break.

    Refuses instances beyond n=5 elements or 36 bins to bound the
    enumeration.
    """

    _check_instance(scores)
    n, bins = scores.values.shape
    if n > BRUTE_FORCE_MAX_ELEMENTS or bins > BRUTE_FORCE_MAX_BINS:
        raise ValueError(
            f"instance too large for brute force (n={n}, bins={bins}); "
            f"limits are n<={BRUTE_FORCE_MAX_ELEMENTS}, bins<={BRUTE_FORCE_MAX_BINS}"
        )
    order, q = _ordered_quantized(scores, max_displacement_deg)
    combos = _combos(bins, n)
    pos = np.arange(bins)
    best = np.int64(MASKED) * n
    best_cut = -1
    best_bins: tuple[int, ...] | None = None
    for cut in range(bins):
        orig = (pos + cut) % bins
        qrot = q[:, orig]
        vals = qrot[0][combos[:, 0]].copy()
        for i in range(1, n):
            vals += qrot[i][combos[:, i]]
        top = vals.max()
        if top > best:  # strict: earlier cuts keep ties
            best = top
            best_cut = cut
            best_bins = min(map(tuple, orig[combos[vals == top]]))
    if best <= INFEASIBLE_THRESHOLD:
        _raise_infeasible()
    return _finish(scores, order, np.array(best_bins, dtype=int), "brute_force", best_cut)


def trial_counts(path: str | Path, bin_size_deg: int) -> np.ndarray:
    """`model_from_trials` counts, binning each file row on its own."""

    n = cp.bin_count_for(bin_size_deg)
    counts = np.zeros((n, n))
    with Path(path).open(encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            if row and "".join(row).strip():
                t, p = float(row[0]), float(row[1])
                counts[bin_of(normalize(t), bin_size_deg), bin_of(normalize(p), bin_size_deg)] += 1
    return counts
