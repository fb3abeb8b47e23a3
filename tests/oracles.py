"""Reference implementations that the library is checked against.

Most functions compute one cell, one percept, one trial or one file row at
a time, the way the definitions read. The library's vectorized versions
must agree with them exactly (`np.array_equal`), not within a tolerance:
the arithmetic per element is the same, only the looping moved into NumPy.
`brute_force_solve` enumerates every feasible assignment as an independent
check on the solver's dynamic program, and `extract_lex_min` is the
full-width backward pass with a forward greedy that the solver's keyed
band extraction replaced. `synthesize_model_scipy` builds a model one row
at a time on `scipy.special.ndtr`, which it imports when called; SciPy is
needed by the tests only.
"""

from __future__ import annotations

import csv
import itertools
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

import cueplace as cp
from cueplace.angles import (
    angular_distance,
    bin_center,
    bin_centers,
    bin_count_for,
    bin_of,
    mirror_front_back,
    normalize,
)
from cueplace.confusion import DEFAULT_REGION_BOUNDS
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


def region_of(azimuth_deg: float) -> str:
    """Name of the first region whose arc contains the azimuth."""

    a = normalize(azimuth_deg)
    for name, (lo, hi) in DEFAULT_REGION_BOUNDS.items():
        span = (hi - lo) % 360.0
        if (a - lo) % 360.0 < span:
            return name
    raise ValueError(f"no region holds azimuth {azimuth_deg}")


def wrapped_normal_bin_mass(mean_deg: float, sd_deg: float, edges: np.ndarray) -> np.ndarray:
    """Probability mass of a wrapped normal in each [edges[k], edges[k+1]) bin."""

    from scipy.special import ndtr

    wraps = int(np.ceil(6.0 * sd_deg / 360.0)) + 1
    ks = np.arange(-wraps, wraps + 1)
    z = (edges[None, :] - mean_deg + 360.0 * ks[:, None]) / sd_deg
    cdf = ndtr(z)
    return (cdf[:, 1:] - cdf[:, :-1]).sum(axis=0)


def synthesize_model_scipy(params: cp.SyntheticModelParams) -> cp.ConfusionModel:
    """`synthesize_model` one row at a time, with `region_of` per bin center
    and `scipy.special.ndtr`."""

    n = bin_count_for(params.bin_size_deg)
    edges = np.arange(n + 1, dtype=float) * params.bin_size_deg
    matrix = np.empty((n, n))
    for t in range(n):
        theta = bin_center(t, params.bin_size_deg)
        region = region_of(theta)
        sd = float(params.blur_sd_deg[region])
        flip = float(params.flip_prob[region])
        row = (1.0 - flip) * wrapped_normal_bin_mass(theta, sd, edges)
        if flip > 0.0:
            row += flip * wrapped_normal_bin_mass(mirror_front_back(theta), sd, edges)
        matrix[t] = row / row.sum()
    model = cp.ConfusionModel(params.bin_size_deg, matrix, provenance="synthetic")
    model.validate(row_sum_tol=1e-9)
    return model


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


def nearest_decisions(layout: cp.Layout, bin_size_deg: int) -> np.ndarray:
    """`nearest_element_decision` at each bin center."""

    return np.array([nearest_element_decision(c, layout) for c in bin_centers(bin_size_deg)])


def gather_sample_rows(matrix: np.ndarray, true_bins: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per trial by counting, over a trials x bins gather,
    the CDF entries at or below each uniform. The gather takes 2048 trials
    at a time, which bounds its memory."""

    cdf = np.cumsum(matrix, axis=1)
    idx = np.concatenate(
        [
            (cdf[true_bins[s : s + 2048]] <= u[s : s + 2048, None]).sum(axis=1)
            for s in range(0, u.size, 2048)
        ]
    )
    return np.minimum(idx, matrix.shape[1] - 1)


def run_simulation_per_trial(
    solution: cp.PlacementSolution,
    layout: cp.Layout,
    model: cp.ConfusionModel,
    trials: int = 10000,
    seed: int = 0,
    strategy: str | None = None,
) -> cp.SimulationReport:
    """`run_simulation` with the gather sampler, a decision, a correctness
    flag and each error kept per trial, and the confusion counts binned by
    (target, decided). Decisions are `nearest_element_decision` at each bin
    center."""

    n = len(layout.elements)
    by_id = solution.bins_by_element()
    bins = np.array([by_id[e.id] for e in layout.elements], dtype=int)
    rng = np.random.default_rng(seed)

    targets = rng.integers(n, size=trials)
    u = rng.random(trials)
    perceived = gather_sample_rows(model.matrix, bins[targets], u)

    decided = nearest_decisions(layout, model.bin_size_deg)[perceived]
    correct = decided == targets
    accuracy = float(correct.mean())

    target_az = layout.visual_azimuths[targets]
    perceived_az = bin_centers(model.bin_size_deg)[perceived]
    circular = angular_distance(target_az, perceived_az)
    adjusted = np.minimum(circular, angular_distance(target_az, mirror_front_back(perceived_az)))

    counts = np.bincount(targets * n + decided, minlength=n * n).reshape(n, n)
    counts.flags.writeable = False
    per_trials = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_acc = np.where(per_trials > 0, np.diag(counts) / np.maximum(per_trials, 1), np.nan)

    return cp.SimulationReport(
        strategy=solution.solver if strategy is None else strategy,
        trials=trials,
        seed=seed,
        accuracy=accuracy,
        accuracy_stderr=math.sqrt(accuracy * (1.0 - accuracy) / trials),
        per_element_accuracy=tuple(float(a) for a in per_acc),
        per_element_trials=tuple(int(t) for t in per_trials),
        confusion_counts=counts,
        mean_circular_error_deg=float(circular.mean()),
        mean_adjusted_error_deg=float(adjusted.mean()),
        mean_cone_effect_deg=float((circular - adjusted).mean()),
    )


def table1_per_trial(
    model: cp.ConfusionModel, trials_per_bin: int, seed: int
) -> dict[str, cp.LocalizationStats]:
    """`table1_statistics` with the gather sampler and one `region_of` per trial."""

    true_bins = np.repeat(np.arange(model.bin_count), trials_per_bin)
    rng = np.random.default_rng(seed)
    perceived = gather_sample_rows(model.matrix, true_bins, rng.random(true_bins.size))
    centers = bin_centers(model.bin_size_deg)
    true_az, perceived_az = centers[true_bins], centers[perceived]
    circular = angular_distance(perceived_az, true_az)
    adjusted = np.minimum(circular, angular_distance(cp.mirror_front_back(perceived_az), true_az))
    regions = np.array([region_of(a) for a in true_az])
    cone = circular - adjusted
    out = {}
    for name in (*DEFAULT_REGION_BOUNDS, "all"):
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


def extract_lex_min(q: np.ndarray, cut: int) -> np.ndarray | None:
    """`placement._extract_lex_min` over all bin_count positions, or None
    when no feasible assignment exists under `cut`.

    The backward pass computes the exact best completion from each (element,
    position); the forward greedy then picks, element by element, the
    smallest original bin that still attains the optimum.
    """

    n, bins = q.shape
    orig = (np.arange(bins) + cut) % bins
    qrot = q[:, orig]
    g = np.empty((n, bins), dtype=np.int64)
    g[n - 1] = qrot[n - 1]
    for i in range(n - 2, -1, -1):
        running = np.maximum.accumulate(g[i + 1][::-1])[::-1]
        nxt = np.empty(bins, dtype=np.int64)
        nxt[-1] = MASKED
        nxt[:-1] = running[1:]
        g[i] = qrot[i] + nxt
    if g[0].max() <= INFEASIBLE_THRESHOLD:
        return None
    chosen = np.empty(n, dtype=int)
    prev = -1
    for i in range(n):
        tail = g[i][prev + 1 :]
        best = tail.max()
        ties = np.flatnonzero(tail == best) + prev + 1
        prev = int(ties[np.argmin(orig[ties])])
        chosen[i] = orig[prev]
    return chosen


def expected_accuracy_per_element(
    solution: cp.PlacementSolution, layout: cp.Layout, model: cp.ConfusionModel
) -> float:
    """`expected_accuracy` with one boolean-mask row sum per element."""

    by_id = solution.bins_by_element()
    decided = nearest_decisions(layout, model.bin_size_deg)
    per_element = [
        float(model.matrix[by_id[e.id], decided == i].sum()) for i, e in enumerate(layout.elements)
    ]
    return float(np.mean(per_element))


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
