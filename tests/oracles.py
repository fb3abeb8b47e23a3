"""Reference implementations that the library is checked against.

Most functions compute one cell, one percept, one trial or one file row at
a time, the way the definitions read. The library's vectorized versions
must agree with them exactly (`np.array_equal`), not within a tolerance:
the arithmetic per element is the same, only the looping moved into NumPy.
`brute_force_solve` enumerates every feasible assignment as an independent
check on the solver's dynamic program, `per_cut_best` is that program's
forward pass gathering each cut through a `(k + r) mod bins` index table,
where the solver reads windows of a doubled score row, and
`extract_lex_min` is the full-width backward pass with a forward greedy
that the solver's keyed band extraction replaced. `own_best` is the
condition under which the solver skips that program, read row by row.
`synthesize_model_scipy` builds a model one row at a time on
`scipy.special.ndtr`, which it imports when called; SciPy is needed by the
tests only.
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
    for t, theta in enumerate(bin_centers(params.bin_size_deg).tolist()):
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
                cone_distance(layout, i, c, cone_rule)
                for c in bin_centers(model.bin_size_deg).tolist()
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


def _trials_per_trial(
    solution: cp.PlacementSolution,
    layout: cp.Layout,
    model: cp.ConfusionModel,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Targets and percepts of `run_simulation`'s trials in draw order, by
    the gather sampler, and `nearest_element_decision` at each bin center."""

    by_id = {a.id: a.sound_bin for a in solution.assignments}
    bins = np.array([by_id[e.id] for e in layout.elements], dtype=int)
    rng = np.random.default_rng(seed)
    targets = rng.integers(len(layout.elements), size=trials)
    u = rng.random(trials)
    perceived = gather_sample_rows(model.matrix, bins[targets], u)
    return targets, perceived, nearest_decisions(layout, model.bin_size_deg)


def correct_per_trial(
    solution: cp.PlacementSolution,
    layout: cp.Layout,
    model: cp.ConfusionModel,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Whether the listener names the target, per trial in draw order: two
    runs on one seed are compared trial by trial through it."""

    targets, perceived, decisions = _trials_per_trial(solution, layout, model, trials, seed)
    return decisions[perceived] == targets


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
    (target, decided) and the histogram by (target, percept)."""

    n, nb = len(layout.elements), model.bin_count
    targets, perceived, decisions = _trials_per_trial(solution, layout, model, trials, seed)

    decided = decisions[perceived]
    correct = decided == targets
    accuracy = float(correct.mean())

    target_az = layout.visual_azimuths[targets]
    perceived_az = bin_centers(model.bin_size_deg)[perceived]
    circular = angular_distance(target_az, perceived_az)
    adjusted = np.minimum(circular, angular_distance(target_az, mirror_front_back(perceived_az)))

    counts = np.bincount(targets * n + decided, minlength=n * n).reshape(n, n)
    histogram = np.bincount(targets * nb + perceived, minlength=n * nb).reshape(n, nb)
    counts.flags.writeable = histogram.flags.writeable = decisions.flags.writeable = False
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
        histogram=histogram,
        decided=decisions,
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

    Masks the cells beyond `max_displacement_deg` one at a time, so the
    library's vectorized mask is checked too. Refuses instances beyond n=5
    elements or 36 bins to bound the enumeration.
    """

    _check_instance(scores)
    n, bins = scores.values.shape
    if n > BRUTE_FORCE_MAX_ELEMENTS or bins > BRUTE_FORCE_MAX_BINS:
        raise ValueError(
            f"instance too large for brute force (n={n}, bins={bins}); "
            f"limits are n<={BRUTE_FORCE_MAX_ELEMENTS}, bins<={BRUTE_FORCE_MAX_BINS}"
        )
    order, q = _ordered_quantized(scores, None)
    if max_displacement_deg is not None:
        cap = max_displacement_deg
        if isinstance(cap, bool) or not isinstance(cap, (int, float, np.floating)) or not cap >= 0:
            raise ValueError(
                f"max_displacement_deg must be a non-negative number, got {max_displacement_deg!r}"
            )
        centers = bin_centers(scores.model.bin_size_deg).tolist()
        for row, i in enumerate(order):
            v = float(scores.layout.visual_azimuths[i])
            for s in range(bins):
                if angular_distance(centers[s], v) > max_displacement_deg:
                    q[row, s] = MASKED
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
    placed = np.empty(n, dtype=int)
    placed[order] = best_bins
    return _finish(scores, placed, "brute_force", best_cut)


def per_cut_best(q: np.ndarray) -> np.ndarray:
    """Best path value under each cut of `placement.solve`'s forward pass,
    reading element j at rotated position k under cut r as
    `q[j].take((r + k) % bins)` from a bins x bins index table."""

    n, bins = q.shape
    width = bins - n + 1
    orig_by_cut = np.add.outer(np.arange(bins), np.arange(bins)) % bins
    f = q[0].take(orig_by_cut[:, :width])
    for j in range(1, n):
        f = q[j].take(orig_by_cut[:, j : j + width]) + np.maximum.accumulate(f, axis=1)
    return f.max(axis=1)


def own_best(q: np.ndarray) -> tuple[list[int], int] | None:
    """Each element's own best bin and the lowest cut that keeps those bins
    in order, or None, read row by row from the condition under which they
    are the unique optimum: every row's maximum is unmasked and unique, and
    in circular element order the bins step forward, each step at least
    one bin, less than one turn in all."""

    n, bins = q.shape
    own = []
    for row in q.tolist():
        top = max(row)
        if top <= INFEASIBLE_THRESHOLD or row.count(top) != 1:
            return None
        own.append(row.index(top))
    steps = [(b - a) % bins for a, b in zip(own, own[1:])]
    if 0 in steps or sum(steps) >= bins:
        return None
    # the bins increase under the cuts after the last bin, up to the first
    gap = [(own[-1] + 1 + k) % bins for k in range(bins - sum(steps))]
    return own, min(gap)


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

    by_id = {a.id: a.sound_bin for a in solution.assignments}
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
