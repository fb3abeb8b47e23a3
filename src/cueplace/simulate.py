"""Probabilistic virtual listener for evaluating sound placements.

Each trial plays the cue of a uniformly chosen element from its assigned
bin, perturbs it through the confusion model, and has the listener pick the
element whose visual azimuth is nearest the perceived angle. Also provides
the per-region localization-error statistics used to check a model against
measured listener data, and their closed-form expectations for calibration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angles import angular_distance, bin_centers, mirror_front_back
from .confusion import (
    REGIONS,
    ConfusionModel,
    ModelFormatError,
    _build_guide,
    _regions_by_bin,
    sample_bins,
)
from .layout import Layout
from .placement import PlacementSolution


def decision_by_bin(layout: Layout, bin_size_deg: int) -> np.ndarray:
    """Element the listener picks for a percept in each bin.

    Percepts are bin centers; the decision is the element whose visual
    azimuth is nearest, ties going to the earliest element in layout order.
    """

    centers = bin_centers(bin_size_deg)
    return np.argmin(angular_distance(centers[:, None], layout.visual_azimuths[None, :]), axis=1)


def _bins_in_layout_order(solution: PlacementSolution, layout: Layout) -> np.ndarray:
    """Sound bin of each layout element, in layout order."""

    by_id = solution.bins_by_element()
    return np.array([by_id[e.id] for e in layout.elements], dtype=int)


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Outcome of a virtual-listener run for one placement strategy."""

    strategy: str
    trials: int
    seed: int
    accuracy: float
    accuracy_stderr: float
    per_element_accuracy: tuple[float, ...]
    per_element_trials: tuple[int, ...]
    confusion_counts: np.ndarray
    mean_circular_error_deg: float
    mean_adjusted_error_deg: float
    mean_cone_effect_deg: float

    def accuracy_gap(self, other: "SimulationReport") -> tuple[float, float]:
        """Accuracy difference (self - other) and its combined standard error."""

        gap = self.accuracy - other.accuracy
        se = math.hypot(self.accuracy_stderr, other.accuracy_stderr)
        return gap, se


# A run draws and reduces its trials in leaves of the summation tree of at
# most this many trials (about 128 KB per trial-length array, which stays
# in cache and in memory the process already holds), and never fewer than
# the run's (target, percept) cells, so a leaf's histogram stays a small
# part of its work.
_LEAF_TRIALS = 1 << 14


def _pairwise_sum(leaf_sum, lo: int, hi: int, leaf: int):
    """Sum over items lo..hi-1 added as NumPy's pairwise summation adds them.

    NumPy's `add.reduce` of a contiguous float64 array (and so its `sum`
    and `mean`) adds n items by `pairwise_sum` (numpy/_core/src/umath/
    loops_utils.h.src): n <= 128 items in one fixed order, otherwise the
    first n2 = n // 2 rounded down to a multiple of 8 and the rest
    separately, and then those two sums. A subtree of at most `leaf` items
    (`leaf` >= 128) is summed by `leaf_sum(lo, hi)`, which must return
    what `np.add.reduce` gives for those items; the others add their halves'
    sums the same way. The result equals `np.add.reduce` over all items bit
    for bit (Higham, SIAM J. Sci. Comput. 14(4), 1993, describes the
    method). Leaves are summed in ascending order.
    """

    if hi - lo <= leaf:
        return leaf_sum(lo, hi)
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _pairwise_sum(leaf_sum, lo, mid, leaf) + _pairwise_sum(leaf_sum, mid, hi, leaf)


def run_simulation(
    solution: PlacementSolution,
    layout: Layout,
    model: ConfusionModel,
    trials: int = 10000,
    seed: int = 0,
    strategy: str | None = None,
) -> SimulationReport:
    """Monte-Carlo identification accuracy of a placement under the model.

    One random stream drives the whole run (targets first, then percepts),
    so results depend only on the seed. The listener's decision rule is
    `decision_by_bin`; errors are measured between the perceived
    azimuth and the target element's visual azimuth.

    A trial's outcome depends only on its (target, percept) cell, so no
    decision, correctness flag or error is kept per trial. The error
    tables per (element, percept bin) and the sampler's guide table are
    built once; the circular table also gives the decisions. Only the
    targets are trial-length. The other trials' arrays live for one leaf
    of NumPy's pairwise-summation tree over the trials (see
    `_pairwise_sum`), at most `_LEAF_TRIALS` trials or the run's n * B
    cells if more. Each leaf, in ascending order, draws its uniforms from
    the stream (the same numbers one call for all trials gives), samples
    its percepts, turns them into cells, sums its trials' circular,
    adjusted and cone-effect errors, and adds its cells to the (target,
    percept) histogram. The leaf sums, added up the same tree, are the
    sums `np.mean` of the per-trial errors would take, bit for bit. The
    histogram, with each percept bin's column added to the column of the
    element it decides, gives the confusion counts. Small leaves reuse
    memory the process holds: a fresh trial-length array is often new
    memory from the operating system and costs a page fault per 4 KB page.
    """

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, nb = len(layout.elements), model.bin_count
    rng = np.random.default_rng(seed)
    targets = rng.integers(n, size=trials)
    circular, adjusted = _errors_by_bin(layout.visual_azimuths, model.bin_size_deg)
    decided = np.argmin(circular, axis=0)  # `decision_by_bin`
    guide = _build_guide(model, _bins_in_layout_order(solution, layout), trials)
    hist = None

    def leaf_sum(lo: int, hi: int) -> np.ndarray:
        nonlocal hist
        u = rng.random(hi - lo)
        cell = sample_bins(guide, targets[lo:hi], u)
        cell += np.multiply(targets[lo:hi], nb, out=targets[lo:hi])
        # The uniforms are spent; their buffer takes the circular errors,
        # and then the cone effects.
        circ = np.take(circular, cell, out=u, mode="clip")
        adj = np.take(adjusted, cell, mode="clip")
        sum_circ, sum_adj = np.add.reduce(circ), np.add.reduce(adj)
        sum_cone = np.add.reduce(np.subtract(circ, adj, out=circ))
        del u, circ, adj  # before the histogram, keeping the peak low
        counts = np.bincount(cell, minlength=n * nb)
        if hist is None:
            hist = counts
        else:
            hist += counts
        return np.array([sum_circ, sum_adj, sum_cone])

    sums = _pairwise_sum(leaf_sum, 0, trials, max(_LEAF_TRIALS, n * nb))
    mean_circular, mean_adjusted, mean_cone = (sums / trials).tolist()
    del targets, guide  # before the counts, keeping the peak low

    # Confusion counts: each percept bin's column of the (target, percept)
    # histogram added to its decided element's column, in exact integers.
    counts = np.zeros((n, n), dtype=np.intp)
    np.add.at(counts.T, decided, hist.reshape(n, nb).T)
    counts.flags.writeable = False
    per_trials = counts.sum(axis=1)
    per_acc = np.where(per_trials > 0, np.diag(counts) / np.maximum(per_trials, 1), np.nan)
    # The count of correct trials over the trials: what the mean of a 0/1
    # array per trial gives, since float sums of ones are exact.
    accuracy = float(np.trace(counts) / trials)

    return SimulationReport(
        strategy=solution.solver if strategy is None else strategy,
        trials=trials,
        seed=seed,
        accuracy=accuracy,
        accuracy_stderr=math.sqrt(accuracy * (1.0 - accuracy) / trials),
        per_element_accuracy=tuple(float(a) for a in per_acc),
        per_element_trials=tuple(int(t) for t in per_trials),
        confusion_counts=counts,
        mean_circular_error_deg=mean_circular,
        mean_adjusted_error_deg=mean_adjusted,
        mean_cone_effect_deg=mean_cone,
    )


def expected_accuracy(solution: PlacementSolution, layout: Layout, model: ConfusionModel) -> float:
    """Exact identification accuracy of a placement, no sampling.

    Same decision rule as `run_simulation` (nearest element, first wins
    ties) with targets uniform over elements; the Monte-Carlo accuracy
    converges to this value.
    """

    bins = _bins_in_layout_order(solution, layout)
    # Bins grouped by decided element: the sort is stable, so bins ascend
    # within a group and its sum adds the values in the order a mask would.
    decided = decision_by_bin(layout, model.bin_size_deg)
    by_element = np.argsort(decided, kind="stable")
    ends = np.cumsum(np.bincount(decided, minlength=len(layout.elements))).tolist()
    rows = model.matrix[bins[:, None], by_element[None, :]]
    per_element = [float(rows[i, lo:hi].sum()) for i, (lo, hi) in enumerate(zip([0, *ends], ends))]
    return float(np.mean(per_element))


@dataclass(frozen=True)
class LocalizationStats:
    """Localization-error summary over one region (or the whole circle)."""

    circular_mean: float
    circular_sd: float
    adjusted_mean: float
    adjusted_sd: float
    cone_effect_mean: float
    cone_effect_sd: float
    trials: int


def _errors_by_bin(target_az: np.ndarray, bin_size_deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Circular and front-back-adjusted error of a percept at each bin center
    (columns) from each target azimuth (rows): the distance to the center,
    and the smaller of that and the distance to the center's mirror."""

    centers = bin_centers(bin_size_deg)
    circular = angular_distance(target_az[:, None], centers[None, :])
    mirrored = angular_distance(target_az[:, None], mirror_front_back(centers)[None, :])
    return circular, np.minimum(circular, mirrored, out=mirrored)


def _trials_by_bin(model: ConfusionModel, trials_per_bin: int, seed: int) -> np.ndarray:
    """Perceived bins of `trials_per_bin` trials per true bin, as a
    (bins, trials_per_bin) array: row t holds true bin t's trials in draw
    order."""

    if trials_per_bin < 1:
        raise ValueError(f"trials_per_bin must be >= 1, got {trials_per_bin}")
    rows = np.arange(model.bin_count)
    true_bins = np.repeat(rows, trials_per_bin)
    u = np.random.default_rng(seed).random(true_bins.size)
    perceived = sample_bins(_build_guide(model, rows, u.size), true_bins, u)
    return perceived.reshape(rows.size, trials_per_bin)


def _regions_with_centers(bin_size_deg: int) -> np.ndarray:
    """`_regions_by_bin`, for statistics per region: every region must hold
    a bin center, or it has none."""

    by_bin = _regions_by_bin(bin_size_deg)
    for name in REGIONS:
        if not np.any(by_bin == name):
            raise ModelFormatError(
                f"no bin center of a {bin_size_deg}-degree model lies in region {name!r}"
            )
    return by_bin


def table1_statistics(
    model: ConfusionModel, trials_per_bin: int = 200, seed: int = 0
) -> dict[str, LocalizationStats]:
    """Simulated localization errors per region of `REGIONS`, plus "all".

    Every true bin gets `trials_per_bin` trials; the cue plays from the bin
    center and the percept is the sampled bin's center. Circular error is
    the angular distance to the true azimuth, adjusted error additionally
    allows the front-back mirror of the percept, cone effect is their
    per-trial difference. Every region needs a bin center and, for its SDs,
    at least 2 trials.
    """

    perceived = _trials_by_bin(model, trials_per_bin, seed)
    by_bin = _regions_with_centers(model.bin_size_deg)
    for name in REGIONS:
        if trials_per_bin * np.count_nonzero(by_bin == name) < 2:
            raise ValueError(
                f"region {name!r} holds one bin, so {trials_per_bin} trial per bin leaves "
                "its SDs undefined; trials_per_bin must be >= 2"
            )
    centers = bin_centers(model.bin_size_deg)
    circ_by_bin, adj_by_bin = _errors_by_bin(centers, model.bin_size_deg)  # [true, perceived]
    circular = np.take_along_axis(circ_by_bin, perceived, axis=1)
    adjusted = np.take_along_axis(adj_by_bin, perceived, axis=1)
    cone = circular - adjusted

    # A region's trials are its bins' rows, in draw order.
    out: dict[str, LocalizationStats] = {}
    for name in (*REGIONS, "all"):
        rows = slice(None) if name == "all" else by_bin == name
        c, a, k = circular[rows], adjusted[rows], cone[rows]
        out[name] = LocalizationStats(
            circular_mean=float(c.mean()),
            circular_sd=float(c.std(ddof=1)),
            adjusted_mean=float(a.mean()),
            adjusted_sd=float(a.std(ddof=1)),
            cone_effect_mean=float(k.mean()),
            cone_effect_sd=float(k.std(ddof=1)),
            trials=c.size,
        )
    return out


def expected_localization_errors(model: ConfusionModel) -> dict[str, dict[str, float]]:
    """Exact expectations of the `table1_statistics` means, no sampling.

    Bins weigh equally within a region, matching the per-bin trial budget of
    the simulated version. Used to calibrate synthetic model parameters.
    Every region needs a bin center.
    """

    centers = bin_centers(model.bin_size_deg)
    circ_by_bin, adj_by_bin = _errors_by_bin(centers, model.bin_size_deg)  # [true, perceived]
    e_circ = (model.matrix * circ_by_bin).sum(axis=1)
    e_adj = (model.matrix * adj_by_bin).sum(axis=1)
    regions = _regions_with_centers(model.bin_size_deg)

    out: dict[str, dict[str, float]] = {}
    for name in (*REGIONS, "all"):
        rows = slice(None) if name == "all" else regions == name
        circ, adj = float(e_circ[rows].mean()), float(e_adj[rows].mean())
        out[name] = {"circular": circ, "adjusted": adj, "cone_effect": circ - adj}
    return out


def dump_trials(
    model: ConfusionModel, path: str | Path, trials_per_bin: int = 200, seed: int = 0
) -> int:
    """Write raw simulated trials as `true_azimuth_deg,predicted_azimuth_deg` CSV.

    Returns the number of trials written, at least one per bin.
    `model_from_trials` on the output reconstructs an estimate of the model.
    """

    perceived = _trials_by_bin(model, trials_per_bin, seed)
    centers = bin_centers(model.bin_size_deg)
    true_az, perceived_az = np.repeat(centers, trials_per_bin), centers[perceived.ravel()]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true_azimuth_deg", "predicted_azimuth_deg"])
        writer.writerows(
            zip((repr(float(t)) for t in true_az), (repr(float(p)) for p in perceived_az))
        )
    return true_az.size
