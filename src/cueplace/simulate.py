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

from .angles import _bin_tables, _distance_tables, bin_centers
from .confusion import REGIONS, ConfusionModel, ModelFormatError, _regions_by_bin
from .layout import Layout
from .placement import PlacementSolution


def _bins_in_layout_order(
    solution: PlacementSolution, layout: Layout, model: ConfusionModel
) -> np.ndarray:
    """Sound bin of each layout element, in layout order.

    A ValueError naming the id or bin unless the solution places exactly
    the layout's elements, each in a bin of the model and at that bin's
    center: a solution for another bin size or layout would otherwise be
    scored as if it were this one's.
    """

    by_id = {a.id: a for a in solution.assignments}
    try:
        placed = [by_id.pop(e.id) for e in layout.elements]
    except KeyError as missing:
        raise ValueError(f"the solution does not place element {missing.args[0]!r}") from None
    if by_id:
        raise ValueError(f"the solution places {next(iter(by_id))!r}, which is not in the layout")
    if len(placed) != len(solution.assignments):
        ids = [a.id for a in solution.assignments]
        raise ValueError(f"the solution places {next(i for i in ids if ids.count(i) > 1)!r} twice")
    size, nb = model.bin_size_deg, model.bin_count
    bins = [a.sound_bin for a in placed]
    for a, b in zip(placed, bins):
        if not 0 <= b < nb:
            raise ValueError(f"bin {b!r} of {a.id!r} is not one of the model's {nb} bins")
        # the arithmetic of `bin_centers`, in Python floats
        if a.sound_azimuth_deg != (b + 0.5) * size:
            raise ValueError(
                f"{a.id!r} plays at {a.sound_azimuth_deg!r} degrees, not at the center of "
                f"bin {b!r} of {size}-degree bins"
            )
    return np.array(bins, dtype=int)


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Outcome of a virtual-listener run for one placement strategy.

    `histogram[t, p]` counts the trials with target t perceived in bin p,
    and `decided[p]` is the element the listener names for bin p; both are
    read-only."""

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
    histogram: np.ndarray
    decided: np.ndarray

    def accuracy_gap(self, other: "SimulationReport") -> tuple[float, float]:
        """Accuracy difference (self - other) and its paired standard error.

        Both runs must share their stream: the same seed, trial count and
        element count, else a ValueError. The error is that of the mean
        per-trial difference in correctness, from the count of trials that
        one run gets right and the other wrong (`_discordant_trials`).
        """

        mine, theirs = ((r.seed, r.trials, r.histogram.shape[0]) for r in (self, other))
        if mine != theirs:
            raise ValueError(
                "a paired gap needs two runs on one stream; their (seed, trials, elements) "
                f"are {mine} and {theirs}"
            )
        gap = self.accuracy - other.accuracy
        n = self.trials
        return gap, math.sqrt(max(_discordant_trials(self, other) / n - gap * gap, 0.0) / n)


def _discordant_trials(a: SimulationReport, b: SimulationReport) -> int:
    """Trials that exactly one of two runs on one stream gets right.

    A trial's percept never decreases as its uniform grows, so within a
    target each run's trials sorted by percept are the trials sorted by
    uniform, and `np.repeat(hit, histogram.ravel())`, with `hit[t, p]` true
    where bin p decides target t, lists one run's per-trial correctness in
    that shared order. The count is that of the positions where the two
    lists differ, found from the lists' run boundaries (at most n * B each)
    without a trial-length array.
    """

    ends = [np.cumsum(r.histogram.ravel()) for r in (a, b)]
    hits = [(r.decided == np.arange(len(r.histogram))[:, None]).ravel() for r in (a, b)]
    # Positions [start, stop) between consecutive boundaries of either list
    # hold one value per list: that of the cell whose run covers stop - 1. A
    # boundary both lists share, or an empty cell's, repeats and makes an
    # empty run, which counts nothing; sorting without dropping repeats
    # spares `np.union1d` its `numpy.ma` import.
    stops = np.sort(np.concatenate(ends))
    starts = np.concatenate(([0], stops[:-1]))
    differ = np.not_equal(
        *(h[np.searchsorted(e, stops - 1, side="right")] for e, h in zip(ends, hits))
    )
    return int(np.add.reduce((stops - starts)[differ]))


# `Generator.random` returns m / 2^53 for an integer 0 <= m < 2^53, so a
# CDF entry c is at or below it exactly when ceil(c * 2^53) <= m. A trial
# of row i is the int64 key i * 2^53 + m, below 2^63 for at most 1023 rows.
_BITS = 53
_MAX_ROWS = (1 << (63 - _BITS)) - 1


def _keyed(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Keys of trials of int64 `rows` with uniforms `u` from
    `Generator.random`, made in place of both."""

    rows <<= _BITS
    u *= 1 << _BITS  # exactly m, as a float
    # the int64 loop casts u through NumPy's small buffers, not a full copy
    return np.add(rows, u, out=rows, dtype=np.int64, casting="unsafe")


def _bounds(model: ConfusionModel, rows: np.ndarray) -> np.ndarray:
    """Flat, non-decreasing int64 key bounds of the given model rows
    (repeats allowed), then the end of the last row.

    Bound B * i + p is the least key of row i perceived in bin p or later:
    the row's start for p = 0, else that plus ceil(cdf[p - 1] * 2^53), at
    most the next row's start. So a key is perceived in the bin numbered by
    how many of its row's CDF entries are at or below its uniform, capped
    at the last bin.
    """

    nb = model.bin_count
    cdf = model.matrix.take(rows, axis=0)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf *= 1 << _BITS
    np.minimum(np.ceil(cdf, out=cdf), 1 << _BITS, out=cdf)
    bounds = np.empty(rows.size * nb + 1, np.int64)
    grid = bounds[:-1].reshape(rows.size, nb)
    grid[:, 0] = 0
    grid[:, 1:] = cdf[:, :-1]
    grid += np.arange(rows.size, dtype=np.int64)[:, None] << _BITS
    bounds[-1] = rows.size << _BITS
    return bounds


def _histogram(model: ConfusionModel, bins: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Flat (row, perceived bin) counts of sorted keys whose row i plays in
    model row `bins[i]`: the bounds split the keys into runs."""

    return np.diff(keys.searchsorted(_bounds(model, bins)))


def _percepts(model: ConfusionModel, keys: np.ndarray) -> np.ndarray:
    """Perceived bin of each key, its row a model row, in the keys' order."""

    nb = model.bin_count
    bounds = _bounds(model, np.arange(nb))
    # Searched in sorted order, each search starts where the last ended.
    order = keys.argsort()
    ranked = keys[order]
    percept = bounds.searchsorted(ranked, side="right")
    # a key of row t is past the B * t bounds of earlier rows and its row's start
    np.right_shift(ranked, _BITS, out=ranked)
    ranked *= nb
    ranked += 1
    percept -= ranked
    ranked[order] = percept
    return ranked


def _count(name: str, value, least: int) -> int:
    """`value` as an int, if it is a Python or NumPy integer (no bool) >= `least`."""

    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")
    return int(value)


# The stream of the last run that drew one, by (seed, n, trials), kept
# read-only until a run with that key takes it or a run with another key
# draws its own: callers compare strategies by running each on one seed.
# Runs in several threads stay exact, since a stream is only ever read;
# they may draw a stream twice, or briefly keep two.
_kept: dict[tuple[int, int, int], np.ndarray] = {}


def _stream(seed: int, n: int, trials: int) -> np.ndarray:
    """Read-only sorted `_keyed` keys of a run's trials, 8 bytes per trial:
    targets `integers(n, size=trials)` as rows, then uniforms
    `random(trials)`, from `default_rng(seed)`. A drawn stream is kept for
    one more run."""

    key = (seed, n, trials)
    keys = _kept.pop(key, None)
    if keys is None:
        _kept.clear()  # before the draw, so no two streams are ever alive
        rng = np.random.default_rng(seed)
        keys = _keyed(rng.integers(n, size=trials), rng.random(trials))
        keys.sort()
        keys.flags.writeable = False
        _kept[key] = keys
    return keys


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
    so results depend only on the seed. The listener's decision rule is the
    layout geometry's `decided`; errors are measured between the perceived
    azimuth and the target element's visual azimuth. `trials` must be a
    positive and `seed` a non-negative integer, and the layout may hold at
    most 1023 elements.

    A trial's outcome depends only on its (target, percept) cell, so the
    run counts the cells' trials (`_histogram`) in its sorted stream. The
    error means are the histogram's count-weighted sums of the geometry's
    error tables; the confusion counts add each percept bin's cells to
    those of the element it decides.

    Callers compare strategies on one seed, so a run that draws its stream
    keeps it, read-only (8 bytes per trial), until the next run starts. If
    that run has the same seed, element count and trials, it takes the
    stream instead of drawing it; any other run drops it. At most one
    stream is kept, none after a pair's second run, and a report depends
    only on the arguments.
    """

    trials, seed = _count("trials", trials, 1), _count("seed", seed, 0)
    n, nb = len(layout.elements), model.bin_count
    if n > _MAX_ROWS:
        raise ValueError(f"a run simulates at most {_MAX_ROWS} elements, got {n}")
    circular, adjusted, decided = layout.geometry(model.bin_size_deg)
    bins = _bins_in_layout_order(solution, layout, model)
    hist = _histogram(model, bins, _stream(seed, n, trials))

    # Circular errors are never below adjusted ones, and rounding is
    # monotone, so the cone mean is never negative.
    weighted = np.multiply(hist, circular.ravel())
    mean_circular = float(np.add.reduce(weighted) / trials)
    mean_adjusted = float(np.add.reduce(np.multiply(hist, adjusted.ravel(), out=weighted)) / trials)
    del weighted

    # Confusion counts: each (target, percept) cell of the histogram added to
    # its (target, decided element) cell, in exact integers. Flat contiguous
    # operands take NumPy's fast `add.at` path.
    counts = np.zeros((n, n), dtype=np.intp)
    np.add.at(counts.ravel(), (np.arange(0, n * n, n)[:, None] + decided).ravel(), hist)
    histogram = hist.reshape(n, nb)
    counts.flags.writeable = histogram.flags.writeable = False
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
        mean_cone_effect_deg=mean_circular - mean_adjusted,
        histogram=histogram,
        decided=decided,
    )


def expected_accuracy(solution: PlacementSolution, layout: Layout, model: ConfusionModel) -> float:
    """Exact identification accuracy of a placement, no sampling.

    Same decision rule as `run_simulation` (nearest element, first wins
    ties) with targets uniform over elements; the Monte-Carlo accuracy
    converges to this value.
    """

    bins = _bins_in_layout_order(solution, layout, model)
    decided = layout.geometry(model.bin_size_deg).decided
    # Masking a contiguous row copies the element's bins in ascending order.
    mine = decided == np.arange(bins.size)[:, None]
    per_element = [np.add.reduce(row[m]) for row, m in zip(model.matrix.take(bins, axis=0), mine)]
    return float(np.add.reduce(per_element) / len(per_element))  # as `np.mean` divides


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


def _trials_by_bin(model: ConfusionModel, trials_per_bin: int, seed: int) -> np.ndarray:
    """Perceived bins of `trials_per_bin` trials per true bin, as a
    (bins, trials_per_bin) array: row t holds true bin t's trials in draw
    order. `trials_per_bin` must be a positive and `seed` a non-negative
    integer."""

    trials_per_bin, seed = _count("trials_per_bin", trials_per_bin, 1), _count("seed", seed, 0)
    rows = np.repeat(np.arange(model.bin_count), trials_per_bin)
    keys = _keyed(rows, np.random.default_rng(seed).random(rows.size))
    return _percepts(model, keys).reshape(model.bin_count, trials_per_bin)


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
    centers = _bin_tables(model.bin_size_deg)[0]  # [true, perceived]
    circ_by_bin, adj_by_bin = _distance_tables(centers, model.bin_size_deg)
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

    centers = _bin_tables(model.bin_size_deg)[0]  # [true, perceived]
    circ_by_bin, adj_by_bin = _distance_tables(centers, model.bin_size_deg)
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
