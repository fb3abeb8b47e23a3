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
    # hold one value per list: that of the cell whose run covers stop - 1.
    stops = np.union1d(*ends)
    starts = np.concatenate(([0], stops[:-1]))
    differ = np.not_equal(
        *(h[np.searchsorted(e, stops - 1, side="right")] for e, h in zip(ends, hits))
    )
    return int(np.add.reduce((stops - starts)[differ]))


# The one block size of trial-length working arrays: a run draws its trials
# in equal chunks of at most this many (or of its n * B (target, percept)
# cells if more, so a chunk's histogram is a small part), and `sample_bins`
# searches at most this many trials at a time. At 2^14 entries a float64 or
# intp array is 128 KiB, glibc's default mmap threshold, so such arrays
# stay in cache and in memory the process holds.
_CHUNK_TRIALS = 1 << 14


def _guide_cells(bin_count: int, trials_per_row: int) -> int:
    """Cells per row of the sampler's guide table: the largest power of two
    not above 16 per bin, nor above the trials a row serves, so building
    the table never costs more than looking the trials up in it."""

    k = max(1, min(16 * bin_count, trials_per_row))
    return 1 << (k.bit_length() - 1)


def _build_guide(
    model: ConfusionModel, rows: np.ndarray, trials: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Guide table of `sample_bins` for the given model rows (repeats
    allowed), serving `trials` draws in all.

    It splits [0, 1) into K equal cells, K a power of two from
    `_guide_cells(B, trials // rows.size)`, plus one cell for u >= 1, and
    records per cell how many CDF entries of each row lie below the cell
    and below its upper edge. Scaling by K is exact, so every entry falls
    in its true cell. Returns the rows' CDFs, the table, and the
    binary-search steps its widest cell needs.
    """

    nb = model.bin_count
    r = rows.size
    cells = _guide_cells(nb, trials // max(r, 1))

    # cdf[j, i] is entry j of row i. It is stored column by column with a
    # row of NaN after the last entry, so a search probe past the end of a
    # row lands on NaN (or is clipped to it) and `cdf <= u` is false there.
    cdf = np.empty((nb + 1, r))
    np.cumsum(model.matrix[rows].T, axis=0, out=cdf[:nb])
    cdf[nb] = np.nan

    # counts[c, i] = entries of row i below c/K for c <= K, and all of them
    # for c = K + 1, capped at the last bin. An entry lies in cell
    # floor(entry * K); the cast truncates, which is the floor for entries >= 0.
    cell_of = np.multiply(cdf[:nb], cells, out=np.empty((nb, r), np.intp), casting="unsafe")
    np.minimum(cell_of, cells, out=cell_of)
    cell_of *= r
    cell_of += np.arange(r, 2 * r)
    counts = np.bincount(cell_of.ravel(), minlength=(cells + 2) * r).reshape(cells + 2, r)
    del cell_of  # each large temporary goes before the next, keeping the peak low
    np.cumsum(counts, axis=0, out=counts)
    np.minimum(counts, nb - 1, out=counts)
    below, span = counts[:-1], np.diff(counts, axis=0)

    # table[c, i]: a cell whose span is 0 holds the answer for every uniform
    # in it. Any other holds the bitwise complement of the flat position in
    # `cdf` of the first entry it may still count.
    table = below * r
    table += np.arange(r)
    np.invert(table, out=table)
    np.copyto(table, below, where=span == 0)
    return cdf, table, int(span.max(initial=0)).bit_length()


def sample_bins(
    guide: tuple[np.ndarray, np.ndarray, int], row_index: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Inverse-CDF draw of one perceived bin per trial.

    `guide` is `_build_guide(model, rows, trials)`. The cue of trial k plays
    in bin `rows[row_index[k]]` and is perceived in the bin numbered by how
    many of that row's CDF entries are at or below the uniform `u[k]`,
    capped at the last bin. Both arguments are 1-d and `u` is non-negative;
    values at or past 1 are allowed. The model keeps its entries
    non-negative, so each CDF is non-decreasing.

    The count is found by indexed search (Chen & Asau, AIIE Trans. 6(2),
    1974; Devroye, Non-Uniform Random Variate Generation, 1986, III.2.4).
    A trial whose guide cell holds no CDF entry (after the cap) is answered
    by one table lookup; the others are resolved by a binary search over
    the entries inside their cell. The guide is built once and serves any
    number of calls, so a caller can draw its trials block by block. Each
    call's working memory is one trial-length array, the result, used
    first for the trials' cell indices, and the search's arrays for at most
    `_CHUNK_TRIALS` trials.
    """

    cdf, table, steps = guide
    cells, r = table.shape[0] - 1, table.shape[1]  # K: the last cell holds u >= 1

    out = np.multiply(u, cells, out=np.empty(u.size, np.intp), casting="unsafe")
    np.minimum(out, cells, out=out)
    out *= r
    out += row_index
    # Each trial reads its own cell index before its table entry overwrites it.
    np.take(table, out, out=out, mode="clip")

    for lo in range(0, out.size, _CHUNK_TRIALS):
        _search(cdf, steps, out[lo : lo + _CHUNK_TRIALS], u[lo : lo + _CHUNK_TRIALS])
    return out


def _search(cdf: np.ndarray, steps: int, block: np.ndarray, u: np.ndarray) -> None:
    """Settle the trials of one block of `sample_bins` whose guide cell
    holds CDF entries, in place.

    A negative entry of `block` is the complement of the flat position in
    `cdf` of its trial's first candidate entry (count c of row i sits at
    c * r + i); it becomes the trial's perceived bin. The binary search
    jumps 2^(steps-1), ..., 2, 1 entries ahead, taking a jump when the
    entry it lands on is <= u. `probe` is where the next jump lands: after
    trying a jump of 2^s it moves 2^s - 2^(s-1) entries if the jump was
    taken, else -2^(s-1). The working arrays are freed on return, so no
    two blocks' arrays are alive at once.
    """

    nb, r = cdf.shape[0] - 1, cdf.shape[1]
    flat = cdf.ravel()
    trials = np.flatnonzero(block < 0)
    probe = ~block.take(trials)
    probe += ((1 << steps >> 1) - 1) * r
    draws = u.take(trials)
    entry, hit = np.empty_like(draws), np.empty(trials.size, bool)
    for s in reversed(range(steps)):
        np.less_equal(flat.take(probe, out=entry, mode="clip"), draws, out=hit)
        np.add(probe, r << s, out=probe, where=hit)
        probe -= (1 << s >> 1) * r
    probe //= r  # the count of entries <= u
    block[trials] = np.minimum(probe, nb - 1, out=probe)


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
_kept: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _stream(seed: int, n: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only targets and uniforms of a run: `integers(n, size=trials)`
    then `random(trials)` from `default_rng(seed)`, the targets in the
    smallest unsigned type that holds n - 1 (9 bytes per trial in all up
    to 256 elements). A drawn stream is kept for one more run."""

    key = (seed, n, trials)
    stream = _kept.pop(key, None)
    if stream is None:
        _kept.clear()  # before the draw, so no two streams are ever alive
        rng = np.random.default_rng(seed)
        # the int64 draw is freed before the uniforms are drawn
        targets = rng.integers(n, size=trials).astype(np.min_scalar_type(n - 1))
        uniforms = rng.random(trials)
        targets.flags.writeable = uniforms.flags.writeable = False
        stream = _kept[key] = targets, uniforms
    return stream


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
    positive and `seed` a non-negative integer.

    A trial's outcome depends only on its (target, percept) cell, so the
    run keeps one histogram of the cells and, per trial, only its target
    and uniform. It samples the trials in equal chunks of at most
    `_CHUNK_TRIALS` trials (or n * B, if more). The error means are the
    histogram's count-weighted sums of the geometry's error tables; the
    confusion counts add each percept bin's cells to those of the element
    it decides.

    Callers compare strategies on one seed, so a run that draws its stream
    keeps it, read-only (9 bytes per trial up to 256 elements, 10 up to
    65536), until the next run starts. If that run has the same seed,
    element count and trials, it takes the stream instead of drawing it;
    any other run drops it. At most one stream is kept, none after a
    pair's second run, and a report depends only on the arguments.
    """

    trials, seed = _count("trials", trials, 1), _count("seed", seed, 0)
    n, nb = len(layout.elements), model.bin_count
    circular, adjusted, decided = layout.geometry(model.bin_size_deg)
    guide = _build_guide(model, _bins_in_layout_order(solution, layout, model), trials)
    targets, uniforms = _stream(seed, n, trials)
    chunks = -(-trials // max(_CHUNK_TRIALS, n * nb))
    for c in range(chunks):
        lo, hi = trials * c // chunks, trials * (c + 1) // chunks
        # one cast per chunk, so the sampler and the cells add like types
        target = targets[lo:hi].astype(np.intp)
        cell = sample_bins(guide, target, uniforms[lo:hi])
        cell += np.multiply(target, nb, out=target)
        del target  # before the histogram, which at one chunk is the peak
        if c == 0:
            hist = np.bincount(cell, minlength=n * nb)
        else:
            hist += np.bincount(cell, minlength=n * nb)
        del cell  # so the next chunk reuses its memory, not fresh pages that fault
    del targets, uniforms, guide  # before the sums and counts, keeping the peak low

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
