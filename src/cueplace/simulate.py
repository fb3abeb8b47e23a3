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
from typing import Mapping

import numpy as np

from .angles import angular_distance, bin_centers, mirror_front_back
from .confusion import DEFAULT_REGION_BOUNDS, ConfusionModel, region_of, sample_bins
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
    """

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = len(layout.elements)
    bins = _bins_in_layout_order(solution, layout)
    rng = np.random.default_rng(seed)

    targets = rng.integers(n, size=trials)
    u = rng.random(trials)
    perceived = sample_bins(model, bins[targets], u)

    decided = decision_by_bin(layout, model.bin_size_deg)[perceived]
    correct = decided == targets
    accuracy = float(correct.mean())

    circ_by_bin, adj_by_bin = _errors_by_bin(layout.visual_azimuths, model.bin_size_deg)
    circular = circ_by_bin[targets, perceived]
    adjusted = adj_by_bin[targets, perceived]

    counts = np.bincount(targets * n + decided, minlength=n * n).reshape(n, n)
    counts.flags.writeable = False
    per_trials = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_acc = np.where(per_trials > 0, np.diag(counts) / np.maximum(per_trials, 1), np.nan)

    return SimulationReport(
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


def expected_accuracy(solution: PlacementSolution, layout: Layout, model: ConfusionModel) -> float:
    """Exact identification accuracy of a placement, no sampling.

    Same decision rule as `run_simulation` (nearest element, first wins
    ties) with targets uniform over elements; the Monte-Carlo accuracy
    converges to this value.
    """

    bins = _bins_in_layout_order(solution, layout)
    decided = decision_by_bin(layout, model.bin_size_deg)
    per_element = [
        float(model.matrix[bins[i], decided == i].sum()) for i in range(len(layout.elements))
    ]
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
    (columns) from each target azimuth (rows)."""

    centers = bin_centers(bin_size_deg)
    circular = angular_distance(target_az[:, None], centers[None, :])
    adjusted = np.minimum(
        circular, angular_distance(target_az[:, None], mirror_front_back(centers)[None, :])
    )
    return circular, adjusted


def _error_samples(model: ConfusionModel, trials_per_bin: int, seed: int):
    n = model.bin_count
    true_bins = np.repeat(np.arange(n), trials_per_bin)
    rng = np.random.default_rng(seed)
    perceived = sample_bins(model, true_bins, rng.random(true_bins.size))
    centers = bin_centers(model.bin_size_deg)
    circ_by_bin, adj_by_bin = _errors_by_bin(centers, model.bin_size_deg)
    circular = circ_by_bin[true_bins, perceived]
    adjusted = adj_by_bin[true_bins, perceived]
    return true_bins, perceived, circular, adjusted


def _regions_by_bin(bin_size_deg: int, bounds: Mapping[str, tuple[float, float]]) -> np.ndarray:
    return np.array([region_of(c, bounds) for c in bin_centers(bin_size_deg)])


def table1_statistics(
    model: ConfusionModel,
    trials_per_bin: int = 200,
    seed: int = 0,
    region_bounds: Mapping[str, tuple[float, float]] | None = None,
) -> dict[str, LocalizationStats]:
    """Simulated per-region localization errors, keyed by region plus "all".

    Every true bin gets `trials_per_bin` trials; the cue plays from the bin
    center and the percept is the sampled bin's center. Circular error is
    the angular distance to the true azimuth, adjusted error additionally
    allows the front-back mirror of the percept, cone effect is their
    per-trial difference.
    """

    if trials_per_bin < 1:
        raise ValueError(f"trials_per_bin must be >= 1, got {trials_per_bin}")
    bounds = DEFAULT_REGION_BOUNDS if region_bounds is None else region_bounds
    true_bins, _, circular, adjusted = _error_samples(model, trials_per_bin, seed)
    regions = _regions_by_bin(model.bin_size_deg, bounds)[true_bins]
    cone = circular - adjusted

    out: dict[str, LocalizationStats] = {}
    for name in (*bounds, "all"):
        m = regions == name if name != "all" else np.ones_like(circular, dtype=bool)
        out[name] = LocalizationStats(
            circular_mean=float(circular[m].mean()),
            circular_sd=float(circular[m].std(ddof=1)),
            adjusted_mean=float(adjusted[m].mean()),
            adjusted_sd=float(adjusted[m].std(ddof=1)),
            cone_effect_mean=float(cone[m].mean()),
            cone_effect_sd=float(cone[m].std(ddof=1)),
            trials=int(m.sum()),
        )
    return out


def expected_localization_errors(
    model: ConfusionModel,
    region_bounds: Mapping[str, tuple[float, float]] | None = None,
) -> dict[str, dict[str, float]]:
    """Exact expectations of the `table1_statistics` means, no sampling.

    Bins weigh equally within a region, matching the per-bin trial budget of
    the simulated version. Used to calibrate synthetic model parameters.
    """

    bounds = DEFAULT_REGION_BOUNDS if region_bounds is None else region_bounds
    centers = bin_centers(model.bin_size_deg)
    circ_by_bin, adj_by_bin = _errors_by_bin(centers, model.bin_size_deg)  # [true, perceived]
    e_circ = (model.matrix * circ_by_bin).sum(axis=1)
    e_adj = (model.matrix * adj_by_bin).sum(axis=1)
    regions = _regions_by_bin(model.bin_size_deg, bounds)

    out: dict[str, dict[str, float]] = {}
    for name in (*bounds, "all"):
        m = regions == name if name != "all" else np.ones_like(e_circ, dtype=bool)
        circ, adj = float(e_circ[m].mean()), float(e_adj[m].mean())
        out[name] = {"circular": circ, "adjusted": adj, "cone_effect": circ - adj}
    return out


def dump_trials(
    model: ConfusionModel, path: str | Path, trials_per_bin: int = 200, seed: int = 0
) -> int:
    """Write raw simulated trials as `true_azimuth_deg,predicted_azimuth_deg` CSV.

    Returns the number of trials written. `model_from_trials` on the output
    reconstructs an estimate of the model.
    """

    true_bins, perceived, _, _ = _error_samples(model, trials_per_bin, seed)
    centers = bin_centers(model.bin_size_deg)
    true_az, perceived_az = centers[true_bins], centers[perceived]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true_azimuth_deg", "predicted_azimuth_deg"])
        writer.writerows(
            zip((repr(float(t)) for t in true_az), (repr(float(p)) for p in perceived_az))
        )
    return true_az.size
