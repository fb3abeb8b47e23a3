"""Listener confusion model: P(perceived azimuth bin | true azimuth bin).

The model is a row-stochastic matrix over equal azimuth bins. Rows index the
bin the sound was actually played in, columns the bin the listener reports.
Models come from a measured matrix file, from raw localization trials, or
from a synthetic construction (per-region wrapped-Gaussian blur plus a
front-back flip component).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.special import ndtr

from .angles import bin_center, bin_centers, bin_count_for, bin_of, mirror_front_back, normalize

REGIONS = ("front", "right", "back", "left")

# Half-open [lo, hi) arcs around the listener, ascending from front's lower edge.
DEFAULT_REGION_BOUNDS: dict[str, tuple[float, float]] = {
    "front": (-36.0, 36.0),
    "right": (36.0, 144.0),
    "back": (144.0, 216.0),
    "left": (216.0, 324.0),
}

# Measured localization-error summary (degrees) used to calibrate the
# synthetic listener: per-region mean circular error, mean adjusted error
# (front-back flips compensated), and their difference (cone effect).
LOCALIZATION_ERROR_TARGETS: dict[str, dict[str, float]] = {
    "front": {"circular": 57.83, "adjusted": 27.03, "cone_effect": 30.79},
    "right": {"circular": 32.60, "adjusted": 19.37, "cone_effect": 13.23},
    "back": {"circular": 62.88, "adjusted": 28.40, "cone_effect": 34.48},
    "left": {"circular": 28.37, "adjusted": 16.97, "cone_effect": 11.40},
}


class ModelFormatError(ValueError):
    """Raised when a model file or parameter set fails validation.

    `row` and `column` locate the offending cell when applicable.
    """

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


def region_of(azimuth_deg: float, bounds: Mapping[str, tuple[float, float]] | None = None) -> str:
    """Name of the region whose arc contains the azimuth."""

    bounds = DEFAULT_REGION_BOUNDS if bounds is None else bounds
    a = normalize(azimuth_deg)
    for name, (lo, hi) in bounds.items():
        span = (hi - lo) % 360.0
        if (a - lo) % 360.0 < span:
            return name
    raise ValueError(f"region bounds do not cover azimuth {azimuth_deg}")


def _check_region_bounds(bounds: Mapping[str, tuple[float, float]]) -> None:
    if set(bounds) != set(REGIONS):
        raise ModelFormatError(f"region bounds must name exactly {REGIONS}, got {sorted(bounds)}")
    spans = {name: (hi - lo) % 360.0 for name, (lo, hi) in bounds.items()}
    if any(s == 0.0 for s in spans.values()) or abs(sum(spans.values()) - 360.0) > 1e-9:
        raise ModelFormatError("region arcs must have positive length and tile the circle")
    # arcs must chain end-to-start with no gaps or overlaps
    arcs = sorted(((normalize(lo), name) for name, (lo, _) in bounds.items()))
    for (lo, name), (next_lo, _) in zip(arcs, arcs[1:] + arcs[:1]):
        hi = normalize(bounds[name][1])
        if abs((hi - next_lo) % 360.0) > 1e-9:
            raise ModelFormatError("region arcs must partition the circle without gaps or overlaps")


@dataclass(frozen=True)
class SyntheticModelParams:
    """Parameters of the synthetic listener.

    Per region: `blur_sd_deg` is the wrapped-Gaussian localization blur and
    `flip_prob` the probability that the percept forms around the front-back
    mirror of the true angle instead of the true angle itself. The
    construction is closed-form, so no seed is involved.
    """

    blur_sd_deg: Mapping[str, float]
    flip_prob: Mapping[str, float]
    region_bounds_deg: Mapping[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_REGION_BOUNDS)
    )
    bin_size_deg: int = 12

    def __post_init__(self):
        _check_region_bounds(self.region_bounds_deg)
        for name in REGIONS:
            sd = self.blur_sd_deg.get(name)
            if sd is None or not np.isfinite(sd) or sd <= 0:
                raise ModelFormatError(f"blur_sd_deg[{name!r}] must be finite and > 0, got {sd!r}")
            p = self.flip_prob.get(name)
            if p is None or not 0.0 <= p <= 1.0:
                raise ModelFormatError(f"flip_prob[{name!r}] must be in [0, 1], got {p!r}")

    @classmethod
    def from_dict(cls, d: Mapping) -> "SyntheticModelParams":
        known = {"blur_sd_deg", "flip_prob", "region_bounds_deg", "bin_size_deg"}
        # earlier versions wrote an unused "seed"; such files still load
        kwargs = {k: v for k, v in d.items() if k != "seed"}
        unknown = set(kwargs) - known
        if unknown:
            raise ModelFormatError(f"unknown synthetic-parameter fields: {sorted(unknown)}")
        if "region_bounds_deg" in kwargs:
            kwargs["region_bounds_deg"] = {
                k: (float(lo), float(hi)) for k, (lo, hi) in kwargs["region_bounds_deg"].items()
            }
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "blur_sd_deg": {k: float(v) for k, v in self.blur_sd_deg.items()},
            "flip_prob": {k: float(v) for k, v in self.flip_prob.items()},
            "region_bounds_deg": {k: list(v) for k, v in self.region_bounds_deg.items()},
            "bin_size_deg": self.bin_size_deg,
        }


@dataclass(frozen=True, eq=False)
class ConfusionModel:
    """Azimuth confusion matrix. Immutable once constructed.

    Construction keeps a read-only float copy of `matrix` and checks that it
    is bin_count x bin_count for the bin size, finite and within [0, 1], so
    every row CDF is non-decreasing. Rows summing to 1 is checked by
    `validate`, whose tolerance depends on where the matrix came from.
    """

    bin_size_deg: int
    matrix: np.ndarray
    provenance: str = "synthetic"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        n = bin_count_for(self.bin_size_deg)
        if m.shape != (n, n):
            raise ModelFormatError(
                f"matrix must be {n}x{n} for bin size {self.bin_size_deg}, got {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ModelFormatError("matrix entries must be finite")
        if np.any(m < 0.0) or np.any(m > 1.0):
            r, c = np.argwhere((m < 0.0) | (m > 1.0))[0]
            raise ModelFormatError(
                f"probability out of [0, 1] at row {r}, column {c}: {m[r, c]!r}",
                row=int(r),
                column=int(c),
            )

    @property
    def bin_count(self) -> int:
        return self.matrix.shape[0]

    def validate(self, row_sum_tol: float = 1e-9) -> None:
        """Check that every row sums to 1 within `row_sum_tol`."""

        sums = self.matrix.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > row_sum_tol)
        if bad.size:
            r = int(bad[0])
            raise ModelFormatError(
                f"row {r} sums to {sums[r]!r}, expected 1 within {row_sum_tol:g}", row=r
            )


def identity_model(bin_size_deg: int = 12) -> ConfusionModel:
    """Perfect listener: every cue is perceived in its own bin."""

    n = bin_count_for(bin_size_deg)
    return ConfusionModel(bin_size_deg, np.eye(n), provenance="synthetic")


def load_model(path: str | Path, renormalize: bool = False) -> ConfusionModel:
    """Load a confusion matrix from its CSV format.

    First line `bin_size_deg,<int>`, then bin_count rows of bin_count
    probabilities (row i = true bin i). Rows must sum to 1 within 1e-6
    unless `renormalize` is set, in which case each row is rescaled.
    """

    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ModelFormatError(f"{path}: empty model file")
    header = [p.strip() for p in lines[0].split(",")]
    if len(header) != 2 or header[0] != "bin_size_deg":
        raise ModelFormatError(f"{path}: first line must be 'bin_size_deg,<int>', got {lines[0]!r}")
    try:
        bin_size = int(header[1])
        n = bin_count_for(bin_size)
    except ValueError as e:
        raise ModelFormatError(f"{path}: bad bin size {header[1]!r}: {e}") from e

    data_lines = [ln for ln in lines[1:] if ln.strip()]
    if len(data_lines) != n:
        raise ModelFormatError(f"{path}: expected {n} matrix rows, got {len(data_lines)}")
    matrix = np.empty((n, n))
    for i, ln in enumerate(data_lines):
        cells = ln.split(",")
        if len(cells) != n:
            raise ModelFormatError(
                f"{path}: row {i}: expected {n} columns, got {len(cells)}", row=i
            )
        for j, cell in enumerate(cells):
            try:
                matrix[i, j] = float(cell)
            except ValueError:
                raise ModelFormatError(
                    f"{path}: row {i}, column {j}: not a number: {cell.strip()!r}",
                    row=i,
                    column=j,
                ) from None

    if renormalize:
        sums = matrix.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            r = int(np.flatnonzero(sums.ravel() <= 0)[0])
            raise ModelFormatError(f"{path}: row {r} has non-positive mass, cannot renormalize", row=r)
        matrix = matrix / sums
    try:
        model = ConfusionModel(bin_size, matrix, provenance="empirical_file")
        model.validate(row_sum_tol=1e-9 if renormalize else 1e-6)
    except ModelFormatError as e:
        raise ModelFormatError(f"{path}: {e}", row=e.row, column=e.column) from None
    return model


def save_model(model: ConfusionModel, path: str | Path) -> None:
    """Write a model in the CSV format accepted by `load_model`."""

    lines = [f"bin_size_deg,{model.bin_size_deg}"]
    lines.extend(",".join(repr(float(v)) for v in row) for row in model.matrix)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def model_from_trials(path: str | Path, bin_size_deg: int = 12) -> ConfusionModel:
    """Aggregate raw localization trials into a confusion model.

    Expects CSV with header `true_azimuth_deg,predicted_azimuth_deg` and one
    trial per line. Every true bin must receive at least one trial.
    """

    path = Path(path)
    n = bin_count_for(bin_size_deg)
    true_deg: list[float] = []
    perceived_deg: list[float] = []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != [
            "true_azimuth_deg",
            "predicted_azimuth_deg",
        ]:
            raise ModelFormatError(
                f"{path}: expected header 'true_azimuth_deg,predicted_azimuth_deg', got {header!r}"
            )
        for i, row in enumerate(reader):
            if not row or not "".join(row).strip():
                continue
            try:
                t, p = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                raise ModelFormatError(f"{path}: trial row {i}: malformed: {row!r}", row=i) from None
            if not (math.isfinite(t) and math.isfinite(p)):
                raise ModelFormatError(f"{path}: trial row {i}: azimuth not finite: {row!r}", row=i)
            true_deg.append(t)
            perceived_deg.append(p)
    true_bins = bin_of(np.array(true_deg), bin_size_deg)
    perceived_bins = bin_of(np.array(perceived_deg), bin_size_deg)
    counts = np.bincount(true_bins * n + perceived_bins, minlength=n * n).reshape(n, n)
    empty = np.flatnonzero(counts.sum(axis=1) == 0)
    if empty.size:
        raise ModelFormatError(f"{path}: no trials for true bin {int(empty[0])}", row=int(empty[0]))
    matrix = counts / counts.sum(axis=1, keepdims=True)
    model = ConfusionModel(bin_size_deg, matrix, provenance="empirical_file")
    model.validate(row_sum_tol=1e-9)
    return model


def _wrapped_normal_bin_mass(mean_deg: float, sd_deg: float, edges: np.ndarray) -> np.ndarray:
    """Probability mass of a wrapped normal in each [edges[k], edges[k+1]) bin."""

    wraps = int(np.ceil(6.0 * sd_deg / 360.0)) + 1
    ks = np.arange(-wraps, wraps + 1)
    z = (edges[None, :] - mean_deg + 360.0 * ks[:, None]) / sd_deg
    cdf = ndtr(z)
    return (cdf[:, 1:] - cdf[:, :-1]).sum(axis=0)


def synthesize_model(params: SyntheticModelParams) -> ConfusionModel:
    """Build a confusion model from per-region blur and flip parameters.

    For a true bin centered at theta in region R, the percept is a
    wrapped-Gaussian around theta with SD blur_sd_deg[R], except with
    probability flip_prob[R] it forms around mirror_front_back(theta).
    The mixture is integrated over each perceived bin and the row
    normalized, so the construction is exact and deterministic.
    """

    n = bin_count_for(params.bin_size_deg)
    edges = np.arange(n + 1, dtype=float) * params.bin_size_deg
    matrix = np.empty((n, n))
    for t in range(n):
        theta = bin_center(t, params.bin_size_deg)
        region = region_of(theta, params.region_bounds_deg)
        sd = float(params.blur_sd_deg[region])
        flip = float(params.flip_prob[region])
        row = (1.0 - flip) * _wrapped_normal_bin_mass(theta, sd, edges)
        if flip > 0.0:
            row += flip * _wrapped_normal_bin_mass(mirror_front_back(theta), sd, edges)
        matrix[t] = row / row.sum()
    model = ConfusionModel(params.bin_size_deg, matrix, provenance="synthetic")
    model.validate(row_sum_tol=1e-9)
    return model


def calibrated_params(bin_size_deg: int = 12) -> SyntheticModelParams:
    """Synthetic-listener parameters fitted to LOCALIZATION_ERROR_TARGETS.

    Values produced by scripts/calibrate_confusion.py, which matches the
    closed-form per-region circular and adjusted error means of the
    synthetic matrix to the measured targets.
    """

    return SyntheticModelParams(
        blur_sd_deg={
            "front": 34.8471,
            "right": 28.8106,
            "back": 36.8769,
            "left": 24.6541,
        },
        flip_prob={
            "front": 0.2783,
            "right": 0.2815,
            "back": 0.3175,
            "left": 0.24,
        },
        bin_size_deg=bin_size_deg,
    )


def sample_bins(model: ConfusionModel, true_bins: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one perceived bin per trial.

    The cue of trial k plays in `true_bins[k]` and is perceived in the bin
    numbered by how many of that row's CDF entries are at or below the
    uniform `u[k]`, capped at the last bin. Both arguments are 1-d. The model
    keeps its entries non-negative, so each CDF is non-decreasing and one
    binary search per distinct true bin finds that count, in O(trials) memory.
    """

    cdf = np.cumsum(model.matrix, axis=1)
    out = np.empty(u.size, dtype=np.intp)
    by_bin = np.argsort(true_bins)
    counts = np.bincount(true_bins, minlength=model.bin_count)
    ends = np.cumsum(counts)
    for b in np.flatnonzero(counts):
        trials = by_bin[ends[b] - counts[b] : ends[b]]
        out[trials] = np.searchsorted(cdf[b], u[trials], side="right")
    return np.minimum(out, model.bin_count - 1)


def sample_perceived(model: ConfusionModel, true_bin: int, rng: np.random.Generator, size=None):
    """Sample perceived bin(s) for a cue played in `true_bin`.

    Draws follow the model row exactly; the caller owns the random stream.
    """

    if not 0 <= true_bin < model.bin_count:
        raise ValueError(f"true_bin {true_bin} out of range [0, {model.bin_count})")
    u = rng.random(size)
    idx = sample_bins(model, np.full(np.size(u), true_bin), np.ravel(u))
    return int(idx[0]) if size is None else idx.reshape(np.shape(u))


def diagonal_argmax_fraction(model: ConfusionModel) -> float:
    """Fraction of perceived bins best evoked by a cue played in that same bin.

    For each perceived bin (column) v, find the true bin s maximizing
    P(v|s); count the columns whose best source is the diagonal. Ties go to
    the lowest source bin.
    """

    best_source = np.argmax(model.matrix, axis=0)
    return float(np.mean(best_source == np.arange(model.bin_count)))


def row_entropies(model: ConfusionModel) -> np.ndarray:
    """Shannon entropy (bits) of each row's perceived-bin distribution."""

    m = model.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(m > 0.0, m * np.log2(m), 0.0)
    return -terms.sum(axis=1)
