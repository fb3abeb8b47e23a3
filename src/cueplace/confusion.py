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
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .angles import _check_bin_size, bin_centers, bin_count_for, bin_of

# Half-open [lo, hi) arcs around the listener, ascending from front's lower
# edge. They tile the circle, so every azimuth lies in exactly one.
DEFAULT_REGION_BOUNDS: dict[str, tuple[float, float]] = {
    "front": (-36.0, 36.0),
    "right": (36.0, 144.0),
    "back": (144.0, 216.0),
    "left": (216.0, 324.0),
}
REGIONS = tuple(DEFAULT_REGION_BOUNDS)

# Largest accepted blur SD. From 720 degrees up every synthesized row is
# uniform up to rounding (within 1.2e-11 of 1/B), while the wraps synthesis
# sums grow with the SD: 1e6 degrees took 10 s and 2.5 GB at 1-degree bins.
MAX_BLUR_SD_DEG = 3600.0

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


def _regions_by_bin(bin_size_deg: int) -> np.ndarray:
    """Name of the region whose arc holds each bin center."""

    centers = bin_centers(bin_size_deg)
    which = np.empty(centers.size, dtype=int)
    for k, (lo, hi) in enumerate(DEFAULT_REGION_BOUNDS.values()):
        which[np.mod(centers - lo, 360.0) < (hi - lo) % 360.0] = k
    return np.array(REGIONS)[which]


@dataclass(frozen=True)
class SyntheticModelParams:
    """Parameters of the synthetic listener.

    Per region: `blur_sd_deg` is the wrapped-Gaussian localization blur and
    `flip_prob` the probability that the percept forms around the front-back
    mirror of the true angle instead of the true angle itself. Both map
    exactly the `REGIONS` to numbers. The construction is closed-form, so no
    seed is involved.
    """

    blur_sd_deg: Mapping[str, float]
    flip_prob: Mapping[str, float]
    bin_size_deg: int = 12

    def __post_init__(self):
        for key, ok, bounds in (
            ("blur_sd_deg", lambda sd: 0.0 < sd <= MAX_BLUR_SD_DEG, f"in (0, {MAX_BLUR_SD_DEG:g}]"),
            ("flip_prob", lambda p: 0.0 <= p <= 1.0, "in [0, 1]"),
        ):
            values = getattr(self, key)
            if not isinstance(values, Mapping) or set(values) != set(REGIONS):
                raise ModelFormatError(f"{key} must map exactly {list(REGIONS)}, got {values!r}")
            for name in REGIONS:
                v = values[name]
                if isinstance(v, bool) or not isinstance(v, numbers.Real) or not ok(v):
                    raise ModelFormatError(f"{key}[{name!r}] must be a number {bounds}, got {v!r}")
        size = self.bin_size_deg
        if isinstance(size, bool) or not isinstance(size, numbers.Integral):
            raise ModelFormatError(f"bin_size_deg must be an integer, got {size!r}")
        object.__setattr__(self, "bin_size_deg", int(size))  # a NumPy integer does not dump to JSON

    @classmethod
    def from_dict(cls, d: Mapping) -> "SyntheticModelParams":
        if not isinstance(d, Mapping):
            raise ModelFormatError(f"synthetic parameters must be an object, got {d!r}")
        # Earlier versions wrote an unused "seed" and the region arcs, which
        # are now fixed: such files still load if their arcs are the fixed ones.
        arcs = d.get("region_bounds_deg", DEFAULT_REGION_BOUNDS)
        if not isinstance(arcs, Mapping) or DEFAULT_REGION_BOUNDS != {
            k: tuple(v) if isinstance(v, list) else v for k, v in arcs.items()
        }:
            raise ModelFormatError(f"region_bounds_deg must be {DEFAULT_REGION_BOUNDS}, got {arcs!r}")
        kwargs = {k: v for k, v in d.items() if k not in ("seed", "region_bounds_deg")}
        required = {"blur_sd_deg", "flip_prob"}
        if not required <= set(kwargs) <= required | {"bin_size_deg"}:
            raise ModelFormatError(
                f"need blur_sd_deg and flip_prob, optionally bin_size_deg; got {sorted(kwargs)}"
            )
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "blur_sd_deg": {k: float(v) for k, v in self.blur_sd_deg.items()},
            "flip_prob": {k: float(v) for k, v in self.flip_prob.items()},
            "bin_size_deg": self.bin_size_deg,
        }


@dataclass(frozen=True, eq=False)
class ConfusionModel:
    """Azimuth confusion matrix. Immutable once constructed.

    Construction keeps the checked bin size as an int (a bool is refused) and
    a read-only float copy of `matrix`, and checks that the matrix is
    bin_count x bin_count, finite and within [0, 1], so every row CDF is
    non-decreasing. Rows summing to 1 is checked by `validate`, whose
    tolerance depends on where the matrix came from.
    """

    bin_size_deg: int
    matrix: np.ndarray
    provenance: str = "synthetic"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bin_size_deg", _check_bin_size(self.bin_size_deg))
        n = 360 // self.bin_size_deg
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
        """Check that every row sums to 1 within `row_sum_tol`, a finite
        non-negative number."""

        tol = row_sum_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValueError(f"row_sum_tol must be a finite non-negative number, got {tol!r}")
        sums = self.matrix.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
        if bad.size:
            r = int(bad[0])
            raise ModelFormatError(
                f"row {r} sums to {sums[r]!r}, expected 1 within {tol:g}", row=r
            )


def identity_model(bin_size_deg: int = 12) -> ConfusionModel:
    """Perfect listener: every cue is perceived in its own bin."""

    n = bin_count_for(bin_size_deg)
    return ConfusionModel(bin_size_deg, np.eye(n), provenance="synthetic")


def load_model(path: str | Path) -> ConfusionModel:
    """Load a confusion matrix from its CSV format.

    First line `bin_size_deg,<int>`, then bin_count rows of bin_count
    probabilities (row i = true bin i). Rows must sum to 1 within 1e-6.
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

    try:
        model = ConfusionModel(bin_size, matrix, provenance="empirical_file")
        model.validate(row_sum_tol=1e-6)
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


# Cephes' normal CDF: ndtr, erf and erfc with their coefficient tables
# (S. L. Moshier, Cephes Math Library; Methods and Programs for
# Mathematical Functions, 1989), as compiled into SciPy's BSD-licensed
# `scipy.special.ndtr`. U, Q and S have an implied leading 1.
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)


def _polevl(x: np.ndarray, coef: tuple[float, ...], monic: bool = False) -> np.ndarray:
    """Horner's rule as Cephes' polevl (p1evl when `monic`): each step a
    multiply, then an add, never fused."""

    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' erf for |x| <= 1. It is odd, and negating its operands
    negates every rounding, so one expression serves both signs."""

    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, equal bit for bit to `scipy.special.ndtr`.

    Follows Cephes' ndtr branch for branch (see the tables above): with
    x = a/sqrt(2), 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), else 0.5 erfc(|x|),
    reflected as 1 - y for x > 0. erfc(z) is 1 - erf(z) below 1, then
    exp(-z^2) P(z)/Q(z) below 8 and exp(-z^2) R(z)/S(z) from 8 up, and 0
    once -z^2 < -MAXLOG. The exponential is the C library's (`math.exp`,
    which is what SciPy calls), because NumPy's vectorized exp may round
    differently. `a` must not hold NaN.
    """

    x = a * _SQRT1_2
    z = np.abs(x)
    erfc = np.zeros_like(z)
    below = z < 1.0
    erfc[below] = 1.0 - _erf(z[below])
    # z * z may overflow to inf, which compares below -MAXLOG as Cephes' C does
    with np.errstate(over="ignore"):
        tail = np.flatnonzero(~below & (-z * z >= -_MAXLOG))
    zt = z[tail]
    neg_sq = -zt * zt
    p = np.where(zt < 8.0, _polevl(zt, _ERFC_P), _polevl(zt, _ERFC_R))
    q = np.where(zt < 8.0, _polevl(zt, _ERFC_Q, monic=True), _polevl(zt, _ERFC_S, monic=True))
    e = np.fromiter(map(math.exp, neg_sq.tolist()), float, count=zt.size)
    erfc[tail] = e * p / q

    y = 0.5 * erfc
    np.subtract(1.0, y, out=y, where=x > 0)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    return y


def _wrapped_normal_bin_mass(bin_size_deg: int, sd_deg: float) -> np.ndarray:
    """Mass of a wrapped normal with SD `sd_deg` in each bin, by the bin's
    lower edge minus the mean in half bins, offset by 2n - 1 (n bins).

    Bin edges and the means `synthesize_model` uses (bin centers and their
    front-back mirrors) are all whole multiples of half a bin, and so is
    every numerator edge - mean + 360 k. The CDF is evaluated once per
    half-bin numerator; a bin's mass in one wrap is the CDF at its upper
    edge minus the CDF at its lower edge, and its total is the sum of those
    differences over the wraps k = -w, ..., w in that order.
    """

    turn = 2 * bin_count_for(bin_size_deg)  # half bins in 360 degrees
    wraps = int(np.ceil(6.0 * sd_deg / 360.0)) + 1
    # The CDF at every edge - mean + 360 k, lowest first: lower edge - mean
    # runs from 1 - 2n to 2n - 2 half bins, and the upper edge is two higher.
    half_bins = np.arange(1 - turn * (wraps + 1), turn * (wraps + 1) + 1)
    # A subnormal SD sends far edges to +-inf, where the CDF is exactly 0 or 1.
    with np.errstate(over="ignore"):
        cdf = _ndtr(half_bins * (bin_size_deg / 2) / sd_deg)
    per_wrap = cdf[2:] - cdf[:-2]
    width = 2 * turn - 2
    mass = per_wrap[:width].copy()
    for k in range(1, 2 * wraps + 1):
        mass += per_wrap[k * turn : k * turn + width]
    return mass


def synthesize_model(params: SyntheticModelParams) -> ConfusionModel:
    """Build a confusion model from per-region blur and flip parameters.

    For a true bin centered at theta in region R, the percept is a
    wrapped-Gaussian around theta with SD blur_sd_deg[R], except with
    probability flip_prob[R] it forms around mirror_front_back(theta).
    The mixture is integrated over each perceived bin and the row
    normalized, so the construction is exact and deterministic. The rows
    of a region are built together from one table of bin masses.
    """

    n = bin_count_for(params.bin_size_deg)
    # In half bins: the bin centers, their mirrors 180 - center (mod 360),
    # and the lower bin edges plus the 2n - 1 that offsets the mass table.
    centers = 2 * np.arange(n) + 1
    mirrors = (n - centers) % (2 * n)
    lower_edges = 2 * np.arange(n) + 2 * n - 1
    by_bin = _regions_by_bin(params.bin_size_deg)
    matrix = np.empty((n, n))
    for region in REGIONS:
        rows = np.flatnonzero(by_bin == region)  # at 90- or 120-degree bins, maybe none
        sd = float(params.blur_sd_deg[region])
        flip = float(params.flip_prob[region])
        mass = _wrapped_normal_bin_mass(params.bin_size_deg, sd)
        block = (1.0 - flip) * mass[lower_edges - centers[rows, None]]
        block += flip * mass[lower_edges - mirrors[rows, None]]
        matrix[rows] = block / block.sum(axis=1, keepdims=True)
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
