"""Assignment of elements to sound bins: maximize total score subject to
pairwise-distinct bins and preserved circular ordering.

Feasible assignments are exactly those that become strictly increasing in
bin index after cutting the bin circle at some rotation, with elements read
in ascending visual-azimuth order. `solve` therefore runs an exact dynamic
program over all bin_count cut rotations at once. Under a cut, element j of
n can only sit at one of W = bin_count - n + 1 rotated positions, so each
cut costs O(n * W) and the table is bin_count x W.

Internally scores are quantized onto a relative 2**-40 integer grid so path
sums compare in exact arithmetic; float addition is not associative, and
near-ties would otherwise depend on the order of the work. Tie-break on
that grid: highest total, then lowest cut rotation, then the
lexicographically smallest original-bin sequence in circular element order.
The reported objective is the exact float sum of the chosen per-element
scores. The brute-force reference in tests/oracles.py enumerates every
increasing assignment on the same grid and must agree exactly, tie-break
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import angular_distance, bin_center, bin_centers, bin_of
from .scoring import ScoreMatrix

# Relative quantization grid for exact integer comparisons. One part in
# 2**40 of the largest |score| is far below any meaningful score difference.
QUANT_BITS = 40
# Marks forbidden (element, bin) cells. A path through one masked cell stays
# below INFEASIBLE_THRESHOLD even after adding every feasible score, and with
# n <= bin_count <= 360 a path of masked cells sums to more than -2**62, so
# int64 cannot overflow.
MASKED = -(1 << 53)
INFEASIBLE_THRESHOLD = -(1 << 52)
# Bits of a lex-min key that hold the tie-break: 511 - original bin, which
# fits since bin_count <= 360 < 2**9.
TIE_BITS = 9
TIE_MASK = (1 << TIE_BITS) - 1


class InfeasibleLayoutError(ValueError):
    """No feasible assignment exists for the given instance."""


@dataclass(frozen=True)
class Assignment:
    id: str
    sound_bin: int
    sound_azimuth_deg: float
    visual_azimuth_deg: float
    elevation_deg: float


@dataclass(frozen=True)
class PlacementSolution:
    """Optimized (or baseline) sound placement for a layout.

    `assignments` follow the layout's element order. `cut_rotation` is the
    bin-circle cut under which the assigned bins are strictly increasing in
    circular element order.
    """

    assignments: tuple[Assignment, ...]
    objective: float
    per_element_score: tuple[float, ...]
    solver: str
    cut_rotation: int
    warning: str | None = None

    def bins_by_element(self) -> dict[str, int]:
        return {a.id: a.sound_bin for a in self.assignments}


def _ordered_quantized(scores: ScoreMatrix, max_displacement_deg: float | None):
    """Integer scores in circular element order, far bins masked if asked."""

    order = scores.layout.circular_order()
    s = scores.values[order].astype(float)
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    limit = float(np.abs(s).max(initial=1.0))
    q = np.rint(s * ((1 << QUANT_BITS) / limit)).astype(np.int64)
    if max_displacement_deg is not None:
        if math.isnan(max_displacement_deg) or max_displacement_deg < 0:
            raise ValueError(
                f"max_displacement_deg must be a non-negative number, got {max_displacement_deg!r}"
            )
        centers = bin_centers(scores.model.bin_size_deg)
        vis = scores.layout.visual_azimuths[order]
        far = angular_distance(centers[None, :], vis[:, None]) > max_displacement_deg
        q = np.where(far, np.int64(MASKED), q)
    return order, q


def _check_instance(scores: ScoreMatrix) -> None:
    n, bins = scores.values.shape
    if n < 1:
        raise InfeasibleLayoutError("empty layout")
    if n > bins:
        raise InfeasibleLayoutError(
            f"{n} elements cannot occupy {bins} distinct bins; use a smaller bin size"
        )


def _raise_infeasible() -> None:
    raise InfeasibleLayoutError(
        "no assignment satisfies the displacement limit; relax max_displacement_deg"
    )


def _finish(
    scores: ScoreMatrix,
    order: list[int],
    bins_in_order: np.ndarray | list[int],
    solver: str,
    cut: int,
    warning: str | None = None,
) -> PlacementSolution:
    layout = scores.layout
    n = len(order)
    bins = np.empty(n, dtype=int)
    bins[order] = bins_in_order
    centers = bin_center(bins, scores.model.bin_size_deg).tolist()
    per_score = scores.values[np.arange(n), bins].astype(float).tolist()
    assignments = tuple(
        Assignment(
            id=e.id,
            sound_bin=b,
            sound_azimuth_deg=c,
            visual_azimuth_deg=e.visual_azimuth_deg,
            elevation_deg=e.elevation_deg,
        )
        for e, b, c in zip(layout.elements, bins.tolist(), centers)
    )
    return PlacementSolution(
        assignments=assignments,
        objective=math.fsum(per_score),
        per_element_score=tuple(per_score),
        solver=solver,
        cut_rotation=int(cut),
        warning=warning,
    )


def solve(scores: ScoreMatrix, max_displacement_deg: float | None = None) -> PlacementSolution:
    """Exact maximum-score order-preserving assignment.

    Dynamic program over (element, rotated position) per cut rotation,
    O(n * W) each with W = bin_count - n + 1; the best cut wins.
    `max_displacement_deg`, when given, forbids moving a sound farther than
    that from its element's visual azimuth.
    """

    _check_instance(scores)
    order, q = _ordered_quantized(scores, max_displacement_deg)
    n, bins = q.shape
    width = bins - n + 1

    # f[r, k]: best path value with element j at rotated position j + k under
    # cut r; the other positions leave too few bins before or after j. Element
    # j at j + k follows element j - 1 at any j - 1 + k' with k' <= k.
    pos = np.arange(bins)
    orig_by_cut = (pos[:, None] + pos[None, :]) % bins
    f = q[0].take(orig_by_cut[:, :width])
    for j in range(1, n):
        f = q[j].take(orig_by_cut[:, j : j + width]) + np.maximum.accumulate(f, axis=1)
    per_cut_best = f.max(axis=1)
    cut = int(np.argmax(per_cut_best))  # first max: lowest cut wins ties
    if per_cut_best[cut] <= INFEASIBLE_THRESHOLD:
        _raise_infeasible()
    return _finish(scores, order, _extract_lex_min(q, cut), "dp_exact", cut)


def _extract_lex_min(q: np.ndarray, cut: int) -> list[int]:
    """Optimal assignment under a feasible `cut` with lexicographically
    smallest original bins.

    One backward pass over the same band as `solve` computes, per (element,
    band column), the key g * 2**9 + (511 - original bin), where g is the
    exact best completion from that cell. A suffix maximum of the keys then
    holds both the best completion and, among ties, the smallest original
    bin, so the forward walk only follows keys. Infeasible keys are clamped
    to MASKED * 2**9: feasible |g| <= n * 2**40 < 2**49, so the clamp never
    changes a feasible comparison, and no sum overflows int64.
    """

    n, bins = q.shape
    width = bins - n + 1
    orig = (np.arange(bins) + cut) % bins
    # columns reversed (band column k at width - 1 - k) so suffix maxima are
    # prefix maxima
    cols = orig[np.arange(n)[:, None] + np.arange(width - 1, -1, -1)[None, :]]
    keys = (q[np.arange(n)[:, None], cols] << TIE_BITS) + (TIE_MASK - cols)
    floor = np.int64(MASKED << TIE_BITS)
    best = np.empty_like(keys)
    np.maximum.accumulate(keys[n - 1], out=best[n - 1])
    for i in range(n - 2, -1, -1):
        # element i at band column k continues with element i + 1 at k' >= k
        row = keys[i] + (best[i + 1] & ~TIE_MASK)
        np.maximum(row, floor, out=row)
        np.maximum.accumulate(row, out=best[i])
    chosen = []
    k = 0
    for i, row in enumerate(best.tolist()):
        b = TIE_MASK - (row[width - 1 - k] & TIE_MASK)
        chosen.append(b)
        k = (b - cut) % bins - i
    return chosen


def colocated_solution(scores: ScoreMatrix) -> PlacementSolution:
    """Baseline: every sound plays from its element's own visual bin."""

    _check_instance(scores)
    layout = scores.layout
    order = layout.circular_order()
    bins_in_order = bin_of(layout.visual_azimuths[order], scores.model.bin_size_deg)
    warning = None
    if len(set(bins_in_order.tolist())) != len(bins_in_order):
        warning = "degenerate baseline: multiple elements share a visual bin"
    return _finish(scores, order, bins_in_order, "colocated", 0, warning=warning)
