"""Assignment of elements to sound bins: maximize total score subject to
pairwise-distinct bins and preserved circular ordering.

Feasible assignments are exactly those that become strictly increasing in
bin index after cutting the bin circle at some rotation, with elements read
in ascending visual-azimuth order. `solve` therefore runs an exact dynamic
program over all bin_count cut rotations at once.

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
# below INFEASIBLE_THRESHOLD even after adding every feasible score, and
# summing masked cells along a whole path cannot overflow int64.
MASKED = -(1 << 55)
INFEASIBLE_THRESHOLD = -(1 << 54)


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
    bins_in_order: np.ndarray,
    solver: str,
    cut: int,
    warning: str | None = None,
) -> PlacementSolution:
    layout = scores.layout
    bin_by_element = {order[j]: int(bins_in_order[j]) for j in range(len(order))}
    assignments = []
    per_score = []
    for i, element in enumerate(layout.elements):
        b = bin_by_element[i]
        assignments.append(
            Assignment(
                id=element.id,
                sound_bin=b,
                sound_azimuth_deg=bin_center(b, scores.model.bin_size_deg),
                visual_azimuth_deg=element.visual_azimuth_deg,
                elevation_deg=element.elevation_deg,
            )
        )
        per_score.append(float(scores.values[i, b]))
    return PlacementSolution(
        assignments=tuple(assignments),
        objective=math.fsum(per_score),
        per_element_score=tuple(per_score),
        solver=solver,
        cut_rotation=int(cut),
        warning=warning,
    )


def solve(scores: ScoreMatrix, max_displacement_deg: float | None = None) -> PlacementSolution:
    """Exact maximum-score order-preserving assignment.

    Dynamic program over (element, bin) per cut rotation, O(n * bin_count)
    each; the best cut wins. `max_displacement_deg`, when given, forbids
    moving a sound farther than that from its element's visual azimuth.
    """

    _check_instance(scores)
    order, q = _ordered_quantized(scores, max_displacement_deg)
    n, bins = q.shape

    # q[i, orig_by_cut][r, p]: score of element i at rotated position p under
    # cut r, gathered one element at a time to keep memory at O(bins**2)
    pos = np.arange(bins)
    orig_by_cut = (pos[:, None] + pos[None, :]) % bins
    f = q[0, orig_by_cut]
    prev_best = np.empty_like(f)
    prev_best[:, 0] = MASKED
    for i in range(1, n):
        np.maximum.accumulate(f[:, :-1], axis=1, out=prev_best[:, 1:])
        f = q[i, orig_by_cut] + prev_best
    per_cut_best = f.max(axis=1)
    cut = int(np.argmax(per_cut_best))  # first max: lowest cut wins ties
    if per_cut_best[cut] <= INFEASIBLE_THRESHOLD:
        _raise_infeasible()
    bins_in_order = _extract_lex_min(q, cut)
    return _finish(scores, order, bins_in_order, "dp_exact", cut)


def _extract_lex_min(q: np.ndarray, cut: int) -> np.ndarray:
    """Optimal assignment under `cut` with lexicographically smallest bins.

    Backward pass computes the exact best completion from each (element,
    position); the forward greedy then picks, element by element, the
    smallest original bin that still attains the optimum. Exact because the
    scores are integers.
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
    chosen = np.empty(n, dtype=int)
    prev = -1
    for i in range(n):
        tail = g[i][prev + 1 :]
        best = tail.max()
        ties = np.flatnonzero(tail == best) + prev + 1
        prev = int(ties[np.argmin(orig[ties])])
        chosen[i] = orig[prev]
    return chosen


def colocated_solution(scores: ScoreMatrix) -> PlacementSolution:
    """Baseline: every sound plays from its element's own visual bin."""

    _check_instance(scores)
    layout = scores.layout
    order = layout.circular_order()
    size = scores.model.bin_size_deg
    bins_in_order = np.array(
        [bin_of(layout.elements[i].visual_azimuth_deg, size) for i in order], dtype=int
    )
    warning = None
    if len(set(bins_in_order.tolist())) != len(bins_in_order):
        warning = "degenerate baseline: multiple elements share a visual bin"
    return _finish(scores, order, bins_in_order, "colocated", 0, warning=warning)
