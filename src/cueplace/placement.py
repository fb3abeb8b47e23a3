"""Assignment of elements to sound bins: maximize total score subject to
pairwise-distinct bins and preserved circular ordering.

Feasible assignments are exactly those that become strictly increasing in
bin index after cutting the bin circle at some rotation, with elements read
in ascending visual-azimuth order. `solve` therefore runs an exact dynamic
program over all bin_count cut rotations at once. Under a cut, element j of
n can only sit at one of W = bin_count - n + 1 rotated positions, so each
cut costs O(n * W) and the table is bin_count x W.

Often that program is not needed. No assignment scores more than the sum of
each element's best score, so when every element's best bin is unmasked and
unique and those bins already keep the circular order (in circular element
order each steps at least one bin forward, and all together less than one
turn), they are the only optimum, and `solve` returns them with the lowest
cut that keeps them increasing: exactly what the program would return, at
the cost of a few O(n * bin_count) passes. Otherwise, as when two elements
want one bin, a row's best is tied or masked, or the bins cross, the program
runs as before. On the benchmark's drag sessions at 12-degree bins the own
best bins are the optimum in 42% of placements (95% at n = 2, 38% at n = 7,
3% at n = 12), and on all five of the paper layouts.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .angles import _bin_tables
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


@dataclass(frozen=True, slots=True)
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


def _ordered_quantized(scores: ScoreMatrix, max_displacement_deg: float | None):
    """Integer scores in circular element order, far bins masked if asked."""

    order = scores.layout.circular_order()
    s = scores.values[order].astype(float, copy=False)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    limit = float(np.abs(s).max()) or 1.0
    q = np.rint(np.multiply(s, (1 << QUANT_BITS) / limit, out=s), out=s).astype(np.int64)
    if max_displacement_deg is not None:
        cap = max_displacement_deg
        if isinstance(cap, bool) or not isinstance(cap, numbers.Real) or not cap >= 0:
            raise ValueError(f"max_displacement_deg must be a non-negative number, got {cap!r}")
        circular = scores.layout.geometry(scores.model.bin_size_deg).circular
        far = circular[order] > cap
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
    bins: np.ndarray,
    solver: str,
    cut: int,
    warning: str | None = None,
) -> PlacementSolution:
    """The solution that plays element i of the layout in bin `bins[i]`."""

    centers = _bin_tables(scores.model.bin_size_deg)[0][bins].tolist()
    per_score = scores.values[np.arange(bins.size), bins].astype(float).tolist()
    assignments = tuple(
        Assignment(e.id, b, c, e.visual_azimuth_deg, e.elevation_deg)
        for e, b, c in zip(scores.layout.elements, bins.tolist(), centers)
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

    Each element's own best bin when those bins are the unique optimum
    (`_own_best`); otherwise a dynamic program over (element, rotated
    position) per cut rotation, O(n * W) each with W = bin_count - n + 1,
    in which the best cut wins.
    `max_displacement_deg`, when given, forbids moving a sound farther than
    that from its element's visual azimuth.
    """

    _check_instance(scores)
    order, q = _ordered_quantized(scores, max_displacement_deg)
    n, bins = q.shape
    placed = np.empty(n, dtype=int)
    own = _own_best(q)
    if own is not None:
        placed[order], cut = own
        return _finish(scores, placed, "dp_exact", cut)
    width = bins - n + 1

    # cuts[j, r, k] = q[j, (r + k) mod bins]: under cut r, rotated position k
    # is a window of row j written twice, read as one strided view (never
    # written: its windows overlap).
    doubled = np.concatenate([q, q[:, :-1]], axis=1)
    s0, s1 = doubled.strides
    cuts = np.ndarray((n, bins, bins), np.int64, doubled, 0, (s0, s1, s1))
    # f[r, k]: best path value with element j at rotated position j + k under
    # cut r; the other positions leave too few bins before or after j. Element
    # j at j + k follows element j - 1 at any j - 1 + k' with k' <= k.
    f = cuts[0, :, :width]
    for j in range(1, n):
        f = cuts[j, :, j : j + width] + np.maximum.accumulate(f, axis=1)
    per_cut_best = f.max(axis=1)
    cut = int(np.argmax(per_cut_best))  # first max: lowest cut wins ties
    if per_cut_best[cut] <= INFEASIBLE_THRESHOLD:
        _raise_infeasible()
    placed[order] = _extract_lex_min(q, cut)
    return _finish(scores, placed, "dp_exact", cut)


def _own_best(q: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Each element's own best bin and the lowest cut under which those bins
    increase, when they are the unique optimum; None otherwise.

    No assignment scores more than the sum of the row maxima. When every
    row's maximum is unmasked and unique on the integer grid, and the argmax
    bins step forward in circular element order, each step at least one bin
    and less than one turn in all, they are feasible and no other assignment
    reaches that sum, so they are what the all-cuts pass and the lex-min
    extraction would return. They increase under the cuts from just past the
    last element's bin round to the first's; the lowest is 0 when that gap
    wraps past bin 0.
    """

    n, bins = q.shape
    own = q.argmax(axis=1)
    walk = own.tolist()  # at small n, list steps cost less than NumPy calls
    steps = [(b - a) % bins for a, b in zip(walk, walk[1:])]
    if 0 in steps or sum(steps) >= bins:
        return None
    top = q.max(axis=1, keepdims=True)
    if top.min() <= INFEASIBLE_THRESHOLD or np.count_nonzero(q == top) != n:
        return None
    after_last = (walk[-1] + 1) % bins
    return own, after_last if after_last <= walk[0] else 0


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
    # original bin of element i at band column k, columns reversed (k at
    # width - 1 - k) so suffix maxima are prefix maxima
    cols = (np.arange(n)[:, None] + np.arange(cut + width - 1, cut - 1, -1)) % bins
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
    # the azimuths are normalized, so floor division gives their bins
    bins = (scores.layout.visual_azimuths // scores.model.bin_size_deg).astype(int)
    warning = None
    if len(set(bins.tolist())) != bins.size:
        warning = "degenerate baseline: multiple elements share a visual bin"
    return _finish(scores, bins, "colocated", 0, warning=warning)
