"""Correctness checks on the program's outputs.

Each check takes plain values (bins, scores, accuracies, statistics) and
returns a list of problems, empty when the output is correct. They use no
cueplace code, so a defect in the library cannot hide itself.
"""

from __future__ import annotations

import math

# The solver compares path sums on a relative 2**-40 integer grid (see
# cueplace.placement), so its float objective may trail another assignment's
# by up to n * max|score| * 2**-40.
QUANT_BITS = 40
# How far a sampled mean may sit from its exact expectation, in standard errors.
MAX_STDERRS = 5.0
# Absolute slack for means whose standard error is zero or rounds to zero.
ABS_SLACK = 1e-9


def arc(a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, 360.0 - d)


def placement(
    bins: list[int],
    cut: int,
    visual_azimuths: list[float],
    bin_count: int,
    bin_size_deg: int,
    cap_deg: float | None,
) -> list[str]:
    """Distinct bins, circular order kept under `cut`, and the displacement cap."""

    problems = []
    n = len(bins)
    if len(set(bins)) != n:
        problems.append(f"bins not distinct: {bins}")
    if any(not 0 <= b < bin_count for b in bins):
        problems.append(f"bin out of range [0, {bin_count}): {bins}")
    order = sorted(range(n), key=lambda i: (visual_azimuths[i], i))
    rotated = [(bins[i] - cut) % bin_count for i in order]
    if any(a >= b for a, b in zip(rotated, rotated[1:])):
        problems.append(f"circular order broken under cut {cut}: bins {bins}")
    if cap_deg is not None:
        for i, b in enumerate(bins):
            d = arc((b + 0.5) * bin_size_deg, visual_azimuths[i])
            if d > cap_deg:
                problems.append(f"element {i} moved {d} deg, cap {cap_deg}")
    return problems


def objective(objective_value: float, per_element: list[float], scores_at_bins: list[float]) -> list[str]:
    """The objective is the exact float sum of the chosen cells' scores."""

    problems = []
    if list(per_element) != list(scores_at_bins):
        problems.append("per-element scores differ from the score matrix at the chosen bins")
    if objective_value != math.fsum(per_element):
        problems.append(f"objective {objective_value!r} != fsum {math.fsum(per_element)!r}")
    return problems


def not_worse(optimized: float, baseline: float, n: int, max_abs_score: float) -> list[str]:
    """An optimum is not below a feasible baseline, up to the solver's grid."""

    tol = n * max_abs_score * 2.0**-QUANT_BITS
    if optimized < baseline - tol:
        return [f"optimized objective {optimized!r} below feasible baseline {baseline!r}"]
    return []


def monte_carlo(sampled: float, expected: float, trials: int, what: str) -> list[str]:
    """A Monte-Carlo accuracy lies within MAX_STDERRS of its exact value."""

    se = math.sqrt(max(expected * (1.0 - expected), 0.0) / trials)
    if not 0.0 <= expected <= 1.0:
        return [f"{what}: expected accuracy {expected!r} outside [0, 1]"]
    if abs(sampled - expected) > MAX_STDERRS * se + ABS_SLACK:
        return [f"{what}: sampled {sampled!r} vs exact {expected!r}, stderr {se:.3g}"]
    return []


def table1(stats: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """Simulated per-region error means agree with their closed form.

    `stats[region]` holds `<x>_mean`, `<x>_sd` and `trials` for x in
    circular, adjusted, cone_effect; `expected[region][x]` the exact means.
    """

    problems = []
    if set(stats) != set(expected):
        return [f"regions {sorted(stats)} != {sorted(expected)}"]
    for region, s in stats.items():
        for x, want in expected[region].items():
            got, sd = s[f"{x}_mean"], s[f"{x}_sd"]
            se = sd / math.sqrt(s["trials"])
            if not abs(got - want) <= MAX_STDERRS * se + ABS_SLACK:
                problems.append(f"table1 {region}.{x}: mean {got!r} vs exact {want!r}, stderr {se:.3g}")
    return problems
