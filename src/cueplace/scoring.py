"""Per-element utility of candidate sound bins.

Combines two ingredients: the probability that a cue played in a candidate
bin is perceived in the element's own bin (localization blur), and how far
the candidate's cone of confusion stays from every other element (front-back
safety). Both live in [0, 1] so the weights are comparable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .angles import _bin_tables, angular_distance
from .confusion import ConfusionModel
from .layout import Layout

ConeRule = Literal["point-plus-mirror", "mirror-only"]

DEFAULT_W_BLUR = 0.9
DEFAULT_W_CONE = 0.1

# Distance reported when there is no other element to collide with; the
# safest possible value on the half-circle.
MAX_CONE_DISTANCE_DEG = 180.0


@dataclass(frozen=True)
class Weights:
    blur: float = DEFAULT_W_BLUR
    cone: float = DEFAULT_W_CONE

    def __post_init__(self):
        for w in (self.blur, self.cone):
            if isinstance(w, bool) or not isinstance(w, numbers.Real) or not 0 <= w < math.inf:
                raise ValueError(f"weights must be finite and non-negative numbers, got {self}")
        for name in ("blur", "cone"):  # a Fraction would make an object array downstream
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """n x bin_count utilities; row i scores element i at each candidate bin.

    Only what the solvers read, so utilities from any objective can be solved."""

    values: np.ndarray
    model: ConfusionModel
    layout: Layout


def build_score_matrix(
    model: ConfusionModel,
    layout: Layout,
    weights: Weights = Weights(),
    cone_rule: ConeRule = "point-plus-mirror",
) -> ScoreMatrix:
    """Score every (element, candidate bin) pair.

    Entry (i, s) = w_blur * P(v_i | s) + w_cone * D(v_i, s) / 180 where the
    candidate's geometry is taken at its bin center. Pure function of its
    inputs; an unknown `cone_rule` raises ValueError whatever the layout, and
    so do weights large enough to make a score overflow to infinity.
    """

    if cone_rule not in get_args(ConeRule):
        raise ValueError(f"unknown cone rule {cone_rule!r}")
    # the azimuths are normalized, so floor division gives their bins
    v_bins = (layout.visual_azimuths // model.bin_size_deg).astype(int)
    blur = model.matrix.T[v_bins]
    cone = _cone_distances(layout, model.bin_size_deg, cone_rule)
    with np.errstate(over="ignore"):
        values = weights.blur * blur + weights.cone * cone / MAX_CONE_DISTANCE_DEG
    if not np.isfinite(values).all():
        raise ValueError(
            f"scores must be finite; weights blur={weights.blur!r}, cone={weights.cone!r} overflow"
        )
    values.flags.writeable = False
    return ScoreMatrix(values, model, layout)


def _cone_distances(layout: Layout, bin_size_deg: int, cone_rule: ConeRule) -> np.ndarray:
    """n x bin_count shortest arcs from each bin center's cone to any *other* element.

    The cone is reduced to azimuths: the bin center plus its front-back
    mirror ("point-plus-mirror"), or just the mirror ("mirror-only"). The
    nearest other element is the nearest element overall unless that is the
    element itself, in which case it is the second nearest. A single-element
    layout gets the maximum since there is nothing to confuse with.
    """

    vis = layout.visual_azimuths
    if vis.size == 1:
        return np.full((1, _bin_tables(bin_size_deg)[0].size), MAX_CONE_DISTANCE_DEG)
    if cone_rule == "point-plus-mirror":
        d = layout.geometry(bin_size_deg).adjusted
    else:
        d = angular_distance(vis[:, None], _bin_tables(bin_size_deg)[1])
    two = np.partition(d, 1, axis=0)
    # An element tied for nearest gets the second nearest, which equals the nearest.
    return np.where(d == two[0], two[1], two[0])
