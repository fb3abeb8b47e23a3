"""Per-element utility of candidate sound bins.

Combines two ingredients: the probability that a cue played in a candidate
bin is perceived in the element's own bin (localization blur), and how far
the candidate's cone of confusion stays from every other element (front-back
safety). Both live in [0, 1] so the weights are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .angles import angular_distance, bin_centers, bin_of, mirror_front_back
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
        if not all(math.isfinite(w) and w >= 0 for w in (self.blur, self.cone)):
            raise ValueError(f"weights must be finite and non-negative, got {self}")


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """n x bin_count utilities; row i scores element i at each candidate bin.

    Only what the solvers read, so utilities from any objective can be solved."""

    values: np.ndarray
    model: ConfusionModel
    layout: Layout

    @property
    def n_elements(self) -> int:
        return self.values.shape[0]

    @property
    def bin_count(self) -> int:
        return self.values.shape[1]


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
    v_bins = bin_of(layout.visual_azimuths, model.bin_size_deg)
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
    centers = bin_centers(bin_size_deg)
    if vis.size == 1:
        return np.full((1, centers.size), MAX_CONE_DISTANCE_DEG)
    d = angular_distance(mirror_front_back(centers)[:, None], vis[None, :])
    if cone_rule == "point-plus-mirror":
        d = np.minimum(d, angular_distance(centers[:, None], vis[None, :]))
    nearest = np.argmin(d, axis=1)
    two = np.partition(d, 1, axis=1)
    is_nearest = np.arange(vis.size)[:, None] == nearest[None, :]
    return np.where(is_nearest, two[:, 1], two[:, 0])
