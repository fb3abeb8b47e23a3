"""Layouts of visual elements around the listener."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angles import normalize

# Spread applied to coinciding visual azimuths so the ordering constraints
# see a strict order; small enough to be perceptually meaningless.
DECONFLICT_STEP_DEG = 0.001


class LayoutError(ValueError):
    """Raised when a layout fails validation or parsing."""


@dataclass(frozen=True)
class Element:
    id: str
    visual_azimuth_deg: float
    elevation_deg: float = 0.0


@dataclass(frozen=True, eq=False)
class Layout:
    """Ordered collection of visual elements; order is the input order.

    Azimuths are normalized and de-conflicted at construction: elements
    sharing an azimuth are spread DECONFLICT_STEP_DEG apart in id order,
    centered on the shared azimuth. Should a spread land on another
    element's azimuth, the colliding groups spread together around their
    mean, so every element ends with a distinct angle.
    """

    elements: tuple[Element, ...]
    _azimuths: np.ndarray = field(init=False, repr=False)
    _order: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.elements) < 1:
            raise LayoutError("layout must contain at least one element")
        ids = [e.id for e in self.elements]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise LayoutError(f"duplicate element id {dup!r}")
        elements = _deconflict(self.elements)
        azimuths = np.array([e.visual_azimuth_deg for e in elements])
        azimuths.flags.writeable = False
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_azimuths", azimuths)
        object.__setattr__(self, "_order", tuple(np.argsort(azimuths, kind="stable").tolist()))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self.elements]

    @property
    def visual_azimuths(self) -> np.ndarray:
        """Visual azimuths in element order, as a read-only array."""

        return self._azimuths

    def circular_order(self) -> list[int]:
        """Element indices sorted by ascending visual azimuth from 0 degrees."""

        return list(self._order)


def _deconflict(elements) -> tuple[Element, ...]:
    raw = np.array([e.visual_azimuth_deg for e in elements], dtype=float)
    finite = np.isfinite(raw)
    if not finite.all():
        e = elements[int(np.argmin(finite))]
        raise LayoutError(f"azimuth_deg of {e.id!r} must be finite, got {e.visual_azimuth_deg!r}")
    az = normalize(raw).tolist()
    ids = [e.id for e in elements]
    # Elements sharing an angle form a cluster that is spread apart. A spread
    # can land on another element's angle; the clusters involved then merge
    # and spread again. Each merge removes a cluster, so this terminates, at
    # worst with one cluster whose members all sit a step apart.
    cluster_of = list(range(len(az)))
    pos = az
    while len(set(pos)) < len(pos):
        at: dict[float, list[int]] = {}
        for i, p in enumerate(pos):
            at.setdefault(p, []).append(i)
        for idxs in at.values():
            if len(idxs) > 1:
                merged = {cluster_of[i] for i in idxs}
                target = min(merged)
                cluster_of = [target if c in merged else c for c in cluster_of]
        pos = _spread(az, ids, cluster_of)
    return tuple(Element(e.id, p, float(e.elevation_deg)) for e, p in zip(elements, pos))


def _spread(az: list[float], ids: list[str], cluster_of: list[int]) -> list[float]:
    """Angle of each element once every cluster is spread around its mean.

    Members sit DECONFLICT_STEP_DEG apart in (azimuth, id) order, centered
    on the mean of their azimuths; a singleton keeps its own azimuth.
    """

    members: dict[int, list[int]] = {}
    for i, c in enumerate(cluster_of):
        members.setdefault(c, []).append(i)
    pos = list(az)
    for idxs in members.values():
        if len(idxs) == 1:
            continue
        ref = az[idxs[0]]
        # signed offsets from ref, so a cluster straddling 0 stays contiguous
        delta = {i: (az[i] - ref + 180.0) % 360.0 - 180.0 for i in idxs}
        center = ref + math.fsum(delta.values()) / len(idxs)
        idxs.sort(key=lambda i: (delta[i], ids[i]))
        for k, i in enumerate(idxs):
            pos[i] = normalize(center + (k - (len(idxs) - 1) / 2.0) * DECONFLICT_STEP_DEG)
    return pos


def layout_from_dict(d: dict) -> Layout:
    try:
        raw = d["elements"]
    except (KeyError, TypeError):
        raise LayoutError("layout JSON must be an object with an 'elements' list") from None
    if not isinstance(raw, list) or not raw:
        raise LayoutError("'elements' must be a non-empty list")
    elements = []
    for i, item in enumerate(raw):
        try:
            elements.append(_element_from_dict(item))
        except LayoutError as e:
            raise LayoutError(f"element {i}: {e}") from None
    return Layout(tuple(elements))


def _element_from_dict(item) -> Element:
    """One layout-file element: a string `id` and numeric `azimuth_deg` and
    optional `elevation_deg`, taken as they are, never coerced. A number is
    a JSON int or float, not a bool. Other keys are ignored."""

    if not isinstance(item, dict) or not {"id", "azimuth_deg"} <= item.keys():
        raise LayoutError(f"must be an object with 'id' and 'azimuth_deg', got {item!r}")
    eid = item["id"]
    if not isinstance(eid, str):
        raise LayoutError(f"id must be a string, got {eid!r}")
    angles = []
    for name in ("azimuth_deg", "elevation_deg"):
        value = item.get(name, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise LayoutError(f"{name} of {eid!r} must be a number, got {value!r}")
        try:
            angle = float(value)
        except OverflowError:  # an int past the float range, as infinite as 1e999
            angle = math.inf
        if not math.isfinite(angle):
            raise LayoutError(f"{name} of {eid!r} must be finite, got {value!r}")
        angles.append(angle)
    return Element(eid, *angles)


def load_layout(path: str | Path) -> Layout:
    """Load a layout from its JSON format: {"elements": [{"id", "azimuth_deg", ...}]}."""

    path = Path(path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise LayoutError(f"{path}: invalid JSON: {e}") from None
    try:
        return layout_from_dict(d)
    except LayoutError as e:
        raise LayoutError(f"{path}: {e}") from None
