"""Layouts of visual elements around the listener."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .angles import _check_bin_size, _distance_tables


class LayoutError(ValueError):
    """Raised when a layout fails validation or parsing."""


@dataclass(frozen=True, slots=True)
class Element:
    id: str
    visual_azimuth_deg: float
    elevation_deg: float = 0.0


class Geometry(NamedTuple):
    """A layout's listener geometry at one bin size, in read-only arrays:
    `circular[i, p]` is the arc from element i to bin p's center,
    `adjusted[i, p]` the smaller of that and the arc to the center's
    front-back mirror, and `decided[p]` the element nearest that center,
    the earliest on ties.
    """

    circular: np.ndarray
    adjusted: np.ndarray
    decided: np.ndarray


@dataclass(frozen=True, eq=False)
class Layout:
    """Ordered collection of visual elements; order is the input order.

    Angles must be finite real numbers, not bools or strings. Azimuths are
    normalized to [0, 360) at construction and must then be distinct, so
    the circular order is strict; two elements at one azimuth are a
    LayoutError naming both.
    """

    elements: tuple[Element, ...]
    _azimuths: np.ndarray = field(init=False, repr=False)
    _order: tuple[int, ...] = field(init=False, repr=False)
    _geometry: dict[int, Geometry] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if len(self.elements) < 1:
            raise LayoutError("layout must contain at least one element")
        ids = [e.id for e in self.elements]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise LayoutError(f"duplicate element id {dup!r}")
        elements = _checked(self.elements)
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

    def geometry(self, bin_size_deg: int) -> Geometry:
        """The layout's `Geometry` at a bin size, built on first use and
        kept with the layout."""

        size = _check_bin_size(bin_size_deg)
        if size not in self._geometry:
            circular, adjusted = _distance_tables(self._azimuths, size)
            geometry = Geometry(circular, adjusted, np.argmin(circular, axis=0))
            for table in geometry:
                table.flags.writeable = False
            self._geometry[size] = geometry
        return self._geometry[size]


def _angle(eid, name: str, value) -> float:
    """`value` as a float if it is a finite real number (an int, a float or a
    NumPy scalar, not a bool or a str), else a LayoutError naming the element."""

    # float and int first: an ABC check alone takes about a microsecond
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise LayoutError(f"{name} of {eid!r} must be a number, got {value!r}")
    try:
        angle = float(value)
    except OverflowError:  # an int past the float range, as infinite as 1e999
        angle = math.inf
    if not math.isfinite(angle):
        raise LayoutError(f"{name} of {eid!r} must be finite, got {value!r}")
    return angle


def _checked(elements) -> tuple[Element, ...]:
    """`elements` with float angles and normalized azimuths, or a LayoutError
    if an angle is bad or two azimuths coincide once normalized."""

    az = [_angle(e.id, "azimuth_deg", e.visual_azimuth_deg) for e in elements]
    elevations = [_angle(e.id, "elevation_deg", e.elevation_deg) for e in elements]
    # bit for bit angles.normalize: mod of a tiny negative rounds to 360.0
    az = [0.0 if p == 360.0 else p for p in (a % 360.0 for a in az)]
    if len(set(az)) < len(az):
        first: dict[float, str] = {}
        for e, p in zip(elements, az):
            if p in first:
                raise LayoutError(f"elements {first[p]!r} and {e.id!r} share azimuth {p!r}")
            first[p] = e.id
    # An element already holding its final float angles is kept; 0 < p tells
    # an input -0.0 from the 0.0 it normalizes to.
    floats = [type(e.visual_azimuth_deg) is float is type(e.elevation_deg) for e in elements]
    return tuple(
        e if kept and 0.0 < p == e.visual_azimuth_deg else Element(e.id, p, el)
        for e, p, el, kept in zip(elements, az, elevations, floats)
    )


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
    azimuth = _angle(eid, "azimuth_deg", item["azimuth_deg"])
    return Element(eid, azimuth, _angle(eid, "elevation_deg", item.get("elevation_deg", 0.0)))


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
