"""Azimuth arithmetic, binning, and front-back mirror geometry.

Azimuths are degrees on the horizontal circle: 0 front, 90 right, 180 back,
270 left. All functions accept scalars or numpy arrays and return the same.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "normalize",
    "angular_distance",
    "mirror_front_back",
    "bin_count_for",
    "bin_of",
    "bin_centers",
]


def normalize(degrees):
    """Normalize angle(s) to [0, 360). Rejects non-finite input."""

    a = np.asarray(degrees, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"azimuth must be finite, got {degrees!r}")
    out = np.mod(a, 360.0)
    # mod of a tiny negative rounds to 360.0 exactly; fold it back
    out = np.where(out == 360.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


def angular_distance(a, b):
    """Shortest arc between two normalized azimuths, in [0, 180] degrees."""

    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    out = np.minimum(d, 360.0 - d)
    return float(out) if out.ndim == 0 else out


def mirror_front_back(a):
    """Reflect azimuth(s) across the interaural axis: a -> 180 - a (mod 360).

    Involution with fixed points at 90 and 270; a source and its mirror
    produce identical interaural time differences.
    """

    return normalize(180.0 - np.asarray(a, dtype=float))


def _check_bin_size(bin_size_deg: int) -> int:
    try:
        size = int(bin_size_deg)
    except (TypeError, ValueError, OverflowError):  # None, 12+0j, [12], NaN, inf
        size = 0
    is_bool = isinstance(bin_size_deg, (bool, np.bool_))  # True == 1, but is no size
    if is_bool or size != bin_size_deg or size <= 0 or 360 % size != 0:
        raise ValueError(f"bin size must be a positive divisor of 360, got {bin_size_deg!r}")
    return size


def bin_count_for(bin_size_deg: int) -> int:
    """Number of bins for a bin size that divides 360."""

    return 360 // _check_bin_size(bin_size_deg)


def bin_of(a, bin_size_deg: int):
    """Index of the half-open bin [k*size, (k+1)*size) containing azimuth a.

    Input is normalized first, so any finite angle maps to a valid index.
    """

    size = _check_bin_size(bin_size_deg)
    idx = np.floor_divide(normalize(a), size).astype(int)
    return int(idx) if idx.ndim == 0 else idx


def bin_centers(bin_size_deg: int) -> np.ndarray:
    """Centers of all bins, ascending from bin 0."""

    size = _check_bin_size(bin_size_deg)
    return (np.arange(360 // size, dtype=float) + 0.5) * size


@lru_cache(maxsize=None)  # one entry per divisor of 360 at most
def _bin_tables(bin_size_deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `bin_centers` and their front-back mirrors, once per size."""

    centers = bin_centers(bin_size_deg)
    mirrored = mirror_front_back(centers)
    centers.flags.writeable = mirrored.flags.writeable = False
    return centers, mirrored


def _distance_tables(azimuths: np.ndarray, bin_size_deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Circular and front-back-adjusted distance from each normalized azimuth
    (rows) to each bin center (columns): `angular_distance` to the center,
    and the smaller of that and the distance to the center's mirror."""

    centers, mirrored = _bin_tables(bin_size_deg)
    circular, adjusted, spare = (np.empty((azimuths.size, centers.size)) for _ in range(3))
    for out, points in ((circular, centers), (adjusted, mirrored)):
        np.abs(np.subtract(azimuths[:, None], points, out=out), out=out)
        np.minimum(out, np.subtract(360.0, out, out=spare), out=out)
    return circular, np.minimum(circular, adjusted, out=adjusted)
