"""Azimuth arithmetic, binning, and front-back mirror geometry.

Azimuths are degrees on the horizontal circle: 0 front, 90 right, 180 back,
270 left. All functions accept scalars or numpy arrays and return the same.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize",
    "angular_distance",
    "mirror_front_back",
    "bin_count_for",
    "bin_of",
    "bin_center",
    "bin_centers",
]


def normalize(degrees):
    """Normalize angle(s) to [0, 360). Rejects non-finite input."""

    a = np.asarray(degrees, dtype=float)
    if not np.all(np.isfinite(a)):
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
    size = int(bin_size_deg)
    if size != bin_size_deg or size <= 0 or 360 % size != 0:
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


def bin_center(index, bin_size_deg: int):
    """Center azimuth of bin `index`."""

    size = _check_bin_size(bin_size_deg)
    c = (np.asarray(index, dtype=float) + 0.5) * size
    return float(c) if c.ndim == 0 else c


def bin_centers(bin_size_deg: int) -> np.ndarray:
    """Centers of all bins, ascending from bin 0."""

    size = _check_bin_size(bin_size_deg)
    return (np.arange(360 // size, dtype=float) + 0.5) * size
