"""Core point-cloud data model: voxel coordinates, axis ranges, sides.

Clouds are immutable after construction. Coordinates are non-negative
integers on a 2^B grid; duplicates are merged at construction (first
occurrence wins, merge count kept on the cloud).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

MIN_BIT_DEPTH = 8
MAX_BIT_DEPTH = 16
DEFAULT_BIT_DEPTH = 10


class Axis(IntEnum):
    X = 0
    Y = 1
    Z = 2


# (u, v) columns of the projection that drops each axis; row = Axis value.
PLANE_COLS = np.array([(1, 2), (0, 2), (0, 1)], dtype=np.int64)
PLANE_COLS.setflags(write=False)


def axis_from_name(name: str) -> Axis:
    try:
        return Axis[name.upper()]
    except KeyError:
        raise ValueError(f"unknown axis {name!r}") from None


@dataclass(frozen=True)
class Side:
    """One of the six faces a slice can be taken from: an axis and a polarity."""

    axis: Axis
    sign: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"side sign must be +1 or -1, got {self.sign}")

    @property
    def positive(self) -> bool:
        return self.sign > 0


# Fixed evaluation / tie-break order.
SIDES: tuple[Side, ...] = (
    Side(Axis.X, +1),
    Side(Axis.X, -1),
    Side(Axis.Y, +1),
    Side(Axis.Y, -1),
    Side(Axis.Z, +1),
    Side(Axis.Z, -1),
)


@dataclass(frozen=True)
class AxisRange:
    """Half-open coordinate interval [lo, hi) along one axis."""

    axis: Axis
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ValueError(f"range lo must be >= 0, got {self.lo}")
        if self.lo >= self.hi:
            raise ValueError(f"empty range [{self.lo}, {self.hi})")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def holds(self, column: np.ndarray) -> np.ndarray:
        """Boolean mask of the coordinates in `column` that lie in [lo, hi)."""
        return (column >= self.lo) & (column < self.hi)


# One bit more than a grid coordinate needs: the sorted-key neighbor search
# keys neighbors of coordinates shifted by +1, up to 2^16 + 1, without a carry.
KEY_FIELD_BITS = MAX_BIT_DEPTH + 1


def voxel_keys(a, b, c) -> np.ndarray:
    """int64 key `a << 34 | b << 17 | c` of non-negative int64 columns (or scalars).

    `b` and `c` must fit 17 bits; `a` may use the remaining 29. Keys are
    equal exactly when all three columns are, and order by (a, b, c).
    """
    return (a << (2 * KEY_FIELD_BITS)) | (b << KEY_FIELD_BITS) | c


# Sets of keys go through np.sort: np.unique, np.union1d and stable or
# multi-column sorts of int64 keys run 10-20x slower than np.sort on
# numpy 2.x for the few thousand keys a slice or component holds.
def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run of equal sorted keys."""
    starts = np.empty(sorted_keys.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys; the same array as `np.unique(keys)`."""
    ordered = np.sort(keys)
    return ordered[run_starts(ordered)]


class PointCloud:
    """Immutable set of voxel points with optional per-point 8-bit RGB color.

    `coords` is an (N, 3) int32 array, `colors` an (N, 3) uint8 array or None.
    Point order is preserved from construction (after dropping duplicate
    coordinates, keeping the first occurrence and its color).
    """

    __slots__ = ("coords", "colors", "bit_depth", "duplicates_merged")

    def __init__(
        self,
        coords,
        colors=None,
        bit_depth: Optional[int] = None,
    ) -> None:
        arr = np.asarray(coords, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"coords must be (N, 3), got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise ValueError("coordinates must be non-negative")
        if arr.size and arr.max() >= (1 << MAX_BIT_DEPTH):
            # checked before dedup: larger values would alias in the hash keys
            raise ValueError(
                f"coordinate {int(arr.max())} exceeds {MAX_BIT_DEPTH}-bit grid"
            )

        col = None
        if colors is not None:
            col = np.asarray(colors, dtype=np.uint8)
            if col.shape != (arr.shape[0], 3):
                raise ValueError("colors must be (N, 3) matching coords")

        arr, col, merged = _dedup_first(arr, col)

        max_coord = int(arr.max()) if arr.size else 0
        if bit_depth is None:  # the smallest of 10..16 bits covering the coordinates
            bit_depth = max(max_coord.bit_length(), DEFAULT_BIT_DEPTH)
        else:
            if not (MIN_BIT_DEPTH <= bit_depth <= MAX_BIT_DEPTH):
                raise ValueError(f"bit depth must be in [{MIN_BIT_DEPTH}, {MAX_BIT_DEPTH}]")
            if max_coord >= (1 << bit_depth):
                raise ValueError(
                    f"coordinate {max_coord} does not fit {bit_depth}-bit grid"
                )

        self._set(arr, col, bit_depth, merged)

    @classmethod
    def _from_trusted(cls, coords: np.ndarray, colors, bit_depth: int) -> "PointCloud":
        """Internal constructor for arrays already known unique and in range."""
        cloud = cls.__new__(cls)
        cloud._set(coords, colors, bit_depth, 0)
        return cloud

    def _set(self, coords: np.ndarray, colors, bit_depth: int, merged: int) -> None:
        """Set every slot, the arrays contiguous and read-only."""
        self.coords = np.ascontiguousarray(coords, dtype=np.int32)
        self.coords.setflags(write=False)
        if colors is not None:
            colors = np.ascontiguousarray(colors)
            colors.setflags(write=False)
        self.colors = colors
        self.bit_depth = int(bit_depth)
        self.duplicates_merged = int(merged)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """(mins, maxs) per axis of a non-empty cloud."""
        # per-column reductions: axis=0 over (N, 3) rows runs 10x slower
        columns = np.ascontiguousarray(self.coords.T)
        return columns.min(axis=1), columns.max(axis=1)

    def coordinate_keys(self) -> np.ndarray:
        """int64 key per point, unique per voxel; usable for set operations."""
        c = self.coords.astype(np.int64)
        return voxel_keys(c[:, 0], c[:, 1], c[:, 2])

    def sorted_coords(self) -> np.ndarray:
        """Coordinates in lexicographic (x, y, z) order, for comparisons."""
        # keys order by (x, y, z) and are unique per voxel, so any sort will do
        return self.coords[np.argsort(self.coordinate_keys())]

    def same_points(self, other: "PointCloud") -> bool:
        return bool(np.array_equal(self.sorted_coords(), other.sorted_coords()))

    def subset(self, mask: np.ndarray) -> "PointCloud":
        """The points a boolean mask, an index array or a slice selects, in that order."""
        colors = self.colors[mask] if self.colors is not None else None
        return PointCloud._from_trusted(self.coords[mask], colors, self.bit_depth)

    def __repr__(self) -> str:
        return f"PointCloud({len(self)} points, B={self.bit_depth})"


def _dedup_first(coords: np.ndarray, colors):
    """Drop duplicate coordinates keeping first occurrence; return merge count."""
    n = coords.shape[0]
    if n == 0:
        return coords, colors, 0
    keys = voxel_keys(coords[:, 0], coords[:, 1], coords[:, 2])
    order = np.argsort(keys)
    starts = run_starts(keys[order])
    if starts.all():
        return coords, colors, 0
    # the sort is not stable, so each run's first occurrence is its least index
    first_idx = np.sort(np.minimum.reduceat(order, np.flatnonzero(starts)))
    kept_colors = colors[first_idx] if colors is not None else None
    return coords[first_idx], kept_colors, n - first_idx.shape[0]


def extract_range(cloud: PointCloud, axis_range: AxisRange) -> PointCloud:
    """Points whose coordinate on the range's axis lies in [lo, hi)."""
    return cloud.subset(axis_range.holds(cloud.coords[:, axis_range.axis]))


def remove_range(cloud: PointCloud, axis_range: AxisRange) -> PointCloud:
    """Complement of extract_range over the same cloud."""
    return cloud.subset(~axis_range.holds(cloud.coords[:, axis_range.axis]))
