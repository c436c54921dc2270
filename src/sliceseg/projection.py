"""Self-occlusion analysis for voxel clouds.

A single orthographic depth layer keeps one point per pixel, so any pixel
with several points along the projection axis loses all but one of them.
This module labels 26-connected components, measures per-component
projected areas, simulates single/dual layer capture of each component on
its best plane, and reduces the areas to the loss fraction
psi = (phi - sum of component areas) / phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cloud import KEY_FIELD_BITS, PLANE_COLS, Axis, PointCloud, distinct, voxel_keys

# Dense labeling scans every grid cell; the sparse path scales with point
# count instead. The absolute cap bounds the dense grid's memory. Both
# produce identical components. Crossover against the union-find sparse
# path (1k-20k points, 2-core x86): uniform-random clouds label faster
# sparse from about 30-40 cells per point, while a 50k-point sphere shell
# at 41 still labels faster dense (31 vs 40 ms). Planning the benchmark's
# plan-suite took the same time within noise for every value from 20 to
# 90, so the value stays at 60.
_DENSE_CELL_LIMIT = 16_000_000
_DENSE_CELLS_PER_POINT = 60

_STRUCTURE_26 = np.ones((3, 3, 3), dtype=np.int8)

# Offsets covering half the 26-neighborhood (the other half is symmetric).
_HALF_OFFSETS = np.array(
    [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) > (0, 0, 0)
    ],
    dtype=np.int64,
)
# The same offsets as voxel key differences: adding one to a key moves the
# voxel by (dx, dy, dz) while every field stays in 0..2^17-1.
_HALF_KEY_STEPS = _HALF_OFFSETS @ (voxel_keys(1, 0, 0), voxel_keys(0, 1, 0), 1)


@dataclass(frozen=True)
class ComponentLabeling:
    """Per-point component labels, 0..count-1."""

    labels: np.ndarray
    count: int


@dataclass(frozen=True)
class CaptureConfig:
    """Projection layer model: one layer, or near+far within a thickness window."""

    layer_mode: str = "single"
    surface_thickness: int = 4

    def __post_init__(self) -> None:
        if self.layer_mode not in ("single", "dual"):
            raise ValueError(f"layer_mode must be 'single' or 'dual', got {self.layer_mode!r}")
        if self.layer_mode == "dual" and self.surface_thickness < 1:
            raise ValueError("surface_thickness must be >= 1 in dual mode")


@dataclass(frozen=True)
class ProjectionStats:
    """Loss accounting for one cloud: point count, points lost, component count."""

    phi: int
    lost: int
    component_count: int

    @property
    def psi(self) -> float:
        return self.lost / self.phi


def label_components(cloud: PointCloud) -> ComponentLabeling:
    """26-connectivity components, labeled 0..count-1."""
    n = len(cloud)
    if n == 0:
        raise ValueError("nothing to label: empty cloud")

    mins, maxs = cloud.bbox
    extents = (maxs - mins + 1).astype(np.int64)
    volume = int(extents[0]) * int(extents[1]) * int(extents[2])

    if volume <= min(_DENSE_CELL_LIMIT, _DENSE_CELLS_PER_POINT * n):
        raw = _label_dense(cloud.coords, mins, extents)
    else:
        raw = _label_sparse(cloud.coords)
    labels = raw.astype(np.int32)
    labels.setflags(write=False)
    return ComponentLabeling(labels, int(raw.max()) + 1)


def _label_dense(coords: np.ndarray, mins: np.ndarray, extents: np.ndarray) -> np.ndarray:
    from scipy import ndimage  # deferred: commands that never label skip loading scipy

    grid = np.zeros(tuple(int(e) for e in extents), dtype=np.uint8)
    shifted = coords - mins
    idx = (shifted[:, 0], shifted[:, 1], shifted[:, 2])
    grid[idx] = 1
    labeled, _ = ndimage.label(grid, structure=_STRUCTURE_26)
    return labeled[idx].astype(np.int64) - 1


def _label_sparse(coords: np.ndarray) -> np.ndarray:
    n = coords.shape[0]
    c = coords.astype(np.int64) + 1  # neighbor fields stay in 0..2^16+1: no borrow or carry
    keys = voxel_keys(c[:, 0], c[:, 1], c[:, 2])
    order = np.argsort(keys)  # keys are unique: no order among equals to keep
    sorted_keys = keys[order]

    src_list = []
    dst_list = []
    for step in _HALF_KEY_STEPS.tolist():
        nb_keys = sorted_keys + step  # sorted queries keep searchsorted cache-friendly
        pos = np.minimum(np.searchsorted(sorted_keys, nb_keys), n - 1)
        hit = np.flatnonzero(sorted_keys[pos] == nb_keys)
        if hit.size:
            src_list.append(order[hit])
            dst_list.append(order[pos[hit]])

    parent = np.arange(n, dtype=np.int64)
    if not src_list:
        return parent
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    # Hook-and-jump union-find (Shiloach-Vishkin style): every pointer goes
    # to a smaller index, so each tree's root is its component's first point.
    while src.size:
        a, b = parent[src], parent[dst]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        joined = parent[src] != parent[dst]
        src, dst = src[joined], dst[joined]
    # roots to 0..k-1, in index order
    is_root = parent == np.arange(n)
    return (np.cumsum(is_root) - 1)[parent]


def projected_area(cloud: PointCloud, axis: Axis) -> int:
    """Distinct pixels of the orthographic projection dropping `axis`."""
    if len(cloud) == 0:
        raise ValueError("projected_area of an empty cloud")
    whole = ComponentLabeling(np.zeros(len(cloud), dtype=np.int32), 1)
    return int(component_areas(cloud, whole, axis)[1][0])


def best_plane(cloud: PointCloud) -> tuple[Axis, int]:
    """Axis whose projection keeps the most pixels; ties go X < Y < Z."""
    if len(cloud) == 0:
        raise ValueError("best_plane of an empty cloud")
    whole = ComponentLabeling(np.zeros(len(cloud), dtype=np.int32), 1)
    axes, areas = component_areas(cloud, whole)
    return Axis(int(axes[0])), int(areas[0])


def component_areas(
    cloud: PointCloud,
    labeling: ComponentLabeling,
    axis: Optional[Axis] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-component (axis, area) arrays: distinct pixels on the fixed plane or each best one."""
    labels = labeling.labels.astype(np.int64)
    c = cloud.coords.astype(np.int64)
    axes = np.arange(3) if axis is None else np.array([axis])
    per_axis = []
    for u, v in PLANE_COLS[axes]:
        keys = voxel_keys(labels, c[:, u], c[:, v])
        per_axis.append(
            np.bincount(distinct(keys) >> (2 * KEY_FIELD_BITS), minlength=labeling.count)
        )
    stacked = np.stack(per_axis)
    best = np.argmax(stacked, axis=0)  # first max wins: ties go X < Y < Z
    return axes[best], stacked[best, np.arange(labeling.count)]


def compute_psi(cloud: PointCloud, axis: Optional[Axis] = None) -> ProjectionStats:
    """Loss fraction of single-layer projection over the cloud's components.

    By default each component projects on its own best plane; passing `axis`
    forces every component onto that plane instead.
    """
    if len(cloud) == 0:
        raise ValueError("cannot compute projection loss of an empty cloud")
    labeling = label_components(cloud)
    _, areas = component_areas(cloud, labeling, axis)
    phi = len(cloud)
    return ProjectionStats(phi=phi, lost=phi - int(areas.sum()), component_count=labeling.count)


def simulate_capture(
    cloud: PointCloud, labeling: ComponentLabeling, config: CaptureConfig
) -> PointCloud:
    """Points a per-component projection can represent.

    Each component is captured on its own best plane, so components never
    share a pixel, with depth increasing along that plane's axis. Single
    mode keeps the nearest point per pixel; dual mode adds the farthest
    point within `surface_thickness` of the nearest.
    """
    if len(cloud) == 0:
        raise ValueError("cannot capture an empty cloud")

    c = cloud.coords.astype(np.int64)
    axis = component_areas(cloud, labeling)[0][labeling.labels]  # its component's best plane
    rows = np.arange(len(cloud))
    u, v = PLANE_COLS[axis].T
    pix = voxel_keys(labeling.labels.astype(np.int64), c[rows, u], c[rows, v])
    # voxels are unique, so points sharing a pixel always differ in depth;
    # nearest/farthest per pixel need no tie-breaking
    depth = c[rows, axis]

    order = np.lexsort((depth, pix))
    depth_sorted = depth[order]
    new_pixel = np.concatenate(([True], np.diff(pix[order]) != 0))
    starts = np.flatnonzero(new_pixel)
    keep = np.zeros(len(cloud), dtype=bool)
    keep[order[starts]] = True

    if config.layer_mode == "dual":
        near = depth_sorted[starts][np.cumsum(new_pixel) - 1]
        in_window = depth_sorted <= near + config.surface_thickness
        # the nearest point is always in its window, so every pixel has a far one
        far = np.maximum.reduceat(np.where(in_window, np.arange(order.shape[0]), -1), starts)
        keep[order[far]] = True
    return cloud.subset(keep)
