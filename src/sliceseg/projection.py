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

import numpy as np

from .cloud import KEY_FIELD_BITS, PLANE_COLS, Axis, PointCloud, distinct, run_starts, voxel_keys

# neighbor_pairs indexes a padded grid of the cloud's box (4 bytes a cell) up
# to these sizes; sparser clouds search sorted voxel keys for the same pairs.
_GRID_CELL_LIMIT = 16_000_000
_GRID_CELLS_PER_POINT = 60
# About this many grid lookups per gather: clouds of up to 2,730 points gather
# all 13 offsets at once, larger ones fewer, which bounds the int64 index array.
_GATHER_LOOKUPS = 1 << 15

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
    """Per-point component labels, each in 0..count-1."""

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
    """26-connectivity components, labeled 0..count-1 in order of first point."""
    n = len(cloud)
    if n == 0:
        raise ValueError("nothing to label: empty cloud")
    roots = component_roots(np.arange(n), *neighbor_pairs(cloud))
    is_root = roots == np.arange(n)
    labels = (np.cumsum(is_root) - 1)[roots].astype(np.int32)
    labels.setflags(write=False)
    return ComponentLabeling(labels, int(np.count_nonzero(is_root)))


def neighbor_pairs(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) point indices of every 26-adjacent pair, each pair once."""
    n, coords = len(cloud), cloud.coords
    mins, maxs = cloud.bbox
    extents = maxs.astype(np.intp) - mins + 3  # one empty cell of padding on each side
    strides = np.array([extents[1] * extents[2], extents[2], 1])
    if extents.prod() <= min(_GRID_CELL_LIMIT, _GRID_CELLS_PER_POINT * n):
        c = coords - (mins - 1)
        flat = c[:, 0] * strides[0] + c[:, 1] * strides[1] + c[:, 2]
        grid = np.full(int(extents.prod()), -1, dtype=np.int32)
        grid[flat] = np.arange(n, dtype=np.int32)
        steps = (_HALF_OFFSETS @ strides)[:, None]
        per_gather = -(-_GATHER_LOOKUPS // n)  # offsets per gather, at least one
        src_list, dst_list = [], []
        for first in range(0, len(steps), per_gather):
            hits = grid[steps[first : first + per_gather] + flat]  # (offsets, n) neighbors
            found = np.flatnonzero(hits >= 0)
            src_list.append(found % n)
            dst_list.append(hits.ravel()[found])
        return np.concatenate(src_list), np.concatenate(dst_list).astype(np.intp)

    c = coords.astype(np.int64) + 1  # neighbor fields stay in 0..2^16+1: no borrow or carry
    keys = voxel_keys(c[:, 0], c[:, 1], c[:, 2])
    order = np.argsort(keys)  # keys are unique: no order among equals to keep
    sorted_keys = keys[order]
    src_list, dst_list = [], []
    for step in _HALF_KEY_STEPS.tolist():
        nb_keys = sorted_keys + step  # sorted queries keep searchsorted cache-friendly
        pos = np.minimum(np.searchsorted(sorted_keys, nb_keys), n - 1)
        hit = np.flatnonzero(sorted_keys[pos] == nb_keys)
        src_list.append(order[hit])
        dst_list.append(order[pos[hit]])
    return np.concatenate(src_list), np.concatenate(dst_list)


def component_roots(parent: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each point's root, the least point index in its component.

    Hook-and-jump union-find (Shiloach and Vishkin, J. Algorithms 1982) over
    the pairs (src, dst). `parent`, which it overwrites, starts each point at
    itself, or the first points at roots already found; the pairs then need
    only include those that touch a later point. Pointers only go to smaller
    indices, so the roots do not depend on pair order.
    """
    while src.size:
        a, b = parent[src], parent[dst]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        jumped = parent[parent]
        while not (jumped == parent).all():
            parent, jumped = jumped, jumped[jumped]
        joined = (parent[src] != parent[dst]).nonzero()[0]
        src, dst = src[joined], dst[joined]
    return parent


def best_plane(cloud: PointCloud) -> tuple[Axis, int]:
    """Axis whose projection keeps the most pixels; ties go X < Y < Z."""
    if len(cloud) == 0:
        raise ValueError("best_plane of an empty cloud")
    whole = ComponentLabeling(np.zeros(len(cloud), dtype=np.int32), 1)
    axes, areas = component_areas(cloud, whole)
    return Axis(int(axes[0])), int(areas[0])


def pixel_keys(cloud: PointCloud) -> np.ndarray:
    """(3, n) int64 table: row `axis` holds each point's pixel key on the plane dropping it."""
    c = cloud.coords.T
    return voxel_keys(0, c[PLANE_COLS[:, 0]].astype(np.int64), c[PLANE_COLS[:, 1]])


def pixel_areas(labels: np.ndarray, pixels: np.ndarray, count: int) -> np.ndarray:
    """(planes, count) distinct pixels of each label in 0..count-1 on each row of `pixels`.

    `pixels` is a `pixel_keys` table, or some of its rows; a label no point
    has gets area 0.
    """
    planes = pixels.shape[0]
    keys = voxel_keys(labels.astype(np.int64), 0, 0) | pixels
    # one key set for all planes: row p's labels move up by p * count. The
    # steps work in place: each further (planes, n) temporary above glibc's
    # mmap threshold costs a large cloud fresh page faults on every call
    keys += voxel_keys(np.arange(planes)[:, None] * count, 0, 0)
    found = distinct(keys.ravel())
    found >>= 2 * KEY_FIELD_BITS
    return np.bincount(found, minlength=planes * count).reshape(planes, count)


def component_areas(
    cloud: PointCloud, labeling: ComponentLabeling
) -> tuple[np.ndarray, np.ndarray]:
    """Per-component (axis, area) arrays: distinct pixels on each component's best plane."""
    stacked = pixel_areas(labeling.labels, pixel_keys(cloud), labeling.count)
    best = np.argmax(stacked, axis=0)  # first max wins: ties go X < Y < Z
    return best, stacked[best, np.arange(labeling.count)]


def compute_psi(cloud: PointCloud) -> ProjectionStats:
    """Loss fraction of single-layer projection, each component on its own best plane."""
    if len(cloud) == 0:
        raise ValueError("cannot compute projection loss of an empty cloud")
    labeling = label_components(cloud)
    _, areas = component_areas(cloud, labeling)
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

    axis = component_areas(cloud, labeling)[0][labeling.labels]  # its component's best plane
    rows = np.arange(len(cloud))
    pix = voxel_keys(labeling.labels.astype(np.int64), 0, 0) | pixel_keys(cloud)[axis, rows]
    # voxels are unique, so points sharing a pixel always differ in depth;
    # nearest/farthest per pixel need no tie-breaking
    depth = cloud.coords[rows, axis]

    order = np.argsort(pix)
    depth_sorted = depth[order]
    starts = np.flatnonzero(run_starts(pix[order]))
    run_lengths = np.diff(starts, append=order.shape[0])
    near = np.repeat(np.minimum.reduceat(depth_sorted, starts), run_lengths)
    kept = depth_sorted == near
    if config.layer_mode == "dual":
        # depth - near is below 2^16, so a thickness of any size compares without overflow
        in_window = np.where(depth_sorted - near <= config.surface_thickness, depth_sorted, -1)
        # the nearest point is always in its window, so every pixel has a far one
        kept |= depth_sorted == np.repeat(np.maximum.reduceat(in_window, starts), run_lengths)
    return cloud.subset(np.sort(order[kept]))
