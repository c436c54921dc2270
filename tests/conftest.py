"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's vectorized paths: pixel
sets via Python sets, components via pairwise union-find, capture via a
per-pixel depth dict. Tests freeze expectations against these. The width
search oracle labels every eligible width on every side, which the
library's pruned search must match exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from sliceseg import PointCloud, SliceSpec, compute_psi, slicer
from sliceseg.cloud import SIDES, Axis, AxisRange, Side, extract_range
from sliceseg.slicer import Candidate

PLANE_COLS = {Axis.X: (1, 2), Axis.Y: (0, 2), Axis.Z: (0, 1)}


def make_cloud(points, colors=None, bit_depth=None) -> PointCloud:
    return PointCloud(np.asarray(list(points), dtype=np.int64).reshape(-1, 3),
                      colors=colors, bit_depth=bit_depth)


def cube_cloud() -> PointCloud:
    return make_cloud([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


def brute_pixels(points, axis: Axis) -> set:
    u, v = PLANE_COLS[axis]
    return {(p[u], p[v]) for p in points}


def brute_best_plane(points) -> tuple[Axis, int]:
    best_axis, best_area = Axis.X, -1
    for axis in (Axis.X, Axis.Y, Axis.Z):
        area = len(brute_pixels(points, axis))
        if area > best_area:
            best_axis, best_area = axis, area
    return best_axis, best_area


def brute_components(points) -> list[set]:
    """Union-find over all point pairs at Chebyshev distance <= 1."""
    pts = [tuple(int(c) for c in p) for p in points]
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if max(abs(a - b) for a, b in zip(pts[i], pts[j])) <= 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, set] = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), set()).add(i)
    return list(groups.values())


def brute_capture(points, axis: Axis, mode: str = "single", thickness: int = 4) -> set:
    """Captured point tuples under min-depth (plus windowed far layer)."""
    u, v = PLANE_COLS[axis]
    pixels: dict[tuple, list] = {}
    for p in points:
        p = tuple(int(c) for c in p)
        pixels.setdefault((p[u], p[v]), []).append(p)
    captured = set()
    for group in pixels.values():
        group.sort(key=lambda p: p[axis])
        near = group[0]
        captured.add(near)
        if mode == "dual":
            window = [p for p in group if p[axis] <= near[axis] + thickness]
            captured.add(window[-1])
    return captured


def brute_psi(points) -> tuple[int, int]:
    """(lost, phi) under per-component best-plane single-layer projection."""
    pts = [tuple(int(c) for c in p) for p in points]
    covered = 0
    for comp in brute_components(pts):
        comp_pts = [pts[i] for i in comp]
        _, area = brute_best_plane(comp_pts)
        covered += area
    return len(pts) - covered, len(pts)


def random_cloud(rng: np.random.Generator, max_points: int = 400, extent_range=(6, 40)) -> PointCloud:
    """Unique random voxels in a small box; dense enough to form components."""
    extent = int(rng.integers(*extent_range))
    count = int(rng.integers(2, max_points + 1))
    coords = rng.integers(0, extent, size=(count, 3), dtype=np.int64)
    return PointCloud(coords)


def slab(cloud: PointCloud, side: Side, width: int) -> tuple[AxisRange, PointCloud]:
    """Core range and points of the width-`width` slab inward from `side`'s face."""
    mins, maxs = cloud.bbox
    axis = side.axis
    width = min(width, cloud.extent(axis))
    if side.positive:
        core = AxisRange(axis, int(maxs[axis]) + 1 - width, int(maxs[axis]) + 1)
    else:
        core = AxisRange(axis, int(mins[axis]), int(mins[axis]) + width)
    return core, extract_range(cloud, core)


def slab_lost(sub: PointCloud, side: Side, plane_rule: str) -> int:
    return compute_psi(sub, axis=side.axis if plane_rule == "fixed-plane" else None).lost


def candidate_psi(cloud: PointCloud, side: Side, width: int, plane_rule: str = "best-plane"):
    """(point count, loss fraction) of one slab; (0, None) when it is empty."""
    _, sub = slab(cloud, side, width)
    if len(sub) == 0:
        return 0, None
    return len(sub), slab_lost(sub, side, plane_rule) / len(sub)


def _rank(cand: Candidate):
    """Planner preference, smallest first: least loss, then larger width, then side order."""
    return Fraction(cand.lost, cand.count), -cand.width, SIDES.index(cand.side)


def brute_best_width(cloud: PointCloud, side: Side, config, original_size: int):
    """Exhaustive width loop: every eligible width is labeled and ranked."""
    floor = config.min_points(original_size)
    cands = []
    for width in range(1, min(config.theta, cloud.extent(side.axis)) + 1):
        core, sub = slab(cloud, side, width)
        if len(sub) >= floor:
            lost = slab_lost(sub, side, config.plane_rule)
            cands.append(Candidate(side, width, core, len(sub), lost))
    return min(cands, key=_rank, default=None)


def brute_select_slice(cloud: PointCloud, config, original_size: int, index: int = 0, **_):
    """Drop-in for `slicer.select_slice` that runs the exhaustive loop on every side."""
    cands = [brute_best_width(cloud, side, config, original_size) for side in SIDES]
    best = min((c for c in cands if c is not None), key=_rank, default=None)
    if best is None:
        return None
    core, axis = best.core, best.core.axis
    mins, maxs = cloud.bbox
    if best.side.positive:
        extended = AxisRange(axis, max(core.lo - config.overlap, int(mins[axis])), core.hi)
    else:
        extended = AxisRange(axis, core.lo, min(core.hi + config.overlap, int(maxs[axis]) + 1))
    return SliceSpec(index, best.side, core, extended, best.count, best.psi)


def oracle_plan(monkeypatch, cloud: PointCloud, config):
    """`build_plan` with its width search replaced by the exhaustive oracle."""
    with monkeypatch.context() as m:
        m.setattr(slicer, "select_slice", brute_select_slice)
        return slicer.build_plan(cloud, config)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
