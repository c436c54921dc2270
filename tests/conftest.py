"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's vectorized paths: pixel
sets via Python sets, components via pairwise union-find, capture via a
per-pixel depth dict. Tests freeze expectations against these. The width
search oracle labels every eligible width on every side, which the
library's pruned search must match exactly. The capture oracle projects
one component at a time, which the library's one-pass capture must match.
The ASCII PLY oracles read and write one vertex line at a time, which the
library's whole-body reader and writer must match byte for byte and error
for error.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from sliceseg import (
    CaptureConfig,
    PointCloud,
    SlicePlan,
    SliceSpec,
    best_plane,
    compute_psi,
    extract_slices,
    label_components,
    simulate_capture,
    slicer,
)
from sliceseg.cloud import PLANE_COLS, SIDES, Axis, AxisRange, Side, extract_range
from sliceseg.ply import PlyParseError
from sliceseg.slicer import Candidate

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


def oracle_captured_keys(cloud: PointCloud, config: CaptureConfig) -> np.ndarray:
    """Sorted coordinate keys captured component by component on each best plane."""
    labeling = label_components(cloud)
    captured = []
    for k in range(labeling.count):
        component = cloud.subset(labeling.labels == k)
        axis, _ = best_plane(component)
        kept = simulate_capture(component, axis, config)
        captured.append(kept.coordinate_keys())
    return np.unique(np.concatenate(captured))


def oracle_plan_captured(cloud: PointCloud, plan: SlicePlan) -> tuple[int, list[int]]:
    """(union captured, per-slice captured) of single-layer capture per slice."""
    single = CaptureConfig("single")
    per_slice = [oracle_captured_keys(sub, single) for _, sub in extract_slices(cloud, plan)]
    return int(np.unique(np.concatenate(per_slice)).shape[0]), [k.shape[0] for k in per_slice]


def oracle_read_ascii_body(body: bytes, count: int, props, header_lines: int):
    """Line-by-line ASCII vertex body reader (same values and errors as ply's)."""
    text = body.decode("ascii", errors="replace")
    lines = text.split("\n")
    rows = []
    consumed = 0
    for offset, line in enumerate(lines):
        if consumed == count:
            rest = "".join(lines[offset:]).strip()
            if rest:
                raise PlyParseError(
                    f"trailing data after {count} vertices "
                    f"(line {header_lines + offset + 1})"
                )
            break
        tokens = line.split()
        if not tokens:
            continue
        lineno = header_lines + offset + 1
        if len(tokens) != len(props):
            raise PlyParseError(
                f"expected {len(props)} values, got {len(tokens)} (line {lineno})"
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            raise PlyParseError(f"non-numeric vertex value (line {lineno})") from None
        consumed += 1
    if consumed < count:
        raise PlyParseError(
            f"truncated body: header declares {count} vertices, found {consumed}"
        )
    table = np.asarray(rows, dtype=np.float64).reshape(count, len(props))
    return {name: table[:, i] for i, (name, _) in enumerate(props)}


def oracle_ascii_body(cloud: PointCloud) -> bytes:
    """Per-vertex ASCII PLY body, as write_ply(cloud, "ascii") must emit it."""
    out = []
    for i in range(len(cloud)):
        x, y, z = cloud.coords[i]
        if cloud.colors is not None:
            r, g, b = cloud.colors[i]
            out.append(f"{x} {y} {z} {r} {g} {b}\n".encode("ascii"))
        else:
            out.append(f"{x} {y} {z}\n".encode("ascii"))
    return b"".join(out)


def slab_plan(cloud: PointCloud, axis: Axis, width: int, overlap: int) -> SlicePlan:
    """Fixed `width`-voxel slabs from the low face of `axis` (empty ones skipped), no planner."""
    col = cloud.coords[:, axis]
    lo, hi = int(col.min()), int(col.max()) + 1
    specs = []
    for start in range(lo, hi, width):
        end = min(start + width, hi)
        count = int(np.count_nonzero((col >= start) & (col < end)))
        if count:  # an empty core removes nothing, and its band may be empty
            specs.append(SliceSpec(
                index=len(specs),
                side=Side(axis, -1),
                core=AxisRange(axis, start, end),
                extended=AxisRange(axis, start, min(end + overlap, hi)),
                point_count=count,
                psi=0.0,
            ))
    return SlicePlan(config=slicer.SlicerConfig(overlap=overlap), original_size=len(cloud),
                     slices=tuple(specs))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
