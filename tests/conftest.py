"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's vectorized paths: pixel
sets via Python sets, components via pairwise union-find, capture via a
per-pixel depth dict. Tests freeze expectations against these. The width
search oracle labels every eligible width on every side, which the
library's pruned search must match exactly; it scores a fixed-plane slab
by its distinct (component, pixel) pairs on the plane facing the side.
The capture oracle projects one component at a time, which the library's
one-pass capture must match.
The ASCII PLY oracles read and write one vertex line at a time, which the
library's whole-body reader and writer must match byte for byte and error
for error; the writer must also match the earlier `%d` row format applied
to the whole body at once. The SWSG oracle reads a stream one field at a
time with a sequential bit reader, which the library's table-driven
decoder must match record for record and error for error on every
canonical stream. The
labeling oracle runs scipy's csgraph over its own neighbor search, and
`label_components` must give the same labels array for array.
The key-set oracles are the library's earlier forms before its sort-based
ones: dedup through `np.unique(return_index=True)`, slice replay through
`extract_range`/`remove_range` on shrinking clouds and through boolean
masks over the (N, 3) coordinates, and the record point order through a
three-column `np.lexsort`. The sphere-shell oracle is the generator's
earlier form over three extent^3 meshgrids. The byte strategies draw inputs
for the readers' fuzz properties: mostly near-valid PLY files and SWSG
streams, so that the draws reach past the magic checks.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from sliceseg import (
    CaptureConfig,
    DecodedStream,
    DecodeError,
    PointCloud,
    SlicePlan,
    SliceSpec,
    compute_psi,
    extract_slices,
    label_components,
    slicer,
)
from sliceseg.cloud import (
    PLANE_COLS,
    SIDES,
    Axis,
    AxisRange,
    Side,
    extract_range,
    remove_range,
    voxel_keys,
)
from sliceseg.codec import DecodedRecord
from sliceseg.ply import PlyParseError
from sliceseg.slicer import Candidate, PlanMismatchError

# Property tests draw the same examples on every run, independent of the
# local example database; each test keeps its own max_examples.
settings.register_profile("sliceseg", derandomize=True, deadline=None)
settings.load_profile("sliceseg")


def make_cloud(points, colors=None, bit_depth=None) -> PointCloud:
    return PointCloud(np.asarray(list(points), dtype=np.int64).reshape(-1, 3),
                      colors=colors, bit_depth=bit_depth)


def point_set(cloud: PointCloud) -> set[tuple[int, int, int]]:
    return {(int(x), int(y), int(z)) for x, y, z in cloud.coords}


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


_HALF_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) > (0, 0, 0)],
    dtype=np.int64,
)


def oracle_label_sparse(coords: np.ndarray) -> np.ndarray:
    """Raw 26-connected component labels from scipy's csgraph over the neighbor edges."""
    n = coords.shape[0]
    c = coords.astype(np.int64) + 1  # guard against -1 underflow in keys
    keys = voxel_keys(c[:, 0], c[:, 1], c[:, 2])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    src_list = []
    dst_list = []
    for off in _HALF_OFFSETS:
        nb = c + off
        nb_keys = voxel_keys(nb[:, 0], nb[:, 1], nb[:, 2])
        pos = np.clip(np.searchsorted(sorted_keys, nb_keys), 0, n - 1)
        hit = sorted_keys[pos] == nb_keys
        if hit.any():
            src_list.append(np.flatnonzero(hit))
            dst_list.append(order[pos[hit]])

    if not src_list:
        return np.arange(n, dtype=np.int64)
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    graph = coo_matrix((np.ones(src.shape[0], dtype=np.int8), (src, dst)), shape=(n, n))
    _, raw = connected_components(graph, directed=False)
    return raw.astype(np.int64)


def relabel_first_occurrence(raw: np.ndarray) -> np.ndarray:
    """The same partition with labels numbered in order of each component's first point."""
    n_labels = int(raw.max()) + 1
    first = np.full(n_labels, raw.shape[0], dtype=np.int64)
    np.minimum.at(first, raw, np.arange(raw.shape[0], dtype=np.int64))
    remap = np.empty(n_labels, dtype=np.int64)
    remap[np.argsort(first)] = np.arange(n_labels)  # first indices are distinct
    return remap[raw]


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


def meshgrid_sphere_shell(extent: int) -> np.ndarray:
    """Sphere-shell coordinates from three extent^3 meshgrids, in the generator's order."""
    r = np.arange(extent)
    xs, ys, zs = np.meshgrid(r, r, r, indexing="ij")
    center = (extent - 1) / 2.0
    radius = (extent - 1) / 2.0
    dist = np.sqrt((xs - center) ** 2 + (ys - center) ** 2 + (zs - center) ** 2)
    mask = np.abs(dist - radius) <= 0.5
    return np.stack([xs[mask], ys[mask], zs[mask]], axis=1)


def random_cloud(rng: np.random.Generator, max_points: int = 400, extent_range=(6, 40)) -> PointCloud:
    """Unique random voxels in a small box; dense enough to form components."""
    extent = int(rng.integers(*extent_range))
    count = int(rng.integers(2, max_points + 1))
    coords = rng.integers(0, extent, size=(count, 3), dtype=np.int64)
    return PointCloud(coords)


def extent(cloud: PointCloud, axis: Axis) -> int:
    """Number of occupied coordinate positions spanned along `axis`."""
    mins, maxs = cloud.bbox
    return int(maxs[axis] - mins[axis]) + 1


def working_cloud(state) -> PointCloud:
    """A plan state's working points as a cloud, in planned-cloud order."""
    return PointCloud(state.columns[:, np.sort(state.order[0])].T)


def slab(cloud: PointCloud, side: Side, width: int) -> tuple[AxisRange, PointCloud]:
    """Core range and points of the width-`width` slab inward from `side`'s face."""
    mins, maxs = cloud.bbox
    axis = side.axis
    width = min(width, extent(cloud, axis))
    if side.positive:
        core = AxisRange(axis, int(maxs[axis]) + 1 - width, int(maxs[axis]) + 1)
    else:
        core = AxisRange(axis, int(mins[axis]), int(mins[axis]) + width)
    return core, extract_range(cloud, core)


def slab_lost(sub: PointCloud, side: Side, plane_rule: str) -> int:
    """Lost points of a slab: each component on its best plane, or on the plane facing `side`.

    A fixed-plane slab's components keep one point per distinct pixel they
    cover on that plane, counted here as a set of (label, u, v) tuples.
    """
    if plane_rule == "best-plane":
        return compute_psi(sub).lost
    u, v = PLANE_COLS[side.axis]
    labels = label_components(sub).labels.tolist()
    return len(sub) - len({(k, p[u], p[v]) for k, p in zip(labels, sub.coords.tolist())})


def candidate_psi(cloud: PointCloud, side: Side, width: int, plane_rule: str = "best-plane"):
    """(point count, loss fraction) of one slab; (0, None) when it is empty."""
    _, sub = slab(cloud, side, width)
    if len(sub) == 0:
        return 0, None
    return len(sub), slab_lost(sub, side, plane_rule) / len(sub)


def _rank(cand: Candidate):
    """Planner preference, smallest first: least loss, then larger width, then side order."""
    return Fraction(cand.lost, cand.count), -cand.width, SIDES.index(cand.side)


def brute_candidates(cloud: PointCloud, side: Side, config, original_size: int):
    """Exhaustive width loop: one Candidate per eligible width, each labeled afresh."""
    floor = config.min_points(original_size)
    cands = []
    for width in range(1, min(config.theta, extent(cloud, side.axis)) + 1):
        _, sub = slab(cloud, side, width)
        if len(sub) >= floor:
            lost = slab_lost(sub, side, config.plane_rule)
            cands.append(Candidate(side, width, len(sub), lost))
    return cands


def brute_best_width(cloud: PointCloud, side: Side, config, original_size: int):
    """The best of `brute_candidates`: every eligible width is labeled and ranked."""
    return min(brute_candidates(cloud, side, config, original_size), key=_rank, default=None)


def brute_select_slice(state, index: int = 0, **_):
    """Drop-in for `slicer.select_slice` that runs the exhaustive loop on every side."""
    cloud, config = working_cloud(state), state.config
    cands = [brute_best_width(cloud, side, config, state.original_size) for side in SIDES]
    best = min((c for c in cands if c is not None), key=_rank, default=None)
    if best is None:
        return None
    core, _ = slab(cloud, best.side, best.width)
    axis = core.axis
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
    captured = set()
    for k in range(labeling.count):
        points = cloud.coords[labeling.labels == k].tolist()
        axis, _ = brute_best_plane(points)
        captured |= brute_capture(points, axis, config.layer_mode, config.surface_thickness)
    return np.unique(voxel_keys(*np.array(sorted(captured), dtype=np.int64).T))


def oracle_plan_captured(cloud: PointCloud, plan: SlicePlan) -> int:
    """Points captured by single-layer capture per slice, unioned over the slices."""
    single = CaptureConfig("single")
    per_slice = [oracle_captured_keys(sub, single) for _, sub in extract_slices(cloud, plan)]
    return int(np.unique(np.concatenate(per_slice)).shape[0])


def oracle_dedup_first(coords: np.ndarray, colors):
    """(coords, colors, merged) keeping each voxel's first occurrence, via np.unique."""
    n = coords.shape[0]
    if n == 0:
        return coords, colors, 0
    keys = voxel_keys(coords[:, 0], coords[:, 1], coords[:, 2])
    _, first_idx = np.unique(keys, return_index=True)
    first_idx.sort()
    kept_colors = colors[first_idx] if colors is not None else None
    return coords[first_idx], kept_colors, n - first_idx.shape[0]


def oracle_extract_slices(cloud: PointCloud, plan: SlicePlan):
    """Plan replay that extracts each band from, and removes each core of, a shrinking cloud."""
    if plan.original_size != len(cloud):
        raise PlanMismatchError(
            f"plan was built for {plan.original_size} points, cloud has {len(cloud)}"
        )
    out = []
    working = cloud
    for spec in plan.slices:
        extended_points = extract_range(working, spec.extended)
        core_count = len(extract_range(working, spec.core))
        if core_count != spec.point_count:
            raise PlanMismatchError(
                f"slice {spec.index}: plan expects {spec.point_count} core points, "
                f"replay found {core_count}"
            )
        out.append((spec, extended_points))
        working = remove_range(working, spec.core)
    if len(working) != 0:
        raise PlanMismatchError(f"plan leaves {len(working)} points uncovered")
    return out


def mask_extract_slices(cloud: PointCloud, plan: SlicePlan):
    """Plan replay by boolean masks over a working index array, indexing the (N, 3) coords."""
    if plan.original_size != len(cloud):
        raise PlanMismatchError(
            f"plan was built for {plan.original_size} points, cloud has {len(cloud)}"
        )
    out = []
    working = np.arange(len(cloud))
    for spec in plan.slices:
        column = cloud.coords[working, spec.core.axis]
        in_core = (column >= spec.core.lo) & (column < spec.core.hi)
        in_extended = (column >= spec.extended.lo) & (column < spec.extended.hi)
        core_count = int(np.count_nonzero(in_core))
        if core_count != spec.point_count:
            raise PlanMismatchError(
                f"slice {spec.index}: plan expects {spec.point_count} core points, "
                f"replay found {core_count}"
            )
        out.append((spec, cloud.subset(working[in_extended])))
        working = working[~in_core]
    if len(working) != 0:
        raise PlanMismatchError(f"plan leaves {len(working)} points uncovered")
    return out


def oracle_record_order(offsets: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Point order of a record: by offset, then u, then v."""
    return np.lexsort((vs, us, offsets))


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


def percent_ascii_body(cloud: PointCloud) -> bytes:
    """ASCII PLY body from one `%d` row format repeated over every vertex, as a Python tuple."""
    table = cloud.coords if cloud.colors is None else np.hstack([cloud.coords, cloud.colors])
    row = "%d %d %d\n" if cloud.colors is None else "%d %d %d %d %d %d\n"
    return ((row * len(cloud)) % tuple(table.ravel().tolist())).encode("ascii")


def read_bits(data: bytes, bit_offset: int, nbits: int) -> int:
    """The `nbits` bits of `data` from bit `bit_offset` on, MSB first, as an integer."""
    end = bit_offset + nbits
    if (end + 7) // 8 > len(data):
        raise EOFError("bitstream exhausted")
    chunk = int.from_bytes(data[bit_offset // 8 : (end + 7) // 8], "big")
    return (chunk >> (-end % 8)) & ((1 << nbits) - 1)


def layout_header_bits(bit_depth: int) -> int:
    """Record header bits by the README's SWSG layout:
    `axis(2) sign(1) terminal(1) base(B) width(7) d-1(4) point_count(32) color_flag(1)`."""
    return 2 + 1 + 1 + bit_depth + 7 + 4 + 32 + 1


def layout_payload_bits(record: DecodedRecord, bit_depth: int) -> int:
    """Point bits of a record by the README's layout: `offset(d) u(B) v(B) [rgb(24)]` a point."""
    return record.point_count * (record.d + 2 * bit_depth + (24 if record.color_flag else 0))


def layout_stream_bytes(stream: DecodedStream) -> int:
    """Stream length by the README's layout: 13 header bytes, then each record padded to a byte."""
    b = stream.bit_depth
    return 13 + sum(
        (layout_header_bits(b) + layout_payload_bits(r, b) + 7) // 8 for r in stream.records
    )

class _SequentialBits:
    def __init__(self, data: bytes, start: int) -> None:
        self.data = data
        self.bit = start * 8

    def read(self, nbits: int) -> int:
        value = read_bits(self.data, self.bit, nbits)
        self.bit += nbits
        return value


def oracle_decode(data: bytes) -> DecodedStream:
    """Field-by-field SWSG parser; same records and errors as `decode` on canonical streams.

    It checks no canonical form: nonzero padding and mixed color flags
    pass here, where `decode` raises a "noncanonical" error.
    """
    if len(data) < 4 or data[:4] != b"SWSG":
        raise DecodeError("bad magic", "bad magic: not an SWSG stream")
    if len(data) < 13:
        raise DecodeError("truncated", "truncated stream header")
    _, version, bit_depth, theta, overlap, slice_count = struct.unpack("<4sBBHBI", data[:13])
    if version != 1:
        raise DecodeError("unsupported version", f"unsupported version {version} (expected 1)")
    if not (8 <= bit_depth <= 16):
        raise DecodeError("invalid header", f"bit depth {bit_depth} out of range")
    if theta == 0:
        raise DecodeError("invalid header", "theta 0 out of range")
    position = 13
    records = []
    for index in range(slice_count):
        record, position = _oracle_record(data, position, index, bit_depth)
        records.append(record)
    if position != len(data):
        raise DecodeError(
            "trailing bytes",
            f"{len(data) - position} trailing bytes after {slice_count} records",
        )
    return DecodedStream(bit_depth=bit_depth, theta=theta, overlap=overlap, records=tuple(records))


def _oracle_record(data: bytes, start: int, index: int, bit_depth: int):
    reader = _SequentialBits(data, start)
    try:
        axis_code = reader.read(2)
        if axis_code > 2:
            raise DecodeError("invalid record", "axis code out of range", index)
        sign = 1 if reader.read(1) else -1
        terminal = bool(reader.read(1))
        base = reader.read(bit_depth)
        width_field = reader.read(7)
        d = reader.read(4) + 1
        count = reader.read(32)
        color_flag = bool(reader.read(1))
    except EOFError:
        raise DecodeError("truncated", "stream ends mid-record", index) from None

    if width_field:
        if d != max(1, (width_field - 1).bit_length()):
            raise DecodeError(
                "invalid record", f"offset bits {d} inconsistent with width {width_field}", index
            )
        if base + width_field > (1 << bit_depth):
            raise DecodeError("invalid record", "slice range exceeds the coordinate grid", index)

    widths = [d, bit_depth, bit_depth] + ([8, 8, 8] if color_flag else [])
    end = (reader.bit + count * sum(widths) + 7) // 8
    if end > len(data):
        raise DecodeError(
            "truncated", f"record claims {count} points but the stream is shorter", index
        )
    rows = np.array([[reader.read(w) for w in widths] for _ in range(count)],
                    dtype=np.int64).reshape(count, len(widths))
    offsets, us, vs = rows[:, 0], rows[:, 1], rows[:, 2]

    if width_field and offsets.size and int(offsets.max()) >= width_field:
        raise DecodeError(
            "offset out of range", f"offset {int(offsets.max())} >= slice width {width_field}", index
        )
    if offsets.size and base + int(offsets.max()) >= (1 << bit_depth):
        raise DecodeError(
            "offset out of range",
            f"offset {int(offsets.max())} pushes coordinate past the grid",
            index,
        )
    record = DecodedRecord(
        axis=Axis(axis_code),
        sign=sign,
        terminal=terminal,
        base=base,
        width_field=width_field,
        d=d,
        color_flag=color_flag,
        offsets=offsets,
        us=us,
        vs=vs,
        colors=rows[:, 3:].astype(np.uint8) if color_flag else None,
    )
    return record, end


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



_PLY_HEADER_LINES = [
    b"format ascii 1.0", b"format binary_little_endian 1.0", b"format binary_big_endian 1.0",
    b"format ascii", b"element vertex 0", b"element vertex 2", b"element vertex -1",
    b"element vertex 1e3", b"element vertex 99999999999", b"element face 1", b"element vertex",
    b"property float x", b"property float y", b"property float z", b"property double x",
    b"property int y", b"property uchar z", b"property uchar red", b"property uchar green",
    b"property uchar blue", b"property float red", b"property list uchar int vertex_indices",
    b"property quad w", b"property float", b"comment end_header", b"obj_info x", b"", b"\t",
]
_PLY_TYPES = {"float": "<f4", "double": "<f8", "int": "<i4", "uint": "<u4", "short": "<i2",
              "ushort": "<u2", "uchar": "<u1", "char": "<i1", "float32": "<f4"}
_PLY_TOKENS = [b"0", b"1", b"7", b"255", b"65535", b"007", b"2.5", b"1e1"]
_PLY_BAD_TOKENS = [b"256", b"-1", b"1.5", b"1e30", b"nan", b"inf", b"65536", b"x", b"\xff"]


@st.composite
def ply_like_bytes(draw) -> bytes:
    """Mostly a PLY file the reader's subset allows, now and then with one fault.

    A draw is raw bytes, a header of mixed valid and broken lines, or a well-formed
    header over a body whose rows match it; that body may hold a bad token, a
    row too many or too few, or a binary body cut short.
    """
    mode = draw(st.integers(0, 9))
    if mode == 0:
        return draw(st.binary(max_size=80))
    if mode == 1:
        lines = [draw(st.sampled_from([b"ply", b"PLY", b" ply"]))]
        lines += draw(st.lists(st.sampled_from(_PLY_HEADER_LINES), max_size=9))
        body = draw(st.binary(max_size=64))
        return b"\n".join(lines) + b"\nend_header\n" + body
    binary = draw(st.booleans())
    names = ["x", "y", "z"] + (["red", "green", "blue"] if draw(st.booleans()) else [])
    names = draw(st.permutations(names))
    types = [draw(st.sampled_from(sorted(_PLY_TYPES))) for _ in names]
    count = draw(st.integers(0, 4))
    fault = draw(st.integers(0, 6))  # 0..2 none; 3 token, 4 row count, 5 header, 6 tail
    header = [b"ply", b"format binary_little_endian 1.0" if binary else b"format ascii 1.0",
              b"element vertex %d" % count]
    header += [b"property %s %s" % (t.encode(), n.encode()) for t, n in zip(types, names)]
    if fault == 5:
        header.insert(draw(st.integers(1, len(header))), draw(st.sampled_from(_PLY_HEADER_LINES)))
    rows = count + (draw(st.sampled_from([-1, 1])) if fault == 4 and count else 0)
    values = [[draw(st.integers(0, 127)) for _ in names] for _ in range(rows)]
    if binary:
        dtype = np.dtype([(n, _PLY_TYPES[t]) for n, t in zip(names, types)])
        body = np.array([tuple(v) for v in values], dtype=dtype).tobytes()
        if fault == 3 and body:
            body = body[: draw(st.integers(0, len(body) - 1))]
    else:
        tokens = [[draw(st.sampled_from(_PLY_TOKENS)) for _ in names] for _ in range(rows)]
        if fault == 3 and tokens:
            column = draw(st.integers(0, len(names) - 1))
            tokens[-1][column] = draw(st.sampled_from(_PLY_BAD_TOKENS))
        body = b"".join(b" ".join(row) + b"\n" for row in tokens)
    if fault == 6:
        body += draw(st.binary(min_size=1, max_size=8))
    return b"\n".join(header) + b"\nend_header\n" + body


def _bits_to_bytes(fields: list[tuple[int, int]]) -> bytes:
    """MSB-first (value, width) fields, zero-padded to a byte."""
    bits = "".join(format(value, f"0{width}b") for value, width in fields)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


@st.composite
def swsg_like_bytes(draw) -> bytes:
    """Mostly an SWSG stream `encode` could write, built field by field, at most one fault.

    A draw is raw bytes, or a stream header and records whose fields are drawn in
    their valid ranges; one fault may replace a header field, a record's axis, d
    or point count, or cut or extend the stream.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    fault = draw(st.integers(0, 9))  # 4..7 pick a fault, other values none
    b = draw(st.sampled_from([8, 10, 12, 16]))
    count = draw(st.integers(0, 3))
    header = [1, b, 64, 2, count]  # version, B, theta, overlap, slice count
    if fault == 4:
        bad_fields = [(0, 0), (0, 2), (1, 7), (1, 17), (2, 0), (4, count + 1)]
        field, bad = draw(st.sampled_from(bad_fields))
        header[field] = bad
    data = struct.pack("<4sBBHBI", b"SWSG", *header)
    color = draw(st.integers(0, 1))
    for index in range(count):
        width = draw(st.integers(0, 127))
        d = max(1, (width - 1).bit_length()) if width else draw(st.integers(7, 16))
        base = draw(st.integers(0, (1 << b) - max(width, 1)))
        span = width or min(1 << d, (1 << b) - base)
        points = sorted({
            (draw(st.integers(0, span - 1)), draw(st.integers(0, (1 << b) - 1)),
             draw(st.integers(0, (1 << b) - 1)))
            for _ in range(draw(st.integers(0, 4)))
        })
        axis, n = draw(st.integers(0, 2)), len(points)
        if fault == 5 and index == 0:
            faults = [(3, d, n), (axis, d % 16 + 1, n), (axis, d, 2**32 - 1)]
            axis, d, n = draw(st.sampled_from(faults))
        fields = [(axis, 2), (draw(st.integers(0, 1)), 1), (index == count - 1, 1), (base, b),
                  (width, 7), (d - 1, 4), (n, 32), (color, 1)]
        for offset, u, v in points:
            fields += [(offset, d), (u, b), (v, b)]
            fields += [(draw(st.integers(0, 255)), 8) for _ in range(3 * color)]
        data += _bits_to_bytes(fields)
    if fault == 6:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif fault == 7:
        data += draw(st.binary(min_size=1, max_size=4))
    return data
