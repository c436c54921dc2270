"""Allocation budgets of the frame path's whole-cloud steps.

Each step runs once on bulk-codec's frame, 200,000 uniform-random points at
extent 256, and may hold at most its budget in bytes per point at once, as
`traced_peak` counts them. Before the ASCII body was read and written in
chunks and the int64/float64 copies of the cloud went, the same steps held
198 (ASCII read), 61 (binary read), 120 (ASCII write), 145 (generator),
90 (sparse labeling), 78 (decoded cloud) and 52 (same_points) bytes per
point, so each budget fails on that code. Decoding the frame's slab stream
held 28.7 bytes per point while its records kept int64 fields, and its
decoded cloud 48.4 while the merge sorted every stored row, 39.4 while
it keyed only the rows two records' depth ranges share, and 42.5 with
every stored row keyed once in record order; with each point stored once
(records hold slice cores, not overlap bands) it goes through the
cloud's own dedup and holds 29.0. Decoding held 19.0 while its records
split each point's word into three int32 fields, 12.6 with the words kept
as stored while the 223,461 rows of the overlap bands were stored, and
holds 11.2 with the 200,000 rows of the cores; both budgets sit just
above the new figures. The ASCII read
held 39.4 bytes per point while it built token values digit by digit,
and 46.9 while it read eight digits a word for every token, mostly the
copy `take` makes of the chunk's unaligned word view (8 bytes a chunk
byte) and the float64 columns; reading tokens of at most 4 digits from
4-byte words into integer columns holds 38.7, and the budget sits just
above that. The sparse
labeling held 58.4 bytes per point while its sorted-key search ran once per
half-neighborhood offset, and holds 52.4 with one search per neighbor
column.

Labeling a surface holds more, since its pair list is long: the 202,400-point
extent-256 sphere shell has 957,624 pairs, and its box is too large for the
index grid. Its labeling held 255.8 bytes per point with one search per
offset, and the budget sits just above that.

The planner's budget is set on the 50,768-point extent-128 sphere shell, a
surface like a frame's, whose plan the slicer tests pin. `build_plan` held
400.5 bytes per point there when each slab scattered its members'
positions over the whole planned cloud; the budget sits just above that,
so the per-axis rank tables that replaced the scatter cannot grow the
planner's peak unseen. With the pair list built before those tables, it
holds 382.7. The decoded cloud of that plan's stream, whose records slice
all three axes, held 53.6 bytes per point while such a stream went through
the cloud's own dedup, and 47.6 with the one stable-sort merge. With each
point stored once it goes through that dedup again and holds 29.3, and the
budget sits just above that.
"""

import numpy as np
import pytest

from sliceseg import codec, projection
from sliceseg.cloud import Axis
from sliceseg.ply import read_ply, write_ply
from sliceseg.slicer import SlicerConfig, build_plan
from sliceseg.synthetic import gen_synthetic

from conftest import slab_plan, traced_peak

POINTS = 200_000
FRAME = ("uniform-random", {"extent": 256, "count": POINTS}, 1)


@pytest.fixture(scope="module")
def frame():
    return gen_synthetic(*FRAME)


def per_point(peak: int) -> float:
    return peak / POINTS


def test_generator_budget():
    cloud, peak = traced_peak(gen_synthetic, *FRAME)
    assert len(cloud) == POINTS
    assert per_point(peak) <= 96


@pytest.mark.parametrize("fmt, budget", [("ascii", 40), ("binary", 45)])
def test_read_budget(frame, fmt, budget):
    data = write_ply(frame, fmt)
    cloud, peak = traced_peak(read_ply, data)
    assert np.array_equal(cloud.coords, frame.coords)
    assert per_point(peak) <= budget


def test_ascii_write_budget(frame):
    data, peak = traced_peak(write_ply, frame, "ascii")
    assert len(data) > 10 * POINTS  # the body is about 10.7 bytes a point
    assert per_point(peak) <= 32


def assert_sorted_key_path(cloud):
    mins, maxs = cloud.bbox
    cells = int(np.prod(maxs.astype(np.int64) - mins + 3))
    assert cells > projection._GRID_CELL_LIMIT  # too large a box for the grid: sorted keys


def test_sparse_labeling_budget(frame):
    assert_sorted_key_path(frame)
    labeling, peak = traced_peak(projection.label_components, frame)
    assert labeling.labels.shape == (POINTS,)
    assert per_point(peak) <= 56


def test_pair_heavy_labeling_budget():
    shell = gen_synthetic("sphere-shell", {"extent": 256}, 0)
    assert_sorted_key_path(shell)
    assert len(shell) == 202_400 and len(projection.neighbor_pairs(shell)[0]) == 957_624
    labeling, peak = traced_peak(projection.label_components, shell)
    assert labeling.count == 1
    assert peak / len(shell) <= 258


def test_decode_budget(frame):
    stream = codec.encode(frame, slab_plan(frame, Axis.Z, 16, 2))
    decoded, peak = traced_peak(codec.decode, stream)
    assert sum(r.point_count for r in decoded.records) == POINTS  # each point stored once
    assert per_point(peak) <= 12


def test_decoded_cloud_budget(frame):
    decoded = codec.decode(codec.encode(frame, slab_plan(frame, Axis.Z, 16, 2)))
    cloud, peak = traced_peak(lambda: decoded.cloud)
    assert cloud.same_points(frame)
    assert per_point(peak) <= 30


def test_same_points_budget(frame):
    copy = read_ply(write_ply(frame, "binary"))
    same, peak = traced_peak(frame.same_points, copy)
    assert same
    assert per_point(peak) <= 32


SHELL_128 = ("sphere-shell", {"extent": 128}, 0)
SHELL_CONFIG = SlicerConfig(theta=64, threshold_frac="0.05", overlap=2)


def test_plan_budget():
    shell = gen_synthetic(*SHELL_128)
    plan, peak = traced_peak(build_plan, shell, SHELL_CONFIG)
    assert sum(s.point_count for s in plan.slices) == len(shell) == 50_768
    assert peak / len(shell) <= 402


def test_planner_stream_decoded_cloud_budget():
    shell = gen_synthetic(*SHELL_128)
    decoded = codec.decode(codec.encode(shell, build_plan(shell, SHELL_CONFIG)))
    assert len({r.axis for r in decoded.records}) == 3
    cloud, peak = traced_peak(lambda: decoded.cloud)
    assert cloud.same_points(shell)
    assert peak / len(shell) <= 30
