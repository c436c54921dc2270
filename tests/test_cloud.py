import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import AxisRange, PointCloud, extract_range, remove_range
from sliceseg.cloud import Axis, Side, SIDES, _dedup_first, distinct, run_starts

from conftest import cube_cloud, make_cloud, oracle_dedup_first, point_set, random_cloud


def test_dedup_keeps_first_and_counts():
    cloud = PointCloud(
        np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]]),
        colors=np.array([[10, 0, 0], [0, 20, 0], [0, 0, 30]], dtype=np.uint8),
    )
    assert len(cloud) == 2
    assert cloud.duplicates_merged == 1
    assert cloud.colors[0].tolist() == [10, 0, 0]


def test_bit_depth_auto_selection():
    assert make_cloud([(1, 2, 3)]).bit_depth == 10
    assert make_cloud([(1023, 0, 0)]).bit_depth == 10
    assert make_cloud([(1024, 0, 0)]).bit_depth == 11
    assert make_cloud([(65535, 0, 0)]).bit_depth == 16


def test_explicit_bit_depth_validates():
    with pytest.raises(ValueError):
        make_cloud([(300, 0, 0)], bit_depth=8)
    with pytest.raises(ValueError):
        make_cloud([(0, 0, 0)], bit_depth=17)
    assert make_cloud([(200, 0, 0)], bit_depth=8).bit_depth == 8


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        make_cloud([(-1, 0, 0)])


@pytest.mark.parametrize(
    "coords, colors, message",
    [
        (np.zeros((2, 2)), None, "coords must be (N, 3), got shape (2, 2)"),
        ([(0, 0, 0), (1, 1, 1)], np.zeros((2, 4)), "colors must be (N, 3) matching coords"),
        ([(0, 0, 0), (1, 1, 1)], np.zeros((1, 3)), "colors must be (N, 3) matching coords"),
        ([(65536, 0, 0)], None, "coordinate 65536 exceeds 16-bit grid"),
    ],
    ids=["two-columns", "four-channels", "one-color-for-two-points", "beyond-16-bits"],
)
def test_constructor_rejects_malformed_arrays(coords, colors, message):
    with pytest.raises(ValueError) as e:
        PointCloud(coords, colors)
    assert str(e.value) == message


def test_bbox_is_tight():
    cloud = make_cloud([(1, 5, 2), (7, 5, 9), (3, 6, 2)])
    mins, maxs = cloud.bbox
    assert mins.tolist() == [1, 5, 2]
    assert maxs.tolist() == [7, 6, 9]
    # shrinking any face by one voxel excludes at least one point
    for axis in Axis:
        assert (cloud.coords[:, axis] == mins[axis]).any()
        assert (cloud.coords[:, axis] == maxs[axis]).any()


def test_axis_range_validation():
    with pytest.raises(ValueError):
        AxisRange(Axis.X, 5, 5)
    with pytest.raises(ValueError):
        AxisRange(Axis.X, -1, 4)
    assert AxisRange(Axis.Z, 2, 6).width == 4


def test_side_enumeration():
    assert len(SIDES) == 6
    assert [(s.axis, s.sign) for s in SIDES] == [
        (Axis.X, +1), (Axis.X, -1), (Axis.Y, +1), (Axis.Y, -1), (Axis.Z, +1), (Axis.Z, -1)
    ]
    with pytest.raises(ValueError):
        Side(Axis.X, 0)


def test_extract_range_half_open_semantics():
    cube = cube_cloud()
    low = extract_range(cube, AxisRange(Axis.Z, 0, 1))
    assert sorted(point_set(low)) == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert len(extract_range(cube, AxisRange(Axis.Z, 0, 2))) == 8
    assert len(extract_range(cube, AxisRange(Axis.Z, 5, 6))) == 0
    # the mask itself: lo is in, hi is out, and an empty column gives an empty mask
    band = AxisRange(Axis.Z, 2, 4)
    assert band.holds(np.array([1, 2, 3, 4])).tolist() == [False, True, True, False]
    assert band.holds(np.array([], dtype=np.int32)).shape == (0,)


def test_remove_range_complement():
    cube = cube_cloud()
    high = remove_range(cube, AxisRange(Axis.Z, 0, 1))
    assert sorted(point_set(high)) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert len(remove_range(cube, AxisRange(Axis.X, 5, 9))) == 8
    assert len(remove_range(cube, AxisRange(Axis.X, 0, 2))) == 0


def test_extract_remove_partition_property(rng):
    for _ in range(25):
        cloud = random_cloud(rng, max_points=200)
        axis = Axis(int(rng.integers(0, 3)))
        lo = int(rng.integers(0, 30))
        hi = lo + int(rng.integers(1, 20))
        r = AxisRange(axis, lo, hi)
        inside, outside = extract_range(cloud, r), remove_range(cloud, r)
        assert len(inside) + len(outside) == len(cloud)
        assert point_set(inside) | point_set(outside) == point_set(cloud)
        assert not (point_set(inside) & point_set(outside))


def test_cloud_is_immutable():
    cloud = cube_cloud()
    with pytest.raises(ValueError):
        cloud.coords[0, 0] = 9


def test_translate_preserves_structure():
    cloud = make_cloud([(1, 2, 3), (4, 5, 6)])
    moved = PointCloud(cloud.coords.astype(np.int64) + (10, 0, 2))
    assert point_set(moved) == {(11, 2, 5), (14, 5, 8)}
    with pytest.raises(ValueError):
        PointCloud(cloud.coords.astype(np.int64) + (-2, 0, 0))


int64s = st.integers(-(2**63), 2**63 - 1)
key_arrays = st.one_of(
    st.lists(int64s, max_size=80),
    st.lists(st.integers(0, 5), max_size=80),  # long runs of equal keys
    st.builds(lambda key, n: [key] * n, int64s, st.integers(0, 20)),  # all equal
).map(lambda keys: np.array(keys, dtype=np.int64))


@pytest.mark.parametrize("keys", [[], [7], [3, 3, 3, 3], [2, 1, 2, 1], [-(2**63), 2**63 - 1]])
def test_distinct_edge_cases_equal_np_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    got = distinct(keys)
    assert got.dtype == np.unique(keys).dtype
    assert np.array_equal(got, np.unique(keys))


@settings(max_examples=200, deadline=None)
@given(key_arrays)
def test_distinct_equals_np_unique(keys):
    got, want = distinct(keys), np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    ordered = np.sort(keys)
    assert np.array_equal(ordered[run_starts(ordered)], want)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
    st.integers(1, 6),
    st.booleans(),
)
def test_dedup_first_matches_np_unique_oracle(seed, count, extent, with_colors):
    # a small extent packs many points onto few voxels: most rows are duplicates
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, extent, size=(count, 3)).astype(np.int64)
    colors = rng.integers(0, 256, size=(count, 3)).astype(np.uint8) if with_colors else None
    got_coords, got_colors, got_merged = _dedup_first(coords, colors)
    want_coords, want_colors, want_merged = oracle_dedup_first(coords, colors)
    assert got_merged == want_merged
    assert np.array_equal(got_coords, want_coords)
    if with_colors:
        assert np.array_equal(got_colors, want_colors)
    else:
        assert got_colors is None
    cloud = PointCloud(coords, colors)
    assert np.array_equal(cloud.coords, want_coords.reshape(-1, 3))
    assert cloud.duplicates_merged == want_merged


def test_sorted_coords_is_lexicographic(rng):
    """Keys order by (x, y, z): sorting points by key sorts their coordinates."""
    cloud = random_cloud(rng, max_points=300)
    c = cloud.coords
    by_key = c[np.argsort(cloud.coordinate_keys())]
    assert np.array_equal(by_key, c[np.lexsort((c[:, 2], c[:, 1], c[:, 0]))])
