import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import (
    CaptureConfig,
    best_plane,
    compute_psi,
    label_components,
    simulate_capture,
)
from sliceseg import projection
from sliceseg.cloud import (
    PLANE_COLS, Axis, AxisRange, PointCloud, Side, extract_range, remove_range
)
from sliceseg.projection import component_areas, neighbor_pairs
from sliceseg.synthetic import gen_synthetic

from conftest import (
    brute_best_plane,
    brute_capture,
    brute_components,
    brute_pixels,
    brute_psi,
    cube_cloud,
    make_cloud,
    oracle_label_sparse,
    point_set,
    random_cloud,
    relabel_first_occurrence,
    slab_lost,
)


def components_as_sets(cloud):
    labeling = label_components(cloud)
    groups = {}
    for i, lab in enumerate(labeling.labels):
        groups.setdefault(int(lab), set()).add(i)
    return labeling, list(groups.values())


class TestLabeling:
    def test_face_adjacent_points_connect(self):
        cloud = make_cloud([(0, 0, 0), (0, 0, 1)])
        assert label_components(cloud).count == 1

    def test_distant_points_are_separate(self):
        cloud = make_cloud([(0, 0, 0), (5, 5, 5)])
        assert label_components(cloud).count == 2

    def test_diagonal_adjacency_connects(self):
        cloud = make_cloud([(0, 0, 0), (1, 1, 1)])
        assert label_components(cloud).count == 1

    def test_empty_cloud_errors(self):
        with pytest.raises(ValueError, match="nothing to label"):
            label_components(make_cloud([]))

    def test_labels_follow_first_occurrence(self):
        cloud = make_cloud([(9, 9, 9), (0, 0, 0), (9, 9, 8), (0, 1, 0)])
        labeling = label_components(cloud)
        assert labeling.count == 2
        assert labeling.labels.tolist() == [0, 1, 0, 1]

    def test_matches_bruteforce_union_find(self, rng):
        for _ in range(20):
            cloud = random_cloud(rng, max_points=500, extent_range=(4, 25))
            labeling = label_components(cloud)
            expected = {frozenset(c) for c in brute_components(cloud.coords.tolist())}
            got = {}
            for i, lab in enumerate(labeling.labels):
                got.setdefault(int(lab), set()).add(i)
            assert {frozenset(c) for c in got.values()} == expected

    def test_grid_and_sorted_key_finders_agree(self, rng, monkeypatch):
        for _ in range(10):
            cloud = random_cloud(rng, max_points=300, extent_range=(4, 30))
            c = cloud.coords.astype(np.int64)
            chebyshev = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
            want = set(zip(*(i.tolist() for i in np.nonzero(np.triu(chebyshev == 1)))))
            grid_runs = []
            # the index grid in one gather, in groups of offsets and one offset a time; then sorted keys
            for cells_per_point, lookups in ((10**9, 1 << 15), (10**9, 500), (10**9, 1), (0, 1 << 15)):
                monkeypatch.setattr(projection, "_GRID_CELLS_PER_POINT", cells_per_point)
                monkeypatch.setattr(projection, "_GATHER_LOOKUPS", lookups)
                src, dst = neighbor_pairs(cloud)
                assert src.dtype == dst.dtype == np.intp
                pairs = list(zip(np.minimum(src, dst).tolist(), np.maximum(src, dst).tolist()))
                assert len(pairs) == len(want) and set(pairs) == want  # each pair once
                if cells_per_point:
                    grid_runs.append((src.tolist(), dst.tolist()))
            assert grid_runs[0] == grid_runs[1] == grid_runs[2]  # gather size keeps the order


@st.composite
def labeling_clouds(draw):
    """Clouds on a 10- or 16-bit grid: dense boxes, and spreads too sparse for the index grid."""
    bit_depth = draw(st.sampled_from([10, 16]))
    top = (1 << bit_depth) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["single", "isolated", "reverse-chain", "blobs", "box"]))
    if kind == "box":  # dense enough for the index grid, in a corner of the grid or not
        side = draw(st.integers(2, 12))
        corner = draw(st.sampled_from([0, top + 1 - side, int(rng.integers(0, top + 2 - side))]))
        points = corner + rng.integers(0, side, size=(draw(st.integers(1, 400)), 3))
    elif kind == "single":
        points = rng.integers(0, top + 1, size=(1, 3))
    elif kind == "isolated":  # even coordinates only: no two points are neighbors
        points = 2 * rng.integers(0, top // 2 + 1, size=(draw(st.integers(2, 300)), 3))
    elif kind == "reverse-chain":  # x steps by one, y and z by at most one: one component
        length = draw(st.integers(2, 600))
        x0 = draw(st.sampled_from([0, top + 1 - length]))
        walk = np.cumsum(rng.integers(-1, 2, size=(length, 2)), axis=0)
        yz = np.clip(rng.integers(0, top + 1, size=2) + walk, 0, top)
        points = np.column_stack([x0 + np.arange(length), yz])[::-1]
    else:  # many small components, some pinned to the grid's corners
        anchors = rng.integers(0, top + 1, size=(draw(st.integers(1, 60)), 3))
        pinned = min(draw(st.integers(0, 2)), anchors.shape[0])
        anchors[:pinned] = np.array([[0, 0, 0], [top, top, top]])[:pinned]
        box = draw(st.integers(2, 5))
        members = rng.integers(0, box, size=(anchors.shape[0], draw(st.integers(1, 40)), 3))
        points = np.clip(anchors[:, None, :] + members - box // 2, 0, top).reshape(-1, 3)
        points = points[rng.permutation(points.shape[0])]
    return PointCloud(points, bit_depth=bit_depth)


@settings(max_examples=300)
@given(labeling_clouds(), st.booleans())
def test_labels_match_csgraph_oracle(cloud, sorted_keys_only):
    want = relabel_first_occurrence(oracle_label_sparse(cloud.coords))
    with pytest.MonkeyPatch.context() as patch:
        if sorted_keys_only:
            patch.setattr(projection, "_GRID_CELLS_PER_POINT", 0)
        labeling = label_components(cloud)
    assert labeling.count == int(want.max()) + 1
    # each root is its component's first point, so labels follow first occurrence
    assert np.array_equal(labeling.labels, want)
    assert labeling.labels.dtype == np.int32 and not labeling.labels.flags.writeable


class TestBestPlane:
    def test_plane_picks_lossless_axis(self):
        plane = gen_synthetic("plane", {"extent": 10})
        assert best_plane(plane) == (Axis.Z, 100)

    def test_tie_break_prefers_x(self):
        cloud = make_cloud([(0, 0, 0), (0, 0, 1)])
        assert best_plane(cloud) == (Axis.X, 2)

    def test_cube_by_enumeration(self):
        # derived by enumerating all three projections: each yields 4 pixels
        cube = cube_cloud()
        expected = brute_best_plane(cube.coords.tolist())
        assert expected == (Axis.X, 4)
        assert best_plane(cube) == expected

    def test_matches_bruteforce(self, rng):
        for _ in range(15):
            cloud = random_cloud(rng, max_points=200)
            assert best_plane(cloud) == brute_best_plane(cloud.coords.tolist())


def test_empty_cloud_and_unknown_layer_mode_are_refused():
    empty = PointCloud(np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="^best_plane of an empty cloud$"):
        best_plane(empty)
    whole = projection.ComponentLabeling(np.zeros(0, dtype=np.int32), 0)
    with pytest.raises(ValueError, match="^cannot capture an empty cloud$"):
        simulate_capture(empty, whole, CaptureConfig())
    with pytest.raises(ValueError, match="^layer_mode must be 'single' or 'dual', got 'triple'$"):
        CaptureConfig(layer_mode="triple")


class TestComputePsi:
    def test_single_point_psi_zero(self):
        stats = compute_psi(make_cloud([(4, 4, 4)]))
        assert stats.psi == 0.0
        assert stats.phi == 1

    def test_cube_half_lost(self):
        # brute-force pixel enumeration gives (8 - 4) / 8
        lost, phi = brute_psi(cube_cloud().coords.tolist())
        assert (lost, phi) == (4, 8)
        stats = compute_psi(cube_cloud())
        assert stats.lost == 4 and stats.phi == 8
        assert stats.psi == 0.5

    def test_two_isolated_points(self):
        stats = compute_psi(make_cloud([(0, 0, 0), (9, 9, 9)]))
        assert stats.psi == 0.0
        assert stats.component_count == 2

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            compute_psi(make_cloud([]))

    def test_fixed_plane_variant(self):
        """The fixed-plane loss oracle the planner's fixed-plane searches are checked against."""
        cloud = make_cloud([(0, 0, 0), (0, 0, 1)])
        assert slab_lost(cloud, Side(Axis.Z, -1), "fixed-plane") / len(cloud) == 0.5
        assert slab_lost(cloud, Side(Axis.X, +1), "fixed-plane") / len(cloud) == 0.0

    def test_matches_bruteforce(self, rng):
        for _ in range(15):
            cloud = random_cloud(rng, max_points=300)
            lost, phi = brute_psi(cloud.coords.tolist())
            stats = compute_psi(cloud)
            assert (stats.lost, stats.phi) == (lost, phi)

    def test_psi_bounds_and_area_invariants(self, rng):
        for _ in range(15):
            cloud = random_cloud(rng, max_points=300)
            stats = compute_psi(cloud)
            assert 0 <= stats.psi < 1
            labeling = label_components(cloud)
            _, areas = component_areas(cloud, labeling)
            assert areas.sum() <= stats.phi
            assert stats.lost == stats.phi - areas.sum()
            assert stats.component_count == labeling.count
            sizes = np.bincount(labeling.labels, minlength=labeling.count)
            for k, area in enumerate(areas):
                assert area <= sizes[k]

    def test_component_areas_match_per_component_oracle(self, rng):
        for _ in range(10):
            cloud = random_cloud(rng, max_points=200)
            labeling = label_components(cloud)
            axes, areas = component_areas(cloud, labeling)
            fixed = {axis: 0 for axis in Axis}  # pixels of every component on one plane
            for k in range(labeling.count):
                points = cloud.subset(labeling.labels == k).coords.tolist()
                assert (Axis(axes[k]), areas[k]) == brute_best_plane(points)
                for axis in Axis:
                    fixed[axis] += len(brute_pixels(points, axis))
            for axis, area in fixed.items():
                assert slab_lost(cloud, Side(axis, -1), "fixed-plane") == len(cloud) - area

    @pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
    def test_pixel_areas_match_per_component_pixel_count(self, rng, plane_rule):
        """Any labels in 0..count-1, some held by no point, as the planner's roots are."""
        for _ in range(10):
            cloud = random_cloud(rng, max_points=200)
            count = int(rng.integers(1, len(cloud) + 2))
            labels = rng.integers(0, count, size=len(cloud))
            planes = list(Axis) if plane_rule == "best-plane" else [Axis(int(rng.integers(3)))]
            areas = projection.pixel_areas(labels, projection.pixel_keys(cloud)[planes], count)
            assert areas.shape == (len(planes), count)
            points = cloud.coords.tolist()
            for k in range(count):
                members = [p for p, label in zip(points, labels) if label == k]
                want = [len(brute_pixels(members, axis)) for axis in planes]
                assert areas[:, k].tolist() == want
                if plane_rule == "best-plane" and members:
                    assert areas[:, k].max() == brute_best_plane(members)[1]

    def test_psi_zero_for_injective_components(self):
        two_planes = make_cloud(
            [(x, y, 0) for x in range(5) for y in range(5)]
            + [(x, y, 9) for x in range(5) for y in range(5)]
        )
        assert compute_psi(two_planes).psi == 0.0


def plate_cloud(rng, axis: Axis, extent: int = 8, depth: int = 4, count: int = 60) -> PointCloud:
    """Random voxels over a full far plate: one component whose best plane is `axis`.

    The plate fills every pixel of the extent x extent face at `depth`. Each
    random voxel hangs from it by a column in the next pixel over, so pixels
    keep random gaps in depth. The other two planes see at most
    extent * (depth + 1) < extent**2 pixels.
    """
    u, v = np.meshgrid(np.arange(extent), np.arange(extent), indexing="ij")
    uvd = [np.column_stack([u.ravel(), v.ravel(), np.full(extent * extent, depth)])]
    for pu, pv, pd in rng.integers(0, [extent, extent, depth], size=(count, 3)).tolist():
        nu = pu + 1 if pu + 1 < extent else pu - 1
        uvd.append([(pu, pv, pd)] + [(nu, pv, d) for d in range(pd, depth)])
    uvd = np.concatenate(uvd)
    coords = np.empty_like(uvd)
    coords[:, PLANE_COLS[axis]] = uvd[:, :2]
    coords[:, axis] = uvd[:, 2]
    cloud = PointCloud(np.unique(coords, axis=0))
    assert label_components(cloud).count == 1 and best_plane(cloud)[0] == axis
    return cloud


def capture(cloud: PointCloud, config: CaptureConfig) -> PointCloud:
    return simulate_capture(cloud, label_components(cloud), config)


class TestSimulateCapture:
    def test_cube_single_nearest_face(self):
        # the cube's three planes tie at 4 pixels, so it projects on X
        captured = capture(cube_cloud(), CaptureConfig())
        assert point_set(captured) == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}

    def test_cube_dual_recovers_far_face(self):
        captured = capture(cube_cloud(), CaptureConfig("dual", 4))
        assert len(captured) == 8

    def test_thickness_window_excludes_deep_point(self):
        # direct evaluation of the near/far rule on pixel (0, 0), depths 0, 1
        # and 9; the deep point lies on a far plate that makes Z the best plane
        plate = [(x, y, 9) for x in range(10) for y in range(10)]
        link = [(1, 0, z) for z in range(1, 9)]
        cloud = make_cloud([(0, 0, 0), (0, 0, 1), *link, *plate])
        assert label_components(cloud).count == 1 and best_plane(cloud)[0] == Axis.Z
        expected = brute_capture(cloud.coords.tolist(), Axis.Z, "dual", 4)
        assert {p for p in expected if p[:2] == (0, 0)} == {(0, 0, 0), (0, 0, 1)}
        captured = capture(cloud, CaptureConfig("dual", 4))
        assert point_set(captured) == expected

    def test_thickness_beyond_any_integer_type(self):
        # the window compares depth - near, at most 2^16, with the thickness as given
        for thickness in (1 << 31, 1 << 63, 10**30):
            assert len(capture(cube_cloud(), CaptureConfig("dual", thickness))) == 8

    def test_matches_bruteforce(self, rng):
        for _ in range(10):
            for axis in Axis:
                cloud = plate_cloud(rng, axis)
                for mode in ("single", "dual"):
                    got = point_set(capture(cloud, CaptureConfig(mode, 4)))
                    want = brute_capture(cloud.coords.tolist(), axis, mode, 4)
                    assert got == want

    def test_labeled_capture_matches_per_component_bruteforce(self, rng):
        """With a labeling, each component is captured on its own best plane."""
        for _ in range(10):
            cloud = random_cloud(rng, max_points=250)
            labeling = label_components(cloud)
            components = [cloud.subset(labeling.labels == k).coords.tolist()
                          for k in range(labeling.count)]
            for mode, thickness in (("single", 4), ("dual", 1), ("dual", 4)):
                config = CaptureConfig(mode, thickness)
                got = simulate_capture(cloud, labeling, config)
                want = set()
                for points in components:
                    want |= brute_capture(points, brute_best_plane(points)[0], mode, thickness)
                assert point_set(got) == want

    def test_layer_monotonicity(self, rng):
        for _ in range(10):
            for axis in Axis:
                cloud = plate_cloud(rng, axis)
                single = capture(cloud, CaptureConfig("single"))
                dual = capture(cloud, CaptureConfig("dual", 4))
                assert len(dual) >= len(single)
                assert point_set(single) <= point_set(dual)

    def test_at_most_layer_count_points_per_pixel(self, rng):
        cloud = plate_cloud(rng, Axis.Z, count=300)
        for mode, limit in (("single", 1), ("dual", 2)):
            captured = capture(cloud, CaptureConfig(mode, 4))
            pixels = {}
            for x, y, z in captured.coords.tolist():
                pixels[(x, y)] = pixels.get((x, y), 0) + 1
            assert max(pixels.values()) <= limit


class TestOracleEquivalence:
    def test_psi_equals_capture_loss(self, rng):
        """compute_psi's lost count equals single-layer capture loss exactly."""
        for _ in range(25):
            cloud = random_cloud(rng, max_points=400)
            stats = compute_psi(cloud)
            labeling = label_components(cloud)
            captured = len(simulate_capture(cloud, labeling, CaptureConfig("single")))
            _, areas = component_areas(cloud, labeling)
            assert stats.phi - areas.sum() == len(cloud) - captured
            assert stats.lost == len(cloud) - captured


class TestSplittingSuperadditivity:
    def test_partition_never_reduces_covered_area(self, rng):
        """Sum of per-part best-plane areas >= whole-cloud covered area."""
        for _ in range(15):
            cloud = random_cloud(rng, max_points=300)
            mins, maxs = cloud.bbox
            axis = Axis(int(rng.integers(0, 3)))
            if maxs[axis] == mins[axis]:
                continue
            cut = int(rng.integers(mins[axis] + 1, maxs[axis] + 1))
            r = AxisRange(axis, int(mins[axis]), cut)
            parts = [extract_range(cloud, r), remove_range(cloud, r)]
            covered_parts = 0
            for part in parts:
                if len(part) == 0:
                    continue
                covered_parts += component_areas(part, label_components(part))[1].sum()
            whole = component_areas(cloud, label_components(cloud))[1].sum()
            assert covered_parts >= whole
