import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import (
    CaptureConfig,
    CompareConfig,
    PointCloud,
    SlicePlan,
    SlicerConfig,
    SliceSpec,
    baseline_loss,
    build_plan,
    compare,
    compute_psi,
    decode,
    encode,
    label_components,
    plan_loss,
    render_csv,
    render_json,
    simulate_capture,
)
from sliceseg.cloud import Axis, AxisRange, Side
from sliceseg.metrics import CSV_HEADER
from sliceseg.synthetic import gen_synthetic

from conftest import (
    cube_cloud,
    make_cloud,
    oracle_captured_keys,
    oracle_plan_captured,
    point_set,
    random_cloud,
    slab_plan,
)

ORACLE_CLOUDS = {
    "cube": cube_cloud,
    "folded-sheet": lambda: gen_synthetic(
        "folded-sheet", {"extent": 20, "amplitude": 6, "period": 10}, seed=4
    ),
    "sphere-shell": lambda: gen_synthetic("sphere-shell", {"extent": 12}),
    "uniform-random": lambda: gen_synthetic(
        "uniform-random", {"extent": 24, "count": 1500}, seed=9
    ),
}
ORACLE_CAPTURES = [CaptureConfig("single")] + [CaptureConfig("dual", t) for t in (1, 4, 9)]


def test_baseline_cube_single_half_lost():
    report = baseline_loss(cube_cloud(), CaptureConfig("single"))
    assert (report.total, report.captured, report.lost) == (8, 4, 4)
    assert report.loss_fraction == 0.5


def test_baseline_cube_dual_recovers_all():
    report = baseline_loss(cube_cloud(), CaptureConfig("dual", 4))
    assert report.loss_fraction == 0.0


def test_baseline_plane_no_loss():
    plane = gen_synthetic("plane", {"extent": 10})
    assert baseline_loss(plane, CaptureConfig("single")).loss_fraction == 0.0


def test_plan_loss_cube_width1_zero():
    plan = build_plan(cube_cloud(), SlicerConfig(overlap=0))
    report = plan_loss(cube_cloud(), plan)
    assert report.loss_fraction == 0.0


def test_plan_loss_single_point_terminal():
    single = make_cloud([(3, 3, 3)])
    plan = build_plan(single, SlicerConfig())
    assert plan_loss(single, plan).loss_fraction == 0.0


def test_plan_loss_with_an_empty_slice():
    """A slice whose band holds no points captures none; the others are unaffected."""
    cloud = make_cloud([(0, 0, 0), (0, 0, 5)])
    bands = ((0, 1, 1), (1, 3, 0), (3, 6, 1))
    plan = SlicePlan(
        config=SlicerConfig(overlap=0),
        original_size=2,
        slices=tuple(
            SliceSpec(index=i, side=Side(Axis.Z, -1), core=AxisRange(Axis.Z, lo, hi),
                      extended=AxisRange(Axis.Z, lo, hi), point_count=n, psi=0.0,
                      terminal=i == 2)
            for i, (lo, hi, n) in enumerate(bands)
        ),
    )
    assert point_set(decode(encode(cloud, plan)).cloud) == point_set(cloud)
    report = plan_loss(cloud, plan)
    assert report.captured == 2


def test_plan_beats_single_layer_baseline(rng):
    """With no overlap, planned capture loss never exceeds the unsliced baseline."""
    clouds = [
        cube_cloud(),
        gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=3),
        gen_synthetic("folded-sheet", {"extent": 24, "amplitude": 6, "period": 12}, seed=8),
        gen_synthetic("sphere-shell", {"extent": 9}),
        gen_synthetic("plane", {"extent": 12}),
    ]
    clouds += [random_cloud(rng, max_points=250) for _ in range(45)]
    for cloud in clouds:
        plan = build_plan(cloud, SlicerConfig(overlap=0))
        planned = plan_loss(cloud, plan)
        base = baseline_loss(cloud, CaptureConfig("single"))
        assert planned.captured >= base.captured


def test_dual_never_worse_than_single(rng):
    clouds = [cube_cloud(), gen_synthetic("plane", {"extent": 8})]
    clouds += [random_cloud(rng, max_points=300) for _ in range(10)]
    for cloud in clouds:
        single = baseline_loss(cloud, CaptureConfig("single"))
        dual = baseline_loss(cloud, CaptureConfig("dual", 4))
        assert dual.captured >= single.captured


def test_single_component_baseline_equals_psi(rng):
    for _ in range(10):
        cloud = random_cloud(rng, max_points=300, extent_range=(4, 10))
        if label_components(cloud).count != 1:
            continue
        stats = compute_psi(cloud)
        report = baseline_loss(cloud, CaptureConfig("single"))
        assert report.lost == stats.lost


def test_loss_invariant_under_translation(rng):
    for _ in range(5):
        cloud = random_cloud(rng, max_points=200, extent_range=(4, 20))
        moved = PointCloud(cloud.coords.astype(np.int64) + (7, 11, 3))
        for capture in (CaptureConfig("single"), CaptureConfig("dual", 4)):
            assert (
                baseline_loss(cloud, capture).lost
                == baseline_loss(moved, capture).lost
            )
        plan_a = build_plan(cloud, SlicerConfig(overlap=0))
        plan_b = build_plan(moved, SlicerConfig(overlap=0))
        assert plan_loss(cloud, plan_a).lost == plan_loss(moved, plan_b).lost


def test_compare_cube_rows():
    config = CompareConfig(
        slicer=SlicerConfig(overlap=0),
        baselines=("single-layer", "dual-layer"),
    )
    rows = compare(cube_cloud(), config)
    assert [r["strategy"] for r in rows] == ["single-layer", "dual-layer", "slice-plan"]
    assert [r["loss_fraction"] for r in rows] == [0.5, 0.0, 0.0]
    plan_row = rows[2]
    assert plan_row["slices"] is not None
    assert plan_row["header_bits"] > 0 and plan_row["payload_bits"] > 0


def test_compare_requires_a_baseline():
    with pytest.raises(ValueError):
        CompareConfig(baselines=())
    with pytest.raises(ValueError):
        CompareConfig(baselines=("triple-layer",))


def test_compare_config_checks_thickness_only_for_dual():
    assert CompareConfig().surface_thickness == 4
    for baselines in (("dual-layer",), ("single-layer", "dual-layer")):
        with pytest.raises(ValueError, match="surface_thickness must be >= 1 in dual mode"):
            CompareConfig(baselines=baselines, surface_thickness=0)
    config = CompareConfig(baselines=("single-layer",), surface_thickness=0)
    rows = compare(cube_cloud(), config)
    assert [r["strategy"] for r in rows] == ["single-layer", "slice-plan"]


def test_compare_thickness_reaches_the_dual_baseline():
    # fold layers sit two voxels apart: thickness 1 keeps one of them per pixel, 2 keeps two
    cloud = gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=3)
    for thickness, captured in ((1, 272), (2, 384), (4, 384)):
        config = CompareConfig(baselines=("dual-layer",), surface_thickness=thickness)
        assert compare(cloud, config)[0]["captured"] == captured
        assert baseline_loss(cloud, CaptureConfig("dual", thickness)).captured == captured


def test_csv_schema_and_format():
    rows = compare(cube_cloud(), CompareConfig(slicer=SlicerConfig(overlap=0)))
    text = render_csv(rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("single-layer,8,4,4,0.500000,,,")
    assert text.endswith("\n")
    assert "\r" not in text


def test_reports_deterministic(rng):
    cloud = random_cloud(rng, max_points=250)
    config = CompareConfig(slicer=SlicerConfig(overlap=2))
    a = render_csv(compare(cloud, config))
    b = render_csv(compare(cloud, config))
    assert a == b
    assert render_json(compare(cloud, config)) == render_json(compare(cloud, config))


def test_json_mirror_matches_csv_rows():
    rows = compare(cube_cloud(), CompareConfig(slicer=SlicerConfig(overlap=0)))
    doc = json.loads(render_json(rows))
    assert doc == rows


@pytest.mark.parametrize("capture", ORACLE_CAPTURES, ids=lambda c: f"{c.layer_mode}{c.surface_thickness}")
@pytest.mark.parametrize("kind", sorted(ORACLE_CLOUDS))
def test_baseline_matches_per_component_oracle(kind, capture):
    cloud = ORACLE_CLOUDS[kind]()
    want = oracle_captured_keys(cloud, capture)
    got = simulate_capture(cloud, label_components(cloud), capture)
    assert np.array_equal(np.sort(got.coordinate_keys()), want)
    assert baseline_loss(cloud, capture).captured == want.shape[0]


@pytest.mark.parametrize("kind", sorted(ORACLE_CLOUDS))
def test_plan_loss_on_slab_plans_matches_per_component_oracle(kind):
    cloud = ORACLE_CLOUDS[kind]()
    for axis, width, overlap in ((Axis.Z, 1, 0), (Axis.Z, 3, 2), (Axis.X, 4, 1), (Axis.Y, 16, 0)):
        plan = slab_plan(cloud, axis, width, overlap)
        report = plan_loss(cloud, plan)
        assert report.captured == oracle_plan_captured(cloud, plan)


def test_components_sharing_a_pixel_are_captured_apart():
    """Two flat squares stacked on Z share every pixel of their best plane."""
    squares = [(x, y, z) for z in (0, 5) for x in (0, 1) for y in (0, 1)]
    cloud = make_cloud(squares)
    assert label_components(cloud).count == 2
    for capture in (CaptureConfig("single"), CaptureConfig("dual", 9)):
        assert baseline_loss(cloud, capture).captured == 8
        assert oracle_captured_keys(cloud, capture).shape[0] == 8


@given(
    st.lists(
        st.tuples(*[st.integers(0, 9)] * 3), min_size=1, max_size=120, unique=True
    ),
    st.sampled_from(ORACLE_CAPTURES),
)
@settings(max_examples=80, deadline=None)
def test_baseline_matches_oracle_on_small_clouds(points, capture):
    cloud = make_cloud(points)
    assert baseline_loss(cloud, capture).captured == oracle_captured_keys(cloud, capture).shape[0]
