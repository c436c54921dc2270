"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines. A real voxelized capture frame (PLY) can be supplied via
the SLICESEG_TEST_PLY environment variable to extend criterion 5 to real
data.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from sliceseg import (
    CaptureConfig,
    SlicerConfig,
    baseline_loss,
    best_plane,
    bit_budget,
    build_plan,
    compare,
    compute_psi,
    decode,
    encode,
    extract_slices,
    label_components,
    plan_loss,
    plan_to_json,
    read_ply,
    reencode,
    render_csv,
    CompareConfig,
    SlicePlan,
    SliceSpec,
)
from sliceseg.cli import main as cli_main
from sliceseg.cloud import Axis, AxisRange, PointCloud, Side, extract_range, remove_range
from sliceseg.codec import STREAM_HEADER_BYTES, offset_bits_for, record_header_bits
from sliceseg.synthetic import gen_synthetic

from conftest import brute_best_plane, brute_capture, make_cloud, point_set, read_bits


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed{tail}"


def _random_cloud(rng, max_points, extent):
    count = int(rng.integers(10, max_points + 1))
    coords = rng.integers(0, extent, size=(count, 3), dtype=np.int64)
    return PointCloud(coords, bit_depth=10)


def test_c1_oracle_equivalence():
    """compute_psi lost count == brute-force capture loss, 50 clouds, < 10 s."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    mismatches = 0
    for i in range(50):
        # small extents force dense, componentful clouds; large ones sparse
        extent = int(rng.integers(14, 64))
        cloud = _random_cloud(rng, 2000, extent)
        stats = compute_psi(cloud)
        labeling = label_components(cloud)
        captured = 0
        for k in range(labeling.count):
            comp = cloud.subset(labeling.labels == k)
            axis, _ = brute_best_plane(comp.coords.tolist())
            captured += len(brute_capture(comp.coords.tolist(), axis, "single"))
        if stats.lost != len(cloud) - captured:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"50 clouds, {elapsed:.2f}s, {mismatches} mismatches",
    )


def test_c2_lossless_codec():
    """decode(encode(...)) exact for m in {0,1,2}; re-encode byte-identical."""
    rng = np.random.default_rng(202)
    clouds = [
        gen_synthetic("plane", {"extent": 12}),
        gen_synthetic("cube", {"extent": 4}),
        gen_synthetic("sphere-shell", {"extent": 9}),
        gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=4),
        gen_synthetic("uniform-random", {"extent": 60, "count": 300}, seed=4),
    ]
    clouds += [_random_cloud(rng, 350, int(rng.integers(6, 40))) for _ in range(20)]
    failures = []
    for ci, cloud in enumerate(clouds):
        for overlap in (0, 1, 2):
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            stream = encode(cloud, plan)
            ds = decode(stream)
            if not ds.cloud.same_points(cloud):
                failures.append((ci, overlap, "points differ"))
            if reencode(ds) != stream:
                failures.append((ci, overlap, "re-encode differs"))
    _verdict(
        2,
        "lossless codec",
        not failures,
        f"{len(clouds)} clouds x 3 overlaps" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_c3_bit_reduction():
    """Full-width slices use 6-bit offsets; 1000-point slice = 26000 bits."""
    rng = np.random.default_rng(303)
    coords = set()
    while len(coords) < 1000:
        coords.add(
            (int(rng.integers(0, 64)), int(rng.integers(0, 1024)), int(rng.integers(0, 1024)))
        )
    cloud = PointCloud(np.array(sorted(coords)), bit_depth=10)
    rng_x = AxisRange(Axis.X, 0, 64)
    spec = SliceSpec(0, Side(Axis.X, -1), rng_x, rng_x, 1000, 0.0, False)
    plan = SlicePlan(SlicerConfig(theta=64, overlap=0), 1000, (spec,))
    slices = extract_slices(cloud, plan)
    budget = bit_budget(plan, 10, slices)
    stream = encode(cloud, plan)
    record = decode(stream).records[0]

    checks = {
        "d=6": record.d == 6,
        "stored points=1000": record.point_count == 1000,
        "payload=26000": budget.payload_bits == 26_000,
        "naive=30000": budget.naive_bits == 30_000,
        # README layout: 13 header bytes, then ceil8(58 + n * (d + 2B)) for the record
        "stream length": len(stream) == 13 + (58 + 1000 * (6 + 2 * 10) + 7) // 8,
    }

    # planner-built full-width slices also carry 6-bit offsets
    rnd = gen_synthetic("uniform-random", {"extent": 900, "count": 400}, seed=6)
    p = build_plan(rnd, SlicerConfig(theta=64, overlap=0))
    ds = decode(encode(rnd, p))
    full = [
        (sp, rec)
        for sp, rec in zip(p.slices, ds.records)
        if not sp.terminal and sp.extended.width == 64
    ]
    checks["planner slices exist"] = bool(full)
    checks["planner d=6"] = all(rec.d == 6 for _, rec in full)

    _verdict(3, "bit reduction", all(checks.values()), str(checks))


def test_c4_delta_example_fidelity():
    """Base 220 + coordinate 228 stores offset 8 and decodes back exactly."""
    cloud = make_cloud([(100, 200, 228)])
    rng_z = AxisRange(Axis.Z, 220, 250)
    spec = SliceSpec(0, Side(Axis.Z, -1), rng_z, rng_z, 1, 0.0, False)
    plan = SlicePlan(SlicerConfig(theta=64, overlap=0), 1, (spec,))
    stream = encode(cloud, plan)

    stored_offset = read_bits(
        stream, STREAM_HEADER_BYTES * 8 + record_header_bits(10), offset_bits_for(30)
    )

    ds = decode(stream)
    ok = (
        stored_offset == 8
        and ds.records[0].base == 220
        and point_set(ds.cloud) == {(100, 200, 228)}
    )
    _verdict(4, "delta example fidelity", ok, f"stored offset {stored_offset}")


def test_c5_improvement_property():
    """plan_loss(m=0) <= baseline(single); strict gap >= 1pp on folded sheets."""
    details = []
    ok = True

    cube = gen_synthetic("cube", {"extent": 2})
    plan = build_plan(cube, SlicerConfig(overlap=0))
    cube_plan = plan_loss(cube, plan).loss_fraction
    cube_base = baseline_loss(cube, CaptureConfig("single")).loss_fraction
    ok &= cube_plan <= cube_base
    details.append(f"cube {cube_base:.3f}->{cube_plan:.3f}")

    for seed in (1, 2, 3, 5, 7, 11):
        sheet = gen_synthetic(
            "folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, seed=seed
        )
        plan = build_plan(sheet, SlicerConfig(overlap=0))
        planned = plan_loss(sheet, plan).loss_fraction
        base = baseline_loss(sheet, CaptureConfig("single")).loss_fraction
        gap = base - planned
        ok &= gap >= 0.01
        details.append(f"seed{seed} gap {gap:.3f}")

    user_ply = os.environ.get("SLICESEG_TEST_PLY")
    if user_ply and Path(user_ply).exists():
        frame = read_ply(Path(user_ply).read_bytes())
        plan = build_plan(frame, SlicerConfig(overlap=0))
        planned = plan_loss(frame, plan).loss_fraction
        base = baseline_loss(frame, CaptureConfig("single")).loss_fraction
        ok &= planned <= base
        details.append(f"user frame {base:.4f}->{planned:.4f}")

    _verdict(5, "improvement property", ok, "; ".join(details))


def test_c6_width_search_optimality():
    """No width at the chosen side beats the emitted slice. Exact fractions."""
    rng = np.random.default_rng(606)
    clouds = [
        gen_synthetic("cube", {"extent": 2}),
        gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=2),
        _random_cloud(rng, 500, 24),
        _random_cloud(rng, 2000, 40),
    ]
    config = SlicerConfig(overlap=0)
    violations = 0
    slices_checked = 0
    for cloud in clouds:
        plan = build_plan(cloud, config)
        floor = config.min_points(len(cloud))
        working = cloud
        for spec in plan.slices:
            if not spec.terminal:
                chosen = compute_psi(extract_range(working, spec.core))
                mins, maxs = working.bbox
                axis = spec.side.axis
                w_max = min(config.theta, working.extent(axis))
                for w in range(1, w_max + 1):
                    if spec.side.positive:
                        r = AxisRange(axis, int(maxs[axis]) + 1 - w, int(maxs[axis]) + 1)
                    else:
                        r = AxisRange(axis, int(mins[axis]), int(mins[axis]) + w)
                    sub = extract_range(working, r)
                    if len(sub) < floor:
                        continue
                    stats = compute_psi(sub)
                    if stats.lost * chosen.phi < chosen.lost * stats.phi:
                        violations += 1
                slices_checked += 1
            working = remove_range(working, spec.core)
    _verdict(
        6,
        "width-search optimality",
        violations == 0,
        f"{slices_checked} slices re-enumerated, {violations} violations",
    )


def test_c7_coverage_and_determinism(tmp_path):
    """Cores partition; every point extracted; two runs byte-identical."""
    rng = np.random.default_rng(707)
    matrix = [
        (gen_synthetic("cube", {"extent": 3}), 0),
        (gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=9), 2),
        (gen_synthetic("sphere-shell", {"extent": 9}), 1),
        (_random_cloud(rng, 400, 30), 0),
        (_random_cloud(rng, 400, 20), 2),
    ]
    ok = True
    details = []
    for cloud, overlap in matrix:
        config = SlicerConfig(overlap=overlap)
        plan_a = build_plan(cloud, config)
        plan_b = build_plan(cloud, config)

        # core partition and extraction coverage
        working = cloud
        assigned = 0
        for spec in plan_a.slices:
            assigned += len(extract_range(working, spec.core))
            working = remove_range(working, spec.core)
        covered = set()
        for _, sc in extract_slices(cloud, plan_a):
            covered |= point_set(sc)
        partition_ok = assigned == len(cloud) and len(working) == 0
        coverage_ok = covered == point_set(cloud)

        json_ok = plan_to_json(plan_a) == plan_to_json(plan_b)
        stream_ok = encode(cloud, plan_a) == encode(cloud, plan_b)
        cc = CompareConfig(slicer=config)
        csv_ok = render_csv(compare(cloud, cc)) == render_csv(compare(cloud, cc))

        all_ok = partition_ok and coverage_ok and json_ok and stream_ok and csv_ok
        ok &= all_ok
        if not all_ok:
            details.append(
                f"m={overlap}: partition={partition_ok} coverage={coverage_ok} "
                f"json={json_ok} stream={stream_ok} csv={csv_ok}"
            )
    _verdict(7, "coverage and determinism", ok, "; ".join(details) or f"{len(matrix)} cases")


def test_c8_layer_monotonicity():
    """dual(T=4) loss <= single loss; equality only at zero single loss."""
    rng = np.random.default_rng(808)
    clouds = [
        gen_synthetic("cube", {"extent": 2}),
        gen_synthetic("cube", {"extent": 4}),
        gen_synthetic("plane", {"extent": 10}),
        gen_synthetic("folded-sheet", {"extent": 20, "amplitude": 6, "period": 10}, seed=3),
        gen_synthetic("sphere-shell", {"extent": 5}),
    ]
    # tight random clouds: every depth gap <= 4, so a lossy pixel always
    # has a second point inside the dual-layer window
    clouds += [_random_cloud(rng, 120, 5) for _ in range(10)]
    ok = True
    details = []
    for i, cloud in enumerate(clouds):
        single = baseline_loss(cloud, CaptureConfig("single"))
        dual = baseline_loss(cloud, CaptureConfig("dual", 4))
        if dual.lost > single.lost:
            ok = False
            details.append(f"cloud {i}: dual worse")
        if dual.lost == single.lost and single.lost != 0:
            ok = False
            details.append(f"cloud {i}: no dual gain at loss {single.loss_fraction:.3f}")
    _verdict(8, "layer monotonicity", ok, "; ".join(details) or f"{len(clouds)} clouds")


def test_c9_end_to_end_cli(tmp_path):
    """gen -> slice -> encode -> decode -> compare, exit 0, < 30 s, lossless."""
    start = time.monotonic()
    sheet = tmp_path / "sheet.ply"
    plan = tmp_path / "plan.json"
    stream = tmp_path / "sheet.swsg"
    decoded = tmp_path / "decoded.ply"
    report = tmp_path / "report.csv"

    codes = [
        cli_main(["gen", "--kind", "folded-sheet", "--extent", "32", "--amplitude", "8",
                  "--period", "16", "--seed", "7", "--out", str(sheet)]),
        cli_main(["slice", "--input", str(sheet), "--plan", str(plan)]),
        cli_main(["encode", "--input", str(sheet), "--plan", str(plan), "--out", str(stream)]),
        cli_main(["decode", "--input", str(stream), "--out", str(decoded)]),
        cli_main(["compare", "--input", str(sheet), "--baseline", "single,dual",
                  "--out", str(report)]),
    ]
    elapsed = time.monotonic() - start
    original = read_ply(sheet.read_bytes())
    restored = read_ply(decoded.read_bytes())
    ok = codes == [0] * 5 and elapsed < 30.0 and original.same_points(restored)
    _verdict(9, "end-to-end CLI", ok, f"exit codes {codes}, {elapsed:.2f}s")
