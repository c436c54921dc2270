import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliceseg
from sliceseg import (
    CompareConfig,
    DecodeError,
    PlyParseError,
    SlicerConfig,
    decode,
    gen_synthetic,
    read_ply,
    synthetic,
    write_ply,
)
from sliceseg.cli import _slicer_config, main, parse_args
from sliceseg.cloud import Axis
from sliceseg.slicer import _PLAN_KEYS, _SLICE_KEYS, PLANE_RULES

from conftest import (
    brute_pixels,
    make_cloud,
    ply_like_bytes,
    point_set,
    random_cloud,
    swsg_like_bytes,
)


def run_cli(*args):
    return main([str(a) for a in args])


def _package_env():
    return dict(os.environ, PYTHONPATH=str(Path(sliceseg.__file__).resolve().parents[1]))


def _cap_address_space():
    """Limit a child to 1 GiB of address space, so an oversized array fails instead of paging."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def sheet_ply(tmp_path):
    out = tmp_path / "sheet.ply"
    code = run_cli(
        "gen", "--kind", "folded-sheet", "--extent", "16", "--amplitude", "4",
        "--period", "8", "--seed", "3", "--out", out,
    )
    assert code == 0
    return out


class TestGen:
    def test_writes_deterministic_ply(self, tmp_path):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        for out in (a, b):
            assert run_cli("gen", "--kind", "cube", "--extent", "2", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(read_ply(a.read_bytes())) == 8

    def test_seed_required_for_random_kinds(self, tmp_path, capsys):
        code = run_cli(
            "gen", "--kind", "uniform-random", "--extent", "10",
            "--count", "50", "--out", tmp_path / "r.ply",
        )
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run_cli("gen", "--bogus") == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "folded-sheet"], "--seed is required for kind 'folded-sheet'"),
            (["--kind", "uniform-random", "--seed", "1"],
             "uniform-random needs --count or --density"),
        ],
    )
    def test_checked_flags_report_through_gen(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.ply"
        assert run_cli("gen", *flags, "--extent", "8", "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: sliceseg gen ")
        assert err[-1] == f"sliceseg gen: error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, params",
        [
            ([], {"extent": 16}),
            (["--amplitude", "4"], {"extent": 16, "amplitude": 4}),
            (["--period", "5"], {"extent": 16, "period": 5}),
        ],
    )
    def test_folded_sheet_defaults_come_from_the_generator(self, tmp_path, flags, params):
        out = tmp_path / "sheet.ply"
        assert run_cli(
            "gen", "--kind", "folded-sheet", "--extent", "16", "--seed", "3", *flags, "--out", out
        ) == 0
        assert out.read_bytes() == write_ply(gen_synthetic("folded-sheet", params, seed=3))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "plane", "--offset", "-1"], "plane offset must be non-negative"),
            (["--kind", "uniform-random", "--count", "0", "--seed", "1"],
             "count must be a positive integer"),
            (["--kind", "uniform-random", "--count", "5", "--seed", "-1"],
             "seed must be a non-negative integer, got -1"),
            (["--kind", "uniform-random", "--density", "-1", "--seed", "1"],
             "density -1.0 gives no points at extent 8"),
            (["--kind", "uniform-random", "--density", "0.0001", "--seed", "1"],
             "density 0.0001 gives no points at extent 8"),
        ],
        ids=["negative-offset", "zero-count", "negative-seed", "negative-density", "empty-density"],
    )
    def test_generator_errors_report_through_gen(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.ply"
        assert run_cli("gen", *flags, "--extent", "8", "--out", out) == 1
        assert capsys.readouterr().err == f"sliceseg gen: error: {message}\n"
        assert not out.exists()

    def test_generator_memory_error_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(synthetic, "_sphere_shell", exhausted)
        out = tmp_path / "g.ply"
        assert run_cli("gen", "--kind", "sphere-shell", "--extent", "8", "--out", out) == 1
        assert capsys.readouterr().err == (
            "sliceseg gen: error: sphere-shell of extent 8 does not fit in memory\n"
        )
        assert not out.exists()

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "uniform-random", "--density", "inf", "--extent", "8", "--seed", "1"],
             "density inf gives no finite point count"),
            (["--kind", "uniform-random", "--count", "100000000", "--extent", "8", "--seed", "1"],
             "cannot place 100000000 unique points in a 8^3 volume"),
            (["--kind", "cube", "--extent", "70000"], "extent must be an integer in 1..65536"),
            # within the bounds, but past the 1 GiB cap: numpy's MemoryError
            (["--kind", "cube", "--extent", "4096"], "cube of extent 4096 does not fit in memory"),
            (["--kind", "plane", "--extent", "65536"],
             "plane of extent 65536 does not fit in memory"),
            (["--kind", "uniform-random", "--extent", "65536", "--count", "100000000",
              "--seed", "1"],
             "uniform-random of extent 65536 and count 100000000 does not fit in memory"),
        ],
    )
    def test_out_of_range_size_is_one_line_error(self, tmp_path, flags, message):
        # a size that is not refused up front would ask numpy for gigabytes or more,
        # so the command runs in a child process with a capped address space
        out = tmp_path / "g.ply"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sliceseg.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "gen", *flags, "--out", str(out)],
            capture_output=True,
            text=True,
            env=_package_env(),
            preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"sliceseg gen: error: {message}\n"
        assert not out.exists()


class TestSlice:
    @pytest.mark.parametrize(
        "argv",
        [
            ["slice", "--input", "c.ply", "--plan", "p.json"],
            ["encode", "--input", "c.ply", "--plan", "p.json", "--out", "s.swsg"],
            ["compare", "--input", "c.ply", "--out", "r.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_plan_flags_take_the_library_defaults(self, argv):
        args = parse_args(argv)
        assert _slicer_config(args) == SlicerConfig()
        if argv[0] == "compare":
            assert args.thickness == CompareConfig().surface_thickness
        for rule in PLANE_RULES:
            assert parse_args([*argv, "--plane-rule", rule]).plane_rule == rule
        with pytest.raises(SystemExit):
            parse_args([*argv, "--plane-rule", "diagonal"])

    def test_duplicate_vertices_are_reported(self, tmp_path, capsys):
        cloud_path, plan = tmp_path / "dup.ply", tmp_path / "p.json"
        vertices = ["0 0 0", "1 0 0", "0 0 0", "1 1 0", "1 0 0"]
        header = ["ply", "format ascii 1.0", "element vertex 5", "property float x",
                  "property float y", "property float z", "end_header"]
        cloud_path.write_text("\n".join(header + vertices) + "\n")
        assert run_cli("slice", "--input", cloud_path, "--plan", plan) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"loaded 3 points from {cloud_path} (2 duplicates merged)"
        assert json.loads(plan.read_text())["original_size"] == 3

    def test_plan_written_with_defaults(self, sheet_ply, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert run_cli("slice", "--input", sheet_ply, "--plan", plan_path) == 0
        doc = json.loads(plan_path.read_text())
        assert doc["theta"] == 64
        assert doc["threshold_frac"] == 0.05
        assert doc["overlap"] == 2

    def test_emit_slices_covers_input(self, sheet_ply, tmp_path):
        plan_path = tmp_path / "plan.json"
        slices_dir = tmp_path / "slices"
        assert run_cli(
            "slice", "--input", sheet_ply, "--plan", plan_path,
            "--emit-slices", slices_dir,
        ) == 0
        doc = json.loads(plan_path.read_text())
        files = sorted(slices_dir.glob("slice_*.ply"))
        assert len(files) == len(doc["slices"])
        union = set()
        for f in files:
            union |= point_set(read_ply(f.read_bytes()))
        assert union == point_set(read_ply(sheet_ply.read_bytes()))

    def test_idempotent_rerun(self, sheet_ply, tmp_path):
        plan_path = tmp_path / "plan.json"
        run_cli("slice", "--input", sheet_ply, "--plan", plan_path)
        first = plan_path.read_bytes()
        run_cli("slice", "--input", sheet_ply, "--plan", plan_path)
        assert plan_path.read_bytes() == first

    def test_input_not_mutated(self, sheet_ply, tmp_path):
        before = sheet_ply.read_bytes()
        run_cli("slice", "--input", sheet_ply, "--plan", tmp_path / "p.json")
        assert sheet_ply.read_bytes() == before

    @pytest.mark.parametrize("value", ["abc", "1/0", "1e-2000000"])
    def test_bad_threshold_is_usage_error(self, sheet_ply, tmp_path, capsys, value):
        code = run_cli(
            "slice", "--input", sheet_ply, "--plan", tmp_path / "p.json", "--threshold", value
        )
        assert code == 2
        assert "--threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--theta", 70000, "theta does not fit the 16-bit header field"),
            ("--overlap", 300, "overlap does not fit the 8-bit header field"),
        ],
        ids=["theta", "overlap"],
    )
    def test_plan_that_cannot_encode_is_refused(
        self, sheet_ply, tmp_path, capsys, flag, value, message
    ):
        plan = tmp_path / "p.json"
        capsys.readouterr()
        assert run_cli("slice", "--input", sheet_ply, "--plan", plan, flag, value) == 1
        assert capsys.readouterr().err == f"sliceseg slice: error: {message}\n"
        assert not plan.exists()

    def test_plane_rule_written(self, sheet_ply, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert run_cli(
            "slice", "--input", sheet_ply, "--plan", plan_path, "--plane-rule", "fixed-plane"
        ) == 0
        assert json.loads(plan_path.read_text())["plane_rule"] == "fixed-plane"

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("slice", "--input", tmp_path / "nope.ply", "--plan", tmp_path / "p.json")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEncodeDecode:
    def test_round_trip(self, sheet_ply, tmp_path):
        plan, stream, out = tmp_path / "p.json", tmp_path / "s.swsg", tmp_path / "d.ply"
        assert run_cli("encode", "--input", sheet_ply, "--plan", plan, "--out", stream) == 0
        assert plan.exists()
        assert run_cli("decode", "--input", stream, "--out", out) == 0
        a = read_ply(sheet_ply.read_bytes())
        b = read_ply(out.read_bytes())
        assert a.same_points(b)

    def test_encode_uses_existing_plan(self, sheet_ply, tmp_path):
        plan, s1, s2 = tmp_path / "p.json", tmp_path / "a.swsg", tmp_path / "b.swsg"
        run_cli("slice", "--input", sheet_ply, "--plan", plan, "--overlap", "0")
        run_cli("encode", "--input", sheet_ply, "--plan", plan, "--out", s1)
        run_cli("encode", "--input", sheet_ply, "--plan", plan, "--out", s2)
        assert s1.read_bytes() == s2.read_bytes()
        assert json.loads(plan.read_text())["overlap"] == 0

    def test_malformed_plan_is_one_line_runtime_error(self, sheet_ply, tmp_path, capsys):
        plan = tmp_path / "p.json"
        run_cli("slice", "--input", sheet_ply, "--plan", plan)
        doc = json.loads(plan.read_text())
        doc["slices"][0]["axis"] = 3
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("encode", "--input", sheet_ply, "--plan", plan, "--out", tmp_path / "s.swsg")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sliceseg encode: error: malformed plan JSON: axis")

    @pytest.mark.parametrize(
        "flag, value, field", [("--theta", 70000, "theta"), ("--overlap", 300, "overlap")]
    )
    def test_plan_that_cannot_encode_is_not_written(
        self, sheet_ply, tmp_path, capsys, flag, value, field
    ):
        plan, stream = tmp_path / "p.json", tmp_path / "s.swsg"
        capsys.readouterr()
        assert run_cli("encode", "--input", sheet_ply, "--plan", plan, "--out", stream,
                       flag, value) == 1
        assert f"error: {field} does not fit" in capsys.readouterr().err
        assert not plan.exists() and not stream.exists()

    def test_decode_truncated_names_record(self, sheet_ply, tmp_path, capsys):
        plan, stream = tmp_path / "p.json", tmp_path / "s.swsg"
        run_cli("encode", "--input", sheet_ply, "--plan", plan, "--out", stream)
        bad = tmp_path / "bad.swsg"
        bad.write_bytes(stream.read_bytes()[:-4])
        code = run_cli("decode", "--input", bad, "--out", tmp_path / "d.ply")
        assert code == 1
        assert "record" in capsys.readouterr().err


def analyze_areas(cloud, tmp_path) -> dict[str, int]:
    """`analyze`'s per-axis projected areas of `cloud`, each checked against `brute_pixels`."""
    ply, out = tmp_path / "c.ply", tmp_path / "a.json"
    ply.write_bytes(write_ply(cloud, "ascii"))
    assert run_cli("analyze", "--input", ply, "--out", out) == 0
    per_axis = json.loads(out.read_text())["per_axis"]
    areas = {name: entry["projected_area"] for name, entry in per_axis.items()}
    points = cloud.coords.tolist()
    assert areas == {axis.name: len(brute_pixels(points, axis)) for axis in Axis}
    assert all(e["projected_area"] + e["occluded"] == len(cloud) for e in per_axis.values())
    return areas


class TestAnalyze:
    def test_per_axis_areas_single_point(self, tmp_path):
        assert analyze_areas(make_cloud([(0, 0, 0)]), tmp_path) == {"X": 1, "Y": 1, "Z": 1}

    def test_per_axis_areas_collapse_only_along_stack_axis(self, tmp_path):
        cloud = make_cloud([(0, 0, 0), (0, 0, 1)])
        assert analyze_areas(cloud, tmp_path) == {"X": 2, "Y": 2, "Z": 1}

    def test_per_axis_areas_injective_plane(self, tmp_path):
        plane = gen_synthetic("plane", {"extent": 10})
        assert analyze_areas(plane, tmp_path) == {"X": 10, "Y": 10, "Z": 100}

    def test_per_axis_areas_match_bruteforce(self, rng, tmp_path):
        for _ in range(10):
            analyze_areas(random_cloud(rng, max_points=200), tmp_path)

    def test_whole_cloud_report(self, sheet_ply, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli("analyze", "--input", sheet_ply, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert set(doc["per_axis"]) == {"X", "Y", "Z"}
        for axis in ("X", "Y", "Z"):
            entry = doc["per_axis"][axis]
            assert entry["projected_area"] + entry["occluded"] == doc["points"]
        assert 0 <= doc["loss"]["psi"] < 1

    def test_with_plan_adds_slice_entries(self, sheet_ply, tmp_path):
        plan, out = tmp_path / "p.json", tmp_path / "a.json"
        run_cli("slice", "--input", sheet_ply, "--plan", plan)
        assert run_cli("analyze", "--input", sheet_ply, "--plan", plan, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["slices"]) == len(json.loads(plan.read_text())["slices"])

    def test_plan_of_another_cloud_is_runtime_error(self, tmp_path, capsys):
        small, large = tmp_path / "small.ply", tmp_path / "large.ply"
        plan, out = tmp_path / "p.json", tmp_path / "a.json"
        assert run_cli("gen", "--kind", "cube", "--extent", "2", "--out", small) == 0
        assert run_cli("gen", "--kind", "cube", "--extent", "4", "--out", large) == 0
        assert run_cli("slice", "--input", small, "--plan", plan) == 0
        assert run_cli("analyze", "--input", large, "--plan", plan, "--out", out) == 1
        assert "plan was built for 8 points, cloud has 64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("terminal", True, "only the last slice may be terminal"),
            ("psi", "NaN", "psi must be a number in [0, 1]"),
            ("note", "hand-edited", "unknown slice keys ['note']"),
        ],
    )
    def test_malformed_plan_slice_is_one_line_error(
        self, tmp_path, capsys, key, value, message
    ):
        cube, plan, out = tmp_path / "cube.ply", tmp_path / "p.json", tmp_path / "a.json"
        assert run_cli("gen", "--kind", "cube", "--extent", "4", "--out", cube) == 0
        assert run_cli("slice", "--input", cube, "--plan", plan) == 0
        doc = json.loads(plan.read_text())
        assert len(doc["slices"]) > 1
        doc["slices"][0][key] = value
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("analyze", "--input", cube, "--plan", plan, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"sliceseg analyze: error: malformed plan JSON: {message}")
        assert not out.exists()

    def test_extended_range_outside_the_core_is_one_line_error(self, tmp_path, capsys):
        cube, plan, out = tmp_path / "cube.ply", tmp_path / "p.json", tmp_path / "a.json"
        assert run_cli("gen", "--kind", "cube", "--extent", "4", "--out", cube) == 0
        assert run_cli("slice", "--input", cube, "--plan", plan) == 0
        doc = json.loads(plan.read_text())
        first = doc["slices"][0]
        first["ext_lo"], first["ext_hi"] = first["core_hi"], first["core_hi"] + 1
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("analyze", "--input", cube, "--plan", plan, "--out", out) == 1
        assert capsys.readouterr().err == (
            "sliceseg analyze: error: malformed plan JSON: extended range must contain the core\n"
        )
        assert not out.exists()

    def test_unknown_plane_rule_in_plan_is_runtime_error(self, sheet_ply, tmp_path, capsys):
        plan, out = tmp_path / "p.json", tmp_path / "a.json"
        run_cli("slice", "--input", sheet_ply, "--plan", plan)
        doc = json.loads(plan.read_text())
        doc["plane_rule"] = "diagonal"
        plan.write_text(json.dumps(doc))
        assert run_cli("analyze", "--input", sheet_ply, "--plan", plan, "--out", out) == 1
        assert "plane_rule" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "encode"])
def test_deeply_nested_plan_is_one_line_error(sheet_ply, tmp_path, capsys, command):
    plan, out = tmp_path / "p.json", tmp_path / "out"
    plan.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert run_cli(command, "--input", sheet_ply, "--plan", plan, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"sliceseg {command}: error: malformed plan JSON: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def sheet_and_plan(tmp_path_factory):
    """A sheet PLY and its plan's JSON text, made once for the tests that break the plan."""
    folder = tmp_path_factory.mktemp("sheet")
    sheet, plan = folder / "sheet.ply", folder / "p.json"
    assert run_cli("gen", "--kind", "folded-sheet", "--extent", "16", "--amplitude", "4",
                   "--period", "8", "--seed", "3", "--out", sheet) == 0
    assert run_cli("slice", "--input", sheet, "--plan", plan) == 0
    return sheet, plan.read_text()


@pytest.mark.parametrize("command", ["analyze", "encode"])
@pytest.mark.parametrize("key", [k for k in _PLAN_KEYS + _SLICE_KEYS if k != "plane_rule"])
def test_plan_missing_key_is_one_line_error(sheet_and_plan, tmp_path, capsys, command, key):
    sheet, text = sheet_and_plan
    doc = json.loads(text)
    del (doc if key in doc else doc["slices"][0])[key]
    plan, out = tmp_path / "p.json", tmp_path / "out"
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(command, "--input", sheet, "--plan", plan, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"sliceseg {command}: error: malformed plan JSON: missing key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "encode"])
@pytest.mark.parametrize("content", [b"\xff\xfe", b"\xff{}"])
def test_plan_that_is_not_utf8_is_one_line_error(sheet_ply, tmp_path, capsys, command, content):
    plan, out = tmp_path / "p.json", tmp_path / "out"
    plan.write_bytes(content)
    capsys.readouterr()
    assert run_cli(command, "--input", sheet_ply, "--plan", plan, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"sliceseg {command}: error: malformed plan JSON: ")
    assert not out.exists()


class TestCompare:
    def test_writes_csv_and_json(self, tmp_path):
        cube = tmp_path / "cube.ply"
        run_cli("gen", "--kind", "cube", "--extent", "2", "--out", cube)
        csv_path = tmp_path / "r.csv"
        assert run_cli(
            "compare", "--input", cube, "--baseline", "single,dual",
            "--out", csv_path, "--overlap", "0",
        ) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("strategy,points,captured")
        assert lines[1].split(",")[4] == "0.500000"
        assert lines[2].split(",")[4] == "0.000000"
        assert lines[3].split(",")[4] == "0.000000"
        assert json.loads((tmp_path / "r.json").read_text())

    def test_single_baseline_only(self, tmp_path):
        cube = tmp_path / "cube.ply"
        run_cli("gen", "--kind", "cube", "--extent", "2", "--out", cube)
        csv_path = tmp_path / "r.csv"
        assert run_cli("compare", "--input", cube, "--baseline", "single", "--out", csv_path) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3  # header + single + plan

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        assert run_cli(
            "compare", "--input", "x.ply", "--baseline", "sixteen", "--out", "r.csv"
        ) == 2
        assert "unknown baseline 'sixteen' (choose from single, dual)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "baseline, message",
        [
            ("sixteen", "unknown baseline 'sixteen' (choose from single, dual)"),
            (" , ", "--baseline must name at least one of: single, dual"),
        ],
    )
    def test_baseline_errors_report_through_compare(self, tmp_path, capsys, baseline, message):
        csv_path = tmp_path / "r.csv"
        assert run_cli(
            "compare", "--input", "x.ply", "--baseline", baseline, "--out", csv_path
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: sliceseg compare ")
        assert err[-1] == f"sliceseg compare: error: {message}"
        assert not csv_path.exists()

    @pytest.mark.parametrize("baseline, code", [("single", 0), ("dual", 1), ("single,dual", 1)])
    def test_thickness_zero_only_fails_a_dual_baseline(self, tmp_path, capsys, baseline, code):
        cube, csv_path = tmp_path / "cube.ply", tmp_path / "r.csv"
        run_cli("gen", "--kind", "cube", "--extent", "2", "--out", cube)
        capsys.readouterr()
        assert run_cli(
            "compare", "--input", cube, "--baseline", baseline, "--thickness", "0",
            "--out", csv_path,
        ) == code
        if code:
            err = capsys.readouterr().err
            assert err == "sliceseg compare: error: surface_thickness must be >= 1 in dual mode\n"
            assert not csv_path.exists()

    def test_idempotent(self, sheet_ply, tmp_path):
        csv_path = tmp_path / "r.csv"
        run_cli("compare", "--input", sheet_ply, "--out", csv_path)
        first = csv_path.read_bytes()
        run_cli("compare", "--input", sheet_ply, "--out", csv_path)
        assert csv_path.read_bytes() == first


# Run in a fresh interpreter: every command, and no scipy module loaded.
_SCIPY_GUARD = """
import sys
from sliceseg.cli import main

sheet, plan, work = sys.argv[1:]
for argv in (
    ["gen", "--kind", "uniform-random", "--extent", "48", "--count", "300", "--seed", "1",
     "--out", work + "/random.ply"],
    ["encode", "--input", sheet, "--plan", plan, "--out", work + "/s.swsg"],
    ["decode", "--input", work + "/s.swsg", "--out", work + "/d.ply"],
):
    assert main(argv) == 0, argv
for cloud in (sheet, work + "/random.ply"):  # neighbors from the grid and from sorted keys
    assert main(["slice", "--input", cloud, "--plan", work + "/p.json"]) == 0
    assert main(["compare", "--input", cloud, "--out", work + "/r.csv"]) == 0
    assert main(["analyze", "--input", cloud, "--out", work + "/a.json"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_no_command_loads_scipy(sheet_ply, tmp_path):
    plan = tmp_path / "plan.json"
    assert run_cli("slice", "--input", sheet_ply, "--plan", plan) == 0
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, sheet_ply, plan, tmp_path],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_report_block() -> str:
    text = README.read_text()
    start = text.index("```\nstrategy,") + len("```\n")
    return text[start : text.index("```", start)]


def test_readme_quick_start_numbers(tmp_path, capsys):
    """The report and the encode line the README quotes, from the quick start's commands."""
    sheet, plan = tmp_path / "sheet.ply", tmp_path / "plan.json"
    stream, report = tmp_path / "sheet.swsg", tmp_path / "report.csv"
    assert run_cli(
        "gen", "--kind", "folded-sheet", "--extent", "32", "--amplitude", "8", "--period", "16",
        "--seed", "7", "--out", sheet,
    ) == 0
    capsys.readouterr()
    assert run_cli("encode", "--input", sheet, "--plan", plan, "--out", stream) == 0
    assert capsys.readouterr().out == (
        "encoded 3200 points in 4 slices: 9589 bytes (payload 76352 bits, naive 96000 bits)\n"
    )
    assert len(stream.read_bytes()) == 9589
    assert run_cli(
        "compare", "--input", sheet, "--baseline", "single,dual", "--out", report
    ) == 0
    assert report.read_text() == _readme_report_block()


def test_readme_library_block_runs(tmp_path):
    """The README's `## Library` example, run as a script in an empty directory."""
    text = README.read_text()
    start = text.index("```python\n", text.index("\n## Library\n")) + len("```python\n")
    block = text[start : text.index("```", start)]
    assert "decode(stream).cloud" in block
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 2  # the plan's and the baseline's loss fractions


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def corrupt_plans(draw, text: str) -> bytes:
    """Plan JSON with one fault: raw bytes, the text cut, or a value replaced, dropped or added."""
    fault = draw(st.integers(0, 4))
    if fault == 0:
        return draw(st.binary(max_size=40))
    if fault == 1:
        return text.encode()[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    target = doc if draw(st.booleans()) else draw(st.sampled_from(doc["slices"]))
    key = draw(st.sampled_from(sorted(target)))
    if fault == 2:
        target[key] = draw(_JSON_VALUES)
    elif fault == 3:
        del target[key]
    else:
        target[draw(st.text(max_size=4))] = draw(_JSON_VALUES)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    assert run_cli(
        "gen", "--kind", "folded-sheet", "--extent", "8", "--amplitude", "2", "--period", "4",
        "--seed", "1", "--out", work / "sheet.ply",
    ) == 0
    assert run_cli("slice", "--input", work / "sheet.ply", "--plan", work / "plan.json") == 0
    return work


def _parses(read, data) -> bool:
    try:
        read(data)
    except (PlyParseError, DecodeError):
        return False
    return True


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_corrupt_input_or_plan_is_one_line_error(fuzz_dir, data):
    """A corrupt --input or --plan ends in exit 1 and one stderr line, never a traceback."""
    work = fuzz_dir
    target, fresh_plan = work / "target", work / "fresh.json"
    fresh_plan.unlink(missing_ok=True)
    kind = data.draw(st.sampled_from(["ply", "plan", "swsg"]))
    if kind == "ply":
        blob = data.draw(ply_like_bytes())
        command = data.draw(st.sampled_from(["slice", "encode", "compare", "analyze"]))
        argv = [command, "--input", target]
        argv += ["--plan", fresh_plan] if command in ("slice", "encode") else []
        argv += ["--out", work / "out"] if command != "slice" else []
        must_fail = not _parses(read_ply, blob)
    elif kind == "plan":
        blob = data.draw(corrupt_plans((work / "plan.json").read_text()))
        command = data.draw(st.sampled_from(["encode", "analyze"]))
        argv = [command, "--input", work / "sheet.ply", "--plan", target, "--out", work / "out"]
        must_fail = False
    else:
        blob = data.draw(swsg_like_bytes())
        command = "decode"
        argv = [command, "--input", target, "--out", work / "out"]
        must_fail = not _parses(decode, blob)
    target.write_bytes(blob)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(*argv)
    err = stderr.getvalue()
    if code == 0:
        assert not must_fail and err == ""
    else:
        assert code == 1
        assert err.startswith(f"sliceseg {command}: error: ") and err.count("\n") == 1
