"""Command-line front door: gen, analyze, slice, encode, decode, compare.

All commands read and write files; outputs are deterministic, so reruns
with identical inputs rewrite byte-identical files. Exit codes: 0 success,
1 runtime error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cloud import Axis, PointCloud
# encode is unused here but stays bound: bench/layers.py wraps cli.encode
from .codec import build_stream, decode, encode, reencode, stream_budget  # noqa: F401
from .metrics import (
    BASELINES,
    CompareConfig,
    render_csv,
    render_json,
    compare as compare_strategies,
)
from .ply import read_ply, write_ply
from .projection import compute_psi, pixel_areas, pixel_keys
from .slicer import (
    PLANE_RULES,
    SlicerConfig,
    as_fraction,
    build_plan,
    core_slices,
    extract_slices,
    plan_from_json,
    plan_to_json,
)
from .synthetic import KINDS, SEEDED_KINDS, gen_synthetic


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _add_plan_flags(parser: argparse.ArgumentParser) -> None:
    defaults = SlicerConfig()
    parser.add_argument(
        "--theta", type=int, default=defaults.theta, help="max slice width (voxels)"
    )
    parser.add_argument(
        "--threshold",
        type=_fraction,
        default=defaults.threshold_frac,
        help="min slice size as a fraction of the original point count",
    )
    parser.add_argument(
        "--overlap", type=int, default=defaults.overlap, help="overlap margin (voxels)"
    )
    parser.add_argument(
        "--plane-rule",
        choices=PLANE_RULES,
        default=defaults.plane_rule,
        help="project components on their best plane or on the slicing plane",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceseg",
        description="Slice-wise segmentation and delta geometry coding for voxel clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic point cloud as PLY")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--extent", type=int, required=True)
    p.add_argument("--offset", type=int, help="plane position (plane kind)")
    p.add_argument("--amplitude", type=int, help="fold stack height (folded-sheet kind)")
    p.add_argument("--period", type=int, help="fold width (folded-sheet kind)")
    p.add_argument("--count", type=int, help="point count (uniform-random kind)")
    p.add_argument("--density", type=float, help="occupancy fraction (uniform-random)")
    p.add_argument("--seed", type=int, help="RNG seed; required for random kinds")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ascii", "binary"), default="ascii")

    p = sub.add_parser("analyze", help="per-axis occlusion and loss-fraction JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--plan", help="optional plan JSON; adds per-slice loss entries")
    p.add_argument("--out", required=True)

    p = sub.add_parser("slice", help="build a slice plan and write it as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--plan", required=True, help="output path for the plan JSON")
    _add_plan_flags(p)
    p.add_argument("--emit-slices", metavar="DIR", help="also write one PLY per slice")
    p.add_argument("--format", choices=("ascii", "binary"), default="ascii")

    p = sub.add_parser("encode", help="serialize a cloud into an SWSG bitstream")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--plan",
        required=True,
        help="plan JSON path; loaded if it exists, otherwise built and written",
    )
    p.add_argument("--out", required=True)
    _add_plan_flags(p)

    p = sub.add_parser("decode", help="reconstruct a PLY from an SWSG bitstream")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ascii", "binary"), default="ascii")

    p = sub.add_parser("compare", help="data-loss report: baselines vs slice plan")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--baseline",
        default=",".join(BASELINES),
        help=f"comma list from {{{', '.join(BASELINES)}}}",
    )
    p.add_argument(
        "--thickness",
        type=int,
        default=CompareConfig.surface_thickness,
        help="dual-layer surface thickness",
    )
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", help="JSON mirror path (default: CSV path with .json)")
    _add_plan_flags(p)

    for command in sub.choices.values():  # parse_args reports its checks through these
        command.set_defaults(parser=command)
    return parser


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    error = args.parser.error  # the command's parser: "sliceseg <command>: error: ..."
    if args.command == "gen":
        if args.kind in SEEDED_KINDS and args.seed is None:
            error(f"--seed is required for kind {args.kind!r}")
        if args.kind == "uniform-random" and args.count is None and args.density is None:
            error("uniform-random needs --count or --density")
    if args.command == "compare":
        names = [t.strip() for t in args.baseline.split(",") if t.strip()]
        try:
            args.baseline_set = tuple(BASELINES[n] for n in names)
        except KeyError as exc:
            error(f"unknown baseline {exc.args[0]!r} (choose from {', '.join(BASELINES)})")
        if not args.baseline_set:
            error(f"--baseline must name at least one of: {', '.join(BASELINES)}")
    return args


def _slicer_config(args: argparse.Namespace) -> SlicerConfig:
    return SlicerConfig(
        theta=args.theta,
        threshold_frac=args.threshold,
        overlap=args.overlap,
        plane_rule=args.plane_rule,
    )


def _load_cloud(path: str) -> PointCloud:
    cloud = read_ply(Path(path).read_bytes())
    if cloud.duplicates_merged:
        print(
            f"loaded {len(cloud)} points from {path} "
            f"({cloud.duplicates_merged} duplicates merged)"
        )
    return cloud


def _cmd_gen(args: argparse.Namespace) -> int:
    params = {"extent": args.extent}
    for name in ("offset", "amplitude", "period", "count", "density"):
        if getattr(args, name) is not None:  # the generator supplies the rest
            params[name] = getattr(args, name)
    cloud = gen_synthetic(args.kind, params, seed=args.seed or 0)
    Path(args.out).write_bytes(write_ply(cloud, args.format))
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    cloud = _load_cloud(args.input)
    stats = compute_psi(cloud)
    # the whole cloud as one label: row `axis` counts its pixels on the plane dropping `axis`
    areas = pixel_areas(np.zeros(len(cloud), dtype=np.int64), pixel_keys(cloud), 1)[:, 0].tolist()
    doc = {
        "points": len(cloud),
        "bit_depth": cloud.bit_depth,
        "components": stats.component_count,
        "per_axis": {
            axis.name: {"projected_area": area, "occluded": len(cloud) - area}
            for axis, area in zip(Axis, areas)
        },
        "loss": {"phi": stats.phi, "lost": stats.lost, "psi": stats.psi},
    }
    if args.plan:
        plan = plan_from_json(Path(args.plan).read_bytes())
        core_slices(cloud, plan)  # replay: PlanMismatchError unless the plan fits
        doc["slices"] = [
            {"index": s.index, "points": s.point_count, "psi": s.psi, "terminal": s.terminal}
            for s in plan.slices
        ]
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    cloud = _load_cloud(args.input)
    plan = build_plan(cloud, _slicer_config(args))
    Path(args.plan).write_text(plan_to_json(plan))
    print(f"planned {len(plan.slices)} slices over {len(cloud)} points -> {args.plan}")
    if args.emit_slices:
        out_dir = Path(args.emit_slices)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec, slice_cloud in extract_slices(cloud, plan):
            path = out_dir / f"slice_{spec.index:03d}.ply"
            path.write_bytes(write_ply(slice_cloud, args.format))
        print(f"wrote {len(plan.slices)} slice PLYs to {out_dir}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    cloud = _load_cloud(args.input)
    plan_path = Path(args.plan)
    saved = plan_path.exists()
    if saved:
        plan = plan_from_json(plan_path.read_bytes())
    else:
        plan = build_plan(cloud, _slicer_config(args))
    built = build_stream(plan, cloud.bit_depth, core_slices(cloud, plan))
    stream = reencode(built)
    if not saved:  # only a plan that encodes is kept
        plan_path.write_text(plan_to_json(plan))
    Path(args.out).write_bytes(stream)
    budget = stream_budget(built, len(cloud))
    print(
        f"encoded {len(cloud)} points in {len(plan.slices)} slices: "
        f"{len(stream)} bytes (payload {budget.payload_bits} bits, "
        f"naive {budget.naive_bits} bits)"
    )
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    stream = decode(Path(args.input).read_bytes())
    cloud = stream.cloud
    Path(args.out).write_bytes(write_ply(cloud, args.format))
    print(f"decoded {len(cloud)} points from {len(stream.records)} slices to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cloud = _load_cloud(args.input)
    config = CompareConfig(
        slicer=_slicer_config(args),
        baselines=args.baseline_set,
        surface_thickness=args.thickness,
    )
    rows = compare_strategies(cloud, config)
    out = Path(args.out)
    out.write_text(render_csv(rows))
    json_path = Path(args.json) if args.json else out.with_suffix(".json")
    json_path.write_text(render_json(rows))
    print(f"wrote {len(rows)} strategy rows to {out} and {json_path}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "slice": _cmd_slice,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "compare": _cmd_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)  # argparse reads sys.argv[1:] when argv is None
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"sliceseg {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
