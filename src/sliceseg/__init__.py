"""Slice-wise segmentation and delta geometry coding for voxelized point clouds."""

from .cloud import (
    AxisRange,
    PointCloud,
    extract_range,
    remove_range,
)
from .codec import (
    DecodedStream,
    DecodeError,
    EncodeError,
    bit_budget,
    decode,
    encode,
    reencode,
)
from .metrics import (
    CompareConfig,
    baseline_loss,
    compare,
    plan_loss,
    render_csv,
    render_json,
)
from .ply import PlyParseError, read_ply, write_ply
from .projection import (
    CaptureConfig,
    best_plane,
    compute_psi,
    label_components,
    simulate_capture,
)
from .slicer import (
    PlanMismatchError,
    SlicePlan,
    SliceSpec,
    SlicerConfig,
    build_plan,
    extract_slices,
    plan_from_json,
    plan_to_json,
)
from .synthetic import gen_synthetic

__version__ = "0.1.0"

__all__ = [
    "AxisRange",
    "CaptureConfig",
    "CompareConfig",
    "DecodeError",
    "DecodedStream",
    "EncodeError",
    "PlanMismatchError",
    "PlyParseError",
    "PointCloud",
    "SlicePlan",
    "SliceSpec",
    "SlicerConfig",
    "baseline_loss",
    "best_plane",
    "bit_budget",
    "build_plan",
    "compare",
    "compute_psi",
    "decode",
    "encode",
    "extract_range",
    "extract_slices",
    "gen_synthetic",
    "label_components",
    "plan_from_json",
    "plan_loss",
    "plan_to_json",
    "read_ply",
    "reencode",
    "remove_range",
    "render_csv",
    "render_json",
    "simulate_capture",
    "write_ply",
]
