"""Data-loss quantification: slice plans vs fixed-layer whole-cloud baselines.

Loss is the fraction of the deduplicated original points that the capture
model cannot represent: components are projected on their best plane and a
fixed number of depth layers keeps one (or two) points per pixel. The
slice-plan strategy applies the same model per extracted slice and unions
the captured sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, distinct
from .codec import bit_budget
# best_plane is unused here but stays bound: the benchmark's tracer wraps metrics.best_plane
from .projection import CaptureConfig, best_plane, label_components, simulate_capture  # noqa: F401
from .slicer import SlicePlan, SlicerConfig, SliceSpec, build_plan, extract_slices

# capture layer mode -> the name of its whole-cloud baseline, in report order
BASELINES = {"single": "single-layer", "dual": "dual-layer"}
PLAN_STRATEGY = "slice-plan"

CSV_HEADER = "strategy,points,captured,lost,loss_fraction,slices,header_bits,payload_bits"


@dataclass(frozen=True)
class LossReport:
    strategy: str
    total: int
    captured: int

    @property
    def lost(self) -> int:
        return self.total - self.captured

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.total


@dataclass(frozen=True)
class CompareConfig:
    slicer: SlicerConfig = SlicerConfig()
    baselines: tuple[str, ...] = tuple(BASELINES.values())
    surface_thickness: int = 4

    def __post_init__(self) -> None:
        if not self.baselines:
            raise ValueError("at least one baseline is required")
        names = tuple(BASELINES.values())
        for name in self.baselines:
            if name not in names:
                raise ValueError(f"unknown baseline {name!r} (choose from {names})")
        if BASELINES["dual"] in self.baselines:  # raises unless the thickness is >= 1
            CaptureConfig(layer_mode="dual", surface_thickness=self.surface_thickness)


def _captured_keys(cloud: PointCloud, config: CaptureConfig) -> np.ndarray:
    """Coordinate keys captured by per-component best-plane projection."""
    if len(cloud) == 0:  # an empty slice band: nothing to label or capture
        return cloud.coordinate_keys()
    return simulate_capture(cloud, label_components(cloud), config).coordinate_keys()


def baseline_loss(cloud: PointCloud, capture: CaptureConfig) -> LossReport:
    """Whole-cloud capture with a fixed layer count."""
    if len(cloud) == 0:
        raise ValueError("cannot measure loss of an empty cloud")
    name = BASELINES[capture.layer_mode]
    captured = _captured_keys(cloud, capture)
    return LossReport(strategy=name, total=len(cloud), captured=int(captured.shape[0]))


def plan_loss(cloud: PointCloud, plan: SlicePlan) -> LossReport:
    """Single-layer capture per extracted slice, captured sets unioned.

    Overlap bands participate in capture; duplicates across slices count
    once toward the captured total.
    """
    return _slices_loss(len(cloud), extract_slices(cloud, plan))


def _slices_loss(total: int, slices: list[tuple[SliceSpec, PointCloud]]) -> LossReport:
    single = CaptureConfig(layer_mode="single")
    captured = [_captured_keys(slice_cloud, single) for _, slice_cloud in slices]
    return LossReport(
        strategy=PLAN_STRATEGY,
        total=total,
        captured=int(distinct(np.concatenate(captured)).shape[0]) if captured else 0,
    )


def compare(cloud: PointCloud, config: CompareConfig = CompareConfig()) -> list[dict]:
    """One row per strategy: each requested baseline, then the slice plan."""
    rows = []
    for mode, name in BASELINES.items():
        if name not in config.baselines:
            continue
        capture = CaptureConfig(layer_mode=mode, surface_thickness=config.surface_thickness)
        report = baseline_loss(cloud, capture)
        rows.append(_row(report, slices=None, budget=None))

    plan = build_plan(cloud, config.slicer)
    slices = extract_slices(cloud, plan)  # one replay for the loss and the budget
    report = _slices_loss(len(cloud), slices)
    budget = bit_budget(plan, cloud.bit_depth, slices)
    rows.append(_row(report, slices=len(plan.slices), budget=budget))
    return rows


def _row(report: LossReport, slices, budget) -> dict:
    return {
        "strategy": report.strategy,
        "points": report.total,
        "captured": report.captured,
        "lost": report.lost,
        "loss_fraction": report.loss_fraction,
        "slices": slices,
        "header_bits": budget.header_bits if budget is not None else None,
        "payload_bits": budget.payload_bits if budget is not None else None,
    }


def render_csv(rows: list[dict]) -> str:
    """Fixed schema, LF endings, 6-decimal loss fractions; blanks where n/a."""
    lines = [CSV_HEADER]
    for row in rows:
        cells = [
            row["strategy"],
            str(row["points"]),
            str(row["captured"]),
            str(row["lost"]),
            f"{row['loss_fraction']:.6f}",
            "" if row["slices"] is None else str(row["slices"]),
            "" if row["header_bits"] is None else str(row["header_bits"]),
            "" if row["payload_bits"] is None else str(row["payload_bits"]),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"
