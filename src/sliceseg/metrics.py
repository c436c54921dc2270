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

from . import projection
from .cloud import PointCloud, distinct
from .codec import bit_budget
# best_plane is unused here but stays bound: the benchmark's tracer wraps metrics.best_plane
from .projection import (  # noqa: F401
    CaptureConfig, ComponentLabeling, best_plane, label_components, simulate_capture
)
from .slicer import SlicePlan, SlicerConfig, SliceSpec, build_plan, extract_slices

# capture layer mode -> the name of its whole-cloud baseline, in report order
BASELINES = {"single": "single-layer", "dual": "dual-layer"}
PLAN_STRATEGY = "slice-plan"

# the report's columns, in CSV and JSON key order
COLUMNS = ("strategy", "points", "captured", "lost", "loss_fraction", "slices",
           "header_bits", "payload_bits")
CSV_HEADER = ",".join(COLUMNS)


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


def _captured_keys(cloud: PointCloud) -> np.ndarray:
    """Coordinate keys single-layer capture keeps, each component on its best plane."""
    if len(cloud) == 0:  # an empty slice band: nothing to label or capture
        return cloud.coordinate_keys()
    return simulate_capture(cloud, label_components(cloud), CaptureConfig()).coordinate_keys()


def baseline_loss(
    cloud: PointCloud, capture: CaptureConfig, *, labeling: ComponentLabeling | None = None
) -> LossReport:
    """Whole-cloud capture with a fixed layer count; `labeling` is the cloud's, if known."""
    if len(cloud) == 0:
        raise ValueError("cannot measure loss of an empty cloud")
    if labeling is None:
        labeling = label_components(cloud)
    if capture.layer_mode == "single":  # one point per best-plane pixel of each component
        # called through the module, as simulate_capture calls it, so a wrapper sees both
        captured = projection.component_areas(projection.pixel_keys(cloud), labeling)[1].sum()
    else:
        captured = len(simulate_capture(cloud, labeling, capture))
    return LossReport(BASELINES[capture.layer_mode], len(cloud), int(captured))


def plan_loss(cloud: PointCloud, plan: SlicePlan) -> LossReport:
    """Single-layer capture per extracted slice, captured sets unioned.

    Overlap bands participate in capture; duplicates across slices count
    once toward the captured total.
    """
    if len(cloud) == 0:
        raise ValueError("cannot measure loss of an empty cloud")
    return _slices_loss(len(cloud), extract_slices(cloud, plan))


def _slices_loss(total: int, slices: list[tuple[SliceSpec, PointCloud]]) -> LossReport:
    # the plan of a non-empty cloud has a slice, so there is a key set to concatenate
    captured = [_captured_keys(slice_cloud) for _, slice_cloud in slices]
    return LossReport(
        strategy=PLAN_STRATEGY,
        total=total,
        captured=int(distinct(np.concatenate(captured)).shape[0]),
    )


def compare(cloud: PointCloud, config: CompareConfig = CompareConfig()) -> list[dict]:
    """One row per strategy: each requested baseline, then the slice plan."""
    labeling = label_components(cloud) if len(cloud) else None  # baseline_loss refuses empty
    rows = []
    for mode, name in BASELINES.items():
        if name not in config.baselines:
            continue
        capture = CaptureConfig(layer_mode=mode, surface_thickness=config.surface_thickness)
        report = baseline_loss(cloud, capture, labeling=labeling)
        rows.append(_row(report, slices=None, budget=None))

    plan = build_plan(cloud, config.slicer)
    slices = extract_slices(cloud, plan)  # one replay for the loss and the budget
    report = _slices_loss(len(cloud), slices)
    budget = bit_budget(plan, cloud.bit_depth, slices)
    rows.append(_row(report, slices=len(plan.slices), budget=budget))
    return rows


def _row(report: LossReport, slices, budget) -> dict:
    bits = (budget.header_bits, budget.payload_bits) if budget is not None else (None, None)
    values = (report.strategy, report.total, report.captured, report.lost, report.loss_fraction)
    return dict(zip(COLUMNS, values + (slices,) + bits))


def _cell(key: str, value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}" if key == "loss_fraction" else str(value)


def render_csv(rows: list[dict]) -> str:
    """Fixed schema, LF endings, 6-decimal loss fractions; blanks where n/a."""
    lines = [CSV_HEADER]
    lines += [",".join(_cell(key, row[key]) for key in COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"
