"""The four workloads: inputs made from a seed, one timed operation, checks.

Each workload drives sliceseg through its public functions, called as
module attributes (`slicer.build_plan`, `codec.encode`, ...) so that the
traced run's wrappers see the calls. The program only ever receives the
generated clouds and files.

Seeds: `--seed n` feeds the random generators directly and the folded
sheet's ripple with n + 6, so seed 1 gives the reference inputs (random
seed 1, sheet seed 7).
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import ndimage

from sliceseg import codec, metrics, ply, projection, slicer, synthetic
from sliceseg.cloud import Axis, AxisRange, PointCloud, Side

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

PLAN_CONFIG = dict(theta=64, threshold_frac="0.05", overlap=2)
SLAB_WIDTH = 16
SLAB_OVERLAP = 2


@dataclass
class Sample:
    """One operation: (wall, cpu) seconds per named timing, plus its outputs."""

    timings: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    outputs: object = None
    ref_ratio: float = 0.0

    def add(self, name: str, wall: float, cpu: float) -> None:
        self.timings.setdefault(name, []).append((wall, cpu))

    def add_sum(self, name: str, parts) -> None:
        """Record under `name` the sum of the latest timings of `parts`."""
        self.add(name, *(sum(self.timings[p][-1][i] for p in parts) for i in (0, 1)))


def cpu_time() -> float:
    """CPU seconds of this process plus its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed(fn, *args, **kwargs):
    """fn's result, wall seconds and CPU seconds."""
    wall, cpu = time.perf_counter(), cpu_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - wall, cpu_time() - cpu


class Steps:
    """Times the steps of one operation into a Sample.

    Given the workload's reference task, it also times that task before the
    first step and after each one, and adds to `sample.ref_ratio` each
    step's wall time over the mean of the reference timings around it. A
    stretch where the shared machine runs slow then cancels out of the
    ratio, while a change to sliceseg moves it as it moves the wall time.
    """

    def __init__(self, sample: Sample, reference=None) -> None:
        self.sample = sample
        self.reference = reference
        self._before = self._reference()

    def _reference(self) -> Optional[float]:
        if self.reference is None:
            return None
        wall, cpu = self.reference()
        self.sample.add("reference_s", wall, cpu)
        return wall

    def __call__(self, name: str, fn, *args, **kwargs):
        result, wall, cpu = timed(fn, *args, **kwargs)
        self.sample.add(name, wall, cpu)
        after = self._reference()
        if after is not None:
            self.sample.ref_ratio += wall * 2 / (self._before + after)
            self._before = after
        return result


def sheet_seed(seed: int) -> int:
    return seed + 6


def describe(cloud: PointCloud) -> dict:
    """Input fingerprint: size, bounding box and 26-connected components."""
    mins, maxs = cloud.bbox
    return {
        "points": len(cloud),
        "bbox": [mins.tolist(), maxs.tolist()],
        "components": projection.label_components(cloud).count,
    }


def slab_plan(cloud: PointCloud, width: int = SLAB_WIDTH, overlap: int = SLAB_OVERLAP):
    """Fixed-width Z slabs cut from the -Z face, built from the public plan types.

    Like the planner's slices, each is widened inward (towards +Z) by the
    overlap, so seams are covered twice. Bypasses the planner, so workloads
    using it measure no `slicer` search.
    """
    mins, maxs = cloud.bbox
    lo, hi = int(mins[Axis.Z]), int(maxs[Axis.Z]) + 1
    z = cloud.coords[:, Axis.Z]
    specs = []
    for index, start in enumerate(range(lo, hi, width)):
        end = min(start + width, hi)
        specs.append(
            slicer.SliceSpec(
                index=index,
                side=Side(Axis.Z, -1),
                core=AxisRange(Axis.Z, start, end),
                extended=AxisRange(Axis.Z, start, min(end + overlap, hi)),
                point_count=int(np.count_nonzero((z >= start) & (z < end))),
                psi=0.0,
            )
        )
    config = slicer.SlicerConfig(**{**PLAN_CONFIG, "overlap": overlap})
    return slicer.SlicePlan(config=config, original_size=len(cloud), slices=tuple(specs))


class InProcess:
    """A workload whose operation runs in the benchmark's own process."""

    def __init__(self, workdir: Path) -> None:
        rng = np.random.default_rng(0)
        self._grid = (rng.random((24, 24, 24)) < 0.3).astype(np.uint8)
        self._structure = np.ones((3, 3, 3), dtype=np.int8)
        self._keys = rng.integers(0, 1 << 30, 5000)

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of a fixed task that runs no sliceseg code.

        It mixes what sliceseg spends its time on (26-connected labeling,
        sorts, small Python objects), so a stretch where the machine runs
        slow slows it about as much as the operation timed just before it.
        """
        wall, cpu = time.perf_counter(), cpu_time()
        for k in range(20):
            ndimage.label(self._grid, structure=self._structure)
            np.unique(self._keys >> (k % 7))
            sum(len(str(i)) for i in range(300))
        return time.perf_counter() - wall, cpu_time() - cpu


class PlanSuite(InProcess):
    name = "plan-suite"
    primary = "plan_s"

    def setup(self, seed: int) -> dict:
        sheet = synthetic.gen_synthetic(
            "folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, seed=sheet_seed(seed)
        )
        shell = synthetic.gen_synthetic("sphere-shell", {"extent": 20})
        scatter = synthetic.gen_synthetic(
            "uniform-random", {"extent": 48, "count": 1000}, seed=seed
        )
        inputs = [
            ("folded-sheet-32", sheet, "best-plane"),
            ("sphere-shell-20", shell, "best-plane"),
            ("sphere-shell-20-fixed", shell, "fixed-plane"),
            ("uniform-random-48", scatter, "best-plane"),
        ]
        return {
            "inputs": [
                (name, cloud, slicer.SlicerConfig(plane_rule=rule, **PLAN_CONFIG))
                for name, cloud, rule in inputs
            ],
            "fingerprint": {name: describe(cloud) for name, cloud, _ in inputs},
        }

    def operate(self, state: dict, tracer=None, reference=None) -> Sample:
        sample = Sample(outputs=[])
        step = Steps(sample, reference)
        parts = []
        for name, cloud, config in state["inputs"]:
            parts.append(f"plan_s[{name}]")
            sample.outputs.append(step(parts[-1], slicer.build_plan, cloud, config))
        sample.add_sum("plan_s", parts)
        return sample

    def check(self, state: dict, sample: Sample, first: Sample) -> list[str]:
        failures = []
        for (name, cloud, _), plan, ref in zip(state["inputs"], sample.outputs, first.outputs):
            try:
                replay = slicer.extract_slices(cloud, plan)
            except slicer.PlanMismatchError as exc:
                failures.append(f"{name}: replay failed: {exc}")
                continue
            if sum(spec.point_count for spec, _ in replay) != len(cloud):
                failures.append(f"{name}: slice cores do not cover the cloud")
            if plan.slices != ref.slices:
                failures.append(f"{name}: plan differs from the first operation's")
        return failures

    def figures(self, state: dict, sample: Sample) -> dict:
        slices = [s for plan in sample.outputs for s in plan.slices]
        lost = sum(s.psi * s.point_count for s in slices)
        return {
            "plan_core_loss": (lost / sum(s.point_count for s in slices), "fraction"),
            "slices_per_plan": (
                {name: len(plan.slices) for (name, _, _), plan in zip(state["inputs"], sample.outputs)},
                "count",
            ),
        }


class BulkCodec(InProcess):
    name = "bulk-codec"
    primary = "frame_s"

    def setup(self, seed: int) -> dict:
        cloud = synthetic.gen_synthetic(
            "uniform-random", {"extent": 256, "count": 200_000}, seed=seed
        )
        data = ply.write_ply(cloud, "ascii")
        plan = slab_plan(cloud)
        budget = codec.bit_budget(plan, cloud.bit_depth, slicer.extract_slices(cloud, plan))
        fingerprint = describe(cloud)
        fingerprint["slices"] = len(plan.slices)
        fingerprint["ply_bytes"] = len(data)
        return {
            "cloud": cloud,
            "data": data,
            "plan": plan,
            "fingerprint": fingerprint,
            "layer_counters": {
                "codec.budget_points": len(cloud),
                "codec.budget_payload_bits": budget.payload_bits,
                "codec.budget_naive_bits": budget.naive_bits,
            },
        }

    def operate(self, state: dict, tracer=None, reference=None) -> Sample:
        sample = Sample()
        step = Steps(sample, reference)
        cloud = step("read_ply_s", ply.read_ply, state["data"])
        stream = step("encode_s", codec.encode, cloud, state["plan"])
        decoded = step("decode_s", codec.decode, stream)
        decoded_cloud = step("decoded_cloud_s", lambda: decoded.cloud)
        written = step("write_ply_s", ply.write_ply, decoded_cloud, "ascii")
        sample.add_sum("encode_frame_s", ("read_ply_s", "encode_s"))
        sample.add_sum("decode_frame_s", ("decode_s", "decoded_cloud_s", "write_ply_s"))
        sample.add_sum("frame_s", ("encode_frame_s", "decode_frame_s"))
        sample.outputs = (cloud, stream, decoded, decoded_cloud, written)
        return sample

    def check(self, state: dict, sample: Sample, first: Sample) -> list[str]:
        cloud, stream, decoded, decoded_cloud, written = sample.outputs
        failures = []
        if not cloud.same_points(state["cloud"]):
            failures.append("read_ply did not reproduce the generated points")
        if not decoded_cloud.same_points(cloud):
            failures.append("decode(encode(c)) lost or changed points")
        if codec.reencode(decoded) != stream:
            failures.append("re-encoding the decoded stream changed its bytes")
        if stream != first.outputs[1] or written != first.outputs[4]:
            failures.append("outputs differ from the first operation's")
        return failures

    def figures(self, state: dict, sample: Sample) -> dict:
        stream = sample.outputs[1]
        return {"stream_bits_per_point": (8 * len(stream) / len(state["cloud"]), "bits/point")}


class LossReport(InProcess):
    name = "loss-report"
    primary = "report_s"

    def setup(self, seed: int) -> dict:
        clouds = [
            (
                "uniform-random-64",
                synthetic.gen_synthetic(
                    "uniform-random", {"extent": 64, "count": 20_000}, seed=seed
                ),
            ),
            (
                "folded-sheet-64",
                synthetic.gen_synthetic(
                    "folded-sheet",
                    {"extent": 64, "amplitude": 8, "period": 32},
                    seed=sheet_seed(seed),
                ),
            ),
        ]
        inputs = [(name, cloud, slab_plan(cloud)) for name, cloud in clouds]
        fingerprint = {}
        for name, cloud, plan in inputs:
            fingerprint[name] = describe(cloud)
            fingerprint[name]["slices"] = len(plan.slices)
        return {"inputs": inputs, "fingerprint": fingerprint}

    def operate(self, state: dict, tracer=None, reference=None) -> Sample:
        single = projection.CaptureConfig(layer_mode="single")
        dual = projection.CaptureConfig(layer_mode="dual", surface_thickness=4)
        sample = Sample(outputs=[])
        step = Steps(sample, reference)
        totals = []
        for name, cloud, plan in state["inputs"]:
            parts = [f"{call}_s[{name}]" for call in ("baseline_single", "baseline_dual", "plan_loss")]
            sample.outputs.append(
                (
                    step(parts[0], metrics.baseline_loss, cloud, single),
                    step(parts[1], metrics.baseline_loss, cloud, dual),
                    step(parts[2], metrics.plan_loss, cloud, plan),
                )
            )
            totals.append(f"report_s[{name}]")
            sample.add_sum(totals[-1], parts)
        sample.add_sum("report_s", totals)
        return sample

    def check(self, state: dict, sample: Sample, first: Sample) -> list[str]:
        failures = []
        for (name, _, _), reports, ref in zip(state["inputs"], sample.outputs, first.outputs):
            for report in reports:
                if not 0 <= report.captured <= report.total:
                    failures.append(f"{name}: {report.strategy} captured {report.captured} of {report.total}")
            if [r.captured for r in reports] != [r.captured for r in ref]:
                failures.append(f"{name}: captured counts differ from the first operation's")
        return failures

    def figures(self, state: dict, sample: Sample) -> dict:
        return {
            "captured": (
                {
                    name: {r.strategy: r.captured for r in reports}
                    for (name, _, _), reports in zip(state["inputs"], sample.outputs)
                },
                "count",
            )
        }


# The README quick start; `{seed}` is the folded sheet's seed.
CLI_COMMANDS = [
    ("gen", "gen --kind folded-sheet --extent 32 --amplitude 8 --period 16 --seed {seed} --out sheet.ply"),
    ("slice", "slice --input sheet.ply --plan plan.json --emit-slices slices/"),
    ("encode", "encode --input sheet.ply --plan plan.json --out sheet.swsg"),
    ("decode", "decode --input sheet.swsg --out decoded.ply"),
    ("compare", "compare --input sheet.ply --baseline single,dual --out report.csv"),
    ("analyze", "analyze --input sheet.ply --plan plan.json --out analysis.json"),
]


class CliSession:
    name = "cli-session"
    primary = "cli_session_s"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120
        )

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of an interpreter start that imports numpy.

        Runs no sliceseg code; it pays the process start and module loading
        that every CLI command pays, so it slows down with them.
        """
        _, wall, cpu = timed(self._run, [sys.executable, "-c", "import numpy"])
        return wall, cpu

    def setup(self, seed: int) -> dict:
        expected = synthetic.gen_synthetic(
            "folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, seed=sheet_seed(seed)
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        # one interpreter start fills the file cache before anything is timed
        proc = self._run([sys.executable, "-c", "import sliceseg.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import sliceseg.cli: {proc.stderr.strip()}")
        return {
            "expected": expected,
            "seed": sheet_seed(seed),
            "fingerprint": {"folded-sheet-32": describe(expected), "commands": len(CLI_COMMANDS)},
        }

    def operate(self, state: dict, tracer=None, reference=None) -> Sample:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        sample = Sample(outputs={"codes": {}, "stderr": {}})
        step = Steps(sample, reference)
        parts = []
        for name, template in CLI_COMMANDS:
            args = template.format(seed=state["seed"]).split()
            if tracer is None:
                argv = [sys.executable, "-m", "sliceseg.cli", *args]
            else:
                spans_path = self.workdir / f".spans-{name}.json"
                argv = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), *args]
            parts.append(f"cli_cmd_s[{name}]")
            start = time.perf_counter()
            proc = step(parts[-1], self._run, argv)
            if tracer is not None:
                end = start + sample.timings[parts[-1]][-1][0]
                tracer.adopt(spans_path, tracer.add_span(f"cli.{name}", start, end))
            sample.add_sum("cli_cmd_s", parts[-1:])
            sample.outputs["codes"][name] = proc.returncode
            sample.outputs["stderr"][name] = proc.stderr
        sample.add_sum("cli_session_s", parts)
        if tracer is not None:
            start = time.perf_counter()
            self._run([sys.executable, "-c", "import sliceseg.cli"])
            tracer.add_span("cli.import", start, time.perf_counter())
        for name in ("decoded.ply", "report.csv", "plan.json", "analysis.json"):
            path = self.workdir / name
            sample.outputs[name] = path.read_bytes() if path.exists() else None
        return sample

    def check(self, state: dict, sample: Sample, first: Sample) -> list[str]:
        out = sample.outputs
        failures = [
            f"{name} exited {code}: {out['stderr'][name].strip()}"
            for name, code in out["codes"].items()
            if code != 0
        ]
        decoded = out["decoded.ply"]
        if decoded is None:
            failures.append("decode wrote no decoded.ply")
        else:
            try:
                if not ply.read_ply(decoded).same_points(state["expected"]):
                    failures.append("decoded.ply differs from the generated points")
            except ply.PlyParseError as exc:
                failures.append(f"decoded.ply does not parse: {exc}")
        for name in ("report.csv", "plan.json", "analysis.json"):
            if out[name] != first.outputs[name]:
                failures.append(f"{name} differs from the first session's")
        return failures

    def figures(self, state: dict, sample: Sample) -> dict:
        report = sample.outputs["report.csv"]
        if report is None:
            return {}
        plan_row = report.decode().strip().splitlines()[-1].split(",")
        return {"cli_plan_loss_fraction": (float(plan_row[4]), "fraction")}


def make(name: str, workdir: Path):
    return {w.name: w for w in (PlanSuite, BulkCodec, LossReport, CliSession)}[name](workdir)


NAMES = (PlanSuite.name, BulkCodec.name, LossReport.name, CliSession.name)
