"""The traced run's cut of sliceseg into layers, and the per-layer metrics.

Every wrapped name below is a module attribute that some caller looks up
at call time, so the wrapper sees every call made through it. Span names
are `<layer>.<function>` with the layer named after the module that owns
the function, whichever module's namespace the call goes through.
"""

from __future__ import annotations

import statistics

from sliceseg import cli, codec, metrics, ply, projection, slicer, synthetic


def _labeled(counters, result, cloud, *args, **kwargs) -> None:
    counters["projection.points_labeled"] += len(cloud)


def _metrics_labeled(counters, result, cloud, *args, **kwargs) -> None:
    _labeled(counters, result, cloud)
    counters["metrics.components"] += result.count


def _read(counters, result, data, *args, **kwargs) -> None:
    counters["ply.bytes_in"] += len(data)


def _written(counters, result, *args, **kwargs) -> None:
    counters["ply.bytes_out"] += len(result)


def _encoded(counters, result, cloud, plan, *args, **kwargs) -> None:
    counters["codec.records"] += len(plan.slices)
    counters["codec.stream_bytes"] += len(result)


def _baseline_name(cloud, capture, *args, **kwargs) -> str:
    return f"metrics.baseline_{capture.layer_mode}"


# (module, attribute, span name, counter hook)
WRAPPED = [
    (slicer, "build_plan", "slicer.build_plan", None),
    (slicer, "select_slice", "slicer.select_slice", None),
    (slicer, "best_width", "slicer.best_width", None),
    (slicer, "compute_psi", "projection.compute_psi", None),
    (slicer, "extract_range", "cloud.extract_range", None),
    (slicer, "remove_range", "cloud.remove_range", None),
    (slicer, "extract_slices", "slicer.extract_slices", None),
    (projection, "label_components", "projection.label_components", _labeled),
    (projection, "component_areas", "projection.component_areas", None),
    (metrics, "label_components", "projection.label_components", _metrics_labeled),
    (metrics, "best_plane", "projection.best_plane", None),
    (metrics, "simulate_capture", "projection.simulate_capture", None),
    (metrics, "extract_slices", "metrics.extract_slices", None),
    (metrics, "build_plan", "slicer.build_plan", None),
    (metrics, "baseline_loss", _baseline_name, None),
    (metrics, "plan_loss", "metrics.plan_loss", None),
    (codec, "extract_slices", "codec.extract_slices", None),
    (codec, "encode", "codec.encode", _encoded),
    (codec, "decode", "codec.decode", None),
    (ply, "read_ply", "ply.read_ply", _read),
    (ply, "write_ply", "ply.write_ply", _written),
    (synthetic, "gen_synthetic", "synthetic.gen_synthetic", None),
    # the CLI binds these names at import, so they need their own wrappers
    (cli, "read_ply", "ply.read_ply", _read),
    (cli, "write_ply", "ply.write_ply", _written),
    (cli, "build_plan", "slicer.build_plan", None),
    (cli, "extract_slices", "slicer.extract_slices", None),
    (cli, "encode", "codec.encode", _encoded),
    (cli, "decode", "codec.decode", None),
    (cli, "compute_psi", "projection.compute_psi", None),
    (cli, "compare_strategies", "metrics.compare", None),
    (cli, "gen_synthetic", "synthetic.gen_synthetic", None),
]


def install(tracer) -> None:
    for module, attr, name, count in WRAPPED:
        tracer.wrap(module, attr, name, count)


def _calls(span):
    return lambda totals, counters: totals.get(span, {}).get("calls", 0)


def _seconds(span):
    return lambda totals, counters: totals.get(span, {}).get("total_s", 0.0)


def _counter(key):
    return lambda totals, counters: counters.get(key, 0)


def _per_round(totals, counters):
    rounds = totals.get("slicer.select_slice", {}).get("calls", 0)
    psi = totals.get("projection.compute_psi", {}).get("calls", 0)
    return psi / rounds if rounds else 0.0


def _bits_per_point(key):
    def value(totals, counters):
        points = counters.get("codec.budget_points", 0)
        return counters.get(key, 0) / points if points else 0.0

    return value


# name -> (unit, better, value per operation from (span totals, counters)).
# Counts come from one operation and repeat exactly across operations on
# the same seed; times are per operation, reported as the median.
# synthetic.gen_s has no per-operation value: generators run in set-up, so
# run.py takes it from the set-up spans.
PER_LAYER = {
    "slicer.rounds": ("count", "lower", _calls("slicer.select_slice")),
    "slicer.best_width_calls": ("count", "lower", _calls("slicer.best_width")),
    "slicer.best_width_s": ("s", "lower", _seconds("slicer.best_width")),
    "slicer.select_slice_s": ("s", "lower", _seconds("slicer.select_slice")),
    "slicer.psi_calls_per_round": ("ratio", "lower", _per_round),
    "projection.compute_psi_calls": ("count", "lower", _calls("projection.compute_psi")),
    "projection.compute_psi_s": ("s", "lower", _seconds("projection.compute_psi")),
    "projection.label_components_calls": (
        "count", "lower", _calls("projection.label_components")
    ),
    "projection.label_components_s": ("s", "lower", _seconds("projection.label_components")),
    "projection.points_labeled": ("count", "lower", _counter("projection.points_labeled")),
    "projection.component_areas_s": ("s", "lower", _seconds("projection.component_areas")),
    "projection.simulate_capture_calls": (
        "count", "lower", _calls("projection.simulate_capture")
    ),
    "projection.simulate_capture_s": ("s", "lower", _seconds("projection.simulate_capture")),
    "projection.best_plane_s": ("s", "lower", _seconds("projection.best_plane")),
    "cloud.extract_range_calls": ("count", "lower", _calls("cloud.extract_range")),
    "cloud.extract_range_s": ("s", "lower", _seconds("cloud.extract_range")),
    "cloud.remove_range_s": ("s", "lower", _seconds("cloud.remove_range")),
    "codec.encode_s": ("s", "lower", _seconds("codec.encode")),
    "codec.decode_s": ("s", "lower", _seconds("codec.decode")),
    "codec.extract_slices_s": ("s", "lower", _seconds("codec.extract_slices")),
    "codec.records": ("count", "lower", _counter("codec.records")),
    "codec.stream_bytes": ("bytes", "lower", _counter("codec.stream_bytes")),
    "codec.payload_bits_per_point": (
        "bits/point", "lower", _bits_per_point("codec.budget_payload_bits")
    ),
    "codec.naive_bits_per_point": (
        "bits/point", "lower", _bits_per_point("codec.budget_naive_bits")
    ),
    "ply.read_s": ("s", "lower", _seconds("ply.read_ply")),
    "ply.write_s": ("s", "lower", _seconds("ply.write_ply")),
    "ply.bytes_in": ("bytes", "lower", _counter("ply.bytes_in")),
    "ply.bytes_out": ("bytes", "lower", _counter("ply.bytes_out")),
    "metrics.baseline_single_s": ("s", "lower", _seconds("metrics.baseline_single")),
    "metrics.baseline_dual_s": ("s", "lower", _seconds("metrics.baseline_dual")),
    "metrics.plan_loss_s": ("s", "lower", _seconds("metrics.plan_loss")),
    "metrics.components": ("count", "lower", _counter("metrics.components")),
    "cli.import_s": ("s", "lower", _seconds("cli.import")),
    "cli.gen_s": ("s", "lower", _seconds("cli.gen")),
    "cli.slice_s": ("s", "lower", _seconds("cli.slice")),
    "cli.encode_s": ("s", "lower", _seconds("cli.encode")),
    "cli.decode_s": ("s", "lower", _seconds("cli.decode")),
    "cli.compare_s": ("s", "lower", _seconds("cli.compare")),
    "cli.analyze_s": ("s", "lower", _seconds("cli.analyze")),
    "synthetic.gen_s": ("s", "lower", None),
}


def per_layer_values(per_op: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Per-layer values over traced operations, and the counts that varied.

    A time is the median over operations; any other value is the first
    operation's, which every later operation must repeat exactly.
    """
    values, varied = {}, []
    for name, (unit, _, value) in PER_LAYER.items():
        if value is None:
            continue
        observed = [value(totals, counters) for totals, counters in per_op]
        if unit == "s":
            values[name] = statistics.median(observed)
            continue
        values[name] = observed[0]
        if len(set(observed)) > 1:
            varied.append(name)
    return values, varied
