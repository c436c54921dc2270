"""sliceseg benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload plan-suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Workloads: plan-suite, bulk-codec, loss-report, cli-session (see
bench/README.md for what each measures and which numbers should move).
The load is a closed loop in this one process: one operation at a time,
and in cli-session one CLI subprocess at a time.

--trace 0 times the operations with nothing wrapped and reports the
end-to-end metrics. --trace 1 alternates plain and traced operations and
reports the per-layer metrics, the tracing overhead (traced minus plain
median), a self-time table and a span file. Details go to bench/out/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every
workload in its own process and prints one table.

The program under test is the checkout's src/sliceseg; the benchmark exits
with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("plan-suite", "bulk-codec", "loss-report", "cli-session")
# at least this many operations per run; a traced run needs two of each kind
MIN_OPS = 3
MIN_OPS_TRACED = 4
# An untraced run sets up once before the first operation and once more
# after each operation while the set-ups so far took under SETUP_BUDGET_S
# (up to SETUP_MAX), so the set-up median spans the run as the operations'
# does; it makes up SETUP_MIN at the end. A traced run sets up SETUP_MIN
# times first.
SETUP_MIN = 3
SETUP_MAX = 20
SETUP_BUDGET_S = 4.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values):
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=1000)[int(p * 10) - 1]}
    return None


def summarize(pairs):
    walls = [w for w, _ in pairs]
    return {
        "median": statistics.median(walls),
        "tail": tail(walls),
        "n": len(walls),
        "cpu_median": statistics.median(c for _, c in pairs),
    }


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import layers
    import workloads
    from tracing import Tracer, layer_totals, write_spans

    import_s = time.perf_counter() - import_start
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    tracer = Tracer() if args.trace else None
    failures: list[str] = []

    def traced(fn, *fn_args):
        layers.install(tracer)
        try:
            return fn(*fn_args)
        finally:
            tracer.restore()

    setups = []

    def set_up(state):
        if tracer:
            result, wall, cpu = traced(workloads.timed, workload.setup, args.seed)
        else:
            result, wall, cpu = workloads.timed(workload.setup, args.seed)
        setups.append((wall, cpu))
        if state is not None and result["fingerprint"] != state["fingerprint"]:
            failures.append("setup gave different inputs for the same seed")
        return state or result

    try:
        state = None
        while len(setups) < (SETUP_MIN if tracer else 1):
            state = set_up(state)
        setup_layers = layer_totals(tracer.take()[0]) if tracer else {}

        plain, traced_samples, per_op, spans_by_op = [], [], [], []
        first = None
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        min_ops = MIN_OPS_TRACED if tracer else MIN_OPS
        while attempted < min_ops or time.perf_counter() < deadline:
            use_trace = tracer is not None and attempted % 2 == 1
            attempted += 1
            try:
                if use_trace:
                    sample = traced(workload.operate, state, tracer)
                else:
                    reference = None if tracer else workload.reference
                    sample = workload.operate(state, reference=reference)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                failures.append(traceback.format_exc(limit=3))
                if tracer:
                    tracer.take()
                continue
            if use_trace:
                spans, counters = tracer.take()
                counters.update(state.get("layer_counters", {}))
                per_op.append((layer_totals(spans), counters))
                spans_by_op.append(spans)
            first = first or sample
            problems = workload.check(state, sample, first)
            if problems:
                failed += 1
                failures.extend(problems)
            if sample is not first:
                sample.outputs = None  # keep memory flat across operations
            (traced_samples if use_trace else plain).append(sample)
            if not tracer and len(setups) < SETUP_MAX and (
                sum(w for w, _ in setups) < SETUP_BUDGET_S
            ):
                set_up(state)
        while len(setups) < SETUP_MIN:
            set_up(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not plain or (tracer and not per_op):
        print("\n".join(failures[:5]), file=sys.stderr)
        print(f"bench: every operation of {args.workload} failed", file=sys.stderr)
        return 1

    def timings(samples):
        merged: dict[str, list] = {}
        for s in samples:
            for name, pairs in s.timings.items():
                merged.setdefault(name, []).extend(pairs)
        return merged

    plain_timings = timings(plain)
    detail = {name: summarize(pairs) for name, pairs in plain_timings.items()}
    detail["setup_s"] = summarize(setups)
    figures = workload.figures(state, first)
    fingerprint = {"seed": args.seed, **state["fingerprint"]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "import_s": import_s,
        "fingerprint": fingerprint,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "timings": detail,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
    }

    lines = [
        f"workload {args.workload} seed {args.seed}: {attempted} operations, "
        f"{failed} failed (error_rate {failed / attempted:.4g})",
        "environment " + json.dumps(env),
        "fingerprint " + json.dumps(fingerprint),
        f"{'import_s':<34} {import_s:.4f} s (first import of sliceseg in this run)",
    ]
    for name, (value, unit) in figures.items():
        lines.append(f"{name:<34} {json.dumps(value)} {unit}")
    for name, d in sorted(detail.items()):
        tail_text = f"p{d['tail']['p']:g} {d['tail']['value']:.4f} s" if d["tail"] else "no tail"
        lines.append(
            f"{name:<34} median {d['median']:.4f} s  {tail_text}  n={d['n']}  "
            f"cpu {d['cpu_median']:.4f} s"
        )

    if tracer:
        values, varied = layers.per_layer_values(per_op)
        values["synthetic.gen_s"] = (
            setup_layers.get("synthetic.gen_synthetic", {}).get("total_s", 0.0) / len(setups)
        )
        if varied:
            failures.append(f"per-operation counts varied: {varied}")
        primary = workload.primary
        plain_median = statistics.median(w for w, _ in plain_timings[primary])
        traced_median = statistics.median(
            w for w, _ in timings(traced_samples)[primary]
        )
        overhead = traced_median - plain_median
        table = self_time_table(per_op)
        report["per_layer"] = values
        report["trace_overhead_s"] = overhead
        report["self_time"] = table
        write_spans(OUT / f"{stem}.spans.jsonl", spans_by_op)
        table_text = render_table(table, len(per_op))
        (OUT / f"{stem}.selftime.txt").write_text(table_text)
        lines.append(
            f"trace overhead: {overhead:+.4f} s per operation "
            f"({primary}: traced {traced_median:.4f} s, plain {plain_median:.4f} s)"
        )
        lines.append(table_text.rstrip())
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in layers.PER_LAYER.items()
        }
    else:
        metrics = {
            "op_ref": {"value": statistics.median(s.ref_ratio for s in plain), "unit": "ref"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    report["metrics"] = metrics
    report["failures"] = failures[:20]
    report["peak_rss_mb"] = peak_rss_mb()
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print("\n".join(lines))
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def self_time_table(per_op):
    """Per span name, per operation: calls, inclusive and self seconds (means)."""
    table: dict[str, dict[str, float]] = {}
    for totals, _ in per_op:
        for name, row in totals.items():
            out = table.setdefault(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            for key in out:
                out[key] += row[key] / len(per_op)
    return dict(sorted(table.items(), key=lambda item: -item[1]["self_s"]))


def render_table(table, ops: int) -> str:
    lines = [f"self time per operation, mean of {ops} traced operations",
             f"{'span':<32} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name, row in table.items():
        lines.append(
            f"{name:<32} {row['calls']:>9.1f} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    return "\n".join(lines) + "\n"


def run_all(args) -> int:
    """Every workload in its own process; one table and one JSON line."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]) + "\n")
        last = json.loads(lines[-1])
        results[name] = last["metrics"]
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
    print(f"{'workload':<14} {'metric':<34} value unit")
    for name, metrics in results.items():
        for metric, m in metrics.items():
            print(f"{name:<14} {metric:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "sliceseg" / "__init__.py").is_file():
        print(f"bench: no sliceseg sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
