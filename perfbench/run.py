#!/usr/bin/env python3
"""The benchmark of the served diagnoser: one command, four workloads.

    python3 perfbench/run.py --workload cold-http --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` sets the workload up
three times (``setup_s`` is the median), measures for ``--seconds``
with no instrumentation, checks every output, and reports the
end-to-end metrics.  ``--trace 1`` sets up once, measures half the time
untraced and half traced, and reports the per-layer metrics (see
``perfbench/NOTES.md``); the spans go to ``.bench_out/``.  Either way
the last line of standard output is one JSON object; the lines before
it print every metric by name and unit.  The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from tracing import STAGES, STORE_CALLS  # noqa: E402

WORKLOADS = {
    "cold-http": ("cold_http", "ColdHttp"),
    "warm-tenant": ("warm_tenant", "WarmTenant"),
    "stream-glitch": ("stream_glitch", "StreamGlitch"),
    "batch-store": ("batch_store", "BatchStore"),
}
SETUPS = 3

END_TO_END = {
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "rss_mb": "MB",
}

#: Self time per operation (request, tick or job), in ms, by span name.
SELF_TIMES = (
    "server.auth",
    "server.quota",
    "service.decode",
    "service.run_job",
    "service.execute",
    "service.cache_get",
    "service.experience_merge",
    "core.diagnose",
    *(f"core.{stage}" for stage in STAGES),
    "core.refine",
    "circuit.parse",
    "circuit.solve",
    "stream.tick",
)
#: Store calls: p50 per call (ms) and calls per operation.
STORE = tuple(STORE_CALLS.values())
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in SELF_TIMES},
    **{f"{name}_ms": "ms" for name in STORE},
    **{f"{name}_count": "1/op" for name in STORE},
    "server.overhead_ms": "ms",
    "server.scrape_ms": "ms",
    "server.rejected": "count",
    "service.cache_mem_hit_ratio": "ratio",
    "service.cache_disk_hit_ratio": "ratio",
    "service.cache_miss_ratio": "ratio",
    "service.worker_busy_ratio": "ratio",
    "service.batch_overhead_s": "s",
    "core.propagate_steps": "count",
    "core.nogoods": "count",
    "core.candidates": "count",
    "store.writes_per_request": "1/op",
    "store.maintenance_ticks": "count",
    "stream.incremental_ratio": "ratio",
    "stream.reused_prefix_ratio": "ratio",
    "stream.dirty_per_tick": "count",
    "stream.recomputed_per_tick": "count",
    "stream.ingest_us": "us",
    "stream.ticks": "count",
    "stream.suppressed": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "slo_ratio": "ratio",
    "fail_ratio": "ratio",
    "top1_acc": "ratio",
    "top3_acc": "ratio",
}

UNITS = {**END_TO_END, **PER_LAYER}


def summary(m: common.Measurement, attempted: int, failed: int) -> dict:
    """The result metrics every run prints (gated or not)."""
    lags = m.extra.get("lags_ms") or []
    return {
        "latency_p50_ms": common.percentile(m.latencies_ms, 50),
        "latency_p90_ms": common.percentile(m.latencies_ms, 90),
        "latency_p99_ms": common.percentile(m.latencies_ms, 99),
        "throughput_per_s": m.throughput,
        "slo_ratio": float(m.extra.get("slo_ratio", 0.0)),
        "fail_ratio": failed / max(attempted, 1),
        "top1_acc": float(m.extra.get("top1_acc", 0.0)),
        "top3_acc": float(m.extra.get("top3_acc", 0.0)),
        "loadgen.lag_p99_ms": common.percentile(lags, 99),
    }


def run_untraced(cls, args, work) -> tuple:
    setups = []
    workload = cls(args.seed, args.seconds, work)
    try:
        for part in range(SETUPS):
            started = perf_counter()
            workload.setup(part, SETUPS)
            setups.append(perf_counter() - started)
        m = workload.measure(args.seconds)
        workload.finish(m)
    finally:
        workload.close()
    result = summary(m, m.attempted, m.failed)
    result["setup_s"] = statistics.median(setups)
    result["rss_mb"] = common.peak_rss_mb(getattr(workload, "workers", 0))
    return m.attempted, m.failed, m.problems, result


def run_traced(cls, module, args, work) -> tuple:
    from tracing import Tracer, attribute

    workload = cls(args.seed, args.seconds, work)
    try:
        for part in range(SETUPS):
            workload.setup(part, SETUPS)
        base = workload.measure(args.seconds / 2)
        tracer = Tracer(work)
        tracer.install()
        try:
            m = workload.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        workload.finish(m)
    finally:
        workload.close()
    attempted, failed = base.attempted + m.attempted, base.failed + m.failed
    base.extra.update({k: v for k, v in m.extra.items() if k.startswith("top")})
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(summary(base, attempted, failed))

    attribution = attribute(tracer, module.ROOTS)
    ops = max(len(m.latencies_ms), 1)
    for name in SELF_TIMES:
        layer[f"{name}_ms"] = attribution.self_s.get(name, 0.0) / ops * 1e3
    for name in STORE:
        durations = attribution.durations.get(name, [])
        layer[f"{name}_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
        layer[f"{name}_count"] = len(durations) / ops
    run_job = defaultdict(float)
    for name, start, end, _pid, _tid, rid in tracer.spans:
        if name == "service.run_job":
            run_job[rid] += end - start
    overheads = [
        (end - start) - run_job[rid]
        for name, start, end, _pid, _tid, rid in tracer.spans
        if name == "request" and rid in run_job
    ]
    if overheads:
        layer["server.overhead_ms"] = statistics.fmean(overheads) * 1e3
    scrapes = m.extra.get("scrape_ms") or []
    layer["server.scrape_ms"] = common.percentile(scrapes, 50)
    layer["server.rejected"] = float(m.extra.get("rejected", 0))
    untraced_p50 = common.percentile(base.latencies_ms, 50)
    if untraced_p50 > 0:
        layer["trace.overhead_ratio"] = common.percentile(m.latencies_ms, 50) / untraced_p50
    if attribution.root_total_s > 0:
        layer["trace.unattributed_ratio"] = attribution.root_self_s / attribution.root_total_s
    layer.update(m.layer)

    out = common.out_dir() / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(out, attribution.parents)
    return attempted, failed, base.problems + m.problems, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_program()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    cls = getattr(module, class_name)
    work = common.work_dir(args.workload, args.seed)
    try:
        if args.trace:
            attempted, failed, problems, metrics = run_traced(cls, module, args, work)
            gated = PER_LAYER
        else:
            attempted, failed, problems, metrics = run_untraced(cls, args, work)
            gated = END_TO_END
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=60)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {UNITS[name]}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in gated.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
