"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload engine|multiwalk \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
``src/`` next to this directory, so nothing needs installing.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it measures half the time untraced and half traced,
then derives the per-layer metrics from the recorded spans.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record (host
fingerprint, load average at start and end, failures, checks) and, for
traced runs, the spans go to ``.perfbench/`` in the checkout.

See ``perfbench/LEDGER.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("engine", "multiwalk")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

FAMILIES = ("magic_square", "costas", "all_interval")

#: every per-layer metric and its unit; a workload that does not cross a
#: layer reports 0 for it (LEDGER.md lists which workload measures what)
PER_LAYER = {
    **{f"problems.swap_deltas_us.{f}": "us" for f in FAMILIES},
    **{f"problems.swap_deltas_calls_per_iter.{f}": "calls/iter" for f in FAMILIES},
    "problems.build_ms": "ms",
    **{f"core.us_per_iter.{f}": "us" for f in FAMILIES},
    "core.self_share": "ratio",
    **{f"vector.us_per_lane_iter.{f}": "us" for f in FAMILIES},
    "service.queue_wait_ms": "ms",
    "net.job_overhead_ms.p50": "ms",
    "net.job_overhead_ms.p90": "ms",
    "net.cancel_latency_ms": "ms",
    "net.wasted_iter_ratio": "ratio",
    "net.assign_bytes_per_job": "bytes",
    "net.stale_results": "count",
    "net.redispatches": "count",
    "net.frames_dropped": "count",
    "gateway.post_ms.p50": "ms",
    "gateway.post_ms.p90": "ms",
    "gateway.self_ms.p50": "ms",
    "gateway.self_ms.p90": "ms",
    "gateway.planner_record_ms": "ms",
    "gateway.cache_hit_ratio": "ratio",
    "gateway.hit_latency_p50_ms": "ms",
    "gateway.miss_latency_p50_ms": "ms",
    "gateway.shed": "count",
    "ladder.core_ms": "ms",
    "ladder.service_ms": "ms",
    "ladder.net_ms": "ms",
    "ladder.gateway_ms": "ms",
    "bench.tracing_overhead_pct": "%",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from measure import host_fingerprint, load_average, peak_rss_mb, stop_helpers

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "load_start": load_average(),
        "started": time.time(),
    }
    if args.workload == "engine":
        import wl_engine as workload
    else:
        import wl_multiwalk as workload

    try:
        report = workload.execute(args.seed, args.seconds, bool(args.trace), OUT)
    finally:
        stop_helpers()
    values = dict(report["metrics"])
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()  # children reaped by now
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    # figures outside the catalogue (iters_per_s, ...) go to the record
    extra = {k: v for k, v in values.items() if k not in units}
    extra.update(report.get("extra", {}))
    attempted, failed = report["attempted"], report["failed"]
    record.update(
        load_end=load_average(),
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / max(attempted, 1),
        correct=report["correct"],
        errors=report["errors"][:50],
        metrics=metrics,
        extra=extra,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))

    for metric, entry in metrics.items():
        print(f"{metric:44s} {entry['value']:14.4f} {entry['unit']}")
    if "iters_per_s" in extra:
        print(f"{'iters_per_s (record only)':44s} {extra['iters_per_s']:14.4f} 1/s")
    print(f"{'failed_ratio':44s} {record['failed_ratio']:14.4f} ratio "
          f"({failed} of {attempted} operations)")
    for error in report["errors"][:10]:
        print(f"check failed: {error}")
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
