"""End-to-end benchmark of the SciLens platform's newsroom-ingest and
reader-dashboard paths.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  Lines before it report the reference loop, each route's
share of serve time and, when traced, the self-time split of the timed phase.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up runs this many times per run; the median is reported.
SETUPS = 3
#: Unit of each end-to-end metric.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "1/s",
    "visible_p50_ms": "ms",
    "requests_per_s": "1/s",
    "read_p50_ms": "ms",
    "search_p50_ms": "ms",
    "assess_p50_ms": "ms",
    "insights_p50_ms": "ms",
    "analytics_p50_ms": "ms",
}


def reference_loop_ms() -> float:
    """A fixed pure-Python loop: its time tells a slow spell of the host
    apart from a slower program."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return (perf_counter() - start) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no platform source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import repro  # noqa: F401  (the platform, built from this checkout's source)
    except ImportError as exc:
        print(f"cannot import the platform from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import checks
    import tracing
    from scenario import BATCH_EVENTS, make_inputs
    from workloads import WORKLOADS, Run, build_platform, feed_batches

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    timed_phase = WORKLOADS[args.workload]
    reference_start = reference_loop_ms()

    inputs = make_inputs(args.seed, feed_batches(args.workload, args.seconds), BATCH_EVENTS)
    setup_s = []
    for _ in range(SETUPS):
        platform = front = None  # release the previous build before the next
        gc.collect()
        start = perf_counter()
        platform, front = build_platform(inputs)
        setup_s.append(perf_counter() - start)

    run = Run(inputs, platform, front, args.seed)
    gc.collect()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.instrument(tracer, platform, front)
        counters_start = tracing.snapshot(platform, front)
        run.tracer = tracer
    phase_start = perf_counter()
    timed_phase(run, args.seconds)
    phase_s = perf_counter() - phase_start
    if tracer is not None:
        counters_end = tracing.snapshot(platform, front)
        tracer.restore()
        run.tracer = None

    run.check_per_article()
    undetected = checks.self_test(run.cases)
    reference_end = reference_loop_ms()

    print(json.dumps({
        "reference_loop_ms": {"start": round(reference_start, 2), "end": round(reference_end, 2)},
        "setup_s": [round(s, 4) for s in setup_s],
        "timed_phase_s": round(phase_s, 3),
        "tag_mismatches": run.tag_mismatches,
        "stale_list_hits": run.stale_list_hits,
        "external_as_internal": run.external_as_internal,
        "route_share_of_serve_time": run.route_shares(),
        "samples": {name: len(values) for name, values in sorted(run.samples.items())},
        "errors": run.errors + run.end_errors,
        "check_self_test_undetected": undetected,
    }))
    if tracer is not None:
        metrics, split = tracing.layer_metrics(
            tracer, counters_start, counters_end, phase_s, run.attempted
        )
        print(json.dumps({"trace_split": split}))
        tracer.dump(HERE / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        e2e = run.metrics()
        e2e["setup_s"] = statistics.median(setup_s)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (value, UNITS[name]) for name, value in e2e.items()}
    print(json.dumps({
        "correct": not undetected and not run.end_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
