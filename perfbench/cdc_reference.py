"""Time the CDC apply step per write batch on any source tree of the platform.

    python3 perfbench/cdc_reference.py --src <tree>/src --seed 13 --batches 48

Builds the ``ingest`` workload's set-up at ``--seconds 30`` (everything
before the last 120 write batches preloaded, then segmentation and the
bootstrap migration) from the given source tree, replays write batches through
produce -> ``process_stream`` -> ``process_cdc``, and prints the median
milliseconds the CDC applier spent per batch.  It uses only entry points
that older trees also have, so the figure can be compared across commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="the tree's src directory")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--batches", type=int, default=48)
    parser.add_argument("--feed", type=int, default=120, help="write batches left out of the preload")
    args = parser.parse_args()
    sys.path[:0] = [str(HERE), str(Path(args.src).resolve())]
    from repro import PlatformConfig, SciLensPlatform

    from scenario import BATCH_EVENTS, make_inputs

    inputs = make_inputs(args.seed, args.feed, BATCH_EVENTS)
    scenario = inputs.scenario
    platform = SciLensPlatform(
        config=PlatformConfig(),
        site_store=scenario.site_store,
        account_registry=scenario.outlets.account_registry(),
    )
    platform.register_outlets(scenario.outlets.outlets())
    platform.ingest_posting_events(inputs.preload_postings)
    platform.ingest_reaction_events(inputs.preload_reactions)
    platform.process_stream()
    platform.assign_topics()
    platform.run_daily_migration()

    applier = platform.cdc_applier
    apply = applier.apply
    times: list[float] = []

    def timed_apply(*a, **kw):
        start = perf_counter()
        try:
            return apply(*a, **kw)
        finally:
            times.append((perf_counter() - start) * 1e3)

    applier.apply = timed_apply
    for batch in inputs.batches[: args.batches]:
        platform.ingest_posting_events(batch.postings)
        platform.ingest_reaction_events(batch.reactions)
        platform.process_stream()
        platform.process_cdc()
    print(json.dumps({
        "src": args.src, "seed": args.seed, "batches": len(times),
        "cdc_apply_ms_p50": round(statistics.median(times), 2),
        "cdc_apply_ms_quartiles": [round(q, 2) for q in statistics.quantiles(times, n=4)],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
