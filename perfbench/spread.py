"""Run the benchmark once per seed and report each metric's median and the
distance between its first and third quartile as a share of the median.

    python3 perfbench/spread.py --workload dashboard --seeds 1 2 3 4 5 --seconds 20

Runs one after another (never in parallel, which would disturb the timings)
and prints one JSON object per run, then the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONHASHSEED": "0"},
        ).stdout.strip().splitlines()
        print(out[0], flush=True)
        result = json.loads(out[-1])
        print(json.dumps(result), flush=True)
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        summary[name] = {"median": round(q2, 4), "iqr_share": round((q3 - q1) / q2, 4) if q2 else None}
    print(json.dumps({"workload": args.workload, "failed_shares": sorted(failed_shares), "spread": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
