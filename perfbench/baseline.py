"""Measure the spread of the benchmark and record a baseline.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--out perfbench/baseline.json]

Runs ``run.py`` once per seed (seeds 1..RUNS) on each workload with tracing
off, then twice with tracing on (seeds 1 and 2), using ``run_seconds`` from
BENCHMARK.json.  For each end-to-end metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread,
(Q3 - Q1) / median, next to the metric's bound; for the traced runs, whether
every count repeated.  ``--out`` writes the whole record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    facts = json.loads(lines[-2].removeprefix("facts "))
    return {"facts": facts, "result": json.loads(lines[-1])}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    record: dict = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workload or names:
        runs = [one_run(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "facts": [r["facts"] for r in runs],
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = summarize(values, metric["bound"])
            s = entry["end_to_end"][metric["name"]]
            print(f"{workload:9s} {metric['name']:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']})", flush=True)
        traced = [one_run(workload, seed, seconds, 1)["result"] for seed in (1, 2)]
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        entry["per_layer"] = layers[0]
        entry["counts_repeat"] = all(
            layers[0][k] == layers[1][k]
            for k in layers[0] if not k.endswith("_s") and k != "trace.overhead_ratio"
        )
        entry["correct"] = entry["correct"] and all(t["correct"] for t in traced)
        print(f"{workload:9s} correct {entry['correct']} failed {entry['failed']}/{entry['attempted']}"
              f" traced counts repeat {entry['counts_repeat']}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
