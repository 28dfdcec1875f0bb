#!/usr/bin/env python3
"""Steadiness report: run each workload once per seed 1-10 and summarise the spread of every metric.

    python3 bench/steadiness.py [--workload NAME ...] [--out PATH]

For every end-to-end metric it gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. Every metric but setup_s should spread less than a
third of its bound. One traced run per workload, at the first seed, adds the
per-layer baseline. Runs go one at a time, so that they do not compete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment record)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third_of_bound": spread <= bound / 3, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, help="write the report here as JSON")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in args.workload or names:
        results = []
        for seed in SEEDS:
            result, report["environment"] = run(name, seed, seconds, 0)
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            summary = summarise(values, metric["bound"])
            entry["end_to_end"][metric["name"]] = summary
            print(f"  {metric['name']}: median {summary['median']:.6g}, quartiles {summary['q1']:.6g} .. "
                  f"{summary['q3']:.6g}, spread {summary['spread']:.4f} (bound {metric['bound']})", flush=True)
            steady &= summary["within_third_of_bound"] or metric["name"] == "setup_s"
        steady &= entry["all_correct"]
        traced, _ = run(name, SEEDS[0], seconds, 1)
        entry["per_layer_at_first_seed"] = {m: v["value"] for m, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    report["steady"] = steady
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
