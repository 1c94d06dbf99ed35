"""Run the benchmark once per seed and report each metric's median and spread.

Run from the root of a checkout:

    python3 lawbench/spread.py --workload chain --seeds 1 2 3 4 5
    python3 lawbench/spread.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --baseline lawbench/BASELINE.json

The runs are sequential, one process each, untraced, with the
``run_seconds`` of ``BENCHMARK.json``.  The spread of a metric is the
distance between the first and third quartile of its values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of their
median.  A spread above a third of the metric's bound is flagged.
``--baseline`` writes the medians and quartiles of every workload run,
with the machine they were measured on, into the given JSON file (other
workloads in it are kept).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--baseline")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    ok = True
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"]) for seed in args.seeds]
        summary = {"correct": all(r["correct"] for r in runs), "failed": [r["failed"] for r in runs]}
        print(f"{name}: seeds {args.seeds}, correct {summary['correct']}, failed {summary['failed']}")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            summary[metric] = stats
            flag = "" if stats["spread"] < bound / 3 or metric == "setup_s" else "  <-- above bound/3"
            ok = ok and (not flag) and summary["correct"]
            print(f"  {metric:<12} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} (bound {bound}){flag}")
            print("               " + " ".join(f"{v:.6g}" for v in stats["values"]))
        results[name] = summary
    if args.baseline:
        data = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as handle:
                data = json.load(handle)
        data["machine"] = machine()
        data["run_seconds"] = bench["run_seconds"]
        data.setdefault("workloads", {}).update(
            {name: {"seeds": args.seeds, **summary} for name, summary in results.items()}
        )
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
