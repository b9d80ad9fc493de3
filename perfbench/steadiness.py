#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs `bash perfbench/run.sh` RUNS times per workload, each with another
seed, from the root of a checkout, and reports for every end-to-end metric
the median, the first and third quartiles (`statistics.quantiles(n=4)`) and
the quartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json. Writes the report as JSON.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --runs 5 --workloads sim-long --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    report = {"runs": args.runs, "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in workloads:
        samples = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            values = run_once(w, seed, bench["run_seconds"])
            for name, v in values.items():
                samples.setdefault(name, []).append(v)
            shown = " ".join(f"{k}={v:.4g}" for k, v in values.items())
            print(f"{w}: run {i + 1}/{args.runs} seed {seed}: {shown}", file=sys.stderr, flush=True)
        rows = {}
        for name, values in samples.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": values}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w:12} {name:12} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
