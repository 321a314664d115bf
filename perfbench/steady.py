"""Steadiness evidence: run the benchmark on several seeds and summarize.

    python3 perfbench/steady.py --runs 10 [--workloads logmat,mixed]
                                [--first-seed 1] [--out FILE]

Runs ``run.py --trace 0`` once per seed, one run at a time, and reports for
every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--out`` writes
the summary and every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.exit("run failed: %s seed %d\n%s" % (workload, seed, proc.stderr))
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "run_s": time.perf_counter() - start,
                         "attempted": doc["attempted"],
                         "failed": doc["failed"], "correct": doc["correct"],
                         "metrics": {k: v["value"] for k, v in doc["metrics"].items()}})
            print(workload, seed, "%.1f s" % runs[-1]["run_s"],
                  json.dumps(runs[-1]["metrics"]), flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else None}
            flag = ""
            if stats[name]["spread"] is not None and name != "setup_s" \
                    and stats[name]["spread"] > bounds[name] / 3:
                flag = "  > bound/3"
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (name, med, q1, q3, stats[name]["spread"] or 0, flag))
        summary[workload] = {"stats": stats, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "workloads": summary}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
