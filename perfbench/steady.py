#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload once per seed
and report, for every end-to-end metric, the median, the quartiles and
the spread (quartile distance over the median) against its bound.

    python3 perfbench/steady.py --runs 10 [--workload serve-hot] [--seed0 100]

Reads the workloads, metrics and bounds from BENCHMARK.json.  Prints one
row per metric and workload, then a JSON summary on the last line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("run failed (%s, seed %d):\n%s" % (workload, seed, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect run (%s, seed %d): %s" % (workload, seed, result))
    # One line per run: its gated figures, then the interquartile means
    # over the slices and the host counters it printed.
    notes = [l for l in lines
             if l.startswith("interquartile mean") or l.startswith("over the phase")]
    print("  %s seed %d: %s; %s" % (
        workload, seed,
        " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
        "; ".join(notes)), file=sys.stderr, flush=True)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    for w in names:
        runs = [run_once(spec, w, args.seed0 + i) for i in range(args.runs)]
        summary[w] = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread < m["bound"] else "OVER")
            print("%-10s %-16s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.3f  bound %.2f  %s"
                  % (w, m["name"], med, q1, q3, spread, m["bound"], flag), flush=True)
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "values": vals}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
