#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--out FILE] [--against EARLIER_FILE]

Runs the end-to-end pass once per seed (first-seed .. first-seed+runs-1)
on each workload, then prints, per metric, the median and the spread: the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  Spreads should stay below a third of their bound.
--against also prints how far each median moved from an earlier --out
report, which must stay within the bound.  --out writes every run's
result line, host line and session summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %s (exit %d)" % (workload, seed, proc.returncode))
    record = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("host: "):
            record["host"] = line[len("host: "):]
        elif line.startswith("summary: "):
            record["sessions"] = json.loads(line[len("summary: "):])
    return record


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(bench, name, seed))
            r = runs[-1]
            print("%s seed %d: %s" % (name, seed, json.dumps(r["result"]["metrics"])),
                  flush=True)
        spreads = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            spreads[m["name"]] = {"median": med, "spread": spread, "bound": m["bound"]}
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            line = ("  %-22s median %-14.6g spread %6.2f%%  bound %4.0f%%  %s"
                    % (m["name"], med, 100 * spread, 100 * m["bound"], flag))
            if name in earlier:
                before = earlier[name]["spreads"][m["name"]]["median"]
                shift = (med - before) / before
                line += "  median moved %+.2f%% %s" % (
                    100 * shift, "ok" if shift <= m["bound"] else "WORSE")
            print(line, flush=True)
        report["workloads"][name] = {"runs": runs, "spreads": spreads}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
