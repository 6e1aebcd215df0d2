#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--out FILE] [--compare FILE]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and
BENCHMARK.json's run_seconds, then prints for every end-to-end metric the
spread of its values, (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4), against the metric's bound. A spread
over the bound (setup_s excepted) fails; one over a third of it is flagged.
--out saves the raw values; --compare FILE also checks that each median is
not worse than FILE's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(metric, old, new):
    """Relative worsening of new against old (negative = better)."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    base = {}
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)["values"]

    values = {}
    ok = True
    for w in workloads:
        runs = []
        for s in seeds:
            r = run_once(w, s, spec["run_seconds"])
            if not r["correct"]:
                ok = False
                print("%s seed %d: correct=false (%d of %d failed)"
                      % (w, s, r["failed"], r["attempted"]))
            runs.append({k: v["value"] for k, v in r["metrics"].items()})
        values[w] = {m["name"]: [r[m["name"]] for r in runs]
                     for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            sp = spread(vals)
            med = statistics.median(vals)
            flag = "ok"
            if sp > m["bound"] and m["name"] != "setup_s":
                flag, ok = "FAIL", False
            elif sp > m["bound"] / 3:
                flag = "wide"
            line = "%-12s %-20s median %-14.6g spread %.4f bound %.2f %s" % (
                w, m["name"], med, sp, m["bound"], flag)
            if w in base:
                d = worse_by(m, statistics.median(base[w][m["name"]]), med)
                verdict = "ok" if d <= m["bound"] else "WORSE"
                ok = ok and verdict == "ok"
                line += "  vs base %+.4f %s" % (d, verdict)
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "run_seconds": spec["run_seconds"],
                       "values": values}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
