#!/usr/bin/env python3
"""Steadiness check: runs the benchmark as two sets of runs and compares.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]
                                [--first-seed 1] [--log FILE]

Run from the root of a source tree. Reads the command, workloads, run
length and bounds from BENCHMARK.json. Each of two sets runs every
workload --runs times, each with its own seed (set 1 uses seeds
first-seed .., set 2 the next --runs seeds). For every workload and
end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the
median, and whether

  * the spread of each set stays within the metric's bound,
  * the second set's median is not worse than the first set's by more
    than the bound,
  * the share of failed operations is exactly the same in both sets.

Each run's result line is appended to --log (JSON lines) when given.
Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode("utf-8", "replace").strip().split("\n")
    if proc.returncode != 0:
        raise SystemExit("run failed (%s seed %d, exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for w in names:
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                r = run_once(spec, w, seed, seconds)
                results[w][s].append(r)
                if args.log:
                    with open(args.log, "a") as f:
                        f.write(json.dumps({"workload": w, "set": s + 1,
                                            "seed": seed, "result": r})
                                + "\n")
                print("set %d %-20s seed %-4d %s" % (
                    s + 1, w, seed, " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in r["metrics"].items())), flush=True)

    ok = True
    for w in names:
        print("\n== %s ==" % w)
        shares = []
        for s in range(SETS):
            att = sum(r["attempted"] for r in results[w][s])
            fail = sum(r["failed"] for r in results[w][s])
            bad = [r for r in results[w][s] if not r["correct"]]
            shares.append((fail, att))
            if bad:
                ok = False
                print("set %d: %d runs not correct" % (s + 1, len(bad)))
        share_ok = len({f * 1.0 / a for f, a in shares}) == 1
        ok &= share_ok
        print("failed share per set: %s %s" % (
            ", ".join("%d/%d" % fa for fa in shares),
            "same" if share_ok else "DIFFERENT"))
        print("%-16s %-4s %12s %12s %12s %8s %6s %8s %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "drift", "verdict"))
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            first_median = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"]
                          for r in results[w][s]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                if first_median is None:
                    first_median = med
                drift = (med - first_median) / first_median
                worse = drift if better == "lower" else -drift
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD>BOUND")
                if s > 0 and worse > bound:
                    verdict.append("DRIFT>BOUND")
                if verdict:
                    ok = False
                print("%-16s %-4d %12.5g %12.5g %12.5g %8.4f %6.3f %+8.4f %s"
                      % (name, s + 1, q1, med, q3, spread, bound, drift,
                         " ".join(verdict) or "ok"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
