#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark (perfbench/bench/)
and the library sources it links (src/) are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run builds, later runs reuse the build. Store directories live under
one temporary root inside the build directory, removed when the run
ends however it ends. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result. A failed build or
a failed correctness check exits non-zero without a result.

--workload all runs every workload in turn with the same seed and
prints each one's metrics and operation counts; its result line joins
them as "<workload>.<metric>".

Extra flag for the oracle self-test (perfbench/selftest.py):
--tamper add|drop|pairings corrupts one checked alert outcome, and
--tamper reject treats the first upload ack as rejected.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
WORKLOADS = ("alert_scan", "durable_ingest", "contact_trace_mixed")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            # A half-configured tree would make every later run fail the
            # same way; start clean next time.
            if cmd[1] == "-S":
                shutil.rmtree(out_dir, ignore_errors=True)
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    binary = os.path.join(out_dir, "perfbench_service")
    if not os.path.exists(binary):
        sys.exit("perfbench: benchmark binary missing after build")
    return binary


def remove_stale_roots(stores):
    """Removes store roots left by runs whose process no longer exists."""
    if not os.path.isdir(stores):
        return
    for name in os.listdir(stores):
        pid = name[len("run-"):]
        if not name.startswith("run-") or not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(stores, name), ignore_errors=True)
        except PermissionError:
            pass


def main():
    # SIGTERM unwinds like Ctrl-C, so the child is stopped and the store
    # root removed on the way out.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", default="none",
                    choices=("none", "add", "drop", "pairings", "reject"))
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    remove_stale_roots(os.path.join(out_dir, "stores"))
    if args.workload != "all":
        code, result = run_binary(binary, out_dir, args, args.workload)
        print(json.dumps(result))
        return code
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print("== %s ==" % workload)
        code, result = run_binary(binary, out_dir, args, workload)
        joined["correct"] &= result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            joined["metrics"][workload + "." + name] = metric
    print(json.dumps(joined))
    return 0 if joined["correct"] else 1


def run_binary(binary, out_dir, args, workload):
    """Runs one workload; prints its report; returns (exit, result)."""
    tmp_root = os.path.join(out_dir, "stores", "run-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-root", tmp_root,
           "--out-dir", os.path.join(out_dir, "traces"),
           "--tamper", args.tamper]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    out = proc.stdout.decode("utf-8", "replace")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("perfbench: benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return (0 if result["correct"] else 1), result


if __name__ == "__main__":
    sys.exit(main())
