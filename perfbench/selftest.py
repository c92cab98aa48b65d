#!/usr/bin/env python3
"""Self-test of the benchmark's correctness oracle.

    python3 perfbench/selftest.py

Run from the root of a source tree. Runs one short contact_trace_mixed
run untouched, which must pass, and then three runs in which the benchmark
corrupts the first alert outcome it checks before handing it to the
oracle: one user added, one user dropped, and pairings off by one. Each
tampered run must exit non-zero with a failed check and print no
result line. A last run treats the first upload ack as rejected: the
upload may or may not have been applied, so the run must still pass its
checks and report exactly one failed operation. Exits 1 if any
expectation does not hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(tamper):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "contact_trace_mixed", "--seed", "7",
           "--seconds", "1", "--trace", "0", "--tamper", tamper]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)


def result(stdout):
    last = stdout.decode("utf-8", "replace").strip().split("\n")[-1]
    try:
        r = json.loads(last)
    except ValueError:
        return None
    return r if isinstance(r, dict) and "metrics" in r else None


def main():
    ok = True
    clean = run("none")
    if clean.returncode != 0 or result(clean.stdout) is None:
        print("FAIL untampered run: exit %d" % clean.returncode)
        ok = False
    else:
        print("ok   untampered run passes")
    for tamper in ("add", "drop", "pairings"):
        proc = run(tamper)
        err = proc.stderr.decode("utf-8", "replace")
        caught = (proc.returncode != 0 and "CHECK FAILED" in err
                  and result(proc.stdout) is None)
        line = [l for l in err.splitlines() if "CHECK FAILED" in l]
        print("%s tamper=%-8s exit %d: %s" % (
            "ok  " if caught else "FAIL", tamper, proc.returncode,
            line[0] if line else "no failed check reported"))
        ok &= caught
    proc = run("reject")
    r = result(proc.stdout)
    passed = (proc.returncode == 0 and r is not None and r["correct"]
              and r["failed"] == 1)
    print("%s tamper=reject   exit %d: %s" % (
        "ok  " if passed else "FAIL", proc.returncode,
        "failed %d of %d" % (r["failed"], r["attempted"]) if r
        else "no result line"))
    ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
