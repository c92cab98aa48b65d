#!/usr/bin/env python3
"""Perf-regression gate for the pairing-engine bench.

Compares a fresh BENCH_pairing_engine.json against the checked-in
bench/baseline.json and fails (exit 1) when any tracked metric regressed
by more than the allowed fraction (default 25%).

Tracked metrics are *within-run speedup ratios*, so the gate is
independent of the absolute speed of the CI runner: a slow machine slows
both sides of a ratio equally. speedup_batched_vs_reference is the
batched engine's evals/sec over the same run's reference engine (losing
the precompiled tables or the CIOS kernels collapses it);
speedup_batch_final_exp is per-entry FinalExponentiation time over one
BatchFinalExponentiation on the same Miller ratios (losing the shared
inversion collapses it); encrypt_speedup guards the fixed-base combs.
The baseline additionally pins the field kernel the bench parameters
are expected to engage.

Usage:
  check_regression.py CURRENT.json [BASELINE.json] [--tolerance=0.25]

Refreshing the baseline after an intentional perf change:
  ./build/bench/bench_pairing_engine --users=16 --width=16 --tokens=3 \
      --pbits=120 --json=current.json
  python3 bench/check_regression.py current.json --update
"""

import json
import sys

TRACKED = [
    "speedup_batched_vs_reference",
    "speedup_batch_final_exp",
]


def ratios(bench):
    out = {key: float(bench[key]) for key in TRACKED}
    out["encrypt_speedup"] = float(bench["encrypt"]["speedup"])
    return out


def main(argv):
    tolerance = 0.25
    tolerance_from_cli = False
    update = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
            tolerance_from_cli = True
        elif arg == "--update":
            update = True
        else:
            paths.append(arg)
    if not paths:
        print(__doc__)
        return 2
    current_path = paths[0]
    baseline_path = paths[1] if len(paths) > 1 else "bench/baseline.json"

    with open(current_path) as f:
        current = json.load(f)
    current_ratios = ratios(current)

    if update:
        baseline = {
            "params": current["params"],
            "tolerance": tolerance,
            "ratios": current_ratios,
        }
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline written to {baseline_path}: {current_ratios}")
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)
    # An explicit CLI tolerance overrides the one stored in the baseline.
    if not tolerance_from_cli:
        tolerance = float(baseline.get("tolerance", tolerance))

    failures = []
    # Ratios are only comparable on the same workload shape: pin every
    # baseline parameter, not just the kernel.
    for key, expected in baseline["params"].items():
        actual = current["params"].get(key)
        if actual != expected:
            failures.append(
                f"bench parameter {key} changed: baseline {expected!r}, "
                f"current {actual!r} — refresh bench/baseline.json with "
                f"--update if intentional")

    for key, base_value in baseline["ratios"].items():
        cur_value = current_ratios.get(key)
        if cur_value is None:
            failures.append(f"metric {key} missing from current run")
            continue
        floor = base_value * (1.0 - tolerance)
        status = "OK " if cur_value >= floor else "REG"
        print(f"{status} {key}: current {cur_value:.3f} vs baseline "
              f"{base_value:.3f} (floor {floor:.3f})")
        if cur_value < floor:
            failures.append(
                f"{key} regressed >{tolerance:.0%}: {cur_value:.3f} < "
                f"{floor:.3f} (baseline {base_value:.3f})")

    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
