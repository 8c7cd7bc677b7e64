#!/usr/bin/env python3
"""Model-checker throughput regression gate (`make bench-check`).

Re-runs the gate explorations and compares states/sec against the
records in BENCH_check.json. A run more than BUDGET below its recorded
rate fails the gate; counters (states/transitions/terminals/depth) must
match exactly — they are machine-independent, so any drift is a
correctness bug, not noise.

The budget mirrors the dispatch gate's reasoning (scripts/
dirbench_gate.py): shared-runner wall times jitter ~±20% run to run
even taking the best of three, so the gate triggers at a 35% deficit —
wide enough to ride out scheduler noise, tight enough to catch a real
regression (the reductions this gate protects bought 10× and a
collapse back would read as ~90% deficit).

Usage: python3 scripts/checkbench_gate.py [--runs N]
"""

import argparse
import json
import subprocess
import sys

CHECKFILE = "BENCH_check.json"
BUDGET = 0.35  # fail when states/sec drops more than this below the record

# Gate configs: the headline deep exploration in raw and
# symmetry-reduced form. Keys must exist in BENCH_check.json explorations.
GATES = {
    "2c_2l_deep": ["-cores", "2", "-banks", "1", "-lines", "2", "-ops", "2"],
    "2c_2l_deep_sym": ["-cores", "2", "-banks", "1", "-lines", "2",
                       "-ops", "2", "-reduce", "sym"],
}
COUNTERS = ("States", "Transitions", "Terminals", "MaxDepth")


def best_of(binary, args, runs):
    best = None
    for _ in range(runs):
        p = subprocess.run([binary] + args + ["-json"],
                           capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit("bench-check: wbsimcheck %s failed (rc=%d):\n%s"
                     % (" ".join(args), p.returncode, p.stderr))
        rep = json.loads(p.stdout)
        if best is None or rep["wall_ms"] < best["wall_ms"]:
            best = rep
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=3,
                    help="runs per config; fastest wall is compared")
    args = ap.parse_args()

    with open(CHECKFILE) as f:
        doc = json.load(f)

    subprocess.run(["go", "build", "-o", "/tmp/wbsimcheck-gate",
                    "./cmd/wbsimcheck"], check=True)

    failed = False
    for key, flags in GATES.items():
        rec = doc["explorations"].get(key)
        if rec is None:
            sys.exit("bench-check: no %r record in %s — run "
                     "scripts/refresh_baseline.py --check first" % (key, CHECKFILE))
        rep = best_of("/tmp/wbsimcheck-gate", flags, args.runs)
        res = rep["result"]

        got = {"States": res["States"], "Transitions": res["Transitions"],
               "Terminals": res["Terminals"], "MaxDepth": res["MaxDepth"]}
        want = {"States": rec["states"], "Transitions": rec["transitions"],
                "Terminals": rec["terminals"], "MaxDepth": rec["max_depth"]}
        if got != want:
            print("FAIL %s: exploration counters drifted (determinism bug, "
                  "not a perf issue): got %s want %s" % (key, got, want))
            failed = True
            continue

        rate, ref = rep["states_per_sec"], rec["states_per_sec"]
        deficit = 1.0 - rate / ref
        verdict = "ok"
        if deficit > BUDGET:
            verdict = "FAIL"
            failed = True
        print("%s %s: %d states/sec vs %d recorded (%+.0f%%, budget -%d%%)"
              % (verdict, key, rate, ref, -deficit * 100, BUDGET * 100))

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
