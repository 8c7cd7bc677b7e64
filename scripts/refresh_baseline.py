#!/usr/bin/env python3
"""Re-record the refreshable sections of BENCH_baseline.json and
BENCH_check.json.

Runs the end-to-end throughput benchmark and the experiments-all
wall-clock run on the current tree,
then rewrites the corresponding entries of BENCH_baseline.json in
place:

  benchmarks.BenchmarkSimulatorThroughput   ns/op, B/op, allocs/op,
                                            sim-cycles/op and the
                                            sim_cycles_per_sec headline
  benchmarks.BenchmarkDirDispatchProtocols  per-protocol dispatch rows —
                                            one per coherence-registry
                                            entry (base, base-ns, wb,
                                            wb-ns, tardis, ...); a newly
                                            registered protocol gains a
                                            row on the next refresh with
                                            no script edits
  wall_clock.experiments_all_c4s1           real/user seconds

With --check, re-records BENCH_check.json instead: every model-checker
exploration config (states, wall, states/sec, peak RSS, reduction
factors), taking the best wall time of --check-runs runs (the 1-vCPU CI
host jitters ~±20%). The PR-7 pre-reduction baseline block inside
BENCH_check.json is never touched — it is the reference the bench-check
gate (scripts/checkbench_gate.py) measures speedups against.

The DirDispatch record is deliberately NOT touched: it is the
pre-refactor reference the dispatch regression gate
(scripts/dirbench_gate.py) compares against, and refreshing it would
erase the gate's meaning. The per-protocol DirDispatchProtocols rows
are the refreshable complement: the same ping-pong workload run under
every protocol in the coherence registry, recorded additively so the
longitudinal record tracks each protocol's dispatch cost without
disturbing the frozen gate reference.

Usage:
  python3 scripts/refresh_baseline.py              # benchmarks only
  python3 scripts/refresh_baseline.py --wall-clock # + experiments all (minutes)
  python3 scripts/refresh_baseline.py --check      # BENCH_check.json instead
"""

import argparse
import datetime
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time

BASELINE = "BENCH_baseline.json"
CHECKFILE = "BENCH_check.json"
BENCH_RE = re.compile(
    r"^BenchmarkSimulatorThroughput\S*\s+\d+\s+(\d+) ns/op"
    r"\s+(\d+) sim-cycles/op\s+(\d+) sim-cycles/sec\s+(\d+) B/op\s+(\d+) allocs/op",
    re.M,
)
PROTO_BENCH_RE = re.compile(
    r"^BenchmarkDirDispatchProtocols/(\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op"
    r"\s+(\d+) B/op\s+(\d+) allocs/op",
    re.M,
)


def run(cmd):
    print("+ " + " ".join(cmd), file=sys.stderr)
    return subprocess.run(cmd, check=True, capture_output=True, text=True)


def bench_throughput():
    out = run([
        "go", "test", "-count=1", "-run", "^$",
        "-bench", "SimulatorThroughput", "-benchtime", "3x", "-benchmem", ".",
    ]).stdout
    m = BENCH_RE.search(out)
    if m is None:
        sys.exit("refresh_baseline: no SimulatorThroughput result in benchmark output:\n" + out)
    return {
        "ns_per_op": int(m.group(1)),
        "sim_cycles_per_op": int(m.group(2)),
        "sim_cycles_per_sec": int(m.group(3)),
        "bytes_per_op": int(m.group(4)),
        "allocs_per_op": int(m.group(5)),
    }


def bench_dispatch_protocols(runs=3):
    """Per-protocol dispatch rows: the registry-driven benchmark emits one
    sub-benchmark per registered coherence protocol; medians over `runs`
    repetitions. Additive — the frozen BenchmarkDirDispatch gate record
    is never touched."""
    rows = {}
    for _ in range(runs):
        out = run([
            "go", "test", "-count=1", "-run", "^$",
            "-bench", "DirDispatchProtocols", "-benchtime", "200x",
            "-benchmem", "./internal/coherence",
        ]).stdout
        for m in PROTO_BENCH_RE.finditer(out):
            rows.setdefault(m.group(1), []).append(
                (float(m.group(2)), int(m.group(3)), int(m.group(4))))
    if not rows:
        sys.exit("refresh_baseline: no DirDispatchProtocols results")

    def median(vals):
        vals = sorted(vals)
        return vals[len(vals) // 2]

    return {
        name: {
            "ns_per_op": int(median([s[0] for s in samples])),
            "bytes_per_op": median([s[1] for s in samples]),
            "allocs_per_op": median([s[2] for s in samples]),
        }
        for name, samples in rows.items()
    }


# ---------------------------------------------------------------------
# BENCH_check.json: the model-checker exploration record
# ---------------------------------------------------------------------

# Every recorded exploration. Key -> wbsimcheck arguments. The heavy
# exhaustive 3c/2b/2l closures only run with --deep (minutes each).
CHECK_CONFIGS = {
    "1c_2l_2ops": ["-cores", "1", "-banks", "1", "-lines", "2", "-ops", "2"],
    "1c_2l_3ops": ["-cores", "1", "-banks", "1", "-lines", "2", "-ops", "3"],
    "2c_1l_squash_gate": ["-cores", "2", "-banks", "1", "-lines", "1", "-ops", "2"],
    "2c_1l_lockdown_gate": ["-cores", "2", "-banks", "1", "-lines", "1", "-ops", "2",
                            "-mode", "lockdown", "-lockdowns", "1"],
    "2c_2l_deep": ["-cores", "2", "-banks", "1", "-lines", "2", "-ops", "2"],
    "2c_2l_deep_sym": ["-cores", "2", "-banks", "1", "-lines", "2", "-ops", "2",
                       "-reduce", "sym"],
    "3c_2b_2l_capped_gate": ["-cores", "3", "-banks", "2", "-lines", "2", "-ops", "2",
                             "-max-states", "50000"],
    "1c_2l_prefix_deadlock": ["-cores", "1", "-banks", "1", "-lines", "2", "-ops", "2",
                              "-prefix"],
}
DEEP_CHECK_CONFIGS = {
    "3c_2b_2l_deep_sym": ["-cores", "3", "-banks", "2", "-lines", "2", "-ops", "2",
                          "-reduce", "sym"],
}


def run_check(binary, args, runs):
    """Run one wbsimcheck config `runs` times; keep the fastest wall."""
    best = None
    for _ in range(runs):
        p = subprocess.run([binary] + args + ["-json"],
                           capture_output=True, text=True)
        if p.returncode not in (0, 1):  # 1 = violation/trap found (expected for -prefix)
            sys.exit("refresh_baseline: wbsimcheck %s failed:\n%s"
                     % (" ".join(args), p.stderr))
        rep = json.loads(p.stdout)
        if best is None or rep["wall_ms"] < best["wall_ms"]:
            best = rep
    return best


def check_entry(key, args, rep):
    res = rep["result"]
    entry = {
        "cmd": "wbsimcheck " + " ".join(args),
        "states": res["States"],
        "transitions": res["Transitions"],
        "terminals": res["Terminals"],
        "max_depth": res["MaxDepth"],
        "exhaustive": res["Exhaustive"],
        "passed": rep["passed"],
        "wall_ms": round(rep["wall_ms"], 1),
        "states_per_sec": int(rep["states_per_sec"]),
        "workers": rep["workers"],
        "reduce": rep["reduce"],
    }
    if rep.get("peak_rss_kb"):
        entry["peak_rss_kb"] = rep["peak_rss_kb"]
    if res.get("SymmetryGroup", 1) > 1:
        entry["symmetry_group"] = res["SymmetryGroup"]
    if res.get("Trap"):
        entry["trap"] = "%s at depth %d" % (res["Trap"]["Kind"], res["MaxDepth"])
    return entry


def refresh_check(deep, runs):
    with open(CHECKFILE) as f:
        doc = json.load(f)

    subprocess.run(["go", "build", "-o", "/tmp/wbsimcheck-refresh",
                    "./cmd/wbsimcheck"], check=True)
    binary = "/tmp/wbsimcheck-refresh"

    configs = dict(CHECK_CONFIGS)
    if deep:
        configs.update(DEEP_CHECK_CONFIGS)
    explorations = doc.setdefault("explorations", {})
    reports = {}
    for key, args in configs.items():
        rep = run_check(binary, args, 1 if "3c" in key or deep else runs)
        reports[key] = rep
        explorations[key] = check_entry(key, args, rep)
        print("  %s: %d states in %.0fms (%d states/sec)"
              % (key, rep["result"]["States"], rep["wall_ms"],
                 rep["states_per_sec"]), file=sys.stderr)

    # Reduction summary on the 2c/2l deep config: the symmetry factor
    # and the effective speedup vs the frozen PR-7 baseline (effective
    # rate = full-space states the run stands for, per second).
    base = doc.get("baseline_pr7", {}).get("2c_2l_deep")
    full = reports.get("2c_2l_deep")
    sym = reports.get("2c_2l_deep_sym")
    if base and full and sym:
        full_states = full["result"]["States"]
        eff_sym = full_states / (sym["wall_ms"] / 1000.0)
        doc["reductions_2c_2l"] = {
            "full_states": full_states,
            "canonical_states": sym["result"]["States"],
            "symmetry_factor": round(full_states / sym["result"]["States"], 2),
            "raw_states_per_sec_full": int(full["states_per_sec"]),
            "effective_states_per_sec_sym": int(eff_sym),
            "speedup_vs_pr7_full": round(
                full["states_per_sec"] / base["states_per_sec"], 1),
            "speedup_vs_pr7_effective": round(
                eff_sym / base["states_per_sec"], 1),
            "note": "effective rate = full-space states the reduced run "
                    "stands for / wall; speedups measured against the "
                    "frozen PR-7 single-worker no-reduction baseline; "
                    "the effective speedup is the symmetry-reduced run",
        }

    doc["recorded"] = datetime.date.today().isoformat()
    doc["machine"]["go"] = run(["go", "env", "GOVERSION"]).stdout.strip()
    doc["machine"]["cpus"] = os.cpu_count()
    with open(CHECKFILE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("updated %s" % CHECKFILE, file=sys.stderr)


def wall_clock_experiments():
    before = time.monotonic()
    run(["go", "run", "./cmd/experiments", "all", "-cores", "4", "-scale", "1"])
    real = time.monotonic() - before
    user = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    return round(real, 1), round(user, 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--wall-clock", action="store_true",
                    help="also re-record the experiments-all wall clock (minutes)")
    ap.add_argument("--check", action="store_true",
                    help="re-record BENCH_check.json (model checker) instead")
    ap.add_argument("--deep", action="store_true",
                    help="with --check: include the exhaustive 3c/2b/2l closure (minutes)")
    ap.add_argument("--check-runs", type=int, default=3,
                    help="with --check: runs per config; fastest wall is recorded")
    args = ap.parse_args()

    if args.check:
        refresh_check(args.deep, args.check_runs)
        return

    with open(BASELINE) as f:
        doc = json.load(f)

    today = datetime.date.today().isoformat()
    gover = run(["go", "env", "GOVERSION"]).stdout.strip()
    head = bench_throughput()
    # Per-protocol dispatch rows, keyed by registry name. Recorded next
    # to — never instead of — the frozen BenchmarkDirDispatch reference
    # that scripts/dirbench_gate.py measures regressions against.
    doc["benchmarks"]["BenchmarkDirDispatchProtocols"] = {
        "cmd": "go test -count=1 -run '^$' -bench DirDispatchProtocols "
               "-benchtime 200x -benchmem ./internal/coherence (median of 3)",
        "recorded": today,
        "note": "one row per coherence-registry protocol; the same "
                "ping-pong workload as the frozen DirDispatch gate record. "
                "tardis ns/op includes the cycles writes spend waiting out "
                "read leases — protocol cost, not harness overhead.",
        "rows": bench_dispatch_protocols(),
    }
    doc["benchmarks"]["BenchmarkSimulatorThroughput"] = {
        "cmd": "go test -count=1 -run '^$' -bench SimulatorThroughput -benchmem -benchtime=3x .",
        "recorded": today,
        "ns_per_op": head["ns_per_op"],
        "sim_cycles_per_op": head["sim_cycles_per_op"],
        "sim_cycles_per_sec": head["sim_cycles_per_sec"],
        "bytes_per_op": head["bytes_per_op"],
        "allocs_per_op": head["allocs_per_op"],
    }

    if args.wall_clock:
        real, user = wall_clock_experiments()
        wc = doc["wall_clock"]["experiments_all_c4s1"]
        wc["real_s"], wc["user_s"] = real, user
        wc["recorded"] = today

    doc["machine"]["go"] = gover
    doc["machine"]["cpus"] = __import__("os").cpu_count()
    doc["machine"]["goarch"] = platform.machine().replace("x86_64", "amd64")

    with open(BASELINE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("updated %s (recorded %s)" % (BASELINE, today), file=sys.stderr)


if __name__ == "__main__":
    main()
