#!/usr/bin/env python3
"""End-to-end benchmark of sca-sim: one command per workload and seed.

    python3 perfbench/run.py --workload fig1_adsl --seed 7 --seconds 10 --trace 0

Run from the repository root.  It builds the simulator library from src/
plus the driver in perfbench/driver/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the named
workload, checks its outputs, and prints every metric with its unit; the
last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing off);
--trace 1 is a separate traced run that reports the per-layer metrics,
folding the Chrome trace the driver writes (fold_trace.py) into a self-time
table per layer with its unattributed share and the tracing overhead.

Every run also appends its full record (host fingerprint, every metric,
the exact counters) to <build>/results/runs.jsonl, which compare.py reads,
and checks the exact counters against the first run of the same workload,
seed and source tree: a mismatch is a benchmark error (correct: false).
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fold_trace  # noqa: E402  (sibling module)

WORKLOADS = ("fig1_adsl", "sweep_mp", "stream_server")

# Each end-to-end metric of BENCHMARK.json, and which driver metric gives it
# on each workload.  The driver reports each workload's own names; the
# benchmark's metrics are shared by all workloads, so each is the workload's
# instance of one user-visible quantity.
#   setup_s          s     set-up before the measured phase (README.md says how)
#   peak_rss_mb      MiB   peak resident memory (sweep_mp: parent + largest worker)
#   latency_ms_p50   ms    median latency of one unit of work
# Throughputs (sim_speed, runs_per_s, capacity_sessions_per_s) and tail
# latencies are printed and recorded but not gated: their spread over seeds
# on the 4-core VM came closer to the largest bound a metric may have
# (README.md gives the figures).
E2E = {
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
    # fig1: host ms per 1 ms slice; sweep: per-run turnaround; stream:
    # loaded-phase session latency from due time to the close frame.  Each is
    # the median over positions (slices, run indices, sessions of the
    # pattern) of the best of that position's repetitions (best_of in
    # driver/bench.hpp says why).
    "latency_ms_p50": {"fig1_adsl": "slice_ms_p50", "sweep_mp": "run_ms_p50",
                       "stream_server": "session_ms_p50"},
}

# Per-layer metrics of BENCHMARK.json (reported by --trace 1), with units.
# A layer a workload does not exercise reports 0 there (README.md says which
# end-to-end metric each one should move).
FOLD_LAYERS = ("kernel", "tdf", "solver", "core.scenario", "core.snapshot", "core.run_set",
               "core.run_protocol", "server", "client", "idle", "util", "bench.check")
FOLD_NAMES = {"kernel.run.self_s": "kernel.run", "tdf.cluster.self_s": "tdf.cluster.cycles",
              "dae.step.self_s": "dae.step"}
PER_LAYER = (
    [("kernel.delta_cycles", "count"), ("kernel.timed_notifications", "count"),
     ("kernel.run.self_s", "s"),
     ("tdf.module.activations", "count"), ("tdf.cluster.cycles", "count"),
     ("tdf.cluster.fused_cycles", "count"), ("tdf.module.block_firings", "count"),
     ("tdf.block_share", "ratio"), ("tdf.cluster.self_s", "s"),
     ("solver.numeric_factorizations", "count"), ("solver.symbolic_factorizations", "count"),
     ("solver.symbolic_reuse", "ratio"), ("dae.step.self_s", "s"),
     ("scenario.build_ms", "ms"), ("scenario.elaborate_ms", "ms"), ("elaborate.self_s", "s"),
     ("snapshot.save_ms", "ms"), ("snapshot.restore_ms", "ms"), ("snapshot.bytes", "B"),
     ("run_set.run_all_s", "s"), ("run_backend.overhead_frac", "ratio"),
     ("run_backend.worker_spread", "ratio"),
     ("wire.result_bytes", "B"), ("wire.encode_us", "us"), ("wire.decode_us", "us"),
     ("wire.sample_frames", "count"), ("wire.sample_bytes", "B")]
    + [("server.%s_%s" % (m, q), "ms")
       for m in ("connect_ms", "open_ms", "first_frame_ms", "drain_ms") for q in ("p50", "p99")]
    + [("server.slices", "count"), ("server.max_queue_depth", "count"),
       ("server.delivered_share", "ratio"), ("client.gen_lag_ms_max", "ms"),
       ("trace.overhead_frac", "ratio"), ("trace.unattributed_frac", "ratio"),
       ("trace.dropped", "count")]
    + [("layer.%s.self_s" % layer, "s") for layer in FOLD_LAYERS + ("unattributed",)]
)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "scenario.hpp")):
        fail("simulator sources (src/) not found next to perfbench/; run from a checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                               + gen, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail("cmake configure failed; see " + log_path)
        r = subprocess.run(["cmake", "--build", out, "-j", "4"], stdout=log,
                           stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench_driver")


def source_sha():
    """Content hash of the simulator sources and the benchmark itself (the
    checkout the benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def check_exact(rec, fingerprint):
    """Exact counters must repeat bit-for-bit for a fixed workload, seed and
    source tree.  The first run stores them; every later run compares."""
    key = "%s-s%d-%s" % (rec["info"]["workload"], int(rec["info"]["seed"]),
                         fingerprint["source_sha"])
    path = os.path.join(build_dir(), "exact", key + ".json")
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(rec["exact"], f, sort_keys=True)
        return []
    with open(path) as f:
        first = json.load(f)
    return ["exact counter %s: %s, first run of this seed had %s" % (k, rec["exact"].get(k), v)
            for k, v in sorted(first.items()) if rec["exact"].get(k) != v]


def fold_metrics(trace_path):
    result = fold_trace.fold_file(trace_path)
    out = {}
    for layer in FOLD_LAYERS + ("unattributed",):
        out["layer.%s.self_s" % layer] = (result["layers"].get(layer, 0.0) / 1e6, "s")
    for metric, name in FOLD_NAMES.items():
        out[metric] = (result["names"].get(name, 0.0) / 1e6, "s")
    elab = sum(us for name, us in result["names"].items() if name.startswith("elaborate"))
    out["elaborate.self_s"] = (elab / 1e6, "s")
    out["trace.unattributed_frac"] = (result["unattributed_frac"], "ratio")
    return out, fold_trace.format_table(result)


def main():
    ap = argparse.ArgumentParser(description="sca-sim end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    out_dir = os.path.join(build_dir(), "runs", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [driver, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        r = subprocess.run(cmd, timeout=max(60.0, 3 * args.seconds + 60.0))
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if r.returncode != 0:
        fail("driver exited with %d" % r.returncode)
    with open(os.path.join(out_dir, "record.json")) as f:
        rec = json.load(f)

    fingerprint = dict(rec["info"])
    fingerprint["source_sha"] = source_sha()
    fingerprint["git_sha"] = git_sha()
    fingerprint["python"] = sys.version.split()[0]

    errors = list(rec.get("failures", []))
    exact_errors = check_exact(rec, fingerprint)
    errors += exact_errors

    table = None
    if args.trace:
        trace_path = rec["info"].get("trace_file")
        if not trace_path or not os.path.isfile(trace_path):
            fail("traced run wrote no trace file")
        folded, table = fold_metrics(trace_path)
        for name, (value, unit) in folded.items():
            rec["layer"][name] = {"value": value, "unit": unit, "samples": 1}
        # Keep the latest trace per workload for inspection, not one per run.
        keep = os.path.join(build_dir(), "traces", args.workload + ".json")
        os.makedirs(os.path.dirname(keep), exist_ok=True)
        os.replace(trace_path, keep)
        rec["info"]["trace_file"] = keep

    # Human-readable report: every metric by name, with unit and sample count.
    print("workload %s  seed %d  trace %d  (%s, nproc %s, %s, %s, telemetry %s, src %s)" % (
        args.workload, args.seed, args.trace, fingerprint.get("cpu_model"),
        fingerprint.get("nproc"), fingerprint.get("compiler"), fingerprint.get("build_type"),
        fingerprint.get("telemetry"), fingerprint["source_sha"]))
    attempted, failed = int(rec["attempted"]), int(rec["failed"]) + len(exact_errors)
    print("  %-28s %14.6g %-8s n=%d" % ("error_rate", failed / max(1, attempted),
                                       "ratio", attempted))
    for name, m in sorted(rec["e2e"].items()):
        print("  %-28s %14.6g %-8s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    if args.trace:
        for name, m in sorted(rec["layer"].items()):
            print("  %-28s %14.6g %-8s n=%d" % (name, m["value"], m["unit"], m["samples"]))
        print(table)
    for e in errors[:10]:
        print("  ERROR " + e)
    known_attempted, known_failed = int(rec["known_attempted"]), int(rec["known_failed"])
    if known_attempted:
        print("  %-28s %14.6g %-8s n=%d   (checks of known program defects, apart from"
              " error_rate; see perfbench/README.md)" % (
                  "known_defect_rate", known_failed / known_attempted, "ratio", known_attempted))
        for e in rec["known_failures"][:3]:
            print("  KNOWN DEFECT " + e)
        if not known_failed:
            print("  every known-defect check passed: the defect looks fixed, so the check can"
                  " become an ordinary one")

    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER:
            metrics[name] = {"value": rec["layer"].get(name, {"value": 0.0})["value"],
                             "unit": unit}
    else:
        for name, per_workload in E2E.items():
            m = rec["e2e"].get(per_workload[args.workload])
            if m is None:
                fail("driver did not report %s" % per_workload[args.workload])
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    values_ok = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in metrics.values())
    correct = failed == 0 and values_ok

    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
    with open(os.path.join(build_dir(), "results", "runs.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                            "correct": correct, "fingerprint": fingerprint,
                            "attempted": attempted, "failed": failed, "metrics": metrics,
                            "known_attempted": known_attempted, "known_failed": known_failed,
                            "e2e": rec["e2e"], "layer": rec["layer"],
                            "exact": rec["exact"]}, sort_keys=True) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
