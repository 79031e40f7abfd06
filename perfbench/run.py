#!/usr/bin/env python3
"""LazyLog benchmark: builds the simulator benchmark binary and runs one workload.

    python3 perfbench/run.py --workload <st-append|m-tail-read|st-scan> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built from source into
.bench_build/perfbench (Release). One run is a fixed number of repetitions, each a
separate single-threaded simulator process; the count is sized so the run measures
for about --seconds on a 4-core machine.

--trace 0: repetition k simulates sub-seed seed*1000+k. Simulated metrics are the
median over repetitions, so they are an exact function of --seed. wall_s and
setup_s are the fastest repetition's: interference from other work on the host
only ever adds time, and the minimum of a fixed number of repetitions is far
steadier than their median. peak_rss_mb is the median. One extra repetition re-runs
sub-seed 0 and must reproduce its simulated metrics bit for bit; sub-seeds 0 and 1
must differ (the determinism witness).

--trace 1: pairs of an untraced and a traced repetition of the same sub-seed. The
traced one must reproduce the untraced simulated metrics exactly. Per-layer metrics
are the median over traced repetitions. The tracing overhead (fastest traced
minus fastest untraced wall_s) is printed.

Human-readable lines go first; the last line of stdout is the JSON result. The exit
code is 0 when a result is printed, whether or not its outputs were correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lazylog_bench")

# Wall seconds one untraced repetition takes (process included) on a 4-core x86 VM.
REP_SECONDS = {"st-append": 1.3, "m-tail-read": 0.4, "st-scan": 1.07}
MIN_REPS = 5
REP_TIMEOUT_S = 120

# (name, unit, section of the binary's JSON, aggregate over repetitions)
END_TO_END = [
    ("append_p50_us", "us", "sim", statistics.median),
    ("append_p99_us", "us", "sim", statistics.median),
    ("read_p50_us", "us", "sim", statistics.median),
    ("read_p99_us", "us", "sim", statistics.median),
    ("append_kops", "kop/s", "sim", statistics.median),
    ("read_krec_s", "krec/s", "sim", statistics.median),
    ("wall_s", "s", "wall", min),
    ("setup_s", "s", "wall", min),
    ("peak_rss_mb", "MB", "wall", statistics.median),
]

PER_LAYER_UNITS = {
    "sim.events_per_op": "events/op",
    "sim.wall_ns_per_event": "ns",
    "sim.queue_peak": "events",
    "sim.msgs_per_op": "msgs/op",
    "sim.wire_bytes_per_op": "B/op",
    "sim.disk_backlog_p99_us": "us",
    "sim.event_ns": "ns",
    "rpc.call_ns": "ns",
    "common.allocs_per_op": "allocs/op",
    "common.copied_bytes_per_op": "B/op",
    "common.codec_append_ns": "ns",
    "seq.stable_lag_p50_us": "us",
    "seq.stable_lag_p99_us": "us",
    "seq.avg_batch": "records",
    "seq.ring_p99": "entries",
    "seq.push_retries": "count",
    "seq.watermark_lag_max": "positions",
    "seq.overload_rejected_frac": "frac",
    "seq.checktail_p50_us": "us",
    "storage.slow_read_frac": "frac",
    "storage.backup_read_frac": "frac",
    "storage.multirange_per_read": "rpcs/read",
    "storage.clipped_frac": "frac",
    "storage.windows_parked_frac": "frac",
    "storage.noops": "count",
    "storage.log_append_ns": "ns",
    "index.lag_p99": "positions",
    "index.delta_pulls_per_op": "pulls/op",
    "index.merged_per_op": "entries/op",
    "lazylog.tail_cache_hit_frac": "frac",
    "lazylog.readahead_hit_frac": "frac",
    "lazylog.backup_routed_frac": "frac",
    "lazylog.coalesce_ratio": "subs/rpc",
    "lazylog.clipped_resend_frac": "frac",
    "lazylog.append_call_ns": "ns",
    "lazylog.read_call_ns": "ns",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    """Configures and builds the binary (both quick when up to date); output to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "lazylog_bench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_rep(workload, seed, traced):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode, proc.stderr.strip()))
    rep = json.loads(lines[-1])
    rep["summary"] = lines[0]
    return rep


def check_rep(rep, problems):
    if rep["failures"]:
        problems.append("%s seed %d: %d output-check failures, first: %s" % (
            rep["workload"], rep["seed"], rep["failures"], "; ".join(rep["first_failures"])))


def measure(workload, seed, seconds):
    """Untraced repetitions plus the determinism witness."""
    reps_n = max(MIN_REPS, int(round(seconds / REP_SECONDS[workload])) - 1)
    problems = []
    reps = [run_rep(workload, seed * 1000 + k, False) for k in range(reps_n)]
    witness = run_rep(workload, seed * 1000, False)
    for rep in reps + [witness]:
        check_rep(rep, problems)
    same_seed = witness["sim"] == reps[0]["sim"]
    other_seed = reps[1]["sim"] != reps[0]["sim"]
    if not same_seed:
        problems.append("determinism: sub-seed %d gave different simulated metrics twice" % (seed * 1000))
    if not other_seed:
        problems.append("determinism: sub-seeds %d and %d gave identical simulated metrics" % (
            seed * 1000, seed * 1000 + 1))

    # The witness repeats sub-seed 0, so it joins only the wall-clock pool.
    pools = {"sim": reps, "wall": reps + [witness]}
    metrics = {}
    for name, unit, kind, aggregate in END_TO_END:
        metrics[name] = {"value": aggregate([r[kind][name] for r in pools[kind]]), "unit": unit}

    sims = [r["sim"] for r in reps]
    attempted = int(sum(s["attempted"] for s in sims))
    failed = int(sum(s["failed"] for s in sims))
    log("workload %s seed %d: %d repetitions (sub-seeds %d..%d) + 1 witness" % (
        workload, seed, reps_n, seed * 1000, seed * 1000 + reps_n - 1))
    for rep in reps[:3]:
        log("  " + rep["summary"])
    log("  determinism witness: same sub-seed identical=%s, next sub-seed differs=%s" % (
        same_seed, other_seed))
    n_append = statistics.median([s["append_n"] for s in sims])
    n_read = statistics.median([s["read_n"] for s in sims])
    log("  failed_frac=%.6g (%d of %d operations)" % (failed / attempted if attempted else 0.0,
                                                       failed, attempted))
    for name, unit, kind, aggregate in END_TO_END:
        values = [r[kind][name] for r in pools[kind]]
        note = ""
        if name.startswith("append_"):
            note = "n=%d appends/rep" % n_append
        elif name.startswith("read_"):
            note = "n=%d reads/rep" % n_read
        log("  %-14s %12.6g %-7s %s of %d (range %.6g..%.6g) %s" % (
            name, metrics[name]["value"], unit, aggregate.__name__, len(values), min(values),
            max(values), note))
    return problems, attempted, failed, metrics


def trace(workload, seed, seconds):
    """Untraced/traced pairs: self-check, per-layer metrics and tracing overhead."""
    pairs_n = max(1, int(round(seconds / (3.5 * REP_SECONDS[workload]))))
    problems = []
    plain, traced = [], []
    for k in range(pairs_n):
        plain.append(run_rep(workload, seed * 1000 + k, False))
        traced.append(run_rep(workload, seed * 1000 + k, True))
    for u, t in zip(plain, traced):
        check_rep(u, problems)
        check_rep(t, problems)
        if u["sim"] != t["sim"]:
            diff = sorted(k for k in u["sim"] if u["sim"][k] != t["sim"].get(k))
            problems.append("traced run of sub-seed %d changed simulated metrics: %s" % (
                u["seed"], ", ".join(diff)))

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "sim.wall_ns_per_event":
            values = [u["wall"]["wall_s"] * 1e9 / max(u["sim"]["window_events"], 1) for u in plain]
            metrics[name] = {"value": min(values), "unit": unit}
        else:
            metrics[name] = {"value": statistics.median([t["layer"][name] for t in traced]),
                             "unit": unit}

    sims = [t["sim"] for t in traced]
    attempted = int(sum(s["attempted"] for s in sims))
    failed = int(sum(s["failed"] for s in sims))
    wall_plain = min(u["wall"]["wall_s"] for u in plain)
    wall_traced = min(t["wall"]["wall_s"] for t in traced)
    log("workload %s seed %d traced: %d untraced/traced pairs" % (workload, seed, pairs_n))
    log("  " + traced[0]["summary"])
    log("  traced simulated metrics identical to untraced: %s" % (
        all(u["sim"] == t["sim"] for u, t in zip(plain, traced))))
    log("  tracing overhead: wall_s %.4f s traced - %.4f s untraced = %+.4f s (%+.1f%%)" % (
        wall_traced, wall_plain, wall_traced - wall_plain,
        100.0 * (wall_traced - wall_plain) / wall_plain if wall_plain else 0.0))
    for name, m in metrics.items():
        log("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    return problems, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
        started = time.monotonic()
        run = trace if args.trace else measure
        problems, attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    log("measured %.1f s" % (time.monotonic() - started))
    for p in problems:
        log("CHECK FAILED: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
