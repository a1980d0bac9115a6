#!/usr/bin/env python3
"""Repository benchmark for the PolarDB-IMCI reproduction.

Builds the benchmark program (perfbench/CMakeLists.txt compiles the engine
sources in src/ plus perfbench/src/) and runs one workload in its own
process:

  python3 perfbench/run.py --workload olap_tpch --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics for --trace 0, the per-layer ones
for --trace 1. Lines before it carry labels (nproc, sanitizer, seed, pools,
a CPU calibration loop timed at start and end) and the figures behind the
metrics, each latency with its sample count and the highest tail it supports.

Other modes:
  --all          every workload untraced, then traced, each in its own
                 process; prints each metric by name with its unit and exits
                 nonzero if any correctness gate failed
  --repeat N     N runs of one workload on seeds seed..seed+N-1; prints each
                 metric's median and quartile spread (share of the median)
  --self-test    checks the statistics and trace helpers
  --list         prints the workloads, metrics and layer-to-metric mapping

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; traces of --trace 1 runs go to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["olap_tpch", "htap_fresh", "oltp_small_pool"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# End-to-end metrics, defined on every workload:
#   setup_s      median of several cluster set-ups in the run
#   peak_rss_mb  peak resident memory of the run
#   ops_per_s    olap_tpch: TPC-H queries completed per second;
#                oltp_small_pool: commits per second; htap_fresh: commits
#                made visible on the RO within the run, per second (holds at
#                the offered 2000/s only while replication keeps up)
#   op_ms_gmean  geometric mean over the operation kinds of each kind's
#                median latency: Q1..Q22 on olap_tpch, NewOrder, Payment
#                and Delivery on the CH workloads. The median of the whole
#                mix would sit where fast and slow kinds meet and jump
#                between them from run to run. On htap_fresh each call is
#                timed from its start: from the due time, one writer queues
#                every later transaction behind a stall, and a burst of CPU
#                steal moved that figure twentyfold. (Latency from due time,
#                visibility delay and strong reads are printed beside it and
#                traced per layer, unbounded: they hinge on thread wake-ups,
#                which CPU steal stretches several-fold.)
# All are whole-run figures over the measured phase. Tails with sample
# counts and CPU per op are printed before the result line.
#
# Which end-to-end metric each per-layer metric should move, and on which
# workload. On every other workload the prediction is no change.
LAYER_MAP = {
    "cluster.proxy_ms": ("op_ms_gmean", "olap_tpch"),
    "cluster.coordinator_ms": ("op_ms_gmean", "olap_tpch"),
    "cluster.dist.fragments": ("op_ms_gmean", "olap_tpch"),
    "cluster.dist.fragment_exec_ms": ("op_ms_gmean", "olap_tpch"),
    "cluster.dist.fragment_wait_ms": ("op_ms_gmean", "olap_tpch"),
    "cluster.dist.merge_ms": ("op_ms_gmean", "olap_tpch"),
    "cluster.dist.fallbacks": ("op_ms_gmean", "olap_tpch"),
    "cluster.scale_out_ms": ("setup_s", "olap_tpch"),
    "cluster.strong_wait_ms": ("strong_query_ms (info line)", "htap_fresh"),
    "cluster.strong_query_ms_p50": ("strong_query_ms (info line)",
                                    "htap_fresh"),
    "plan.lower_ms": ("op_ms_gmean", "olap_tpch"),
    "exec.run_ms": ("op_ms_gmean", "olap_tpch"),
    "exec.row_ms": ("op_ms_gmean", "olap_tpch"),
    "exec.dop_used": ("op_ms_gmean", "olap_tpch"),
    "exec.tasks_stolen": ("op_ms_gmean", "olap_tpch"),
    "exec.queries_throttled": ("op_ms_gmean", "olap_tpch"),
    "imci.groups_scanned": ("op_ms_gmean", "olap_tpch"),
    "imci.groups_pruned": ("op_ms_gmean", "olap_tpch"),
    "imci.checkpoint_ms": ("setup_s", "olap_tpch"),
    "replication.applied_ops_per_s": ("ops_per_s", "htap_fresh"),
    "replication.lsn_delay_max": ("ops_per_s", "htap_fresh"),
    "replication.catchup_ms": ("ops_per_s", "htap_fresh"),
    "replication.compactions": ("ops_per_s", "htap_fresh"),
    "replication.vd_hist_p50_ms": ("ops_per_s", "htap_fresh"),
    "replication.vd_ms_p50": ("ops_per_s", "htap_fresh"),
    "txn.neworder_ms_p50": ("op_ms_gmean", "oltp_small_pool"),
    "txn.payment_ms_p50": ("op_ms_gmean", "oltp_small_pool"),
    "txn.delivery_ms_p50": ("op_ms_gmean", "oltp_small_pool"),
    "txn.commit_ms_p50": ("op_ms_gmean", "htap_fresh"),
    "rowstore.txn_ms": ("ops_per_s", "oltp_small_pool"),
    "rowstore.busy": ("ops_per_s", "oltp_small_pool"),
    "rowstore.mvcc.versions_per_commit": ("ops_per_s", "oltp_small_pool"),
    "rowstore.mvcc.arena_bytes_live": ("peak_rss_mb", "oltp_small_pool"),
    "rowstore.pool_hit_ratio": ("ops_per_s", "oltp_small_pool"),
    "rowstore.pool_misses_per_txn": ("ops_per_s", "oltp_small_pool"),
    "polarfs.page_reads_per_txn": ("ops_per_s", "oltp_small_pool"),
    "log.commits_per_fsync": ("ops_per_s", "oltp_small_pool"),
    "redo.bytes_per_commit": ("op_ms_gmean", "htap_fresh"),
    "bench.generator_ms": (None, None),
    "trace.overhead_pct": (None, None),
    "trace.self_sum_error_pct": (None, None),
    "trace.unattributed_pct": (None, None),
    "trace.requests": (None, None),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.h")):
        print("perfbench: engine sources (src/) not found", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "imci_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return None
        if proc.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(build_dir, "imci_perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (result dict, info lines) or (None, ...)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None, []
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        print("perfbench: %s printed nothing (exit %d)"
              % (workload, proc.returncode), file=sys.stderr)
        return None, []
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: %s: last line is not JSON" % workload,
              file=sys.stderr)
        return None, lines
    if echo:
        for line in lines[:-1]:
            print(line)
    return result, lines[:-1]


def check_result(result, trace, spec):
    """Holds the result to the contract: exactly these keys and exactly the
    declared metrics with their units. A traced run reports the layers its
    workload reaches; every other declared layer reads 0 (bypassed)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            return "metric %s (%s) is not declared" % (name, m["unit"])
    missing = [n for n in units if n not in metrics]
    if missing and not trace:
        return "missing metrics %s" % missing
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    return None


def single(args, spec):
    binary = build()
    if binary is None:
        return 2
    result, _ = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    if result is None:
        return 3
    problem = check_result(result, args.trace, spec)
    if problem:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec):
    binary = build()
    if binary is None:
        return 2
    ok = True
    for trace in (False, True):
        kind = "per-layer (traced)" if trace else "end-to-end"
        for w in WORKLOADS:
            result, info = run_once(binary, w, args.seed, args.seconds, trace,
                                    echo=False)
            if result is None or check_result(result, trace, spec):
                print("%-16s FAILED TO RUN" % w)
                ok = False
                continue
            share = result["failed"] / result["attempted"]
            print("== %s, %s: correct=%s, failed %d of %d (%.4f%%)"
                  % (w, kind, result["correct"], result["failed"],
                     result["attempted"], 100 * share))
            ok = ok and result["correct"]
            for name, m in sorted(result["metrics"].items()):
                print("   %-36s %16.6g %s" % (name, m["value"], m["unit"]))
            if not trace:
                for line in info:
                    if line.startswith("{\"info\""):
                        for k, v in sorted(json.loads(line)["info"].items()):
                            print("   %-36s %s" % (k, v))
    return 0 if ok else 1


def repeat(args, spec):
    binary = build()
    if binary is None:
        return 2
    values = {}
    for i in range(args.repeat):
        seed = args.seed + i
        result, _ = run_once(binary, args.workload, seed, args.seconds,
                             args.trace, echo=False)
        if result is None or not result["correct"]:
            print("seed %d: failed" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        print("%-36s median %14.6g  spread %.4f%s" % (
            name, med, spread,
            "" if bound is None else "  bound %.2f" % bound))
    return 0


def list_spec(spec):
    for w in spec["workloads"]:
        print("workload %-16s %s" % (w["name"], w["why"]))
    for m in spec["end_to_end"]:
        print("end-to-end %-20s %-6s %-6s bound %.2f"
              % (m["name"], m["unit"], m["better"], m["bound"]))
    for m in spec["per_layer"]:
        target, workload = LAYER_MAP.get(m["name"], (None, None))
        moves = ("moves %s on %s" % (target, workload)) if target else ""
        print("layer %-36s %-6s %-6s %s"
              % (m["name"], m["unit"], m["better"], moves))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--list", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print("perfbench: BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    if args.list:
        return list_spec(spec)
    if args.self_test:
        binary = build()
        if binary is None:
            return 2
        return subprocess.run([binary, "--self-test"]).returncode
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        p.error("--workload is required")
    if args.repeat:
        return repeat(args, spec)
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
