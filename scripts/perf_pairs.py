#!/usr/bin/env python3
"""Paired perfbench comparison of the working tree against a base revision.

Checks the base revision out into a temporary `git worktree`, then runs
`perfbench/run.py` alternately on the base and on the working tree (the
first side alternates from pair to pair, and both runs of a pair use the
same seed), each side with its own build directory. Prints each side's
share of failed operations, and for every end-to-end metric the per-pair
values, the two medians with the base's quartile spread, on how many pairs
the working tree is better, and a verdict against the metric's
BENCHMARK.json bound: "within bound", "worse beyond bound", or "unresolved"
when the base's quartile spread alone exceeds the bound:

  python3 scripts/perf_pairs.py --workload olap_tpch --pairs 5 --seconds 20

Options: --base REV (default HEAD), --seed N (pair i runs seed N+i),
--build-root DIR (keeps both builds and the log there, so a second
invocation rebuilds only the base; default: a temporary directory, removed
unless a run failed). The base worktree is always removed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_side(tree, build_dir, workload, seed, seconds, log):
    """One perfbench run of `tree`: a dict with its metric values and its
    failed/attempted operation counts, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=log, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not result.get("correct"):
        return None
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"]}


def verdict(change, spread, bound):
    """`change` and `spread` are fractions of the base median; `change` is
    positive when the working tree is worse."""
    if spread > bound:
        return "unresolved"
    return "worse beyond bound" if change > bound else "within bound"


def summarize(pairs, spec):
    shares = []
    for side, label in ((0, "base"), (1, "head")):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        shares.append(failed / attempted if attempted else 0.0)
        print("%s failed %d of %d operations (%.4f%%)"
              % (label, failed, attempted, 100 * shares[-1]))
    print("failure share %s" % ("higher on head" if shares[1] > shares[0]
                                else "not higher on head"))
    for m in sorted(spec["end_to_end"], key=lambda m: m["name"]):
        name = m["name"]
        base = [p[0]["metrics"][name] for p in pairs
                if name in p[0]["metrics"]]
        head = [p[1]["metrics"][name] for p in pairs
                if name in p[1]["metrics"]]
        if not base or len(base) != len(head):
            continue
        better = m["better"]
        lower = better == "lower"
        wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        print("%s (%s is better)" % (name, better))
        for i, (b, h) in enumerate(zip(base, head)):
            delta = (h - b) / b * 100 if b else 0.0
            print("  pair %-2d base %12.4f  head %12.4f  %+7.1f%%"
                  % (i + 1, b, h, delta))
        mb, mh = statistics.median(base), statistics.median(head)
        spread = 0.0
        if len(base) >= 2 and mb:
            q = statistics.quantiles(base, n=4)
            spread = (q[2] - q[0]) / abs(mb) * 100
        change = (mh - mb) / mb * 100 if mb else 0.0
        print("  median base %.4f  head %.4f  (%+.1f%%; base quartile "
              "spread %.1f%%)  better in %d/%d"
              % (mb, mh, change, spread, wins, len(base)))
        worse = change if lower else -change
        print("  bound %.0f%%: %s" % (100 * m["bound"], verdict(
            worse / 100, spread / 100, m["bound"])))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", default="HEAD")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--build-root")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rev = git("rev-parse", "--verify", args.base + "^{commit}")
    build_root = os.path.abspath(args.build_root or
                                 tempfile.mkdtemp(prefix="perf_pairs_"))
    base_tree = os.path.join(build_root, "base-src")
    sides = [(base_tree, os.path.join(build_root, "base")),
             (ROOT, os.path.join(build_root, "head"))]
    log_path = os.path.join(build_root, "perf_pairs.log")
    os.makedirs(build_root, exist_ok=True)
    if os.path.exists(base_tree):  # left by an interrupted invocation
        shutil.rmtree(base_tree)
        git("worktree", "prune")
    git("worktree", "add", "--detach", base_tree, rev)
    ok = False
    try:
        print("base %s vs working tree, %s, %d pairs of %gs (log: %s)"
              % (rev[:12], args.workload, args.pairs, args.seconds, log_path))
        pairs = []
        with open(log_path, "a") as log:
            for i in range(args.pairs):
                seed = args.seed + i
                order = [0, 1] if i % 2 == 0 else [1, 0]
                got = [None, None]
                for side in order:
                    tree, build_dir = sides[side]
                    got[side] = run_side(tree, build_dir, args.workload, seed,
                                         args.seconds, log)
                if None in got:
                    print("pair %d (seed %d): a run failed; see the log"
                          % (i + 1, seed))
                    return 1
                pairs.append(got)
                print("pair %d done (seed %d)" % (i + 1, seed), flush=True)
        summarize(pairs, spec)
        ok = True
        return 0
    finally:
        git("worktree", "remove", "--force", base_tree)
        if ok and not args.build_root:
            shutil.rmtree(build_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
