#!/usr/bin/env python3
"""Merges per-bench BENCH_<name>.json reports into a commit-keyed trend file.

Every bench binary writes a machine-readable BENCH_<name>.json (see
bench/bench_util.h). This script folds any number of those into a single
BENCH_TRENDS.json keyed by commit hash, so successive CI runs accumulate a
perf trajectory that regression tooling (or a human with jq) can diff:

    {
      "commits": {
        "<sha>": {
          "timestamp": "2026-07-30T12:00:00Z",
          "lines": { "src": 19500, "tests": 16000 },
          "benches": { "fig11_perturbation": { ... the report ... }, ... }
        }
      },
      "order": ["<oldest sha>", ..., "<newest sha>"]
    }

Usage:
    scripts/collect_bench_trends.py [--out BENCH_TRENDS.json]
                                    [--commit SHA] BENCH_*.json

`lines` counts the lines of the C++ sources (*.h, *.cc) under src/ and
tests/ of the checkout holding this script, so the size of the code sits in
the trend beside its speed.

The commit defaults to $GITHUB_SHA, falling back to `git rev-parse HEAD`,
falling back to "unknown". Re-running for the same commit overwrites that
commit's entry (idempotent within a CI run). No third-party dependencies.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys


def resolve_commit(explicit):
    if explicit:
        return explicit
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "HEAD"], stderr=subprocess.DEVNULL
            )
            .decode()
            .strip()
        )
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def count_lines(root):
    """Lines in the *.h and *.cc files under `root`, recursively."""
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="+", help="BENCH_<name>.json files")
    parser.add_argument("--out", default="BENCH_TRENDS.json")
    parser.add_argument("--commit", default=None)
    args = parser.parse_args(argv)

    commit = resolve_commit(args.commit)

    trends = {"commits": {}, "order": []}
    if os.path.exists(args.out):
        try:
            with open(args.out, encoding="utf-8") as f:
                loaded = json.load(f)
            if isinstance(loaded.get("commits"), dict):
                trends["commits"] = loaded["commits"]
                trends["order"] = [
                    sha for sha in loaded.get("order", []) if sha in trends["commits"]
                ]
        except (json.JSONDecodeError, OSError) as e:
            print(f"warning: ignoring unreadable {args.out}: {e}", file=sys.stderr)

    benches = {}
    out_path = os.path.abspath(args.out)
    for path in args.reports:
        if os.path.abspath(path) == out_path:
            continue  # a BENCH_* glob can match our own output on reruns
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (json.JSONDecodeError, OSError) as e:
            print(f"warning: skipping {path}: {e}", file=sys.stderr)
            continue
        name = report.get("bench") or os.path.basename(path)
        benches[name] = report

    if not benches:
        print("error: no readable bench reports", file=sys.stderr)
        return 1

    entry = trends["commits"].setdefault(commit, {})
    entry["timestamp"] = (
        datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ")
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    entry["lines"] = {d: count_lines(os.path.join(repo, d)) for d in ("src", "tests")}
    entry.setdefault("benches", {}).update(benches)
    if commit in trends["order"]:
        trends["order"].remove(commit)
    trends["order"].append(commit)

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(trends, f, indent=2, sort_keys=True)
        f.write("\n")
    print(
        f"{args.out}: {len(benches)} bench(es) recorded for {commit[:12]} "
        f"({len(trends['commits'])} commit(s) total)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
