#!/usr/bin/env python3
"""Perf-regression gate: compare a bench run against its checked-in baseline.

Usage:  perf_gate.py BASELINE.json CURRENT.json [--tol 0.15]

Two JSON shapes are understood:

* bench-harness stats (``{"bench": ..., "virtual_time_us": ..., "events": ...,
  "net": {"messages": ..., "bytes": ...}}``) — the simulator is deterministic,
  so these virtual metrics only move when the modelled protocol changes.
  They are compared exactly: any difference, faster or slower, fails the
  gate, and every metric's delta is printed. A change that moves them on
  purpose refreshes the baseline (rerun the bench and commit the new
  BENCH_*.json).

* google-benchmark output (``{"benchmarks": [...]}``) — wall-clock. Run both
  the baseline and the gated run with ``--benchmark_repetitions=N
  --benchmark_report_aggregates_only=true`` so medians are compared; raw
  single-shot times are too noisy to gate on. A wall-clock metric regresses
  when ``current > baseline * (1 + tol)``; improvements are reported but
  never fail the gate.

Exit status: 0 clean, 1 on any regression or virtual-metric difference, 2 on
malformed input.
"""

import argparse
import json
import sys


def harness_metrics(doc):
    m = {
        "virtual_time_us": doc["virtual_time_us"],
        "events": doc["events"],
    }
    net = doc.get("net", {})
    if "messages" in net:
        m["net.messages"] = net["messages"]
    if "bytes" in net:
        m["net.bytes"] = net["bytes"]
    return m


def gbench_metrics(doc):
    m = {}
    rows = doc["benchmarks"]
    have_median = any(r.get("aggregate_name") == "median" for r in rows)
    for r in rows:
        if have_median:
            if r.get("aggregate_name") != "median":
                continue
            name = r["run_name"]
        else:
            name = r["name"]
        m[name + ".real_time"] = r["real_time"]
    return m


def metrics_of(path):
    """The metrics of @path and whether they are deterministic (exact)."""
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:
        return gbench_metrics(doc), False
    if "virtual_time_us" in doc:
        return harness_metrics(doc), True
    raise ValueError(f"{path}: neither bench-harness nor google-benchmark JSON")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tol", type=float, default=0.15,
                    help="allowed fractional wall-clock regression "
                         "(default 0.15; virtual metrics are exact)")
    args = ap.parse_args()

    try:
        base, exact = metrics_of(args.baseline)
        cur, _ = metrics_of(args.current)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 2

    failed = []
    for name, b in sorted(base.items()):
        if name not in cur:
            print(f"perf_gate: metric '{name}' missing from current run",
                  file=sys.stderr)
            failed.append(name)
            continue
        c = cur[name]
        delta = (c - b) / b if b else 0.0
        verdict = "ok"
        if exact:
            if c != b:
                verdict = "CHANGED (refresh the baseline if intended)"
                failed.append(name)
        elif c > b * (1.0 + args.tol):
            verdict = "REGRESSION"
            failed.append(name)
        elif c < b * (1.0 - args.tol):
            verdict = "improved (consider refreshing baseline)"
        print(f"  {name:40s} base={b:<14.6g} cur={c:<14.6g} "
              f"{c - b:+14.6g} {delta:+8.3%}  {verdict}")

    bound = "exactly equal to" if exact else f"within {args.tol:.0%} of"
    if failed:
        print(f"perf_gate: {len(failed)} metric(s) not {bound} the "
              f"baseline: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"perf_gate: all {len(base)} metrics {bound} {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
