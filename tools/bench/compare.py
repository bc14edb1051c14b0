#!/usr/bin/env python3
"""Compares two perfbench result lines metric by metric.

Each input is a file holding the output of `python3 perfbench/run.py`; its
last JSON line is the result, `{"correct", "attempted", "failed",
"metrics"}`, with metric names bare (`qps`, one workload) or prefixed by
the workload (`lookup.qps`, `--workload all`). The direction (`better`) and
regression bound (`bound`) of each metric are read from BENCHMARK.json,
which this script never writes.

For every metric in both inputs it prints NEW/BASE and a verdict:

  improved      NEW is better than BASE in the metric's direction
  within bound  NEW is no better, and worse by at most the bound
  regressed     NEW is worse by more than the bound
  worse         NEW is worse on a per-layer metric (these carry no bound)
  unknown       the metric is not declared in BENCHMARK.json

"Worse by" is the relative change in the worse direction: (BASE - NEW) /
BASE for `higher`, (NEW - BASE) / BASE for `lower`. The exit status is 1
if any metric regressed, NEW failed a larger share of operations than
BASE, or NEW is not correct; else 0. Standard library only.

Usage:
  compare.py BASE NEW [--benchmark BENCHMARK.json]
  compare.py --self-test
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_result(path):
    """Returns the last JSON object line of `path`."""
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f if line.strip()]
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("%s: no JSON result line" % path)


def load_specs(path):
    """Returns {metric: spec} from BENCHMARK.json."""
    with open(path, encoding="utf-8") as f:
        benchmark = json.load(f)
    specs = {}
    for metric in benchmark.get("per_layer", []):
        specs[metric["name"]] = dict(metric, bound=None)
    for metric in benchmark.get("end_to_end", []):
        specs[metric["name"]] = metric
    return specs


def spec_for(name, specs):
    """The spec of `name`, bare or prefixed by a workload, or None."""
    if name in specs:
        return specs[name]
    return specs.get(name.partition(".")[2])


def verdict(base, new, spec):
    """Returns (NEW/BASE, verdict) for one metric."""
    ratio = new / base if base else (1.0 if new == base else math.inf)
    if spec is None:
        return ratio, "unknown"
    if new == base:
        return ratio, "within bound"
    if (new > base) == (spec["better"] == "higher"):
        return ratio, "improved"
    if spec.get("bound") is None:
        return ratio, "worse"
    worse_by = abs(new - base) / base if base else math.inf
    return ratio, "regressed" if worse_by > spec["bound"] else "within bound"


def compare(base, new, specs):
    """Returns [(name, base, new, ratio, verdict)] for the shared metrics."""
    rows = []
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        rows.append((name, b, n) + verdict(b, n, spec_for(name, specs)))
    return rows


def failed_share(result):
    attempted = result.get("attempted", 0)
    return result.get("failed", 0) / attempted if attempted else 0.0


def exit_status(base, new, rows):
    """1 on a regression, a larger failed share or a wrong answer."""
    if any(row[4] == "regressed" for row in rows):
        return 1
    if failed_share(new) > failed_share(base) or not new.get("correct"):
        return 1
    return 0


def report(base, new, rows, out):
    width = max([len(row[0]) for row in rows] + [6])
    out.write("%-*s %14s %14s %8s  %s\n" %
              (width, "metric", "base", "new", "new/base", "verdict"))
    for name, b, n, ratio, word in rows:
        out.write("%-*s %14.6g %14.6g %8.3f  %s\n" %
                  (width, name, b, n, ratio, word))
    for name in sorted(set(base["metrics"]) ^ set(new["metrics"])):
        side = "base" if name in base["metrics"] else "new"
        out.write("%s: only in %s\n" % (name, side))
    out.write("failed share: base %.4f new %.4f; correct: base %s new %s\n" %
              (failed_share(base), failed_share(new), base.get("correct"),
               new.get("correct")))


def self_test():
    """Checks the verdicts on the fixtures in testdata/."""
    specs = load_specs(DEFAULT_BENCHMARK)
    base = load_result(os.path.join(HERE, "testdata", "base.json"))
    new = load_result(os.path.join(HERE, "testdata", "new.json"))
    rows = compare(base, new, specs)
    verdicts = {row[0]: row[4] for row in rows}
    expected = {
        "lookup.qps": "improved",                     # +40%, higher is better
        "lookup.latency_p50_ms": "improved",          # -30%, lower is better
        "lookup.latency_p99_ms": "within bound",      # 3% worse
        "lookup.stored_bytes_per_xml_byte": "within bound",  # identical
        "scan.qps": "within bound",                   # 2% worse
        "scan.hybrid_round_ms": "regressed",          # 60% worse
        "scan.planner.plan_us": "improved",           # per-layer, lower
        "scan.executor.rows": "worse",                # per-layer, no bound
        "scan.load_mb_per_s": "unknown",              # not declared
    }
    problems = ["%s: want %r, got %r" % (name, want, verdicts.get(name))
                for name, want in expected.items()
                if verdicts.get(name) != want]
    if exit_status(base, new, rows) != 1:
        problems.append("a regression must exit 1")
    if exit_status(base, base, compare(base, base, specs)) != 0:
        problems.append("a result compared with itself must exit 0")
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    if not problems:
        print("self-test: %d verdicts ok" % len(expected))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", help="the parent's result file")
    parser.add_argument("new", nargs="?", help="the change's result file")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="benchmark declaration (read only)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdicts on testdata/")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.new is None:
        parser.error("BASE and NEW are required")
    specs = load_specs(args.benchmark)
    base, new = load_result(args.base), load_result(args.new)
    rows = compare(base, new, specs)
    report(base, new, rows, sys.stdout)
    return exit_status(base, new, rows)


if __name__ == "__main__":
    sys.exit(main())
