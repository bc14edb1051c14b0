#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release copy of the library and the
benchmark program under .bench_build/perfbench; later calls rebuild only
what changed. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. The exit code is non-zero on a failed build,
a wrong answer or a timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["lookup", "scan", "wire", "load"]
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def run_one(workload, args):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--digests", os.path.join(HERE, "expected_digests.txt"),
               "--spans", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    if args.record_digests:
        command += ["--record-digests", os.path.abspath(args.record_digests)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
            return 3, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the arithmetic self-test")
    parser.add_argument("--record-digests", metavar="FILE",
                        help="append this seed's reference answer digests "
                             "to FILE instead of measuring")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            log("build failed")
            return 2
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        log("build failed")
        return 2

    if args.workload != "all":
        code, out = run_one(args.workload, args)
        sys.stdout.write(out)
        return code

    # Every workload in turn, then one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(workload, args)
        lines = out.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        worst = worst or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
