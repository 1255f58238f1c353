#!/usr/bin/env python3
"""Repo benchmark: build the perfbench program from source, then run it.

One run (what BENCHMARK.json's command runs):
    python3 perfbench/run.py --workload deep-resnet --seed 1 --seconds 10 --trace 0

Repeat mode, the data the bounds come from: every workload k times, the
workload order alternating between rounds, then each metric's median and
quartiles:
    python3 perfbench/run.py --repeat 10 [--seconds 10] [--trace 0|1]

Self-tests of the output checks:
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/perfbench.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["deep-resnet", "wide-vgg16", "grid-resnet50"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def commit():
    """HEAD's commit when the checkout is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the perfbench program once; returns (exit code, result or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        log("perfbench: metrics do not match BENCHMARK.json: missing %s, extra %s" %
            (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 1, result
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(k, seconds, trace):
    samples = {w: {} for w in WORKLOADS}
    failed_share = {w: [] for w in WORKLOADS}
    status = 0
    for i in range(k):
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            code, result = run_once(w, i + 1, seconds, trace, echo=False)
            if code != 0 or result is None:
                log("perfbench: %s seed %d failed (exit %d)" % (w, i + 1, code))
                status = 1
                continue
            failed_share[w].append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            log("round %d/%d %s %s" % (i + 1, k, w, json.dumps(
                {name: m["value"] for name, m in result["metrics"].items()})))
    print("%-14s %-26s %5s %14s %14s %14s %8s" %
          ("workload", "metric", "n", "median", "q1", "q3", "iqr/med"))
    for w in WORKLOADS:
        for name, values in samples[w].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print("%-14s %-26s %5d %14.6g %14.6g %14.6g %8.4f" %
                  (w, name, len(values), med, q1, q3, spread))
        shares = sorted(set(failed_share[w]))
        print("%-14s failed share per run: %s" % (w, shares))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, metavar="K")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.repeat or args.workload):
        ap.error("give --workload, --repeat or --self-test")
    if args.repeat is not None and args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_check_tests")]).returncode
    if args.repeat:
        return repeat(args.repeat, args.seconds, args.trace)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
