#!/usr/bin/env python3
# Copyright 2026 The streambid Authors
"""Builds and runs the repo benchmark (bench_e2e). Standard library only.

One run (the benchmark contract; the last stdout line is the result):

  python3 bench/e2e/run.py --workload daily_mix --seed 1 --seconds 30 --trace 0

A set: every workload --runs times (default 3), each run in its own
process, alternating the workload order between runs, with seed
--seed + run index. Prints `workload metric median [q1, q3] unit` for
every metric and writes one JSON file stamped with mode, build type,
compiler, usable CPUs, git sha and seed:

  python3 bench/e2e/run.py [--runs N] [--seed N] [--seconds S]
                           [--trace 0|1] [--smoke] [--out FILE]

Everything builds from source into .bench_build/e2e under the checkout
root (cmake, Release). Compare two sets with compare.py.
"""

import argparse
import contextlib
import fcntl
import json
import os
import subprocess
import sys
import time

from compare import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@contextlib.contextmanager
def build_lock():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


def build():
    """Configures (once) and builds bench_e2e; build output goes to stderr."""
    sources = os.path.join(ROOT, "src", "gate", "stream_ingress.h")
    if not os.path.exists(sources):
        fail(f"no streambid sources under {ROOT}/src: the benchmark builds "
             "from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with build_lock():
        try:
            if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                subprocess.run(
                    ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                    stdout=sys.stderr, check=True)
            subprocess.run(
                ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                 "-j", jobs],
                stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            fail(f"build failed: {error}")


def run_once(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns (exit code, results).

    results holds every JSON line the binary printed (two in smoke mode:
    the end-to-end result, then the traced one)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", BUILD_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} (seed {seed}) did not finish in {RUN_TIMEOUT_S} s")
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return proc.returncode, results


def check_names(result, benchmark, trace):
    key = "per_layer" if trace else "end_to_end"
    expected = [m["name"] for m in benchmark[key]]
    got = list(result["metrics"])
    if sorted(got) != sorted(expected):
        fail(f"metrics {sorted(set(got) ^ set(expected))} disagree with "
             f"BENCHMARK.json {key}")


def single(args):
    benchmark = load_benchmark()
    build()
    code, results = run_once(args.workload, args.seed, args.seconds,
                             args.trace)
    if not results:
        fail(f"{args.workload} printed no result (exit {code})")
    check_names(results[-1], benchmark, args.trace)
    print(json.dumps(results[-1]))
    sys.exit(code)


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(args):
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    build()
    about = json.loads(subprocess.run([BINARY, "--about"], capture_output=True,
                                      text=True, check=True).stdout)
    mode = "smoke" if args.smoke else "full"
    runs = {w: [] for w in workloads}
    correct = True
    started = time.time()
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = args.seed + r
            t0 = time.time()
            code, results = run_once(workload, seed, args.seconds, args.trace,
                                     args.smoke)
            if not results:
                fail(f"{workload} (seed {seed}) printed no result "
                     f"(exit {code})")
            merged = {"seed": seed,
                      "correct": all(x["correct"] for x in results),
                      "attempted": sum(x["attempted"] for x in results),
                      "failed": sum(x["failed"] for x in results),
                      "metrics": {}}
            for x in results:
                merged["metrics"].update(x["metrics"])
            correct = correct and merged["correct"] and code == 0
            runs[workload].append(merged)
            print(f"# run {r + 1}/{args.runs} {workload} seed {seed}: "
                  f"{'ok' if merged['correct'] else 'INCORRECT'} "
                  f"({time.time() - t0:.1f} s)", file=sys.stderr)
    elapsed = time.time() - started

    for workload in workloads:
        metrics = runs[workload][0]["metrics"]
        for name, first in metrics.items():
            values = [run["metrics"][name]["value"] for run in runs[workload]]
            q1, median, q3 = quartiles(values)
            print(f"{workload} {name} {median:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"{first['unit']}")
    sha = git_sha()
    stamp = {
        "mode": mode,
        "trace": args.trace,
        "build_type": BUILD_TYPE,
        "compiler": about["compiler"],
        "cpus": about["cpus"],
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs_per_workload": args.runs,
        "elapsed_s": round(elapsed, 1),
    }
    out = args.out or os.path.join(
        BUILD_DIR, "results",
        f"e2e_{mode}_{'traced' if args.trace else 'untraced'}_{sha[:12]}_"
        f"{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"stamp": stamp, "runs": runs}, f, indent=1)
    print(f"# {mode} set written to {out} ({elapsed:.0f} s)", file=sys.stderr)
    sys.exit(0 if correct else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (the contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="result file of a set")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload:
        single(args)
    else:
        run_set(args)


if __name__ == "__main__":
    main()
