#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check
    python3 perfbench/run.py --report [--seed <n>] [--seconds <s>]

The first form runs one workload in its own process; the last line of its
standard output is the JSON result. --check runs each correctness check on a
right and a deliberately wrong result. --report runs every workload in turn
and prints each one's report plus a table of the end-to-end metrics.
Build output goes to standard error; the build lives in .bench_build/.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["cg-ic0-poisson", "lanczos-nm7", "lobpcg-poisson", "svc-cg-jobs"]


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", *generator, "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def report(args):
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "10")
    rows = []
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload} (seed {seed}, {seconds} s)", flush=True)
        run = subprocess.run([BINARY, "--workload", workload, "--seed", seed,
                              "--seconds", seconds, "--trace", "0"],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if run.returncode != 0 or not lines:
            print(f"{workload}: exit code {run.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
    print("\n%-16s %-14s %14s %-5s %s" % ("workload", "metric", "value", "unit",
                                          "attempted/failed"))
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print("%-16s %-14s %14.6g %-5s %d/%d" % (
                workload, name, m["value"], m["unit"], result["attempted"],
                result["failed"]))
    return status


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if "--report" in args:
        return report(args)
    return subprocess.run([BINARY, *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
