#!/usr/bin/env python3
"""Builds and runs srs_perfbench, the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload topk-zipf --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the srs
library from src/) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr; the last stdout line is the
benchmark's JSON result. Two more modes sit on top of the same binary:

    --repeat N       run N times with seeds seed..seed+N-1 and print, per
                     metric, the median, quartiles, (q3-q1)/median and
                     (max-min)/median: the steadiness evidence
    --determinism    one-client repeatability check (see main.cc)
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "srs_perfbench")
WORKLOADS = ("topk-zipf", "fullrow", "topk-delta")
RUN_TIMEOUT_S = 175


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no srs sources at %s; run from a full checkout"
            % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        die("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "srs_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    paths = []
    for base in ("src", "perfbench"):
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, base)):
            paths += [os.path.join(dirpath, name) for name in filenames]
    digest = hashlib.sha1()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_once(args, seed, commit, capture):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--commit", commit]
    if args.determinism:
        cmd.append("--determinism")
    try:
        return subprocess.run(cmd, cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)


def repeat(args, commit):
    results = []
    for k in range(args.repeat):
        seed = args.seed + k
        proc = run_once(args, seed, commit, capture=True)
        sys.stderr.write(proc.stdout)
        if proc.returncode != 0:
            die("seed %d failed (exit %d)" % (seed, proc.returncode))
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print("%s: %d runs, seeds %d..%d, --seconds %d --trace %d"
          % (args.workload, len(results), args.seed,
             args.seed + len(results) - 1, args.seconds, args.trace))
    print("%-28s %12s %12s %12s %9s %9s" % (
        "metric", "median", "q1", "q3", "iqr/med", "range/med"))
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        iqr = (q3 - q1) / median if median else float("nan")
        spread = (max(values) - min(values)) / median if median else float("nan")
        print("%-28s %12.4f %12.4f %12.4f %9.4f %9.4f %s"
              % (name, median, q1, q3, iqr, spread, first["unit"]))
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "iqr_share": iqr, "range_share": spread,
                         "unit": first["unit"], "values": values}
    print(json.dumps({"workload": args.workload, "runs": len(results),
                      "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        die("--seconds must be in [1, 600] and --seed >= 0")

    build()
    commit = commit_id()
    if args.repeat >= 2:
        repeat(args, commit)
        return 0
    return run_once(args, args.seed, commit, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
