#!/usr/bin/env python3
"""Build and run the sweep-request benchmark.

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload, a few requests
    python3 perfbench/run.py --all [--seconds S] [--seed N]

The first call configures and builds libftsched, ftsched_cli and the
benchmark program under .bench_build/ (Release).  A single-workload run
prints the program's JSON result as its last stdout line; --smoke and --all
print a table per workload and exit non-zero if any run failed or any
output check did not hold.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "scratch"
PROGRAM = BUILD / "perfbench"
CLI = BUILD / "ftsched" / "ftsched_cli"
WORKLOADS = ["paper-static", "policy-online", "socket-fleet"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns False when the sources are absent
    or the build fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ftsched sources next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_program(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the benchmark program once; returns (exit code, parsed result or None)."""
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", os.path.relpath(CLI, ROOT),
           "--scratch", os.path.relpath(SCRATCH, ROOT)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def table(workloads, seed, seconds, smoke):
    """Runs every workload untraced then traced and prints the metrics."""
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            started = time.monotonic()
            code, result = run_program(workload, seed, seconds, trace, smoke,
                                       echo=False)
            took = time.monotonic() - started
            mode = "traced" if trace else "untraced"
            if code != 0 or result is None:
                print(f"{workload} [{mode}]: FAILED (exit {code})")
                ok = False
                continue
            print(f"{workload} [{mode}]: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({took:.1f} s)")
            for name, metric in result["metrics"].items():
                print(f"    {name:36s} {metric['value']:.6g} {metric['unit']}")
            ok = ok and result["correct"]
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, a few requests, every check")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    args = parser.parse_args()
    if not (args.smoke or args.all or args.workload):
        parser.error("give --workload, --smoke or --all")

    if not build():
        return 2
    if args.smoke or args.all:
        ok = table(WORKLOADS, args.seed, args.seconds, args.smoke)
        return 0 if ok else 1
    code, _ = run_program(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
