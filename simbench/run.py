#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or anywhere: paths are resolved from this
file). The benchmark package in simbench/ is configured and built into
.bench_build/ at the repository root against the library sources in
src/, then simbench runs the workload. Its last line of standard output
is the JSON result; build logs go to standard error. A traced run writes
its spans to .bench_build/traces/<workload>-seed<n>.json.

Exit status: the benchmark's own (0 when every check passed), 1 when the
build fails (for instance when src/ is missing), 2 for a bad command line.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simbench")
WORKLOADS = ("paper_sweep", "scaled_mono", "scaled_sampled", "serve_mix")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources at {os.path.join(ROOT, 'src')}")
        return False
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time, should two runs start together.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"]):
                log("configure failed")
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if not run_quiet(["cmake", "--build", BUILD, "--target", "simbench",
                          "-j", jobs]):
            log("build failed")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2
    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    child = subprocess.Popen(cmd)
    stopped = []

    def stop(signum, _frame):
        # Only signal here: the main thread is inside child.wait(),
        # whose lock a second wait() from the handler would deadlock on.
        stopped.append(signum)
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    return 128 + stopped[0] if stopped else code


if __name__ == "__main__":
    sys.exit(main())
