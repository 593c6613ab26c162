#!/usr/bin/env python3
"""Host-time benchmark of the SealPK simulator.

Builds the harness (hostbench/CMakeLists.txt, which compiles the simulator
libraries from ../src) into .bench_build/hostbench under the repository
root, then runs one workload. The harness prints its log and, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics.

  python3 hostbench/run.py --workload fig5 --seed 1 --seconds 50 --trace 0

Workloads: fig5, and services (serve, vkey-churn and vault-crash round
robin); see hostbench/README.md.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
Exit status: the harness's (0 = every oracle held); 2 when the build fails
or the simulator sources are missing.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
WORKLOADS = ("fig5", "services")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so the harness's JSON stays the last line of stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources next to the benchmark (src/CMakeLists.txt)")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(2, os.cpu_count() or 1))  # few compilers: shared host
        cmd = ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(args):
    """Runs the harness in the foreground and always reaps it, also when
    this script is interrupted or terminated."""
    cmd = [BINARY, "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's committed "
                             "default, see README.md)")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced inputs")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: expect a wrong checksum, so the "
                             "correctness gate must fail")
    args = parser.parse_args()
    if not build():
        log("build failed")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
