#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

Runs every workload once at the tiny size, untraced and traced, and checks
that the result line carries every metric BENCHMARK.json names, with its
unit. Then runs each workload against a deliberately wrong expected
checksum (--corrupt-oracle) and checks that the correctness gate fails.

  python3 hostbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "1", "--trace", str(trace), "--size",
           "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, output = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  label + ": exits 0 with a correct result")
            if result is None:
                print(output)
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                check(False, label + ": result keys")
            metrics = result["metrics"]
            missing = [m["name"] for m in expected[trace]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing and len(metrics) == len(expected[trace]),
                  label + ": every metric with its unit" +
                  (" (missing: %s)" % ", ".join(missing) if missing else ""))
        code, result, _ = run(workload, 0, "--corrupt-oracle")
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              workload + ": a wrong expected checksum fails the gate")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
