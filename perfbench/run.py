#!/usr/bin/env python3
"""Build the simulator and run one workload of the sweep benchmark.

    python3 perfbench/run.py --workload fig08_int06 --seed 0 \
        --seconds 10 --trace 0

Run from the root of a checkout. The harness (perfbench/harness.cc)
is built from source into .bench_build/ on first use; build output
goes to stderr. The workload runs in its own process; its stdout is
passed through, and the last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (spans are written
to .bench_build/traces/). See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig08_int06", "quick_all_isolated")

# Leaves room under the 180 s limit for process start-up and exit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "vgbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [os.path.join(BUILD, "vgbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work", args.workload),
           "--pinned", os.path.join(HERE, "pinned_digests.txt"),
           "--trace-out", os.path.join(
               BUILD, "traces", f"{args.workload}-seed{args.seed}.json")]
    # Own process group, so a timeout also stops isolated workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"workload exceeded {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"harness exited {proc.returncode} without a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    print(lines[-1], flush=True)
    sys.exit(proc.returncode if proc.returncode else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
