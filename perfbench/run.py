#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark.

    python3 perfbench/run.py --workload ss7d-1m --seed 1 --seconds 45 --trace 0

The seed translates a fixed point set per workload, so its figures compare
across seeds. --data-seed N re-draws the point set itself: held-out data for
checking a claim made on the default set.

Builds the benchmark program, adbscan_cli and adbscan_server from the sources
of this checkout into .bench_build/ (incrementally after the first run), then
runs it; it generates the workload from the seed, measures it for
the given number of seconds, checks every output and prints the metrics. The
last line of standard output is the JSON result. Build output goes to
standard error. Exits non-zero, without printing a result, when the sources
are missing or the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ss7d-1m", "farm-50k")
RUN_TIMEOUT_S = 170


def build(env):
    """Configures and builds the three binaries; True on success."""
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench", "adbscan_cli", "adbscan_server"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def stop_group(proc):
    """Kills what is left of the benchmark's process group and waits for it."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()  # reaps the benchmark process itself once it is gone
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--data-seed", type=int,
                        help="re-draw the point set with this seed")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found next to perfbench/",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # compiler temporaries
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tools = os.path.join(BUILD, "cmake", "adbscan_tools")
    cmd = [os.path.join(BUILD, "cmake", "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--cli=" + os.path.join(tools, "adbscan_cli"),
           "--server=" + os.path.join(tools, "adbscan_server"),
           "--work=" + os.path.join(BUILD, "work")]
    if args.data_seed is not None:
        cmd.append("--data_seed=%d" % args.data_seed)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        stop_group(proc)
        proc.wait()
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
