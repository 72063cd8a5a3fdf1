#!/usr/bin/env python3
"""Builds and runs the flow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
driver (perfbench/CMakeLists.txt, which compiles the libraries under src/)
into .bench_build/; later runs only check the build is current. The driver's
last line of standard output, one JSON object, is printed as this script's
last line. perfbench/DESIGN.md describes workloads, metrics and checks.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "flow_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run after the first must end within 180 s; keep the driver well inside.
DRIVER_TIMEOUT_S = 170.0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_group(cmd, timeout_s, **kwargs):
    """Runs cmd in its own process group; kills the whole group afterwards so
    no forked flow run outlives the benchmark, and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "flow_bench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        code, _ = run_group(cmd, 900.0, stdout=sys.stderr, env=env)
        if code != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to perfbench/; run from a full checkout")
    t0 = time.monotonic()
    # Compiler temporaries and crash forensics (src/obs/events.hpp) stay in
    # the build tree, inside the checkout.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env["VPGA_FORENSICS_PATH"] = os.path.join(BUILD, "forensics.json")
    build(env)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    print(f"run.py: build checked in {time.monotonic() - t0:.1f} s", file=sys.stderr)
    try:
        code, out = run_group(cmd, DRIVER_TIMEOUT_S, stdout=subprocess.PIPE, env=env, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: driver exceeded {DRIVER_TIMEOUT_S:.0f} s")
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"run.py: driver exited with {code}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("run.py: driver result has the wrong keys")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    expected = {m["name"]: m["unit"] for m in declared}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != expected:
        sys.exit("run.py: driver metrics differ from BENCHMARK.json")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
