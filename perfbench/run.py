#!/usr/bin/env python3
"""rtoffload end-to-end benchmark: build from source, run one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload fig3-mc --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake package that compiles the repository's libraries
in Release) into .bench_build/perfbench, then runs the harness for the
requested time. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (whose spans are also
written to .bench_build/perfbench/spans-<workload>-seed<seed>.json). The
line before it records provenance. Build output and failed checks go to
stderr. Without the source tree next to perfbench/ the build fails and the
script exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("fig3-mc", "casestudy", "fault-stack", "runtime-faults")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the incremental build check.
HARNESS_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def source_id():
    """git describe of the source tree, or a content hash outside git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if (top.returncode == 0 and
                os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT)):
            desc = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                capture_output=True, text=True, timeout=10)
            if desc.returncode == 0:
                return "git:" + desc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f)
                           for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    stamp = os.path.join(BUILD_DIR, ".configured")
    steps = []
    if not os.path.exists(stamp):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
        if step[1] == "-S":
            with open(stamp, "w", encoding="utf-8") as handle:
                handle.write(BUILD_TYPE + "\n")
    return os.path.join(BUILD_DIR, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    harness = build()
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--specs", os.path.join(BENCH_DIR, "specs"),
           "--digests", os.path.join(BENCH_DIR, "digests.json"),
           "--source", source_id()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("harness result has keys " + ", ".join(sorted(result)))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
