#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload protein-pio-32 --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark binary) in Release mode into .bench_build/; later
runs rebuild incrementally. The binary's output is passed through, and its
last line -- one JSON object with correct/attempted/failed/metrics -- is
checked against BENCHMARK.json before it is printed: the metric names and
units must be exactly the end_to_end set (--trace 0) or the per_layer set
(--trace 1). Any mismatch, build failure or crash exits non-zero without a
result line.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
# What the build reads: the source digest in each result covers these.
SOURCES = ("src", "bench", "perfbench/CMakeLists.txt", "perfbench/perfbench.cpp")
BINARY_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def source_digest():
    files = []
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, _, filenames in os.walk(path):
            files.extend(os.path.join(dirpath, n) for n in filenames)
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    # The compiler's temporary files stay inside the tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialize concurrent builds of one tree.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            # Build logs go to stderr so stdout stays the benchmark's.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=850).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def check_result(line, expected):
    """Returns the reason the result line breaks the contract, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            return f"{key} is not a whole number"
    if res["attempted"] < 1:
        return "no job attempted"
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            return f"metric {name} needs exactly value and unit"
        if m["unit"] != expected[name]:
            return f"metric {name} has unit {m['unit']}, BENCHMARK.json says {expected[name]}"
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"metric {name} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "bench/workloads.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a complete source tree")
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}

    binary = build()
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {BINARY_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark binary exited with {proc.returncode}")
    body, last = lines[:-1], lines[-1]
    problem = check_result(last, expected)
    if problem:
        sys.stderr.write(proc.stdout)
        fail(problem)
    if body:
        print("\n".join(body))
    print(last)


if __name__ == "__main__":
    main()
