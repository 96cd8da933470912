#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which builds the DSspy libraries from src/) into
.bench_build/perfbench; later runs rebuild only what changed.  Build output
goes to stderr.  The benchmark's stdout ends with one JSON result line.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "dsspy_perfbench")
WORKLOADS = ("apps_live", "trace_offline", "parallel_exec", "adaptive_shared")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_build_step(args):
    try:
        done = subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(args))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(args))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DSspy sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(os.cpu_count() or 1)
    run_build_step(["cmake", "--build", BUILD, "--target", "dsspy_perfbench",
                    "-j", jobs])


def source_revision():
    """The git commit when there is one, else a digest of src/ and perfbench/."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--commit", source_revision()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("benchmark exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace == 1):
        fail("metrics do not match BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    if result["failed"]:
        print("perfbench: %d of %d jobs failed" % (result["failed"],
                                                  result["attempted"]),
              file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
