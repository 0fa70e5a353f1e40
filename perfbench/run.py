#!/usr/bin/env python3
"""Repository benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the benchmark from
source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, runs the benchmark's
own unit tests, then runs the workload. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a human-readable ledger and the host fingerprint.
Per-run result files and Chrome traces go to <build root>/perfbench-results.
Workloads and metrics are described in perfbench/DESIGN.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within 180 s; the child gets what is left after the build.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The git commit when the tree is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 1
    build_dir = os.path.join(build_root(), "perfbench")
    if not build(build_dir):
        return 1
    tests = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                           stdout=sys.stderr, stderr=sys.stderr)
    if tests.returncode != 0:
        log("perfbench: the benchmark's unit tests failed")
        return 1

    out_dir = os.path.join(build_root(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(HERE, "reference_digests.json")) as f:
        references = json.load(f)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", source_id()]
    if args.workload in references:
        cmd += ["--reference-digest", references[args.workload]]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
