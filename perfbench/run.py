#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload count-mem --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It configures and builds
perfbench/ (which builds the library from ../src) in a Release build under
$CARGO_TARGET_DIR (default .bench_build), then runs ngram_perfbench. Its
standard output is passed through; its last line is the result JSON. Build
output goes to standard error. Extra arguments (e.g. --smoke) are passed to
ngram_perfbench. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_timeout(seconds):
    """Seconds a run may take: its measurement plus set-up and warm-up."""
    return 2 * seconds + 100


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "ngram_perfbench", "--parallel", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ngram_perfbench")


def commit():
    if shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(build_dir, "out"),
               "--commit", commit()] + extra
    sys.stdout.flush()
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=run_timeout(args.seconds))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
