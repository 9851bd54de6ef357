#!/usr/bin/env python3
"""Build and run the Proxion benchmark.

Run from the root of a Proxion checkout:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds `perfbench/` (a CMake package that
compiles the repository's `src/` libraries) into `.bench_build/perfbench`;
later calls only re-check the build. The benchmark program then generates
its inputs from the seed, measures for the given time, checks the outputs,
and prints as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero when the
build fails, the checkout has no sources, or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep_cold", "sweep_rtt", "follow_serve")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (" + " ".join(cmd) + ")")


def git_state(root):
    """(rev, dirty) of the checkout, or 'unknown' outside a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown", "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return rev.stdout.strip(), "1" if status.stdout.strip() else "0"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no Proxion sources under " + root + "/src; run from the root "
             "of a checkout")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    if args.selftest:
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")],
            cwd=build_dir).returncode)

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    rev, dirty = git_state(root)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-rev", rev, "--git-dirty", dirty]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
