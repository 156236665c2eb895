#!/usr/bin/env python3
"""Build and run the layered request benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds the program and the runner in
.bench_build/ (CMake, Release); later runs only re-check the build. The
runner's last stdout line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    root = os.path.dirname(HERE)
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "bisched_cli.cpp")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("program sources not found (missing %s); run from a full checkout" % needed)
    quiet = {"stdout": subprocess.DEVNULL}
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.call(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                        "perfbench_runner", "bisched_cli"], **quiet) != 0:
        fail("build failed")
    return (os.path.join(BUILD_DIR, "perfbench_runner"),
            os.path.join(BUILD_DIR, "bisched", "bisched_cli"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    runner, cli = build()
    sys.stdout.flush()
    # The runner replaces this process, so a signal sent to the benchmark
    # reaches the runner, which stops the programs it started.
    if args.selftest:
        os.execv(runner, [runner, "--selftest"])
    os.execv(runner, [runner, "--cli", cli, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--work-dir", BUILD_DIR])


if __name__ == "__main__":
    main()
