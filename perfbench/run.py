#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload evolve|merge|cluster|all --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/ at the checkout root: the first run
configures and compiles the library and mlcask_perfbench (about a minute on four
cores), later runs only confirm the build is current. Build output goes to
stderr, so for one lane the last line on stdout is the JSON result;
the binary replaces this process, so its exit code is the run's exit code.
`--workload all` runs every lane (evolve, merge, cluster) in turn, each in
its own benchmark process, and exits non-zero if any lane failed.
"""

import os
import subprocess
import sys

LANES = ("evolve", "merge", "cluster")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mlcask_perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    # The binary keeps its sockets and span dumps under .bench_build/,
    # relative to the checkout root.
    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    sys.stdout.flush()
    if args[at:at + 1] != ["all"]:
        os.execv(BINARY, [BINARY] + args)
    worst = 0
    for lane in LANES:
        lane_args = args[:at] + [lane] + args[at + 1:]
        worst = max(worst, subprocess.run([BINARY] + lane_args).returncode)
        sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
