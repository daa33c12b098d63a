#!/usr/bin/env python3
"""Build the carbonx perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The binary and the carbonx libraries it
links are built into .bench_build/ (CMake, the repository's default
RelWithDebInfo flags); later runs rebuild only what changed. The last
line on stdout is the binary's JSON result; build output and
diagnostics go to stderr. Exits non-zero, without a result, when the
build or the run fails.

Extra flags, passed through to the binary:
    --reference FILE    reference answers to check against
                        (default perfbench/data/reference.json)
    --write-reference   regenerate the reference answers at --seed
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "carbonx_perfbench"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "carbonx_perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="sweep-cold")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference")
    p.add_argument("--write-reference", action="store_true")
    a = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = BUILD_ROOT / f"work-{a.workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--data", str(HERE), "--work", str(work)]
    if a.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{a.workload}-seed{a.seed}.json")]
    if a.reference:
        cmd += ["--reference", a.reference]
    if a.write_reference:
        cmd += ["--write-reference"]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
