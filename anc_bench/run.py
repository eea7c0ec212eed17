#!/usr/bin/env python3
"""Builds anc_bench from source and runs one workload.

    python3 anc_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (and the repository libraries it links) under .bench_build/;
later calls only rebuild what changed. The benchmark's standard output is
passed through, so its last line is the result object:
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics of a traced run instead of the end-to-end metrics.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "anc_bench"
# A run measures for --seconds plus a few seconds of set-up; a hung run
# fails after this long instead of blocking its caller.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("anc_bench: src/ not found; run from a full checkout")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "anc_bench",
                    "-j", jobs], stdout=log, stderr=log, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"anc_bench: build failed: {err}")

    cmd = [str(BUILD / "bin" / "anc_bench"),
           f"--workload={args.workload}",
           f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--scratch={ROOT / '.bench_build' / 'tmp'}"]
    if args.trace:
        cmd.append("--layers")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"anc_bench: no result within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"anc_bench: exited with status {done.returncode}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
