#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tune_cub --seed 1 --seconds 25 --trace 0

Workloads: tune_cub, serve_dense, serve_ivf. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones. The last line of
standard output is the run's JSON result; build output and progress go to
standard error. The program runs on one thread (`CEM_THREADS=1`), with
obs off (`CEM_OBS` unset) and with a fresh, empty temporary directory
inside the build directory, which is removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tune_cub", "serve_dense", "serve_ivf")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    return args


def main():
    args = parse_args()
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    scratch = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    child_env = {k: v for k, v in env.items() if k not in ("CEM_OBS", "CEM_LOG")}
    child_env.update(CEM_THREADS="1", TMPDIR=scratch)
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=scratch, env=child_env,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
