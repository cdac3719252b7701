#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload water89k-threads --seed 42 \
        --seconds 20 --trace 0

The first call configures and builds the scalemd library plus the benchmark
binary into .bench_build/ (a minute or two); later calls only re-check the
build. Build output goes to standard error; the binary's standard output is
passed through unchanged, so its last line is the JSON result. A traced run
(--trace 1) also writes its spans to .bench_build/spans/.

SCALEMD_* environment variables are removed before building and running:
the library reads them, and they would silently change a workload.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "scalemd_perfbench"
WORKLOADS = ("water89k-threads", "ions-pme-process", "paper-des")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCALEMD_")}
    dropped = sorted(set(os.environ) - set(env))
    if dropped:
        print("perfbench: ignoring " + ", ".join(dropped), file=sys.stderr)
    # Keep compiler temporaries inside the build tree.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; False on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def build(env):
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with open(ROOT / ".bench_build" / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not BINARY.exists():
            if not run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env):
                return False
        return run_quiet(["cmake", "--build", str(BUILD), "--target",
                          "scalemd_perfbench", "-j", "4"], env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="generator seed (default: per workload)")
    ap.add_argument("--vel-seed", type=int, help="water89k-threads velocity seed (default 7)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = clean_env()
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.vel_seed is not None:
        cmd += ["--vel-seed", str(args.vel_seed)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        cmd += ["--spans", str(spans / f"{args.workload}-seed{seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
