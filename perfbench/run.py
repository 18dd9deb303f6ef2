#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload sp_latency --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is compiled from this
checkout's sources into .bench_build/perfbench (the first run builds, later
runs only rebuild what changed); --trace 1 artifacts go to .bench_build/out.
The last line of standard output is the result JSON; build logs go to
standard error. Any further arguments (--calls, --corrupt-call) are passed
to the benchmark binary unchanged.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"


def run(cmd, **kw):
    """Run cmd to completion; never leave it behind if we are stopped."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: this checkout has no simulator sources (src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
        for cmd in steps:
            if run(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    exe = build()
    OUT.mkdir(parents=True, exist_ok=True)
    rc = run([str(exe), "--workload", args.workload, "--seed", args.seed,
              "--seconds", args.seconds, "--trace", args.trace,
              "--out", str(OUT), *extra])
    sys.exit(0 if rc == 0 else 1)


if __name__ == "__main__":
    main()
