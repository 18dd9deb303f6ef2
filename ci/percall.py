#!/usr/bin/env python3
"""Per-call virtual-time diff of one perfbench workload between two checkouts.

    python3 ci/percall.py BASE HEAD --workload smp_tuned --seeds 1,2,3

BASE and HEAD are checkout roots (each holds src/ and perfbench/), e.g. a
`git archive` of the parent commit and the working tree. For each one the
script copies its perfbench/ into a work directory next to a symlink
`src -> <checkout>/src`, adds one print of op, block count and virtual time
per call of the first timed pass, builds the copy with CMake and runs the
workload once per seed. It then reports, per op, the virtual-time sums, how
many calls got faster or slower, and every slower call.

The checkouts are only read: nothing is written under their perfbench/.
Builds live under --work (default: a fresh temporary directory, removed at
the end); pass a directory that already holds them to rebuild only what
changed.
"""
import argparse
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

# The timed call of perfbench/src/main.cpp's end-to-end loop, and the print
# inserted after it (k < n: the first pass over the call list).
ANCHOR = 'const Outcome o = run_one(d, s, c, corrupt, nullptr, "timed");'
PRINT = ('if (k < n) std::printf("percall %ld %s %zu %lld\\n", k, '
         'srm::coll::coll_name(c.op), c.count, '
         'static_cast<long long>(o.cost.virt));')


def prepare(checkout: Path, dest: Path) -> Path:
    """Copy checkout's perfbench/ to dest with the per-call print added."""
    src = checkout / "src"
    if not (src / "CMakeLists.txt").is_file():
        sys.exit(f"percall: {checkout} has no simulator sources (src/)")
    bench = dest / "perfbench"
    if bench.exists():
        shutil.rmtree(bench)
    shutil.copytree(checkout / "perfbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    link = dest / "src"
    if link.is_symlink() or link.exists():
        link.unlink()
    link.symlink_to(src.resolve(), target_is_directory=True)
    main = bench / "src" / "main.cpp"
    text = main.read_text()
    if text.count(ANCHOR) != 1:
        sys.exit(f"percall: {main} does not hold the timed call exactly once")
    main.write_text(text.replace(ANCHOR, ANCHOR + "\n    " + PRINT))
    return bench


def build(bench: Path, jobs: int) -> Path:
    out = bench.parent / "build"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(bench), "-B", str(out)],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs),
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return out / "perfbench"


def run(exe: Path, workload: str, seed: str, out: Path):
    """[(op, count, virtual ns)] of the first timed pass, in call order."""
    res = subprocess.run(
        [str(exe), "--workload", workload, "--seed", seed, "--seconds",
         "0.001", "--trace", "0", "--out", str(out)],
        check=True, capture_output=True, text=True)
    calls = []
    for line in res.stdout.splitlines():
        f = line.split()
        if len(f) == 5 and f[0] == "percall":
            calls.append((f[2], int(f[3]), int(f[4])))
    if not calls:
        sys.exit(f"percall: {exe} printed no calls for seed {seed}")
    return calls


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("head", type=Path, help="checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--work", type=Path, help="build directory to reuse")
    ap.add_argument("--jobs", type=int, default=4)
    args = ap.parse_args()

    work = args.work or Path(tempfile.mkdtemp(prefix="percall-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        exes = {}
        for side, root in (("base", args.base), ("head", args.head)):
            dest = work / side
            dest.mkdir(exist_ok=True)
            exes[side] = build(prepare(root.resolve(), dest), args.jobs)
        sums = defaultdict(lambda: [0, 0, 0, 0, 0])  # base, head, n, -, +
        slower = []
        for seed in args.seeds.split(","):
            base = run(exes["base"], args.workload, seed, work / "out")
            head = run(exes["head"], args.workload, seed, work / "out")
            if [c[:2] for c in base] != [c[:2] for c in head]:
                sys.exit(f"percall: seed {seed}: the call lists differ")
            span = [0, 0]
            for k, ((op, count, a), (_, _, b)) in enumerate(zip(base, head)):
                s = sums[op]
                s[0] += a
                s[1] += b
                s[2] += 1
                span[0] += a
                span[1] += b
                if b < a:
                    s[3] += 1
                elif b > a:
                    s[4] += 1
                    slower.append((seed, k, op, count, a, b))
            print(f"seed {seed}: makespan {span[0] / 1e3:.1f} -> "
                  f"{span[1] / 1e3:.1f} us, {len(base)} calls")
        print(f"{'op':<16}{'calls':>7}{'base us':>13}{'head us':>13}"
              f"{'faster':>8}{'slower':>8}")
        for op in sorted(sums):
            a, b, n, fast, slow = sums[op]
            print(f"{op:<16}{n:>7}{a / 1e3:>13.1f}{b / 1e3:>13.1f}"
                  f"{fast:>8}{slow:>8}")
        for seed, k, op, count, a, b in slower:
            print(f"slower: seed {seed} call {k} {op} count {count}: "
                  f"{a / 1e3:.3f} -> {b / 1e3:.3f} us")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
