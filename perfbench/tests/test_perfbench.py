"""Self-test of perfbench: determinism, a second seed, failure accounting.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark through run.py like any run, then makes short runs
(--calls keeps the head of each call list) on the real and symbolic planes.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

VIRTUAL = ["virt_call_p50_us", "virt_call_tail_us", "virt_makespan_us"]
# Per-layer metrics measured on the host clock; everything else the traced
# run reports is a count or virtual time and must repeat exactly.
HOST_TIMED = ("setup_s", "first_op_s", "host_ns_per_event", "trace_overhead")


def bench(workload, seed, trace, calls, *extra):
    """Run one workload; return (fingerprint, result JSON)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--calls", str(calls), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    fp = next(l.split("fingerprint=")[1].split()[0] for l in lines if "fingerprint=" in l)
    return fp, json.loads(lines[-1])


def exact(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if not k.startswith("host.") and not any(h in k for h in HOST_TIMED)}


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_repeats_bit_for_bit(self):
        for workload, calls in (("sp_latency", 60), ("smp_tuned", 60), ("mega_symbolic", 4)):
            with self.subTest(workload=workload):
                fp1, e2e1 = bench(workload, 11, 0, calls)
                fp2, e2e2 = bench(workload, 11, 0, calls)
                self.assertEqual(fp1, fp2)
                for m in VIRTUAL:
                    self.assertEqual(e2e1["metrics"][m], e2e2["metrics"][m], m)
                _, layers1 = bench(workload, 11, 1, calls)
                _, layers2 = bench(workload, 11, 1, calls)
                self.assertEqual(exact(layers1["metrics"]), exact(layers2["metrics"]))
                self.assertEqual(layers1["failed"], 0)

    def test_second_seed_differs_and_passes(self):
        fp1, _ = bench("sp_latency", 11, 0, 60)
        fp2, res = bench("sp_latency", 12, 0, 60)
        self.assertNotEqual(fp1, fp2)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["metrics"]["calls_ok_frac"]["value"], 1)

    def test_corrupted_output_counts_as_failed(self):
        for workload, calls in (("smp_tuned", 20), ("mega_symbolic", 3)):
            with self.subTest(workload=workload):
                _, res = bench(workload, 11, 0, calls, "--corrupt-call", "1")
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["calls_ok_frac"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
