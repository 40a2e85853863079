#!/usr/bin/env python3
"""The benchmark's own test.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

It builds the benchmark through run.py and asserts that
  * sim-crash-rejoin's counts and virtual-time (_delta) metrics repeat
    exactly for a fixed seed, in two separate runs;
  * a second seed still passes the atomicity checker (correct: true);
  * socket-rw's traced split (submit + admit + round + complete) covers
    its traced mean op latency within 10%, and two-bit frames carry at
    most 2 control bits.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# Metrics of sim-crash-rejoin that depend only on the seed.
DETERMINISTIC = (
    "write_p50_delta", "write_p99_delta", "read_p50_delta", "read_p99_delta",
    "recovery_delta", "client.refused_frac", "client.pool_slots",
    "sim.events_per_op", "sim.work_units_per_event",
    "protocol.write_frames_per_op", "protocol.read_frames_per_op",
    "protocol.local_memory_peak_bytes", "codec.control_bits_max",
    "history.retained_bytes_peak", "history.catchup_frames_per_rejoin",
)


def bench(workload, seed, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    def test_sim_crash_rejoin_repeats_for_a_seed(self):
        first, a = bench("sim-crash-rejoin", 5, 1)
        second, b = bench("sim-crash-rejoin", 5, 1)
        self.assertTrue(first["correct"] and second["correct"])
        for name in DETERMINISTIC:
            self.assertEqual(a[name], b[name], name)
        self.assertGreater(a["recovery_delta"], 0)
        self.assertGreater(a["history.catchup_frames_per_rejoin"], 0)

    def test_another_seed_passes_the_checker(self):
        result, m = bench("sim-crash-rejoin", 6, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(m["ops_per_s"], 0)

    def test_socket_split_covers_op_latency(self):
        result, m = bench("socket-rw", 7, 1, seconds=2)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(m["codec.control_bits_max"], 2)
        self.assertAlmostEqual(m["trace.split_coverage"], 1.0, delta=0.1)
        self.assertGreater(m["transport.hop_ns"], 0)


if __name__ == "__main__":
    unittest.main()
