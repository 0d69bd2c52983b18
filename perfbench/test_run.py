#!/usr/bin/env python3
"""Short runs of every benchmark workload, checking the benchmark itself.

    python3 perfbench/test_run.py

Run from the repository root (it builds through run.py). For each workload,
an untraced and a traced run of two seconds must finish with no failed
operation, print every metric named in BENCHMARK.json with its unit and
sample count, and pass the virtual-clock check. The traced runs must also
show layer values that only a working tap or counter gives: positive
call-time segments, one server RPC per call, one gpusim copy byte per
payload byte, several calls per batch flush.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), None)
    return proc, report, json.loads(lines[-1]) if proc.returncode == 0 else None


class BenchmarkTest(unittest.TestCase):
    def check_named(self, printed, declared):
        for metric in declared:
            with self.subTest(metric=metric["name"]):
                self.assertIn(metric["name"], printed)
                entry = printed[metric["name"]]
                self.assertEqual(entry["unit"], metric["unit"])
                self.assertIsInstance(entry["samples"], int)
                self.assertIsInstance(entry["value"], (int, float))

    def check_workload(self, workload, trace):
        proc, report, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(report, "no report line")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

        self.check_named(report["end_to_end"], SPEC["end_to_end"])
        for metric in SPEC["end_to_end"]:
            self.assertGreater(report["end_to_end"][metric["name"]]["samples"],
                               0, metric["name"])
            self.assertGreater(report["end_to_end"][metric["name"]]["value"],
                               0, metric["name"])
        failed_ratio = report["info"]["failed_ratio"]
        self.assertEqual(failed_ratio["value"], 0)
        self.assertGreater(failed_ratio["samples"], 0)

        self.assertTrue(report["virtual_match"])
        self.assertTrue(report["virtual_clock"], "no virtual-clock samples")
        for op, stat in report["virtual_clock"].items():
            self.assertEqual(stat["mismatches"], 0, op)

        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        if trace:
            self.check_named(report["per_layer"], SPEC["per_layer"])
            self.assertEqual(set(report["trace_overhead"]),
                             {m["name"] for m in SPEC["end_to_end"]})
            self.check_layers(workload, report["per_layer"])

    def check_layers(self, workload, layers):
        """Values the layers must show, so a counter or tap that reads 0
        or a split that goes negative fails the test."""
        value = {name: entry["value"] for name, entry in layers.items()}
        if workload == "calls-hermit":
            # The call-time split: each segment is a real, positive span.
            for name in ("cricket.client.self_us", "vnet.send_us",
                         "cricket.server.busy_us", "rpc.server_send_us",
                         "handoff_us"):
                self.assertGreater(value[name], 0, name)
            self.assertAlmostEqual(value["cricket.server.rpcs_per_call"], 1,
                                   delta=0.01)
            self.assertGreaterEqual(value["vnet.frames_per_call"], 2)
        elif workload == "bulk-hermit":
            self.assertAlmostEqual(
                value["gpusim.copy_bytes_per_payload_byte"], 1, delta=0.01)
            self.assertAlmostEqual(value["cricket.server.rpcs_per_call"], 1,
                                   delta=0.01)
        else:
            self.assertGreater(value["rpcflow.calls_per_flush"], 1)
            self.assertGreater(value["rpc.server_replies_per_send"], 0)

    def test_workloads(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_workload(workload, trace)

    def test_unknown_workload_fails_without_result(self):
        proc, _, _ = run("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
