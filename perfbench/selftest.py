#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at the ``TINY`` sizes, with and without tracing,
and checks the benchmark's own guarantees: every metric of
BENCHMARK.json is printed with its unit, a wrong output is counted as a
failed operation, a wrapped name that no longer exists does not break
the traced run, a directory without the program makes it exit non-zero
without a result, and a call that waits on pool workers gets speed
samples taken while it waits.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import speed
from tracer import SPANS, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: str, trace: bool, **kwargs) -> dict:
    return run.bench(workload, seed=3, seconds=0, trace=trace, sizes=run.TINY, probes=1,
                     **kwargs)["result"]


class SelfTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = {metric["name"]: metric["unit"] for metric in SPEC[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIn(type(metric["value"]), (int, float), name)

    def test_tampered_golden_counts_as_failure(self):
        goldens = copy.deepcopy(run.load_goldens())
        goldens["ops"]["verify-20"]["stdout"] = "0" * 64
        p, k = run.sample_pairs(3, goldens, run.TINY)[0]
        goldens["pairs"][f"{p},{k}"]["svg"] = "0" * 64
        result = tiny("curves", False, goldens=goldens)
        tampered = sum(op.golden in ("verify-20", f"{p},{k}") and op.kind in ("verify", "curve")
                       for op in run.plan("curves", 3, run.ROOT, goldens, run.TINY))
        # the warm-up and the one timed pass run the same tiny plan
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2 * tampered)
        self.assertAlmostEqual(result["metrics"]["ok_ratio"]["value"],
                               1 - 2 * tampered / result["attempted"])

    def test_missing_wrapped_attribute_is_reported_absent(self):
        renamed = ("alexander.generate", "lenspoly.sweep", "no_such_generator", None)
        tracer = Tracer(SPANS + (renamed,))
        result = tiny("sweep-resume", True, tracer=tracer)
        self.assertTrue(result["correct"])
        self.assertEqual(tracer.absent, ["lenspoly.sweep.no_such_generator"])
        self.assertEqual(result["metrics"]["trace.absent_spans"]["value"], 1)
        self.assertGreater(result["metrics"]["alexander.generate.calls"]["value"], 0)

    def test_speed_is_sampled_during_a_waiting_call(self):
        with speed.Speedometer.during() as during:
            time.sleep(12 * speed.PERIOD_S)
        self.assertGreaterEqual(len(during), run.MIN_DURING)
        meter = speed.Speedometer()
        at = meter.sample(3)
        meter.sample(3)
        for scale in (meter.scale(at, 1), meter.scale(at, 3), meter.mean_scale(during)):
            self.assertTrue(0.1 < scale < 10, scale)

    def test_directory_without_the_program_exits_nonzero(self):
        bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=run.ROOT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(run.ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(SPEC["command"] + ["--workload", run.WORKLOADS[0], "--seed", "1",
                                                     "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
