"""Self-test of the benchmark at a tiny size (N=30, a few sequences).

    python3 perfbench/selftest.py

For every workload it checks that the untraced run emits every end-to-end
metric and the traced run every per-layer metric, each with a unit; that
the traced and untraced runs write the same outputs and pass their output
checks; and that an injected failing command raises ``ops_failed_ratio``.
Kept out of the repository's pytest collection on purpose: it checks the
benchmark, not the program.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 5


def _outputs(result: dict) -> dict:
    """What the measured commands printed, with wall times masked."""
    return {phase: re.sub(r"\b\d+\.\d+s\b", "<seconds>", cmd.stdout) for phase, cmd in result["last"].items()}


class BenchmarkSelfTest(unittest.TestCase):
    def run_tiny(self, workload, trace, inject=None):
        return run.run_workload(workload, SEED, 0, trace, scale=run.TINY, inject=inject)

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = self.run_tiny(workload, trace=False)
                traced = self.run_tiny(workload, trace=True)
                for result, units in ((plain, run.END_TO_END_UNITS), (traced, tracing.PER_LAYER_UNITS)):
                    self.assertTrue(result["correct"], result["check_failures"])
                    expected = set(units)
                    if workload == "regression-sweep":  # no evaluate command
                        expected.discard("eval_s")
                    self.assertEqual(set(result["metrics"]), expected)
                    for name, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], units[name])
                        self.assertIsInstance(entry["value"], (int, float))
                self.assertEqual(_outputs(plain), _outputs(traced))
                self.assertEqual((plain["attempted"], plain["failed"]), (traced["attempted"], traced["failed"]))

    def test_sweep_counts_lasso_failure(self):
        result = self.run_tiny("regression-sweep", trace=True)
        per_repetition = result["attempted"] // result["iterations"]
        self.assertEqual(per_repetition, 3)
        self.assertEqual(result["failed"], result["iterations"])
        self.assertEqual(result["metrics"]["readout.solve_failed"]["value"], 1)
        self.assertAlmostEqual(result["metrics"]["ops_failed_ratio"]["value"], 1 / 3)

    def test_injected_failure_counts(self):
        missing = ["evaluate", "missing.esn", "test.esd"]
        for trace in (False, True):
            base = self.run_tiny("train", trace=trace)
            hurt = self.run_tiny("train", trace=trace, inject=missing)
            self.assertEqual(base["failed"], 0)
            self.assertEqual(hurt["failed"], hurt["iterations"])
            self.assertGreater(hurt["failed"] / hurt["attempted"], base["failed"] / base["attempted"])
            if trace:
                self.assertGreater(hurt["metrics"]["ops_failed_ratio"]["value"], 0.0)

    def test_missing_sources_fail_without_result(self):
        original = run.SRC
        run.SRC = HERE / "no-such-src"
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "train", "--seed", "1", "--seconds", "1"])
        finally:
            run.SRC = original
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
