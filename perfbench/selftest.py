"""Self-test of the benchmark on smoke-sized inputs.

    python3 perfbench/selftest.py

Runs every workload, the traced mode and a bare checkout without the
program, and plants wrong answers in the program's output to see the
harness count them as failures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest

import harness
import run

with open(harness.ROOT / "BENCHMARK.json") as _fh:
    BENCHMARK = json.load(_fh)


def smoke(workload: str, trace: bool = False, after_import=None) -> dict:
    result, _ = run.run(workload, seed=3, seconds=0.2, trace=trace, smoke=True,
                        after_import=after_import)
    return result


class Workloads(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                result = smoke(w["name"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), names)

    def test_traced_run_reports_every_layer_metric(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        result = smoke("grid", trace=True)
        self.assertEqual(set(result["metrics"]), names)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["assocorder.build.calls_per_field"], 2.0)
        self.assertGreater(metrics["assocorder.build.self_s"], 0)
        self.assertGreater(metrics["quadrep.certs.DEFINITE"] + metrics["quadrep.certs.INDEFINITE"], 0)

    def test_same_seed_same_inputs(self):
        for name, w in run.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(w.inputs(7, False), w.inputs(7, False))
                self.assertNotEqual(w.inputs(7, False), w.inputs(8, False))

    def test_bare_directory_fails_without_result(self):
        bare = harness.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", "grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def _patch_verdicts(mods, change):
    """Rebind cli's combined_verdict so its freeness report passes through
    ``change`` before scan or analyze render it."""
    orig = mods["cli"].combined_verdict

    def planted(k, *args):
        verdicts = orig(k, *args)
        return dataclasses.replace(verdicts, freeness=change(mods, verdicts.freeness))

    mods["cli"].combined_verdict = planted


def _corrupt_generator(mods, rep):
    if rep.generator is None:
        return rep
    c0, c1, c2 = rep.generator.coords
    return dataclasses.replace(rep, generator=mods["cubicfield"].OrderElement(c0 + 1, c1, c2))


def _flip_verdict(mods, rep):
    if rep.verdict == "NOT_FREE":
        return dataclasses.replace(rep, verdict="FREE")
    return dataclasses.replace(rep, verdict="NOT_FREE", generator=None)


class PlantedFaults(unittest.TestCase):
    def test_corrupted_generator_is_a_failure(self):
        result = smoke("grid", after_import=lambda m: _patch_verdicts(m, _corrupt_generator))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_wrong_verdict_is_a_failure(self):
        result = smoke("pell", after_import=lambda m: _patch_verdicts(m, _flip_verdict))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_maximality_is_a_failure(self):
        def plant(mods):
            orig = mods["integrality"].is_maximal
            flip = {"MAXIMAL": "NOT_MAXIMAL", "NOT_MAXIMAL": "MAXIMAL"}

            def planted(k, *args):
                rep = orig(k, *args)
                return dataclasses.replace(rep, status=flip.get(rep.status, rep.status))

            mods["integrality"].is_maximal = planted

        result = smoke("maximal", after_import=plant)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_crash_counts_as_failed_not_incorrect(self):
        def plant(mods):
            def crashing(argv):
                raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

            mods["cli"].main = crashing

        result = smoke("pell", after_import=plant)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
