"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Every pass runs in its own process, as in the benchmark, because a traced
pass rebinds traitbench's functions for the rest of its process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, sample_indices  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "selftest"


def tiny_pass(workload: str, seed: int, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def traced_tiny_pass(workload: str, seed: int) -> dict:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return tiny_pass(workload, seed, "--spans", str(SCRATCH / f"spans-{workload}.json"))


class SeedsTest(unittest.TestCase):
    def test_same_seed_gives_identical_digests_and_counters(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced_tiny_pass(workload, 7), traced_tiny_pass(workload, 7)
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["counts"], second["counts"])
                self.assertEqual(first["digest"], tiny_pass(workload, 7)["digest"])

    def test_different_seeds_place_different_windows(self):
        for workload in ("blum-sweep", "trait-partition", "index-roundtrip"):
            with self.subTest(workload=workload):
                one, two = sample_indices(workload, 1, 500), sample_indices(workload, 2, 500)
                self.assertNotEqual(one, two)
                # Stratified: each seed still draws one index from every stratum.
                width = 10**7 // 500
                self.assertEqual([n // width for n in one], list(range(500)))
                self.assertEqual([n // width for n in two], list(range(500)))

    def test_different_seeds_give_different_reports(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(tiny_pass(workload, 1)["digest"], tiny_pass(workload, 2)["digest"])


class InvariantsTest(unittest.TestCase):
    def test_every_unit_verifies_on_several_seeds(self):
        for workload in WORKLOADS:
            for seed in (0, 1, 2):
                with self.subTest(workload=workload, seed=seed):
                    result = tiny_pass(workload, seed)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)

    def test_broken_time_measure_is_counted_as_failing(self):
        result = tiny_pass("blum-sweep", 1, "--broken-time-measure")
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])


class TracingTest(unittest.TestCase):
    def test_self_times_fit_inside_the_pass_and_counters_match_the_layers(self):
        expected_layers = {
            "blum-sweep": ("machine.run", "measures.evaluate", "measures.graph_decide", "enumeration.decode"),
            "trait-partition": ("machine.run", "traits.leaf", "transforms", "machine.validate"),
            "contain-trace": ("machine.trace", "containment.render_tape", "containment.check", "transforms"),
            "index-roundtrip": ("enumeration.decode", "enumeration.encode", "reporting.render"),
        }
        for workload, layers in expected_layers.items():
            with self.subTest(workload=workload):
                result = traced_tiny_pass(workload, 3)
                counts = result["counts"]
                for layer in layers:
                    self.assertGreater(counts[f"{layer}.calls"], 0, layer)
                self.assertTrue(all(value >= 0 for value in result["self_s"].values()))
                self.assertGreater(counts["report.bytes"], 0)
                runs = sum(counts[f"run.{kind}.runs"] for kind in ("halted_output", "halted_undefined", "fuel_exhausted"))
                self.assertEqual(runs, counts["machine.run.calls"])
                if workload == "index-roundtrip":
                    self.assertEqual(runs, 0)
                spans = json.loads((SCRATCH / f"spans-{workload}.json").read_text())["spans"]
                self.assertEqual(len(spans), sum(v for k, v in counts.items() if k.endswith(".calls")))
                for span_id, (_, start, end, parent, observe_s) in enumerate(spans):
                    self.assertLessEqual(start, end)
                    self.assertGreaterEqual(observe_s, 0)
                    if parent >= 0:
                        self.assertLess(parent, span_id)
                        self.assertLessEqual(spans[parent][1], start)
                        self.assertLessEqual(end, spans[parent][2])


class DriverTest(unittest.TestCase):
    def run_bench(self, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
             "--seconds", "0", "--trace", str(trace), "--tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=120,
        )

    def test_last_line_carries_exactly_the_declared_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = self.run_bench(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                    for metric in declared:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_fails_without_the_program_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = self.run_bench(bare, "index-roundtrip", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
