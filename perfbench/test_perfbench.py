#!/usr/bin/env python3
"""Tests of the benchmark itself, at reduced size. Run from the checkout root:

    python3 perfbench/test_perfbench.py

The unit tests need nothing built. The reduced end-to-end tests build the
program the way run.py does, then run markov_grid and serve_mixed for about
a second of measurement each, once untraced and once traced."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import batch  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from common import median, tail  # noqa: E402


class Generators(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for seed in (0, 1, 7):
            self.assertEqual(gen.markov_grid_study(seed), gen.markov_grid_study(seed))
            self.assertEqual(gen.serve_plan(seed, 3.0), gen.serve_plan(seed, 3.0))

    def test_seeds_change_values_not_amount_of_work(self):
        a, b = gen.markov_grid_study(1), gen.markov_grid_study(2)
        self.assertNotEqual(a, b)
        keys = [re.sub(r"=.*", "", line) for line in a.splitlines()]
        self.assertEqual(keys, [re.sub(r"=.*", "", line) for line in b.splitlines()])
        pa, pb = gen.serve_plan(1, 3.0), gen.serve_plan(2, 3.0)
        self.assertNotEqual(pa["novel"], pb["novel"])
        self.assertEqual([p["rate"] for p in pa["phases"]],
                         [p["rate"] for p in pb["phases"]])

    def test_artefact_workloads_run_the_registered_artefact_for_any_seed(self):
        for workload in (batch.PaperArtefact, batch.OrchestrateArtefact):
            sources = {tuple(workload({"ethsm": "ethsm"}, ROOT, seed).source_args())
                       for seed in (0, 1, 99)}
            self.assertEqual(sources, {("--all",)})

    def test_serve_plan_has_misses_duplicates_and_more_specs_than_cache(self):
        plan = gen.serve_plan(3, 4.0)
        kinds = {kind for p in plan["phases"] for _, kind, _ in p["requests"]}
        self.assertEqual(kinds, {"hit", "miss", "dup"})
        self.assertLess(plan["cache_entries"], len(plan["hot"]) + len(plan["novel"]))
        for phase in plan["phases"]:
            dues = [due for due, _, _ in phase["requests"]]
            self.assertEqual(dues, sorted(dues))
        # Open loop at the reference rate, then closed loop: all due at once.
        self.assertEqual(plan["phases"][0]["rate"], gen.REFERENCE_RPS)
        self.assertIsNone(plan["phases"][1]["rate"])
        self.assertLess(max(d for d, _, _ in plan["phases"][1]["requests"]), 0.01)


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond_it(self):
        sample = tail([float(v) for v in range(1, 101)], "ms")
        self.assertEqual(sample.value, 90.0)
        self.assertEqual(sample.pct, "p90.0")
        self.assertEqual(sample.n, 100)

    def test_tail_of_a_small_sample_is_its_maximum(self):
        sample = tail([3.0, 1.0, 2.0], "s")
        self.assertEqual(sample.value, 3.0)
        self.assertIn("max", sample.pct)

    def test_median_counts_samples(self):
        sample = median([4.0, 1.0, 3.0, 2.0], "s")
        self.assertEqual((sample.value, sample.n, sample.unit), (2.5, 4, "s"))


class LayerAttribution(unittest.TestCase):
    def span(self, name, ts, dur, tid=1):
        return {"name": name, "ts": ts, "dur": dur, "tid": tid, "ph": "X"}

    def test_uncovered_time_skips_overlaps_and_other_threads(self):
        outer = self.span("study.cell x", 0, 100)
        inner = [self.span("pool.region", 10, 10), self.span("pool.region", 15, 15),
                 self.span("pool.region", 0, 100, tid=2)]
        self.assertAlmostEqual(layers.uncovered_seconds(outer, inner), 80e-6)

    def test_time_outside_cells_is_reported_as_a_remainder(self):
        events = [self.span("study.cell fig8", 0, 2_000_000),
                  self.span("pool.region", 0, 1_500_000),
                  self.span("study.cell net_faults", 2_000_000, 5_000_000),
                  self.span("net.run", 2_000_000, 4_000_000, tid=3)]
        out = layers.cell_layers(events, wall=7.5)
        self.assertAlmostEqual(out["remainder.outside_cells_s"], 0.5)
        self.assertAlmostEqual(out["analysis.serial_s"], 5.5)
        self.assertAlmostEqual(out["net.run_s"], 4.0)
        self.assertAlmostEqual(out["api.tail_cell_s"], 5.0)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_code_emits(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for units in (run.BATCH_UNITS, run.SERVE_UNITS):
            gated = {k: u for k, u in units.items() if k not in run.UNGATED}
            self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                             gated)
        self.assertEqual([m["name"] for m in spec["per_layer"]], layers.PER_LAYER)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], layers.unit_of(m["name"]))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_results_from_different_environments_are_refused(self):
        work = ROOT / ".bench_work" / "test-compare"
        work.mkdir(parents=True, exist_ok=True)
        try:
            stamp = {"nproc": 4, "compiler": "g++ 12", "build_type": "Release",
                     "ETHSM_METRICS": "ON", "ETHSM_THREADS": "unset",
                     "revision": "a", "source_digest": "x"}
            result = {"workload": "markov_grid",
                      "e2e": {"wall_s": {"value": 1.0, "unit": "s"}}}
            a, b, c = (work / "a.json", work / "b.json", work / "c.json")
            a.write_text(json.dumps({"stamp": stamp, "results": [result]}))
            b.write_text(json.dumps({"stamp": dict(stamp, nproc=1),
                                     "results": [result]}))
            c.write_text(json.dumps({"stamp": dict(stamp, revision="b"),
                                     "results": [result]}))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(run.compare(a, b, ROOT), 3)
            self.assertIn("REFUSED", out.getvalue())
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare(a, c, ROOT), 0)
        finally:
            shutil.rmtree(work)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class ReducedRuns(unittest.TestCase):
    def check_e2e(self, workload: str, seconds: str):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", seconds,
                     "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = run.SERVE_UNITS if workload == "serve_mixed" else run.BATCH_UNITS
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {k: u for k, u in units.items() if k not in run.UNGATED})
        for name, unit in units.items():
            pattern = rf"\] {re.escape(name)} = \S+ {re.escape(unit)} \(n=\d+"
            self.assertTrue(any(re.search(pattern, line) for line in lines), name)
        self.assertTrue(any("stamp" in line and "nproc" in line for line in lines))

    def test_markov_grid(self):
        self.check_e2e("markov_grid", "0")

    def test_serve_mixed(self):
        self.check_e2e("serve_mixed", "2")

    def test_traced_markov_grid_attributes_its_layers(self):
        proc = bench("--workload", "markov_grid", "--seed", "6", "--seconds", "0",
                     "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        self.assertEqual(list(metrics), layers.PER_LAYER)
        value = {k: v["value"] for k, v in metrics.items()}
        self.assertEqual(value["net.run_s"], 0.0)
        self.assertGreater(value["markov.solves"], 0)
        self.assertGreater(value["markov.solve_s"] + value["analysis.kernel_s"], 0)
        self.assertGreaterEqual(value["remainder.outside_cells_s"], 0.0)
        for line in proc.stdout.splitlines()[:-1]:
            if " layer " in line:
                self.assertRegex(line, r" = \S+ \S+ \(n=\d+\)$")

    def test_without_program_sources_it_exits_nonzero_without_a_result(self):
        bare = ROOT / ".bench_work" / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "markov_grid", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
