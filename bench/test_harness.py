"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from looptop import linalg  # noqa: E402


def bench_cli(*args, script=BENCH / "run.py", cwd=ROOT):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def recorded():
    with open(BENCH / "expected.json") as fh:
        return json.load(fh)["smoke"]


def smoke(name, expected=None, seed=1):
    expected = recorded() if expected is None else expected
    with speed.Sampler() as sampler:
        return workloads.run_workload(name, seed, True, expected, sampler,
                                      sampler.mark(), 0.0)


class MetricOutput(unittest.TestCase):

    def spec(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)

    def test_metric_tables_match_benchmark_json(self):
        spec = self.spec()
        for table, rows in ((metrics.END_TO_END, spec["end_to_end"]),
                            (metrics.LAYER_METRICS, spec["per_layer"])):
            self.assertEqual([(r["name"], r["unit"], r["better"])
                              for r in rows], list(table))

    def test_workload_names_match_benchmark_json(self):
        names = [w["name"] for w in self.spec()["workloads"]]
        self.assertEqual(list(run.WORKLOADS), names)
        self.assertEqual(list(workloads.WORKLOADS), names)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        proc = bench_cli("--workload", "slice", "--seed", "3",
                         "--seconds", "0", "--trace", "0", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in self.spec()["end_to_end"]})
        self.assertTrue(all(m["value"] > 0
                            for m in result["metrics"].values()))
        self.assertIn("# metric fail_frac 0 ratio", lines)

    def test_traced_run_prints_every_per_layer_metric(self):
        proc = bench_cli("--workload", "bracket", "--seed", "4",
                         "--seconds", "0", "--trace", "1", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # correct also says the exact counts agreed across the traced
        # children, which ran under different hash seeds
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in self.spec()["per_layer"]})

    def test_missing_program_exits_nonzero_without_result(self):
        bare = BENCH / ".out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench_cli("--workload", "ring", "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             script=bare / "bench" / "run.py", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{")
                             for line in proc.stdout.splitlines()))


class Checks(unittest.TestCase):

    def test_smoke_workloads_pass_every_check(self):
        for name in workloads.WORKLOADS:
            result = smoke(name)
            self.assertEqual(result["failed"], 0, result["failures"])
            self.assertGreater(result["attempted"], len(result["latencies_s"]))

    def test_digest_mismatch_fails_the_run(self):
        expected = recorded()
        expected["slice"]["digest"] = "0" * 64
        result = smoke("slice", expected)
        self.assertEqual(result["failed"], 1)
        self.assertIn("digest", result["failures"][0])

    def test_size_mismatch_fails_the_run(self):
        expected = recorded()
        expected["slice"]["sizes"]["betti"] += 1
        result = smoke("slice", expected)
        self.assertEqual(result["failed"], 1)
        self.assertIn("['betti']", result["failures"][0])

    def test_wrong_answer_counts_in_fail_frac(self):
        express = linalg.SubquotientBasis.express
        calls = []

        def one_wrong(sub, vec):
            out = express(sub, vec)
            calls.append(1)
            if len(calls) == 5 and out is not None:
                out = dict(out)
                out[0] = out.get(0, 0) + 1
            return out

        linalg.SubquotientBasis.express = one_wrong
        try:
            result = smoke("slice")
        finally:
            linalg.SubquotientBasis.express = express
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 300 + 6)
        self.assertIn("query", result["failures"][0])

    def test_a_crashing_query_is_a_failure(self):
        with speed.Sampler() as sampler:
            run_ = workloads.Run("slice", 1, True, recorded(), sampler)
            run_.queries([(1, 1), (2, 2), (3, 3)],
                         lambda x: x if x != 2 else 1 / 0)
        self.assertEqual((run_.check.failed, run_.check.attempted), (1, 3))
        self.assertEqual(len(run_.latencies), 3)

    def test_digest_ignores_dict_order_and_whole_fractions(self):
        a = {(1, 2): Fraction(4, 2), "x": [Fraction(1, 3)]}
        b = {"x": [Fraction(1, 3)], (1, 2): 2}
        self.assertEqual(workloads.digest(a), workloads.digest(b))
        self.assertNotEqual(workloads.digest(a), workloads.digest({"x": []}))


class Tracing(unittest.TestCase):

    def traced_smoke(self, name, seed=1):
        tracer = tracing.Tracer("test").install()
        try:
            result = smoke(name, seed=seed)
        finally:
            tracer.restore()
        layers, calls = tracer.metrics()
        return result, layers, calls

    def test_exact_counts_repeat_across_runs_and_seeds(self):
        first = self.traced_smoke("bracket", seed=1)[1]
        second = self.traced_smoke("bracket", seed=2)[1]
        self.assertEqual({k: first[k] for k in metrics.EXACT},
                         {k: second[k] for k in metrics.EXACT})

    def test_every_workload_exercises_its_layers(self):
        for name in workloads.WORKLOADS:
            result, layers, calls = self.traced_smoke(name)
            self.assertEqual(result["failed"], 0, result["failures"])
            self.assertEqual(tracing.unexercised(name, calls), [])
            self.assertEqual(set(layers) | {"trace.overhead_frac"},
                             {m[0] for m in metrics.LAYER_METRICS})

    def test_self_check_names_a_layer_with_zero_calls(self):
        calls = {name: 1 for name in tracing.EXERCISED["slice"]}
        del calls["lattice.compare_pi1_dimensions"]
        self.assertEqual(tracing.unexercised("slice", calls),
                         ["lattice.compare_pi1_dimensions"])

    def test_restore_puts_the_program_back(self):
        before = [getattr(owner, attr) for owner, attr, _ in tracing.SITES]
        tracing.Tracer("test").install().restore()
        self.assertEqual(before, [getattr(owner, attr)
                                  for owner, attr, _ in tracing.SITES])


class Aggregation(unittest.TestCase):

    def test_quantile_is_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(run.quantile(values, 0.5), 5)
        self.assertEqual(run.quantile(values, 0.9), 9)
        self.assertEqual(run.quantile([7.0], 0.9), 7.0)

    def test_a_span_counts_at_the_speed_sampled_in_it(self):
        sampler = speed.Sampler()
        ref = speed.REFERENCE_MS
        for t, ms in ((0, ref), (1, 2 * ref), (2, 2 * ref), (3, 2 * ref),
                      (10, ref / 4)):
            sampler.record(t, ms)
        # three samples at half speed: 2 s of wall time is 1 s
        self.assertAlmostEqual(sampler.scale(0.5, 3.5, 2.0), 1.0)
        # one sample inside: it borrows the two nearest before it
        self.assertAlmostEqual(sampler.scale(9.9, 10.1, 1.0),
                               (0.5 + 0.5 + 4) / 3)


if __name__ == "__main__":
    unittest.main()
