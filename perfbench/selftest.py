"""Self-tests for the benchmark harness: output checks, span arithmetic and
wrapper installation, and the input generator's fixed properties.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import LAMBDAS, Workload, _grid  # noqa: E402

TINY = Workload(
    name="tiny",
    bootstrap_n=2,
    sweeps=_grid(("fairpot", "unadjusted"), ("global",)),
    merges=("global",),
)


def _write(path: Path, rows) -> None:
    lines = [",".join(checks.RESULTS_HEADER)] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


class OutputCheckTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.out = Path(self._tmp.name)
        self.fairpot = [
            ["fairpot", format(lam, ".10g"), 1, rep, 0.8 - 0.1 * lam, 0.3 - 0.2 * lam, "true"]
            for lam in LAMBDAS
            for rep in range(2)
        ]
        self.unadjusted = [["unadjusted", 0, 1, rep, 0.8, 0.3, "false"] for rep in range(2)]
        self._write_all()

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def _write_all(self) -> None:
        _write(self.out / "sweep_fairpot_global_results.csv", self.fairpot)
        _write(self.out / "sweep_unadjusted_global_results.csv", self.unadjusted)
        _write(self.out / "frontier_global.csv", [self.fairpot[0]])
        for sw in TINY.sweeps:
            (self.out / f"{sw.prefix}_summary.csv").write_text("summary\n")

    def test_good_pass_has_no_problems(self):
        self.assertEqual(checks.check_pass(TINY, self.out), [])

    def test_rejects_value_outside_unit_interval(self):
        self.fairpot[3][4] = 1.5
        self._write_all()
        self.assertTrue(any("not finite in [0, 1]" in p for p in checks.check_pass(TINY, self.out)))

    def test_rejects_missing_and_duplicate_rows(self):
        self.fairpot[1] = list(self.fairpot[0])
        self._write_all()
        problems = checks.check_pass(TINY, self.out)
        self.assertTrue(any("duplicate key" in p for p in problems))
        self.assertTrue(any("keys differ" in p for p in problems))

    def test_rejects_nan_replicate(self):
        self.unadjusted[1][4] = "nan"
        self._write_all()
        self.assertNotEqual(checks.check_pass(TINY, self.out), [])
        path = self.out / "sweep_unadjusted_global_results.csv"
        self.assertEqual(checks.count_failed_replicates(path), 1)

    def test_rejects_broken_lambda_zero_identity(self):
        self.fairpot[1][4] = 0.8000000001  # lambda 0, replicate 1
        self._write_all()
        problems = checks.check_pass(TINY, self.out)
        self.assertTrue(any("lambda=0 replicate 1" in p for p in problems), problems)

    def test_rejects_disparity_not_reduced(self):
        for row in self.fairpot:
            if float(row[1]) == 1.0:
                row[5] = 0.5
        self._write_all()
        self.assertTrue(any("not below" in p for p in checks.check_pass(TINY, self.out)))

    def test_disparity_reduction_is_checked_in_global_mode_only(self):
        partial = Workload(name="tiny-partial", bootstrap_n=2,
                           sweeps=_grid(("fairpot", "unadjusted"), ("partial",)), merges=())
        for row in self.fairpot:
            if float(row[1]) == 1.0:
                row[5] = 0.5
        for method, rows in (("fairpot", self.fairpot), ("unadjusted", self.unadjusted)):
            _write(self.out / f"sweep_{method}_partial_results.csv", rows)
            (self.out / f"sweep_{method}_partial_summary.csv").write_text("summary\n")
        self.assertEqual(checks.check_pass(partial, self.out), [])

    def test_digests_see_any_byte_change(self):
        before = checks.digests(TINY, self.out)
        self.fairpot[5][4] = 0.7000000001
        self._write_all()
        after = checks.digests(TINY, self.out)
        self.assertNotEqual(before["sweep_fairpot_global_results.csv"], after["sweep_fairpot_global_results.csv"])
        self.assertEqual(before["frontier_global.csv"], after["frontier_global.csv"])


def _span(name, start, end, parent=None, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t", **extra}


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        spans = [
            _span("cli.main", 0.0, 10.0),
            _span("transport.sweep", 1.0, 4.0, 0),
            _span("metrics.auc", 5.0, 9.0, 0),
            _span("metrics.xauc_disparity", 6.0, 7.0, 2),
            _span("ot.solve_ot_1d", 1.5, 2.0, 1),
            _span("ot.solve_ot_1d", 2.5, 3.0, 1),
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 3.0, 1.0, 0.5, 0.5])

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [_span("cli.main", 0.0, 10.0), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 6.0, 0)]
        self.assertEqual(tracer.self_times(spans)[0], 5.0)

    def test_layer_metrics_calls_counts_and_ratios(self):
        spans = [_span("cli.main", 0.0, 10.0)]
        for i in range(3):
            spans.append(_span("transport.fit_transport", i, i + 0.5, 0, key="same-train"))
            spans.append(_span("ot.solve_ot_1d", i + 0.1, i + 0.2, len(spans) - 1, count=7))
        spans.append(_span("ot.barycentric_projection", 8.0, 9.0, 0, count=4))
        m = tracer.layer_metrics(spans)
        self.assertEqual(m["ot.solve_ot_1d.calls"], 3)
        self.assertEqual(m["ot.solve_ot_1d.plan_triples"], 21)
        self.assertEqual(m["ot.barycentric_projection.rows"], 4)
        self.assertEqual(m["transport.fits_per_train_set"], 3.0)
        self.assertAlmostEqual(m["ot.projections_per_fit"], 1 / 3)
        self.assertEqual(m["baselines.post_logit_fits_per_train_set"], 0.0)
        self.assertAlmostEqual(m["cli.s"], 10.0 - 1.5 - 1.0)
        self.assertEqual(m["datagen.generate_synthetic.calls"], 0)

    def test_per_layer_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(declared, tracer.per_layer_metrics())
        self.assertEqual(set(tracer.layer_metrics([])) | set(tracer.TRACE_METRICS),
                         {name for name, _ in declared})


class WrapperTest(unittest.TestCase):
    def test_aliases_wrapped_absent_reported_and_restored(self):
        ot = types.ModuleType("fake.ot")

        def solve_ot_1d(source, target):
            return types.SimpleNamespace(masses=[1.0] * (source + target - 1))

        ot.solve_ot_1d = solve_ot_1d
        transport = types.ModuleType("fake.transport")
        transport.solve_ot_1d = ot.solve_ot_1d  # a `from .ot import solve_ot_1d` copy
        transport.fit_transport = lambda a, b: transport.solve_ot_1d(len(a), len(b))
        t = tracer.Tracer()
        absent = t.install({"ot": ot, "transport": transport})
        self.assertIn("metrics.auc", absent)
        self.assertNotIn("ot.solve_ot_1d", absent)
        transport.fit_transport([1, 2, 3], [4, 5])
        t.uninstall()
        self.assertIs(transport.solve_ot_1d, solve_ot_1d)
        names = [s["name"] for s in t.spans]
        self.assertEqual(names, ["transport.fit_transport", "ot.solve_ot_1d"])
        self.assertEqual(t.spans[1]["parent"], 0)
        self.assertEqual(t.spans[1]["count"], 4)
        # the fake passes lists, so the training-set key cannot be taken
        self.assertEqual(list(t.count_errors), ["transport.fit_transport"])

    def test_unrecorded_targets_are_problems(self):
        trace = {"absent": ["ot.barycentric_projection"],
                 "count_errors": {"transport.fit_transport": "TypeError()"}}
        problems = tracer.trace_problems(trace)
        self.assertEqual(len(problems), 2)
        self.assertIn("ot.barycentric_projection", problems[0])
        self.assertIn("transport.fit_transport", problems[1])
        self.assertEqual(tracer.trace_problems({"absent": [], "count_errors": {}}), [])


class InputGeneratorTest(unittest.TestCase):
    """Needs ``src/`` of the checkout (the generator builds a fairpot ScoreSet)."""

    def test_tie_count_and_group_sizes_do_not_depend_on_seed(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        n = 10_000
        for seed in (1, 2, 3):
            s = workloads.score_set(n, np.random.default_rng(seed))
            for g in ("a", "b"):
                scores = s.scores[s.groups == g]
                self.assertEqual(len(scores), n // 2)
                self.assertEqual(len(scores) - len(np.unique(scores)), n // 2 // workloads.TIE_EVERY)


if __name__ == "__main__":
    unittest.main()
