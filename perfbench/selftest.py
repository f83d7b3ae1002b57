"""Tests of the benchmark itself, kept out of the package's pytest run.

Usage, from the root of the repository:

    python3 perfbench/selftest.py
"""

import csv
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stacknash.cli  # noqa: E402
import stacknash.equilibrium  # noqa: E402
from stacknash.model import DEFAULT_PARAMS  # noqa: E402

import gauge  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, SWEEP_HEADER, SolveScatter, SweepFigures  # noqa: E402


class Scratch(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def workload(self, name, seed, sub="a"):
        workdir = self.tmp / f"{name}-{seed}-{sub}"
        workdir.mkdir()
        return WORKLOADS[name](seed, workdir)


def _comparable(inp):
    """An input with the work-directory paths replaced by file contents."""
    if isinstance(inp, (list, tuple)):
        return [_comparable(x) for x in inp]
    if isinstance(inp, str) and Path(inp).is_file():
        return Path(inp).read_text()
    if isinstance(inp, str) and "/" in inp:
        return Path(inp).name
    return inp


class SeededInputs(Scratch):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                n = 2 * cls.block + 3
                a, b = self.workload(name, 5, "a"), self.workload(name, 5, "b")
                c = self.workload(name, 6)
                first = [_comparable(a.input(k)) for k in range(n)]
                self.assertEqual(first, [_comparable(b.input(k)) for k in range(n)])
                self.assertNotEqual(first, [_comparable(c.input(k)) for k in range(n)])

    def test_scatter_draws_stay_in_the_existence_region(self):
        for name in ("solve-scatter", "solve-interior"):
            with self.subTest(workload=name):
                w = self.workload(name, 3)
                draws = [w.input(k) for k in range(2 * w.block)]
                self.assertTrue(all(p.lambda1 * p.lambda2 < 1.0 for p in draws))
                self.assertTrue(any(p.lambda1 == p.lambda2 == 0.0 for p in draws))
                self.assertTrue(any((p.lambda1 == 0.0) != (p.lambda2 == 0.0)
                                    for p in draws))

    def test_interior_draws_stay_inside_their_ranges(self):
        w = self.workload("solve-interior", 4)
        for p in (w.input(k) for k in range(w.block)):
            self.assertTrue(all(0.3 <= d <= 100.0
                                for d in (p.delta0, p.delta1, p.delta2)))
            self.assertGreaterEqual(1.0 - p.lambda1 * p.lambda2, 1e-2 * (1 - 1e-12))


class OutputChecks(Scratch):
    def test_solve_within_tolerance_passes_and_beyond_fails(self):
        w = self.workload("solve-scatter", 1)
        eq = stacknash.equilibrium.solve(DEFAULT_PARAMS)
        t1, t2 = eq.theta_star.theta1, eq.theta_star.theta2
        fp = reference.fixed_point(5.0, 4.0, 6.0, 0.3, 0.7)
        tol = reference.theta_tolerance(fp.kappa)
        self.assertIsNone(w.check(0, DEFAULT_PARAMS, (t1, t2)))
        self.assertIsNone(w.check(0, DEFAULT_PARAMS, (t1 * (1 + tol / 2), t2)))
        verdict = w.check(0, DEFAULT_PARAMS, (t1 * (1 + 2 * tol), t2))
        self.assertEqual(verdict[0], "wrong")
        self.assertEqual(w.check(0, DEFAULT_PARAMS, (t1, math.nan))[0], "wrong")

    def test_raised_op_is_flagged(self):
        w = SolveScatter(1, self.tmp)
        out = w.keep(stacknash.equilibrium.SolverFailure(
            "no sign change of the fixed-point gap on [1e-12, 7.5]"))
        self.assertEqual(w.check(0, DEFAULT_PARAMS, out),
                         ("flagged", "SolverFailure: no sign change of the "
                                     "fixed-point gap on"))

    def test_tolerance_grows_with_conditioning(self):
        eps = 1e-9
        fp = reference.fixed_point(5.0, 4.0, 6.0, 0.5, (1 - eps) / 0.5)
        self.assertGreater(fp.kappa, 1e8)
        self.assertGreater(reference.theta_tolerance(fp.kappa), 1e-8)
        self.assertEqual(reference.theta_tolerance(1.0), 1e-12)

    def test_reference_matches_the_closed_form_at_zero_lambda(self):
        d0, d1, d2 = 5.0, 4.0, 6.0
        s = d0 * d1 + d0 * d2 + d1 * d2
        fp = reference.fixed_point(d0, d1, d2, 0.0, 0.0)
        self.assertAlmostEqual(fp.theta1, 0.5 * d1 + 0.5 * math.sqrt(
            (d0 + d1) / (d0 + d2) * s), delta=1e-14)

    def test_perturbed_sweep_column_fails(self):
        w = SweepFigures(1, self.tmp)
        inp = w.input(3)
        self.assertEqual(stacknash.cli.main(inp[5]), 0)
        text = Path(inp[6]).read_text()
        self.assertIsNone(w.check(3, inp, 0))
        rows = list(csv.reader(text.splitlines()))
        for column, factor in (("dp1", 1 + 1e-8), ("theta2", 1 + 1e-10)):
            bad = [list(r) for r in rows]
            j = SWEEP_HEADER.index(column)
            bad[7][j] = repr(float(bad[7][j]) * factor)
            Path(inp[6]).write_text("\r\n".join(",".join(r) for r in bad))
            with self.subTest(column=column):
                self.assertEqual(w.check(3, inp, 0)[0], "wrong")

    def test_monte_carlo_estimate_beyond_six_standard_errors_fails(self):
        w = self.workload("mc-sim", 2)
        inp = w.input(0)
        out = w.keep(w.run(inp))
        self.assertIsNone(w.check(0, inp, out))
        thetas, estimates, improving = out
        params = inp[0]
        fp = reference.fixed_point(params["delta0"], params["delta1"],
                                   params["delta2"], params["lambda1"],
                                   params["lambda2"])
        exact = reference.expected_utilities(params, fp)
        for player, (_, std_error) in estimates.items():
            for shift, verdict in ((5.5, None), (-5.5, None), (6.5, "wrong")):
                moved = dict(estimates)
                moved[player] = (exact[player] + shift * std_error, std_error)
                with self.subTest(player=player, shift=shift):
                    got = w.check(0, inp, (thetas, moved, improving))
                    self.assertEqual(got and got[0], verdict)
        self.assertEqual(w.check(0, inp, (thetas, estimates, 1))[0], "wrong")

    def test_cli_exit_codes(self):
        w = self.workload("cli-cold", 1)
        inputs = [w.input(k) for k in range(w.block)]
        bad = next(i for i in inputs if not i[2])
        good = next(i for i in inputs if i[2])
        self.assertIsNone(w.check(0, bad, (2, json.dumps({"error": "x"}))))
        self.assertEqual(w.check(0, bad, (0, "{}"))[0], "wrong")
        self.assertEqual(w.check(0, good, (1, ""))[0], "flagged")


class Statistics(unittest.TestCase):
    def test_failed_op_counts_as_infinitely_slow_in_p50(self):
        latency = [1_000_000 * k for k in (1, 2, 3, 4, 5)]
        all_pass, _ = worker.end_to_end(latency, [True] * 5, 50.0)
        self.assertEqual(all_pass["op_p50_ms"], 3.0)
        # Failing the two fastest ops can only raise the median.
        two_fail, detail = worker.end_to_end(
            latency, [False, False, True, True, True], 50.0)
        self.assertEqual(two_fail["op_p50_ms"], 5.0)
        self.assertAlmostEqual(detail["fail_ratio"], 0.4)
        with self.assertRaises(RuntimeError):
            worker.end_to_end(latency, [False, False, False, True, True], 50.0)

    def test_tail_needs_ten_passing_ops_beyond(self):
        latency = [1_000_000 * k for k in range(1, 1001)]
        metrics, detail = worker.end_to_end(latency, [True] * 1000, 99.0)
        self.assertEqual(metrics["op_tail_ms"], 990.0)
        self.assertEqual(detail["op_tail"]["beyond"], 10)
        metrics, detail = worker.end_to_end(latency[:999], [True] * 999, 99.0)
        self.assertNotIn("op_tail_ms", metrics)
        self.assertEqual(detail["op_tail"]["beyond"], 9)


class Scaling(unittest.TestCase):
    def test_latency_is_scaled_by_the_local_gauge_median(self):
        g = gauge.Gauge()
        ref = gauge.INTERPRETER.reference_ns
        # A fast second, then a second at half the speed.
        for t, ns in ((0, ref), (10**8, ref), (2 * 10**9, 2 * ref),
                      (2 * 10**9 + 10**8, 2 * ref)):
            g.at.append(t)
            g.ns.append(ns)
        self.assertEqual(g.scale([1000, 1000, 2000, 2000], [0, 1, 2, 3]),
                         [1000.0, 1000.0, 1000.0, 1000.0])
        self.assertAlmostEqual(g.speed(), 2 / 3)

    def test_pair_store_keeps_pairs_and_raised_ops(self):
        store = SolveScatter(1, Path(".")).store(3)
        store.append((1.5, 2.5))
        store.append(("raised", "SolverFailure", "no sign change"))
        store.append((3.0, 4.0))
        self.assertEqual(list(store), [(1.5, 2.5),
                                       ("raised", "SolverFailure", "no sign change"),
                                       (3.0, 4.0)])
        with self.assertRaises(IndexError):
            store[3]


class Spans(unittest.TestCase):
    def test_union_of_overlapping_and_clipped_intervals(self):
        self.assertEqual(tracing.union_length([(2, 5), (4, 8), (9, 12)], 0, 10), 7)
        self.assertEqual(tracing.union_length([], 0, 10), 0)

    def test_self_time_is_duration_minus_union_of_children(self):
        rec = tracing.Recorder()
        for name, start, end, parent in (("cli.main", 0, 100, -1),
                                         ("equilibrium.solve", 10, 40, 0),
                                         ("bestresponse.phi", 15, 20, 1),
                                         ("valuation.f0_rate", 30, 60, 0),
                                         ("cli.cmd_sweep", 50, 70, 0)):
            rec.name.append(rec.name_id(name))
            rec.start.append(start)
            rec.end.append(end)
            rec.parent.append(parent)
            rec.op.append(0)
        # Children of the root cover [10, 70) once, overlaps included.
        self.assertEqual(tracing.self_times(rec), [40, 25, 5, 30, 20])

    def test_instrument_records_nested_spans_and_restores(self):
        original = stacknash.equilibrium.phi
        rec = tracing.Recorder()
        restore = tracing.instrument(rec)
        try:
            self.assertIsNot(stacknash.equilibrium.phi, original)
            stacknash.equilibrium.solve(DEFAULT_PARAMS)
        finally:
            restore()
        self.assertIs(stacknash.equilibrium.phi, original)
        names = [rec.names[i] for i in rec.name]
        self.assertEqual(names[0], "equilibrium.solve")
        self.assertEqual(rec.parent[0], -1)
        self.assertGreater(names.count("bestresponse.phi"), 20)
        metrics = tracing.layer_metrics(rec, 1, rec.end[0] - rec.start[0])
        self.assertAlmostEqual(metrics["trace.span_coverage"], 1.0)
        self.assertEqual(metrics["bestresponse.phi.calls_per_solve"],
                         names.count("bestresponse.phi"))
        self.assertEqual(metrics["equilibrium.iterations_mean"], 12)

    def test_importtime_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:        50 |        150 |   numpy",
            "import time:        20 |         20 |       numpy.linalg",
            "import time:       300 |        320 |     scipy.optimize",
            "import time:        10 |        330 |   scipy",
            "import time:         5 |        485 | stacknash",
        ])
        self.assertEqual(run.parse_importtime(text), {
            "import.total_ms": 0.485, "import.scipy_ms": 0.33,
            "import.numpy_ms": 0.17, "import.stacknash_self_ms": 0.005})


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_what_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rec = tracing.Recorder()
        per_layer = set(tracing.layer_metrics(rec, 1, 1)) \
            | set(run.parse_importtime("")) | {"proc.bare_start_ms",
                                               "trace.overhead_ratio"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, per_layer)
        e2e, _ = worker.end_to_end([1] * 30, [True] * 30, 50.0)
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(e2e) | {"setup_s", "peak_rss_mb"})
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual(set(run.WORKLOADS), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
