"""Span arithmetic and wrapper behaviour of perfbench/tracing.py.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import sys
import threading
import time
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import trace_child  # noqa: E402
from trace_child import layer_metrics  # noqa: E402
from tracing import (  # noqa: E402
    Span, Tracer, adopt_thread_roots, children_of, self_time, tail_rank, union_length,
)

MAIN = 1
POOL_A = 2
POOL_B = 3


def span(sid, name, start, end, parent=None, tid=MAIN, request=0, note=None):
    return Span(sid, name, start, end, parent, tid, request, note)


class UnionAndSelfTime(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(union_length([(0, 4), (6, 10)], lo=2, hi=8), 4)
        self.assertEqual(union_length([(3, 3), (5, 4)]), 0)
        self.assertEqual(union_length([]), 0)

    def test_self_time_is_parent_minus_union_of_children(self):
        parent = span(0, "p", 0.0, 10.0)
        children = [
            span(1, "c", 1.0, 3.0, 0, POOL_A),
            span(2, "c", 2.0, 5.0, 0, POOL_B),    # overlaps the first, other thread
            span(3, "c", 8.0, 12.0, 0),           # runs past the parent's end
        ]
        # covered: [1, 5] and [8, 10] -> 6 of 10
        self.assertAlmostEqual(self_time(parent, children), 4.0)

    def test_self_time_without_children_is_duration(self):
        self.assertAlmostEqual(self_time(span(0, "p", 2.0, 2.5), []), 0.5)

    def test_thread_roots_adopt_deepest_enclosing_main_span(self):
        spans = [
            span(0, "cli.main", 0.0, 10.0),
            span(1, "detector.regime_map", 1.0, 9.0, 0),
            span(2, "detector._regime_point", 2.0, 4.0, None, POOL_A),
            span(3, "detector._regime_point", 3.0, 6.0, None, POOL_B),
            span(4, "blockage.blockage_probability", 3.5, 5.5, 3, POOL_B),
            span(5, "stray", 11.0, 12.0, None, POOL_A),
        ]
        adopted = {s.sid: s for s in adopt_thread_roots(spans, MAIN)}
        self.assertEqual(adopted[2].parent, 1)
        self.assertEqual(adopted[3].parent, 1)
        self.assertEqual(adopted[4].parent, 3)   # same-thread parent is kept
        self.assertIsNone(adopted[5].parent)
        kids = children_of(adopted.values())
        # regime_map [1, 9] minus the union of its pool children [2, 6]
        self.assertAlmostEqual(self_time(adopted[1], kids[1]), 4.0)
        self.assertAlmostEqual(self_time(adopted[0], kids[0]), 2.0)

    def test_tail_rank_keeps_ten_samples_beyond(self):
        idx, pct = tail_rank(90)
        self.assertEqual(idx, 79)
        self.assertEqual(90 - 1 - idx, 10)
        self.assertAlmostEqual(pct, 100.0 * 79 / 89)
        self.assertEqual(tail_rank(11)[0], 0)
        self.assertIsNone(tail_rank(10))


class Wrappers(unittest.TestCase):
    def setUp(self):
        def leaf(x):
            time.sleep(0.002)
            return x

        def outer(x):
            return mod_a.leaf(x) + 1

        self.mod_a = mod_a = types.ModuleType("fake_a")
        mod_a.leaf, mod_a.outer = leaf, outer
        self.mod_b = types.ModuleType("fake_b")
        self.mod_b.imported_leaf = leaf          # bound under another name
        self.leaf, self.outer = leaf, outer

    def test_install_rebinds_every_lookup_and_uninstall_restores(self):
        tracer = Tracer()
        wrapped = tracer.span_wrapper("fake.leaf", self.leaf)
        self.assertEqual(tracer.install([self.mod_a, self.mod_b], self.leaf, wrapped), 2)
        self.mod_a.outer(1)
        self.mod_b.imported_leaf(2)
        self.assertEqual(len(tracer.spans), 2)
        tracer.uninstall()
        self.assertIs(self.mod_a.leaf, self.leaf)
        self.assertIs(self.mod_b.imported_leaf, self.leaf)

    def test_spans_link_parents_on_the_same_thread(self):
        tracer = Tracer()
        tracer.install([self.mod_a], self.leaf, tracer.span_wrapper("leaf", self.leaf))
        tracer.install([self.mod_a], self.outer, tracer.span_wrapper("outer", self.outer))
        tracer.request = 7
        self.assertEqual(self.mod_a.outer(1), 2)
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["leaf"].parent, by_name["outer"].sid)
        self.assertIsNone(by_name["outer"].parent)
        self.assertEqual({s.request for s in tracer.spans}, {7})
        self.assertLessEqual(by_name["outer"].start, by_name["leaf"].start)

    def test_aggregate_counters_merge_across_threads(self):
        tracer = Tracer()
        counted = tracer.aggregate_wrapper("leaf", lambda: None)
        per_thread, threads = 500, 4

        def work():
            for _ in range(per_thread):
                counted()

        pool = [threading.Thread(target=work) for _ in range(threads)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        self.assertFalse(any(t.is_alive() for t in pool))
        rows = tracer.aggregates()
        self.assertEqual(sum(r[0] for r in rows.values()), per_thread * threads)

    def test_nested_aggregate_self_time_excludes_inner_calls(self):
        tracer = Tracer()
        inner = tracer.aggregate_wrapper("inner", lambda: time.sleep(0.02))

        def body():
            inner()
            inner()

        outer = tracer.aggregate_wrapper("outer", body)
        outer()
        rows = {k[0]: v for k, v in tracer.aggregates().items()}
        calls, self_s, incl_s = rows["outer"]
        self.assertEqual(calls, 1)
        self.assertEqual(rows["inner"][0], 2)
        self.assertAlmostEqual(self_s, incl_s - rows["inner"][2], places=9)
        self.assertLess(self_s, 0.01)

    def test_call_site_skips_listed_modules(self):
        helper = {"__name__": "fake_numerics"}
        exec("def via(f):\n    return f()\n", helper)
        tracer = Tracer(skip_modules={"fake_numerics"})
        wrapped = tracer.aggregate_wrapper("leaf", lambda: None, by_site=True)
        helper["via"](wrapped)
        (name, site, _), = tracer.aggregates()
        self.assertEqual(name, "leaf")
        self.assertTrue(site.endswith("Wrappers.test_call_site_skips_listed_modules"), site)


class LayerMetrics(unittest.TestCase):
    def test_empty_trace_reports_zero_work(self):
        metrics = layer_metrics([], {}, MAIN, [1.0], [1.5], (0.0, 1.0), 1.0, (1e-6, 1e-6))
        self.assertEqual(metrics["blockage.mean_partial_calls"], 0)
        self.assertEqual(metrics["detector.point_tail_s"], 0.0)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 0.5)
        self.assertAlmostEqual(metrics["trace.unattributed_s"], 1.0)

    def test_repeat_share_counts_within_a_request(self):
        spans = [span(i, "blockage.mean_partial_blockage", i, i + 0.5, request=req, note=key)
                 for i, (req, key) in enumerate([(0, "a"), (0, "a"), (0, "b"), (1, "a")])]
        metrics = layer_metrics(spans, {}, MAIN, [0.0], [0.0], (0.0, 4.0), 1.0, (0.0, 0.0))
        self.assertEqual(metrics["blockage.mean_partial_calls"], 4)
        self.assertAlmostEqual(metrics["blockage.geometry_repeat_share"], 0.25)
        self.assertAlmostEqual(metrics["blockage.mean_partial_s"], 2.0)

    def test_trial_cost_splits_by_blocking_mode(self):
        spans = [
            span(0, "mcsim._power_block", 0.0, 2.0, note=(1000, "thinning")),
            span(1, "mcsim._power_block", 0.0, 1.0, note=(10, "geometric")),
        ]
        metrics = layer_metrics(spans, {}, MAIN, [0.0], [0.0], (0.0, 2.0), 1.0, (0.0, 0.0))
        self.assertAlmostEqual(metrics["mcsim.trial_us_thinning"], 2000.0)
        self.assertAlmostEqual(metrics["mcsim.trial_us_geometric"], 1e5)


if __name__ == "__main__":
    unittest.main()


class PackageWrapping(unittest.TestCase):
    """The wrappers reach the names callers inside mmwregime look up."""

    @classmethod
    def setUpClass(cls):
        src = Path(__file__).resolve().parents[2] / "src"
        sys.path.insert(0, str(src))
        import mmwregime.cli  # noqa: F401
        cls.modules = trace_child.package_modules()

    def test_lookups_in_every_calling_module_are_wrapped(self):
        import mmwregime.blockage as blockage
        import mmwregime.detector as detector
        import mmwregime.interference as interference
        import mmwregime.mcsim as mcsim
        import mmwregime.spectral as spectral
        originals = {
            "blockage_probability": blockage.blockage_probability,
            "mean_received_power": interference.mean_received_power,
            "upsilon_table": spectral.upsilon_table,
        }
        tracer = trace_child.install_all(self.modules)
        try:
            for mod, name in [(detector, "blockage_probability"),
                              (mcsim, "blockage_probability"),
                              (mcsim, "mean_received_power"),
                              (interference, "upsilon_table"),
                              (mcsim, "upsilon_table")]:
                self.assertIsNot(getattr(mod, name), originals[name], f"{mod.__name__}.{name}")
                self.assertIs(getattr(mod, name).__wrapped__, originals[name])
        finally:
            tracer.uninstall()
        self.assertIs(detector.blockage_probability, originals["blockage_probability"])

    def test_integrate_calls_from_integrate_piecewise_are_counted(self):
        import mmwregime.numerics as numerics
        tracer = trace_child.install_all(self.modules)
        try:
            tracer.request = 0
            numerics.integrate_piecewise(lambda x: x * x, [0.0, 1.0, 2.0])
        finally:
            tracer.uninstall()
        rows = {k: v for k, v in tracer.aggregates().items() if k[0] == "numerics.integrate"}
        self.assertEqual(sum(v[0] for v in rows.values()), 2)
        (_, site, request), = rows
        self.assertEqual(request, 0)
        self.assertIn("test_integrate_calls_from_integrate_piecewise_are_counted", site)
