"""Self-tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need neither a build nor the library sources.
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


class StatsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_percentile_interpolates_between_ranks(self):
        xs = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(benchlib.percentile(xs, 0), 10.0)
        self.assertEqual(benchlib.percentile(xs, 50), 30.0)
        self.assertEqual(benchlib.percentile(xs, 100), 50.0)
        self.assertAlmostEqual(benchlib.percentile(xs, 90), 46.0)
        self.assertAlmostEqual(benchlib.percentile(list(reversed(xs)), 25), 20.0)

    def test_percentile_single_sample_and_range(self):
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 101)

    def test_p99_of_uniform_ramp(self):
        xs = [float(i) for i in range(1, 1001)]
        self.assertAlmostEqual(benchlib.percentile(xs, 99), 990.01)

    def test_least_stolen_keeps_clean_reps(self):
        reps = [(0.0, [1.0]), (0.01, [2.0]), (0.5, [9.0]), (0.02, [3.0])]
        self.assertEqual(benchlib.least_stolen(reps), [(0.0, [1.0]), (0.01, [2.0])])

    def test_least_stolen_falls_back_to_the_least_stolen_quarter(self):
        reps = [(0.3, [3.0]), (0.1, [1.0]), (0.4, [4.0]), (0.2, [2.0]), (0.5, [5.0])]
        self.assertEqual(benchlib.least_stolen(reps), [(0.1, [1.0]), (0.2, [2.0])])
        self.assertEqual(benchlib.least_stolen(reps[:4]), [(0.1, [1.0])])
        self.assertEqual(benchlib.least_stolen([]), [])

    def test_samples_beyond_percentile(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 99), 9)
        self.assertEqual(benchlib.samples_beyond(100, 50), 50)
        self.assertEqual(benchlib.samples_beyond(0, 99), 0)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for n in ("us_per_atom_step", "sim.stage_frac.Comm", "md.lj_ns_per_pair",
                  "9lives", "a-b.c_d", "x" * 64):
            self.assertTrue(benchlib.valid_name(n), n)

    def test_invalid_names(self):
        for n in ("", "_lead", ".lead", "stage:Comm", "has space", "x" * 65,
                  "slash/name", "ünï"):
            self.assertFalse(benchlib.valid_name(n), n)

    def test_units(self):
        for u in ("us", "s", "GB/s", "1/s", "%", "count", "MiB"):
            self.assertTrue(benchlib.valid_unit(u), u)
        for u in ("", "micro seconds", "x" * 17):
            self.assertFalse(benchlib.valid_unit(u), u)


SCORECARD_OUTPUT = """\
sample setup_s s 0.03 0.01 0.02
sample us_per_atom_step us 1.5 1.25
dist sim.step_us us 1 2 3 4 5
ops 5 1
ops 2 0
"""


class ParseTest(unittest.TestCase):
    def test_parse_and_summarize(self):
        parsed = benchlib.parse_scorecard_output(SCORECARD_OUTPUT)
        self.assertEqual((parsed.attempted, parsed.failed), (7, 1))
        warnings = []
        m = benchlib.summarize(parsed, warn=warnings.append)
        self.assertEqual(m["setup_s"], {"value": 0.02, "unit": "s"})
        self.assertEqual(m["us_per_atom_step"]["value"], 1.375)
        self.assertEqual(m["sim.step_us_p50"], {"value": 3.0, "unit": "us"})
        self.assertAlmostEqual(m["sim.step_us_p99"]["value"], 4.96)
        self.assertEqual(m["sim.step_us_samples"], {"value": 5, "unit": "count"})
        self.assertEqual(len(warnings), 1)  # five samples cannot carry a p99
        self.assertIn("sim.step_us_p99", warnings[0])

    def test_reps_are_filtered_by_steal(self):
        parsed = benchlib.parse_scorecard_output(
            "rep 0 setup_s s 0.01 0.03\nrep 0.5 setup_s s 0.9\nrep 0.005 setup_s s 0.02\n"
            "rep 0.2 x us\nops 3 0\n")
        self.assertEqual(parsed.reps["setup_s"][1][1], (0.5, [0.9]))
        m = benchlib.summarize(parsed)
        self.assertEqual(m["setup_s"], {"value": 0.02, "unit": "s"})
        self.assertNotIn("x", m)  # a rep whose run failed brings no value

    def test_repeated_lines_accumulate(self):
        parsed = benchlib.parse_scorecard_output("sample a us 1\nsample a us 3\n")
        self.assertEqual(benchlib.summarize(parsed)["a"]["value"], 2.0)

    def test_malformed_lines_raise(self):
        for bad in ("garbage here\n", "sample a us\n", "ops 1\n", "sample a us x\n",
                    "sample a us 1\nsample a ms 2\n", "rep 0.1 a\n", "rep x a us 1\n"):
            with self.assertRaises(ValueError, msg=bad):
                benchlib.parse_scorecard_output(bad)

    def test_blank_lines_are_ignored(self):
        parsed = benchlib.parse_scorecard_output("\nops 1 0\n\n")
        self.assertEqual(parsed.attempted, 1)

    def test_check_metrics(self):
        expected = [{"name": "a", "unit": "us"}, {"name": "b", "unit": "s"}]
        ok = {"a": {"value": 1.0, "unit": "us"}, "b": {"value": 2.0, "unit": "s"}}
        self.assertEqual(benchlib.check_metrics(ok, expected), [])
        bad = {"a": {"value": math.nan, "unit": "ms"}, "c:d": {"value": 1.0, "unit": "s"}}
        problems = " | ".join(benchlib.check_metrics(bad, expected))
        for needle in ("missing metric b", "a has unit ms", "unexpected metric c:d",
                       "invalid metric name 'c:d'", "a is not finite"):
            self.assertIn(needle, problems)

    def test_result_line_is_one_json_object(self):
        line = benchlib.result_line(True, 3, 0, {"b": {"value": 1, "unit": "s"},
                                                  "a": {"value": 2, "unit": "s"}})
        self.assertNotIn("\n", line)
        obj = json.loads(line)
        self.assertEqual(sorted(obj), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(list(obj["metrics"]), ["a", "b"])


class SpecTest(unittest.TestCase):
    """BENCHMARK.json itself stays within the names scorecard can emit."""

    @classmethod
    def setUpClass(cls):
        if not os.path.isfile(SPEC):
            raise unittest.SkipTest("BENCHMARK.json not found")
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def test_names_and_units_are_valid_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for key in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[key]]
            for m in self.spec[key]:
                self.assertTrue(benchlib.valid_unit(m["unit"]), m)
                self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertTrue(benchlib.valid_name(n), n)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds_and_setup_metric(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertGreater(m["bound"], 0.0)
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))


if __name__ == "__main__":
    unittest.main()
