"""Unit tests for compare.py over synthetic results.

    python3 -m unittest discover -s bench/e2e -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import compare

MACHINE = {"nproc": 4, "cpu_model": "cpu", "llc_bytes": 1, "compiler": "gcc",
           "build_type": "Release", "threads": 4}


def result(value, seed, workload="generate", name="latency_ms",
           better="lower", bound=0.10, kind="end_to_end", machine=None):
    metric = {"value": value, "unit": "ms", "better": better, "kind": kind}
    if kind == "end_to_end":
        metric["bound"] = bound
    return {"workload": workload, "seed": seed, "machine": machine or MACHINE,
            "metrics": {name: metric}}


def verdict(parent, change, aa=False, **kw):
    rows = compare.compare_sets(
        [result(v, i, **kw) for i, v in enumerate(parent)],
        [result(v, i, **kw) for i, v in enumerate(change)], aa)
    return rows[0]


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


class GainRule(unittest.TestCase):
    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread(self):
        row = verdict(PARENT, [v - 5 for v in PARENT])
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "gain")

    def test_eight_wins_are_not_a_gain(self):
        change = [v - 5 for v in PARENT]
        change[0] = change[1] = 200
        self.assertEqual(verdict(PARENT, change)["verdict"], "ok")

    def test_wins_inside_the_parent_spread_are_not_a_gain(self):
        # Every pair won, but by less than the parent's q1-q3 distance.
        row = verdict(PARENT, [v - 0.5 for v in PARENT])
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "ok")

    def test_ties_count_for_neither_side(self):
        row = verdict(PARENT, list(PARENT))
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["verdict"], "ok")

    def test_higher_is_better_metrics_gain_upwards(self):
        row = verdict(PARENT, [v + 5 for v in PARENT], better="higher")
        self.assertEqual(row["verdict"], "gain")
        row = verdict(PARENT, [v - 5 for v in PARENT], better="higher")
        self.assertEqual(row["verdict"], "ok")


class RegressionRule(unittest.TestCase):
    def test_worse_by_more_than_the_bound_regresses(self):
        self.assertEqual(verdict(PARENT, [v * 1.2 for v in PARENT])["verdict"],
                         "regression")

    def test_worse_within_the_bound_is_not_a_regression(self):
        self.assertEqual(verdict(PARENT, [v * 1.05 for v in PARENT])["verdict"],
                         "ok")

    def test_higher_is_better_regresses_downwards(self):
        row = verdict(PARENT, [v * 0.8 for v in PARENT], better="higher")
        self.assertEqual(row["verdict"], "regression")

    def test_zero_bound_regresses_on_any_increase(self):
        row = verdict([0.0] * 10, [0.0] * 9 + [0.001], bound=0.0)
        self.assertEqual(row["verdict"], "ok")  # the median did not move
        row = verdict([0.0] * 10, [0.001] * 10, bound=0.0)
        self.assertEqual(row["verdict"], "regression")

    def test_layer_metrics_never_regress(self):
        row = verdict(PARENT, [v * 2 for v in PARENT], kind="layer")
        self.assertEqual(row["verdict"], "ok")


class Quartiles(unittest.TestCase):
    def test_quartiles_interpolate_like_ddosbench(self):
        # Linear between order statistics: q1 and q3 sit on the 2nd and 4th
        # of five values. The exclusive rule would give 1.5 and 7.
        self.assertEqual(compare.quartiles([10, 1, 4, 2, 3]), (2, 3, 4))
        row = verdict([1, 2, 3, 4, 10], [1, 2, 3, 4, 10])
        self.assertEqual(row["parent"], (3, 2, 4))


class UnresolvedRule(unittest.TestCase):
    NOISY = [70, 130, 80, 120, 75, 125, 90, 110, 100, 100]

    def test_spread_wider_than_the_bound_is_unresolved(self):
        self.assertEqual(verdict(self.NOISY, self.NOISY)["verdict"],
                         "unresolved")

    def test_unless_every_change_run_beats_every_parent_run(self):
        row = verdict(self.NOISY, [60] * 10)
        self.assertIn(row["verdict"], ("gain", "ok"))
        self.assertNotEqual(row["verdict"], "unresolved")


class AaMode(unittest.TestCase):
    def test_medians_within_the_bound_pass(self):
        self.assertEqual(verdict(PARENT, [v * 1.04 for v in PARENT],
                                 aa=True)["verdict"], "ok")

    def test_a_median_moving_beyond_the_bound_either_way_fails(self):
        self.assertEqual(verdict(PARENT, [v * 0.8 for v in PARENT],
                                 aa=True)["verdict"], "differs")
        self.assertEqual(verdict(PARENT, [v * 1.2 for v in PARENT],
                                 aa=True)["verdict"], "differs")


class Inputs(unittest.TestCase):
    def test_different_machines_are_refused(self):
        other = dict(MACHINE, cpu_model="another cpu")
        with self.assertRaises(compare.InputError):
            compare.compare_sets([result(1, 0)], [result(1, 0, machine=other)])

    def test_single_runs_and_full_passes_load_alike(self):
        with tempfile.TemporaryDirectory() as d:
            single = os.path.join(d, "run.json")
            full = os.path.join(d, "pass.json")
            with open(single, "w") as f:
                json.dump(result(1, 0), f)
            with open(full, "w") as f:
                json.dump({"results": [result(2, 1),
                                       result(3, 1, workload="analyze")]}, f)
            loaded = compare.load_results([single, full])
        self.assertEqual([r["workload"] for r in loaded],
                         ["generate", "generate", "analyze"])

    def test_main_prints_layer_rows_too(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.json")
            with open(path, "w") as f:
                json.dump({"results": [
                    result(v, i, name="store.scan_pct", kind="layer")
                    for i, v in enumerate(PARENT)]}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(
                    compare.main(["--parent", path, "--change", path]), 0)
        self.assertIn("store.scan_pct", out.getvalue())

    def test_main_exits_one_on_a_regression_and_two_on_bad_input(self):
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for side, scale in (("p", 1.0), ("c", 1.5)):
                paths[side] = os.path.join(d, side + ".json")
                with open(paths[side], "w") as f:
                    json.dump({"results": [result(v * scale, i)
                                           for i, v in enumerate(PARENT)]}, f)
            with open(os.devnull, "w") as devnull:
                with contextlib.redirect_stdout(devnull), \
                        contextlib.redirect_stderr(devnull):
                    self.assertEqual(compare.main(
                        ["--parent", paths["p"], "--change", paths["c"]]), 1)
                    self.assertEqual(compare.main(
                        ["--parent", paths["p"], "--change", paths["p"]]), 0)
                    self.assertEqual(compare.main(
                        ["--parent", os.path.join(d, "missing.json"),
                         "--change", paths["p"]]), 2)


if __name__ == "__main__":
    unittest.main()
