"""The output checks accept the baseline commit's outputs and reject corrupted ones.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import random
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import trace_child  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SWEEPS = {"rho_list": [0.5, 1.0, 2.0], "n_list": [50, 100, 200],
          "v0_grid_m": [float(v) for v in range(10)],
          "beta_grid": [1e-300, 1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9,
                        0.99, 1.0]}


def reference_rows():
    return oracles.read_csv(REFERENCE / "analytic_sweep" / "regime_map.csv")


class RegimeMap(unittest.TestCase):
    def setUp(self):
        self.ref = reference_rows()
        self.rows = copy.deepcopy(self.ref)

    def check(self):
        return oracles.check_regime_map(self.rows, SWEEPS, self.ref)

    def test_reference_passes_with_one_op_per_point_and_command(self):
        out = self.check()
        self.assertEqual((out.ops, out.failed), (91, 0), out.problems)

    def test_flipped_verdict_is_rejected(self):
        self.rows[17]["verdict"] = "noise_limited"
        out = self.check()
        self.assertEqual(out.failed, 2, out.problems)   # the point and the command

    def test_dropped_row_is_rejected(self):
        del self.rows[40]
        self.assertEqual(self.check().failed, 2)

    def test_duplicated_and_unexpected_rows_are_rejected(self):
        self.rows.append(dict(self.rows[3]))
        self.assertEqual(self.check().failed, 2)
        self.rows.pop()
        extra = dict(self.rows[3], v0_m="9.5")
        self.rows.append(extra)
        self.assertEqual(self.check().failed, 1)

    def test_error_verdict_is_a_failed_point(self):
        self.rows[5].update({"verdict": "error", "error": "QuadratureError: boom", "p_d": "",
                             "lambda": ""})
        self.assertEqual(self.check().failed, 2)

    def test_infeasible_fit_row_is_a_valid_noise_limited_point(self):
        row = dict(self.rows[0], verdict="noise_limited", p_d="", error="mean too small")
        row["lambda"] = row["eta_prime_w"] = row["lrt_area"] = ""
        self.assertIsNone(oracles._point_problem([row], dict(row)))

    def test_appended_columns_are_ignored(self):
        for row in self.rows:
            row["p_d_exact"] = "0.2"
            row["log10_lrt_area"] = "70.1"
        self.assertEqual(self.check().failed, 0)

    def test_intended_mean_shift_of_item_2_passes(self):
        for row in self.rows:
            row["mean_y_w"] = repr(float(row["mean_y_w"]) * 1.0025)
        self.assertEqual(self.check().failed, 0)

    def test_larger_mean_shift_is_rejected(self):
        for row in self.rows:
            row["mean_y_w"] = repr(float(row["mean_y_w"]) * 1.01)
        self.assertEqual(self.check().failed, 91)

    def test_blockage_drift_beyond_1e6_is_rejected(self):
        self.rows[0]["p_b"] = repr(float(self.rows[0]["p_b"]) * (1 + 1e-5))
        self.assertEqual(self.check().failed, 2)
        self.rows[0]["p_b"] = repr(float(self.ref[0]["p_b"]) * (1 + 3e-11))
        self.assertEqual(self.check().failed, 0)

    def test_lrt_area_off_by_a_decade_is_rejected(self):
        self.rows[9]["lrt_area"] = repr(float(self.rows[9]["lrt_area"]) * 10.0)
        self.assertEqual(self.check().failed, 2)

    def test_missing_column_fails_every_op(self):
        for row in self.rows:
            del row["p_d"]
        out = self.check()
        self.assertEqual(out.failed, out.ops)


class Roc(unittest.TestCase):
    def setUp(self):
        self.rows = [{"n": str(n), "beta": repr(b), "p_f": repr(b),
                      "p_d": repr(min(1.0, b ** (1.0 / (2 + n / 100))))}
                     for n in SWEEPS["n_list"] for b in SWEEPS["beta_grid"]]

    def test_consistent_curve_passes(self):
        self.assertEqual(oracles.check_roc(self.rows, SWEEPS).failed, 0)

    def test_p_f_differing_from_beta_is_rejected(self):
        self.rows[4]["p_f"] = repr(float(self.rows[4]["p_f"]) * 1.0000001)
        self.assertEqual(oracles.check_roc(self.rows, SWEEPS).failed, 1)

    def test_non_monotone_p_d_is_rejected(self):
        self.rows[6]["p_d"], self.rows[7]["p_d"] = self.rows[7]["p_d"], self.rows[6]["p_d"]
        self.assertEqual(oracles.check_roc(self.rows, SWEEPS).failed, 1)

    def test_dropped_row_is_rejected(self):
        del self.rows[3]
        self.assertEqual(oracles.check_roc(self.rows, SWEEPS).failed, 1)


class Simulate(unittest.TestCase):
    PHI, MEAN, TRIALS = 1e-3, 0.0289, 20000

    def setUp(self):
        rng = random.Random(5)
        self.rows = [{"trial": str(i), "y_watts": repr(self.PHI + rng.expovariate(
            1.0 / (self.MEAN - self.PHI)))} for i in range(self.TRIALS)]

    def check(self, mean=MEAN):
        return oracles.check_simulate(self.rows, self.TRIALS, self.PHI, mean)

    def test_unbiased_samples_pass(self):
        self.assertEqual(self.check().failed, 0)

    def test_shifted_mean_is_rejected(self):
        # one standard error is about (MEAN - PHI) / sqrt(TRIALS) = 2e-4
        for row in self.rows:
            row["y_watts"] = repr(float(row["y_watts"]) + 2e-3)
        out = self.check()
        self.assertEqual(out.failed, 1)
        self.assertIn("standard errors", out.problems[0])

    def test_dropped_row_is_rejected(self):
        del self.rows[-1]
        self.assertEqual(self.check().failed, 1)

    def test_sample_below_phi_is_rejected(self):
        self.rows[10]["y_watts"] = repr(self.PHI / 2)
        self.assertEqual(self.check(mean=None).failed, 1)


class Validate(unittest.TestCase):
    def setUp(self):
        names = oracles.load_json(REFERENCE / "validate_checks.json")
        self.required = names
        self.doc = {"checks": [{"name": n, "tolerance": 0.01, "passed": True} for n in names]
                    + [{"name": "geometric_blockage_gap", "tolerance": None, "passed": True}]}

    def test_all_gated_checks_passing_passes(self):
        out = oracles.check_validate(self.doc, 0, self.required)
        self.assertEqual((out.ops, out.failed), (1 + len(self.required), 0))

    def test_failed_gated_check_is_rejected(self):
        self.doc["checks"][2]["passed"] = False
        self.assertEqual(oracles.check_validate(self.doc, 3, self.required).failed, 2)

    def test_missing_check_is_rejected(self):
        del self.doc["checks"][0]
        self.assertEqual(oracles.check_validate(self.doc, 0, self.required).failed, 2)

    def test_appended_gated_check_counts_as_an_op(self):
        self.doc["checks"].append({"name": "exact_detection_probability", "tolerance": 0.01,
                                   "passed": True})
        out = oracles.check_validate(self.doc, 0, self.required)
        self.assertEqual((out.ops, out.failed), (2 + len(self.required), 0))


class Spec(unittest.TestCase):
    NAME = re.compile(r"[A-Za-z0-9_.-]+")

    def test_metric_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, self.NAME)
            self.assertTrue(self.NAME.fullmatch(name) and len(name) <= 64, name)
        self.assertEqual(len(names), len(set(names)))

    def test_reported_metrics_match_the_spec(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, END_TO_END)
        layer = trace_child.layer_metrics([], {}, 1, [0.0], [0.0], (0.0, 1.0), 1.0, (0.0, 0.0))
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(layer))

    def test_every_gated_workload_is_defined(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_setup_metric_is_present(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


if __name__ == "__main__":
    unittest.main()
