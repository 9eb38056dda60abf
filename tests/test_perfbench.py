"""The benchmark's own tests run with the package's, so that renaming a
function the benchmark wraps fails here and not only in the benchmark."""

import json
import subprocess
import sys

from mmwregime import cli

from conftest import BASELINE_CONFIG, REPO_ROOT, load_perfbench


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_benchmark_oracles_accept_the_analytic_commands(tmp_path):
    # the checks the benchmark applies to blockage, roc and regime-map on the
    # shipped config, so a renamed or reordered column fails here as well
    oracles = load_perfbench("oracles")
    raw = json.loads(BASELINE_CONFIG.read_text())
    for command in ("blockage", "roc", "regime-map"):
        assert cli.main([command, "--config", str(BASELINE_CONFIG), "--out", str(tmp_path)]) == 0
    reference = oracles.read_csv(
        REPO_ROOT / "perfbench" / "reference" / "analytic_sweep" / "regime_map.csv"
    )
    scene = (raw["blockage"]["rho_per_m2"], raw["channel"]["n_interferers"],
             raw["geometry"]["v0_norm_m"])
    (ref_p_b,) = [float(r["p_b"]) for r in reference
                  if (float(r["rho"]), int(r["n"]), float(r["v0_m"])) == scene]
    rows = oracles.read_csv(tmp_path / "regime_map.csv")
    # the stable columns keep their order; new ones are appended
    assert tuple(rows[0])[:len(oracles.REGIME_COLUMNS)] == oracles.REGIME_COLUMNS
    outcome = oracles.Outcome()
    outcome.merge(oracles.check_blockage(oracles.load_json(tmp_path / "blockage.json"), ref_p_b))
    outcome.merge(oracles.check_roc(oracles.read_csv(tmp_path / "roc.csv"), raw["sweeps"]))
    outcome.merge(oracles.check_regime_map(rows, raw["sweeps"], reference))
    assert outcome.problems == []
    assert (outcome.ops, outcome.failed) == (93, 0)


def test_benchmark_oracles_accept_the_tapered_geometric_workload(tmp_path):
    # the one workload that runs geometric simulate and a rolloff > 0 filter,
    # on its own config and CLI seed, checked as the benchmark checks it
    oracles, workloads = load_perfbench("oracles"), load_perfbench("workloads")
    raw = workloads.tapered_config(json.loads(BASELINE_CONFIG.read_text()))
    config = tmp_path / "tapered_geometric.json"
    config.write_text(json.dumps(raw))
    common = ["--config", str(config), "--out", str(tmp_path), "--workers", "2",
              "--seed", str(workloads.cli_seed(1))]
    for command in ("regime-map", "simulate"):
        assert cli.main([command, *common]) == 0
    reference = oracles.read_csv(
        REPO_ROOT / "perfbench" / "reference" / "tapered_geometric" / "regime_map.csv"
    )
    outcome = oracles.Outcome()
    outcome.merge(oracles.check_regime_map(
        oracles.read_csv(tmp_path / "regime_map.csv"), raw["sweeps"], reference
    ))
    outcome.merge(oracles.check_simulate(
        oracles.read_csv(tmp_path / "samples.csv"), raw["trials"], raw["noise"]["phi_watts"]
    ))
    assert outcome.problems == []
    assert (outcome.ops, outcome.failed) == (6, 0)
