import json
import math
import os
import subprocess
import sys

import pytest

from mmwregime import cli
from mmwregime.config import ConfigError, config_hash, load_config
from mmwregime.spectral import GaussianPsd

from conftest import BASELINE_CONFIG, REPO_ROOT, write_config


class TestLoadConfig:
    def test_shipped_defaults_resolve(self):
        run = load_config(BASELINE_CONFIG)
        net = run.network
        assert net.geo.radius == 10.0
        assert net.band.f_0 == 62e9
        assert net.band.f_s == 58e9 and net.band.f_e == 64e9
        assert net.channel.alpha == 2.5
        assert net.channel.m == 3.0
        assert net.channel.q == pytest.approx(10 ** ((27 - 30) / 10))
        assert math.degrees(net.geo.theta) == pytest.approx(10.0)
        assert run.defaulted == ()

    def test_missing_density_names_field(self, tmp_path):
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw["blockage"]["rho_per_m2"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="rho_per_m2"):
            load_config(path)

    def test_receiver_on_rim_rejected(self, tmp_path):
        path = write_config(tmp_path, geometry={"v0_norm_m": 10.0})
        with pytest.raises(ConfigError, match="v0_norm"):
            load_config(path)

    def test_both_power_units_rejected(self, tmp_path):
        path = write_config(tmp_path, channel={"q_dbm": 27.0, "q_watts": 0.5})
        with pytest.raises(ConfigError, match="exactly one unit"):
            load_config(path)

    def test_watts_unit_accepted(self, tmp_path):
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw["channel"]["q_dbm"]
        raw["channel"]["q_watts"] = 0.25
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).network.channel.q == 0.25

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path, geometry={"radius_km": 1.0})
        with pytest.raises(ConfigError, match="radius_km"):
            load_config(path)

    def test_defaults_recorded(self, tmp_path):
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw["noise"]
        del raw["band"]["filter_bandwidth_hz"]
        del raw["spectral"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        run = load_config(path)
        assert "band.filter_bandwidth_hz" in run.defaulted
        assert "noise.sigma2_watts" in run.defaulted
        assert "spectral" in run.defaulted
        assert run.network.band.bandwidth == 1e8
        assert isinstance(run.network.spectral.psd, GaussianPsd)
        assert run.network.spectral.psd.std == pytest.approx(2.5e7)
        # thermal floor over 100 MHz
        assert run.network.noise.sigma2 == pytest.approx(10 ** ((-94 - 30) / 10))

    @pytest.mark.parametrize("section, defaulted, digest", [
        ("spectral", ("spectral",), "55208a59b7529380"),
        ("sweeps", ("sweeps",), "bff6cd67143819b5"),
        ("noise", ("noise.sigma2_watts", "noise.phi_watts"), "b32ed2162bc4701d"),
        ("detection", ("detection.beta_th", "detection.fit_mode"), "55208a59b7529380"),
        ("simulation", ("simulation.blocking",), "55208a59b7529380"),
    ])
    def test_absent_section_provenance_pinned(self, tmp_path, section, defaulted, digest):
        # the defaulted list and the hash are provenance bytes of every output
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw[section]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        run = load_config(path)
        assert run.defaulted == defaulted
        assert config_hash(run.resolved) == digest

    def test_bad_json_reports(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file_reports(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_wrong_schema_version(self, tmp_path):
        path = write_config(tmp_path, schema_version=99)
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_hash_stable_and_sensitive(self):
        run = load_config(BASELINE_CONFIG)
        h1 = config_hash(run.resolved)
        h2 = config_hash(dict(run.resolved))
        assert h1 == h2
        changed = dict(run.resolved)
        changed["seed"] = run.seed + 1
        assert config_hash(changed) != h1

    def test_beta_grid_validated(self, tmp_path):
        path = write_config(tmp_path, sweeps={"beta_grid": [0.0, 0.5]})
        with pytest.raises(ConfigError, match="beta_grid"):
            load_config(path)


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # validate and find_root import them where they are used, so the
    # analytic commands do not pay for them at start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, mmwregime.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_cli(*args):
    return cli.main(list(args))


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli("blockage") == 1  # --config missing
        assert run_cli("no-such-command", "--config", "x") == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("blockage", "--config", str(bad), "--out", str(tmp_path)) == 1
        assert "config error" in capsys.readouterr().err

    def test_blockage_json_document(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("blockage", "--config", str(BASELINE_CONFIG), "--out", str(out))
        assert code == 0
        doc = json.loads((out / "blockage.json").read_text())
        assert 0.0 <= doc["blockage"]["p_b"] <= 1.0
        prov = doc["_provenance"]
        assert prov["tool"] == "mmwregime"
        assert prov["seed"] == 20260810
        assert prov["defaulted_fields"] == []

    def test_roc_trivial_grid(self, tmp_path):
        cfg = write_config(
            tmp_path, sweeps={"beta_grid": [1.0], "n_list": [200]}
        )
        out = tmp_path / "out"
        assert run_cli("roc", "--config", str(cfg), "--out", str(out)) == 0
        lines = [
            l for l in (out / "roc.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0] == "n,beta,p_f,p_d"
        assert lines[1] == "200,1.0,1.0,1.0"
        assert len(lines) == 2

    def test_regime_map_families_ordered_by_density(self, tmp_path):
        cfg = write_config(
            tmp_path,
            sweeps={
                "v0_grid_m": [0.0, 3.0, 6.0],
                "rho_list": [0.5, 1.0],
                "n_list": [200],
            },
        )
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0
        text = (out / "regime_map.csv").read_text()
        rows = [
            dict(zip(
                "rho,n,v0_m,p_b,mean_y_w,lambda,eta_prime_w,p_d,lrt_area,verdict,error".split(","),
                line.split(","),
            ))
            for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("rho,")
        ]
        assert len(rows) == 6
        sparse = {r["v0_m"]: float(r["lrt_area"]) for r in rows if r["rho"] == "0.5"}
        dense = {r["v0_m"]: float(r["lrt_area"]) for r in rows if r["rho"] == "1.0"}
        for v0 in sparse:
            assert dense[v0] <= sparse[v0]

    @pytest.mark.parametrize("section, override", [
        ("noise", None),  # thermal noise floor, 1/(2 sigma2) ~ 1e12 per watt
        ("channel", {"q_dbm": 40.0}),
    ], ids=["thermal_noise_default", "q_dbm_40"])
    def test_regime_map_has_no_error_rows(self, tmp_path, section, override):
        # LRT areas past double range read inf instead of failing the point
        raw = json.loads(BASELINE_CONFIG.read_text())
        if override is None:
            del raw[section]
        else:
            raw[section].update(override)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0
        lines = [l for l in (out / "regime_map.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header, rows = lines[0].split(","), [dict(zip(lines[0].split(","), l.split(",")))
                                             for l in lines[1:]]
        assert "lrt_area" in header and len(rows) == 90
        assert [r for r in rows if r["error"] or r["verdict"] == "error"] == []
        assert any(r["lrt_area"] == "inf" for r in rows)

    def test_commands_exit_zero_without_partial_shadow(self, tmp_path):
        # a 1 degree beam and 0.6 m obstacles: every obstacle in reach blocks
        # outright, so the mean partial shadow is 0
        cfg = write_config(tmp_path, geometry={"beam_halfwidth_deg": 1.0},
                           blockage={"d_s_m": 0.6})
        out = tmp_path / "out"
        assert run_cli("blockage", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "blockage.json").read_text())["blockage"]
        assert doc["mean_shadow"] == 0.0 and doc["p_b2"] == 0.0
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0

    def test_json_output_is_standard_json(self, tmp_path):
        # the thermal-noise default gives infinite LRT areas
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw["noise"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out),
                       "--format", "json") == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((out / "regime_map.json").read_text(), parse_constant=reject)
        assert len(doc["rows"]) == 90
        assert any(row["lrt_area"] == "inf" for row in doc["rows"])

    def test_finite_json_bytes_are_plain_dumps(self):
        payload = {"b": [1.0, 2.5e-300, None, "x"], "a": {"p": 0.1, "n": 3}}
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert json.loads(cli._json_text({"v": [math.inf, -math.inf, math.nan]})) == {
            "v": ["inf", "-inf", "nan"]
        }

    def test_simulate_csv(self, tmp_path):
        cfg = write_config(tmp_path, trials=50)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        lines = [
            l for l in (out / "samples.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0] == "trial,y_watts"
        assert len(lines) == 51
        assert float(lines[1].split(",")[1]) >= 1e-3  # phi floor

    def test_validate_json_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, trials=20_000)
        out = tmp_path / "out"
        code = run_cli("validate", "--config", str(cfg), "--out", str(out))
        doc = json.loads((out / "validation.json").read_text())
        assert code == (0 if doc["passed"] else 3)
        assert doc["passed"]

    def test_seed_and_trials_overrides_enter_provenance(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--config", str(BASELINE_CONFIG), "--out", str(out),
            "--seed", "7", "--trials", "10",
        )
        assert code == 0
        header = [
            l for l in (out / "samples.csv").read_text().splitlines()
            if l.startswith("#")
        ]
        assert "# seed: 7" in header
        assert "# trials: 10" in header

    def test_invalid_component_value_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, blockage={"d_s_m": -1.0})
        assert run_cli("blockage", "--config", str(cfg), "--out", str(tmp_path)) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        # a quadrature that fails at every sweep point is a total numerical
        # failure; no valid config is known to cause one, so it is forced
        from mmwregime import detector
        from mmwregime.numerics import QuadratureError

        def failing(*args, **kwargs):
            raise QuadratureError("forced non-convergence", math.nan, math.inf)

        monkeypatch.setattr(detector, "mean_received_power", failing)
        cfg = write_config(
            tmp_path,
            sweeps={"v0_grid_m": [0.0, 3.0], "rho_list": [1.0], "n_list": [200]},
        )
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 2
        text = (out / "regime_map.csv").read_text()
        assert text.count("forced non-convergence") == 2

    def test_validation_failure_exit_code(self, tmp_path, monkeypatch):
        from mmwregime.mcsim import ValidationCheck, ValidationReport

        failing = ValidationReport.from_checks([
            ValidationCheck(
                name="stub", analytic=1.0, empirical=0.0, tolerance=0.1,
                passed=False, samples=1,
            )
        ])
        monkeypatch.setattr(cli.mcsim, "validate_suite", lambda *a, **k: failing)
        cfg = write_config(tmp_path, trials=10)
        assert run_cli("validate", "--config", str(cfg), "--out", str(tmp_path)) == 3

    def test_json_format_flag(self, tmp_path):
        cfg = write_config(tmp_path, sweeps={"beta_grid": [0.5, 1.0], "n_list": [100]})
        out = tmp_path / "out"
        assert run_cli(
            "roc", "--config", str(cfg), "--out", str(out), "--format", "json"
        ) == 0
        doc = json.loads((out / "roc.json").read_text())
        assert len(doc["rows"]) == 2


class TestReproducibility:
    def test_regime_map_bytes_stable_across_workers(self, tmp_path):
        cfg = write_config(
            tmp_path,
            sweeps={"v0_grid_m": [0.0, 2.0, 4.0], "rho_list": [1.0], "n_list": [100]},
        )
        out1, out8 = tmp_path / "o1", tmp_path / "o8"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out1), "--workers", "1") == 0
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out8), "--workers", "8") == 0
        assert (out1 / "regime_map.csv").read_bytes() == (out8 / "regime_map.csv").read_bytes()

    def test_validate_bytes_stable_across_workers(self, tmp_path):
        cfg = write_config(tmp_path, trials=10_000)
        out1, out8 = tmp_path / "o1", tmp_path / "o8"
        assert run_cli("validate", "--config", str(cfg), "--out", str(out1), "--workers", "1") == 0
        assert run_cli("validate", "--config", str(cfg), "--out", str(out8), "--workers", "8") == 0
        assert (out1 / "validation.json").read_bytes() == (out8 / "validation.json").read_bytes()

    def test_simulate_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path, trials=2_000)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out1)) == 0
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out2)) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
