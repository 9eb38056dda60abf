import ast
import csv
import gc
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmwregime import cli
from mmwregime.config import ConfigError, config_hash, load_config
from mmwregime.spectral import GaussianPsd

from conftest import BASELINE_CONFIG, REPO_ROOT, write_config


class TestLoadConfig:
    def test_shipped_defaults_resolve(self):
        run = load_config(BASELINE_CONFIG)
        assert run.geo.radius == 10.0
        assert run.band.f_0 == 62e9
        assert run.band.f_s == 58e9 and run.band.f_e == 64e9
        assert run.channel.alpha == 2.5
        assert run.channel.m == 3.0
        assert run.channel.q == pytest.approx(10 ** ((27 - 30) / 10))
        assert math.degrees(run.geo.theta) == pytest.approx(10.0)
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
        assert load_config(path).channel.q == 0.25

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
        assert run.band.bandwidth == 1e8
        assert isinstance(run.spectral.psd, GaussianPsd)
        assert run.spectral.psd.std == pytest.approx(2.5e7)
        # thermal floor over 100 MHz
        assert run.noise.sigma2 == pytest.approx(10 ** ((-94 - 30) / 10))

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

    @pytest.mark.parametrize("edit, digest", [
        (None, "55208a59b7529380"),
        (lambda raw: (raw["channel"].pop("q_dbm"), raw["channel"].update(q_watts=0.25)),
         "d5d67b7f4d23d48e"),
        (lambda raw: raw["spectral"].update(psd={"shape": "rectangular", "width_hz": 5e7}),
         "6dccd6aa79954e18"),
        (lambda raw: raw.update(noise={"sigma2_dbm": -20.0, "phi_dbm": 0.0}),
         "77fb0161d59f6279"),
        (lambda raw: raw["sweeps"].update(v0_grid_m=[0, 1, 2], rho_list=[1]),
         "016e37339bffab35"),
        (lambda raw: (raw["sweeps"].pop("n_list"), raw.pop("trials"), raw.pop("seed"),
                      raw.pop("schema_version")),
         "d1c742653af5aaf8"),
    ])
    def test_echo_is_a_complete_config(self, tmp_path, edit, digest):
        # the hashed echo loads back to itself, with nothing left to default
        raw = json.loads(BASELINE_CONFIG.read_text())
        if edit is not None:
            edit(raw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        run = load_config(path)
        assert config_hash(run.resolved) == digest
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(run.resolved))
        again = load_config(echo)
        assert again.resolved == run.resolved
        assert config_hash(again.resolved) == digest
        assert again.defaulted == ()

    def test_beam_halfwidth_echoed_as_given(self, tmp_path):
        path = write_config(tmp_path, geometry={"beam_halfwidth_deg": 3.0})
        assert load_config(path).resolved["geometry"]["beam_halfwidth_deg"] == 3.0

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

    @pytest.mark.parametrize("section, key, value, rule", [
        *((section, f"{base}_{unit}", value, rule)
          for section, base, rule in (("channel", "q", "> 0"), ("noise", "sigma2", "> 0"),
                                      ("noise", "phi", ">= 0"))
          for unit, value in (("dbm", 4000.0), ("watts", math.inf))),
        # zero watts, given or underflowed from dBm, is no transmit or noise power
        ("channel", "q_watts", 0, "> 0"),
        ("channel", "q_dbm", -4000.0, "> 0"),
        ("noise", "sigma2_watts", 0, "> 0"),
        ("noise", "phi_watts", -1e-300, ">= 0"),
    ])
    def test_power_out_of_range_names_its_key(self, tmp_path, section, key, value, rule):
        # one range rule per power on both unit paths: the watts value is
        # finite, and > 0 for q and sigma2 or >= 0 for phi, so a dBm value
        # past the largest double or one that underflows to 0 W is a config
        # error that names its key
        raw = json.loads(BASELINE_CONFIG.read_text())
        base = key.rsplit("_", 1)[0]
        for unit in ("dbm", "watts"):
            raw[section].pop(f"{base}_{unit}", None)
        raw[section][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            f"{section}.{key}: value {float(value)!r} violates constraint: finite and {rule} watts"
        )

    def test_zero_signal_power_is_valid(self, tmp_path):
        path = write_config(tmp_path, noise={"phi_watts": 0})
        assert load_config(path).noise.phi == 0.0

    def test_beta_grid_validated(self, tmp_path):
        path = write_config(tmp_path, sweeps={"beta_grid": [0.0, 0.5]})
        with pytest.raises(ConfigError, match="beta_grid"):
            load_config(path)


def run_interpreter(*args):
    """A fresh interpreter with src/ on the path, run to completion."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def run_python(code, *args):
    """stdout of code run in a fresh interpreter with src/ on the path."""
    proc = run_interpreter("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", [
    "blockage", "cli", "config", "detector", "interference", "mcsim", "numerics", "spectral",
])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"mmwregime.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_only_cli_imports_config():
    # the schema stays at the front end: config builds the components, cli
    # hands them to the library, and no library module reads config back
    importers = set()
    for path in sorted((REPO_ROOT / "src" / "mmwregime").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative to the flat package
                    base = "mmwregime." + base if base else "mmwregime"
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if "mmwregime.config" in names:
                importers.add(path.stem)
    assert importers == {"cli"}


def test_start_up_and_every_command_on_the_shipped_config_load_no_scipy(tmp_path):
    # the package computes its special functions and validate's p-values
    # itself; only the cosine terms of a tapered filter under a Gaussian PSD
    # (the Faddeeva function) import scipy, where they are called
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import mmwregime\n"
        "from mmwregime import cli\n"
        "assert loaded() == [], loaded()\n"
        "for cmd in ('blockage', 'roc', 'regime-map', 'simulate'):\n"
        "    argv = [cmd, '--config', sys.argv[1], '--out', sys.argv[2], '--trials', '500']\n"
        "    assert cli.main(argv) == 0, cmd\n"
        "argv = ['validate', '--config', sys.argv[1], '--out', sys.argv[2], '--workers', '1',\n"
        "        '--trials', '2000']\n"
        # every check runs and passes: the false-alarm tolerance is four
        # binomial standard errors at 2000 trials
        "assert cli.main(argv) == 0, 'validate'\n"
        "print(loaded())\n"
    )
    assert json.loads(BASELINE_CONFIG.read_text())["simulation"]["blocking"] == "thinning"
    assert run_python(code, str(BASELINE_CONFIG), str(tmp_path)) == "[]"


def test_analytic_commands_load_no_thread_pool(tmp_path):
    # worker threads serve simulate and validate alone, so the thread pool
    # (and the logging, queue and traceback it brings) loads only there
    code = (
        "import sys\n"
        "from mmwregime import cli\n"
        "for cmd in ('blockage', 'roc', 'regime-map'):\n"
        "    assert cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0, cmd\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    assert run_python(code, str(BASELINE_CONFIG), str(tmp_path)) == "False"


def test_analytic_commands_load_no_openssl_or_polynomial_package(tmp_path):
    # the config digest takes CPython's built-in SHA-256 and the quadrature
    # rule is stored, so neither hashlib's OpenSSL module nor numpy's
    # polynomial package loads on the way to an analytic output
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return [m for m in ('_hashlib', 'numpy.polynomial') if m in sys.modules]\n"
        "from mmwregime import cli\n"
        "seen = [loaded()]\n"
        "cli.load_config(sys.argv[1])\n"
        "seen.append(loaded())\n"
        "for cmd in ('blockage', 'roc', 'regime-map'):\n"
        "    assert cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0, cmd\n"
        "    seen.append(loaded())\n"
        "print(seen)\n"
    )
    assert run_python(code, str(BASELINE_CONFIG), str(tmp_path)) == str([[]] * 5)


def test_config_hash_falls_back_to_hashlib():
    # without the built-in module (a Python built without it) the digest
    # comes from hashlib and is the same pinned value
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from mmwregime.config import config_hash, load_config, sha256\n"
        "import hashlib\n"
        "assert sha256 is hashlib.sha256, sha256\n"
        "print(config_hash(load_config(sys.argv[1]).resolved))\n"
    )
    assert run_python(code, str(BASELINE_CONFIG)) == "55208a59b7529380"


def test_analytic_commands_never_compile_or_run_the_simulator(tmp_path):
    # mcsim is a lazy module: blockage, roc and regime-map neither compile
    # nor execute mcsim.py, whether or not its bytecode is cached, and
    # simulate loads it on first use
    code = (
        "import os, sys\n"
        "target = os.path.join('mmwregime', 'mcsim.py')\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile':\n"
        "        seen.append(str(args[1]))\n"
        "    elif event == 'exec':\n"
        "        seen.append(getattr(args[0], 'co_filename', ''))\n"
        "def loaded():\n"
        "    return any(name.endswith(target) for name in seen)\n"
        "sys.addaudithook(hook)\n"
        "from mmwregime import cli\n"
        "for cmd in ('blockage', 'roc', 'regime-map'):\n"
        "    assert cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0, cmd\n"
        "print(loaded())\n"
        "argv = ['simulate', '--config', sys.argv[1], '--out', sys.argv[2], '--trials', '500']\n"
        "assert cli.main(argv) == 0, 'simulate'\n"
        "print(loaded())\n"
    )
    assert run_python(code, str(BASELINE_CONFIG), str(tmp_path)).split() == ["False", "True"]


def run_cli(*args):
    return cli.main(list(args))


def csv_rows(path):
    """The data rows of a CSV the CLI wrote, as dicts keyed by its header,
    read past the '# key: value' provenance lines; a row whose field count
    differs from the header's fails."""
    with path.open(newline="") as f:
        rows = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), f))
        header = next(rows)
        return [dict(zip(header, row, strict=True)) for row in rows]


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli("blockage") == 1  # --config missing
        assert run_cli("no-such-command", "--config", "x") == 1

    @pytest.mark.parametrize("command", ["blockage", "regime-map", "roc", "validate", "simulate"])
    def test_format_flag_is_a_usage_error(self, tmp_path, capsys, command):
        # each command writes one file in one format, so there is no --format
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(BASELINE_CONFIG), "--out", str(out),
                       "--format", "json") == 1
        assert not out.exists()

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
        # rho outermost, then n, then v0, each in the config's list order
        rho_list, n_list, v0_grid = [1.0, 0.5], [200, 50], [0.0, 6.0, 3.0]
        cfg = write_config(
            tmp_path,
            sweeps={"v0_grid_m": v0_grid, "rho_list": rho_list, "n_list": n_list},
        )
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0
        rows = csv_rows(out / "regime_map.csv")
        assert [(float(r["rho"]), int(r["n"]), float(r["v0_m"])) for r in rows] == [
            (rho, n, v0) for rho in rho_list for n in n_list for v0 in v0_grid
        ]
        area = {(r["rho"], r["n"], r["v0_m"]): float(r["lrt_area"]) for r in rows}
        for (rho, n, v0), sparse in area.items():
            if rho == "0.5":
                assert area[("1.0", n, v0)] <= sparse

    def test_regime_map_computes_p_b_once_per_location(self, tmp_path, monkeypatch):
        # p_b depends on (rho, v0) only, so the shipped sweep's 90 points
        # make one blockage_probability call per (rho, v0)
        from mmwregime import detector

        original, calls = detector.blockage_probability, []

        def counting(cfg, geo):
            calls.append((cfg.rho, geo.v0_norm))
            return original(cfg, geo)

        monkeypatch.setattr(detector, "blockage_probability", counting)
        assert run_cli("regime-map", "--config", str(BASELINE_CONFIG), "--out", str(tmp_path)) == 0
        assert len(calls) == len(set(calls)) == 30
        assert len(csv_rows(tmp_path / "regime_map.csv")) == 90

    def test_regime_map_pole_at_one_offset_fails_only_its_rows(self, tmp_path, monkeypatch):
        # E[ell] at the apex length (d_s + d_e)/(4 tan theta) for the
        # receiver at 3 m only: that offset's row reads "error" at every
        # (rho, n), the sweep goes on, and every other row is as it was
        from mmwregime import blockage

        cfg = write_config(tmp_path, sweeps={"v0_grid_m": [0.0, 3.0, 6.0],
                                             "rho_list": [0.5, 2.0], "n_list": [50, 200]})
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(tmp_path / "ok")) == 0
        mean_distance = blockage.mean_distance

        def apex_at_3m(g):
            if g.v0_norm == 3.0:
                return 0.5 * (0.2 + 0.8) / (2.0 * math.tan(g.theta))
            return mean_distance(g)

        monkeypatch.setattr(blockage, "mean_distance", apex_at_3m)
        out = tmp_path / "pole"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0
        rows = csv_rows(out / "regime_map.csv")
        failed = [r for r in rows if r["v0_m"] == "3.0"]
        assert len(failed) == 4
        for row in failed:
            assert row["verdict"] == "error" and "pole" in row["error"]
            assert row["p_b"] == ""
        expected = [r for r in csv_rows(tmp_path / "ok" / "regime_map.csv") if r["v0_m"] != "3.0"]
        assert [r for r in rows if r["v0_m"] != "3.0"] == expected
        assert all(r["verdict"] != "error" for r in expected)

    # one-factor variants of the shipped config, each a set of section overrides
    AGREEMENT_VARIANTS = {
        "shipped": {},
        "rho_0": {"blockage": {"rho_per_m2": 0.0}, "sweeps": {"rho_list": [0.0, 1.0]}},
        "length_weighted": {"blockage": {"mode": "length_weighted"}},
        "m_0.5": {"channel": {"m": 0.5}},
        "alpha_4": {"channel": {"alpha": 4.0}},
        "eps_min_3": {"geometry": {"eps_min_m": 3.0}},
        "v0_4": {"geometry": {"v0_norm_m": 4.0}},
        "rolloff_0.25": {"spectral": {"filter": {"shape": "raised_cosine", "rolloff": 0.25,
                                                 "width_hz": 1e8}}},
        "rectangular_psd": {"spectral": {"psd": {"shape": "rectangular", "width_hz": 5e7}}},
        "phi_0": {"noise": {"phi_watts": 0.0}},
        "closed_form": {"detection": {"fit_mode": "closed_form"}},
    }

    @pytest.mark.parametrize("variant", list(AGREEMENT_VARIANTS))
    def test_roc_and_regime_map_agree_at_the_shipped_significance(self, tmp_path, variant):
        # roc evaluates the regime-map chain at the config's (rho, v0) for
        # each n, so at the map's significance level the two commands write
        # the same P_D string, and every value either fills is finite
        cfg = write_config(tmp_path, **self.AGREEMENT_VARIANTS[variant])
        raw = json.loads(cfg.read_text())
        assert raw["detection"]["beta_th"] == 0.05 and 0.05 in raw["sweeps"]["beta_grid"]
        for command in ("blockage", "roc", "regime-map"):
            assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 0
        roc_rows, map_rows = csv_rows(tmp_path / "roc.csv"), csv_rows(tmp_path / "regime_map.csv")
        assert all(r["verdict"] != "error" for r in map_rows)
        cells = [r["p_d"] for r in roc_rows] + [
            r[col] for r in map_rows for col in ("p_d", "mean_y_w", "lambda")]
        assert all(math.isfinite(float(c)) for c in cells if c)
        roc = {r["n"]: r["p_d"] for r in roc_rows if r["beta"] == "0.05"}
        here = (repr(raw["blockage"]["rho_per_m2"]), repr(raw["geometry"]["v0_norm_m"]))
        centre = {r["n"]: r["p_d"] for r in map_rows if (r["rho"], r["v0_m"]) == here}
        assert sorted(centre, key=int) == ["50", "100", "200"] and any(centre.values())
        assert centre == roc

    # the variants whose simulated law differs from the shipped one
    SIMULATED_VARIANTS = ["rho_0", "m_0.5", "alpha_4", "eps_min_3", "v0_4", "rolloff_0.25",
                          "rectangular_psd"]

    @pytest.mark.parametrize("variant", SIMULATED_VARIANTS)
    def test_validate_agrees_at_the_variant(self, tmp_path, variant):
        # every gated row passes; a goodness-of-fit row (tolerance 0.99)
        # passes at the Bonferroni level 0.01/(8K) over the K variants, so
        # the family-wise false-alarm rate of this test stays under 1%
        cfg = write_config(tmp_path, **self.AGREEMENT_VARIANTS[variant])
        code = run_cli("validate", "--config", str(cfg), "--out", str(tmp_path), "--trials",
                       "20000")
        doc = json.loads((tmp_path / "validation.json").read_text())
        assert code == (0 if doc["passed"] else 3)
        level = 0.01 / (8 * len(self.SIMULATED_VARIANTS))
        failed = [c["name"] for c in doc["checks"]
                  if not (c["empirical"] > level if c["tolerance"] == 0.99 else c["passed"])]
        assert failed == []

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
        rows = csv_rows(out / "regime_map.csv")
        assert "lrt_area" in rows[0] and len(rows) == 90
        assert [r for r in rows if r["error"] or r["verdict"] == "error"] == []
        assert any(r["lrt_area"] == "inf" for r in rows)

    @pytest.mark.parametrize("edit, command, filename", [
        ({"blockage": {"rho_per_m2": 500.0}}, "blockage", "blockage.json"),
        ({"blockage": {"rho_per_m2": 500.0}}, "roc", "roc.csv"),
        ({"channel": {"occupancy": 0.0}}, "roc", "roc.csv"),
        ({"channel": {"occupancy": 0.0}}, "regime-map", "regime_map.csv"),
        ({"channel": {"q_dbm": -150.0}}, "roc", "roc.csv"),
        ({"channel": {"q_dbm": -150.0}}, "regime-map", "regime_map.csv"),
        ({"sweeps": {"n_list": [0, 50]}}, "roc", "roc.csv"),
    ], ids=["rho_500-blockage", "rho_500-roc", "occupancy_0-roc", "occupancy_0-regime_map",
            "q_dbm_-150-roc", "q_dbm_-150-regime_map", "n_list_0_50-roc"])
    def test_valid_config_exits_zero(self, tmp_path, edit, command, filename):
        # a dense obstacle field, or no interference above the signal power
        cfg = write_config(tmp_path, **edit)
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 0
        assert (out / filename).is_file()

    def test_regime_map_of_infeasible_fits_is_noise_limited(self, tmp_path):
        # an idle roster: every fit is infeasible, a noise_limited verdict
        # with its reason in the error column, and the map is a success
        cfg = write_config(tmp_path, channel={"occupancy": 0.0},
                           sweeps={"v0_grid_m": [0.0, 5.0], "rho_list": [1.0], "n_list": [200]})
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0
        rows = csv_rows(out / "regime_map.csv")
        assert len(rows) == 2
        for row in rows:
            assert row["verdict"] == "noise_limited" and row["error"]
            assert row["p_d"] == ""

    def test_roc_count_without_interference_has_empty_p_d(self, tmp_path):
        # no interferer at n = 0: its rows carry an empty p_d in sorted-beta
        # order, and the other count's rows are those it has on its own
        def data_lines(n_list, out):
            cfg = write_config(tmp_path, sweeps={"n_list": n_list,
                                                 "beta_grid": [0.5, 1e-3, 1.0, 0.05]})
            assert run_cli("roc", "--config", str(cfg), "--out", str(out)) == 0
            return [l for l in (out / "roc.csv").read_text().splitlines()
                    if l and not l.startswith("#")][1:]

        both = data_lines([0, 50], tmp_path / "both")
        assert both[:4] == ["0,0.001,0.001,", "0,0.05,0.05,", "0,0.5,0.5,", "0,1.0,1.0,"]
        assert both[4:] == data_lines([50], tmp_path / "alone")

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

    def test_infinite_lrt_area_is_written_inf(self, tmp_path):
        # the thermal-noise default gives infinite LRT areas
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw["noise"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(cfg), "--out", str(out)) == 0
        rows = csv_rows(out / "regime_map.csv")
        assert len(rows) == 90
        assert any(row["lrt_area"] == "inf" for row in rows)

    def test_failed_check_writes_standard_json(self, tmp_path, monkeypatch):
        # a check's numerical failure fills its row with nan, which standard
        # JSON has no constant for
        from mmwregime import mcsim
        from mmwregime.numerics import NumericsError

        def _distance_check(*args):
            raise NumericsError("forced non-convergence")

        monkeypatch.setattr(mcsim, "_distance_check", _distance_check)
        cfg = write_config(tmp_path, trials=2000)
        out = tmp_path / "out"
        assert run_cli("validate", "--config", str(cfg), "--out", str(out)) == 3

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((out / "validation.json").read_text(), parse_constant=reject)
        row = next(c for c in doc["checks"] if c["name"] == "distance_check")
        assert row["analytic"] == row["empirical"] == "nan"
        assert not row["passed"] and not doc["passed"]

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

    def test_simulate_rows_are_repr_of_samples(self, tmp_path):
        from mmwregime import mcsim
        from mmwregime.blockage import blockage_probability

        cfg = write_config(tmp_path, trials=300, seed=17)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        run = load_config(cfg)
        samples = mcsim.simulate_received_power(
            run.channel, run.geo, run.band, run.spectral, run.noise.phi,
            trials=300, seed=17, blocking="thinning",
            p_b=blockage_probability(run.blockage, run.geo).p_b,
        )
        rows = [
            l for l in (out / "samples.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        assert rows == [f"{i},{y!r}" for i, y in enumerate(samples.tolist())]

    def test_simulate_file_is_the_one_write_rows_makes(self, tmp_path):
        from mmwregime import mcsim
        from mmwregime.blockage import blockage_probability

        cfg = write_config(tmp_path, trials=300, seed=17)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        run = load_config(cfg)
        samples = mcsim.simulate_received_power(
            run.channel, run.geo, run.band, run.spectral, run.noise.phi,
            trials=300, seed=17, blocking="thinning",
            p_b=blockage_probability(run.blockage, run.geo).p_b,
        )
        rows = [{"trial": i, "y_watts": y} for i, y in enumerate(samples.tolist())]
        ref = tmp_path / "ref.csv"
        cli._write_rows(ref, rows, ["trial", "y_watts"], cli._provenance(run))
        assert (out / "samples.csv").read_bytes() == ref.read_bytes()

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

    def test_overridden_seed_and_trials_are_not_defaulted(self, tmp_path):
        raw = json.loads(BASELINE_CONFIG.read_text())
        del raw["seed"], raw["trials"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--config", str(cfg), "--out", str(out), "--seed", "7", "--trials", "5",
        )
        assert code == 0
        header = [
            l for l in (out / "samples.csv").read_text().splitlines() if l.startswith("#")
        ]
        assert "# defaulted_fields: []" in header
        assert '# config_sha256: "7f9fe79d531dc3c7"' in header

    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", "-3", "seed"), ("--trials", "0", "trials"),
    ])
    def test_invalid_override_is_config_error(self, tmp_path, capsys, flag, value, field):
        code = run_cli(
            "simulate", "--config", str(BASELINE_CONFIG), "--out", str(tmp_path), flag, value,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}: value {value}")

    def test_invalid_component_value_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, blockage={"d_s_m": -1.0})
        assert run_cli("blockage", "--config", str(cfg), "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("field, value", [
        ("v0_grid_m", "abc"), ("v0_grid_m", None), ("n_list", True),
        ("n_list", 1.5), ("rho_list", "0.5"), ("beta_grid", True),
    ])
    def test_sweep_element_of_wrong_type_is_config_error(self, tmp_path, capsys, field, value):
        # each list element takes the rule of a scalar field: no bool, no str
        cfg = write_config(tmp_path, sweeps={field: [value]})
        assert run_cli("roc", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"sweeps.{field}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["v0_grid_m", "beta_grid", "rho_list", "n_list"])
    def test_empty_sweep_list_names_its_key(self, tmp_path, capsys, field):
        # the non-empty rule is a field rule, so its message names the JSON key
        cfg = write_config(tmp_path, sweeps={field: []})
        assert run_cli("roc", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: sweeps.{field}: value [] violates constraint"
        )

    @pytest.mark.parametrize("command", ["roc", "regime-map"])
    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # a numerical failure at every sweep point is a total numerical
        # failure, forced here at the mean power.  Both commands reach it
        # through detector's chain
        from mmwregime import detector
        from mmwregime.numerics import NumericsError

        def failing(*args, **kwargs):
            raise NumericsError("forced non-convergence")

        monkeypatch.setattr(detector, "mean_received_power", failing)
        cfg = write_config(
            tmp_path,
            sweeps={"v0_grid_m": [0.0, 3.0], "rho_list": [1.0], "n_list": [200]},
        )
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        if command == "roc":
            assert err == "numerical failure: forced non-convergence\n"
            assert not (out / "roc.csv").exists()
        else:
            assert err == "numerical failure: every sweep point failed: forced non-convergence\n"
            text = (out / "regime_map.csv").read_text()
            assert text.count("forced non-convergence") == 2

    @pytest.mark.parametrize("command", ["roc", "regime-map"])
    def test_overflowed_mean_power_names_itself(self, tmp_path, capsys, command):
        # a valid config whose q * eps_min^-alpha (about 1e294 W times
        # 0.028^-7.7) passes double range: the mean received power is inf,
        # and the failure says so instead of naming an empty fit bracket
        cfg = write_config(tmp_path, channel={"q_dbm": 2969.9, "alpha": 7.7},
                           geometry={"eps_min_m": 0.028})
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        reason = "mean received power inf W is not finite (past double range); no rate fits"
        err = capsys.readouterr().err
        if command == "roc":
            assert err == f"numerical failure: {reason}\n"
            assert not (out / "roc.csv").exists()
        else:
            assert err == f"numerical failure: every sweep point failed: {reason}\n"
            rows = csv_rows(out / "regime_map.csv")
            assert {(row["mean_y_w"], row["verdict"], row["error"]) for row in rows} == {
                ("inf", "error", reason)
            }

    def test_error_text_with_a_comma_round_trips(self, tmp_path, monkeypatch, capsys):
        # a reason with a comma, a quote and a line break is one quoted cell
        # (RFC 4180), so every row keeps the header's 11 fields
        from mmwregime import detector
        from mmwregime.numerics import NumericsError

        reason = 'the window rounds to phi = 0.001, got "lo >= hi"\nat 3 m'

        def failing(*args, **kwargs):
            raise NumericsError(reason)

        monkeypatch.setattr(detector, "mean_received_power", failing)
        out = tmp_path / "out"
        assert run_cli("regime-map", "--config", str(BASELINE_CONFIG), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"numerical failure: every sweep point failed: {reason}\n"
        rows = csv_rows(out / "regime_map.csv")
        assert [len(row) for row in rows] == [len(detector.REGIME_COLUMNS)] * 90
        assert {(row["verdict"], row["error"]) for row in rows} == {("error", reason)}

    def test_validation_failure_exit_code(self, tmp_path, monkeypatch):
        from mmwregime.mcsim import ValidationCheck, ValidationReport

        failing = ValidationReport((
            ValidationCheck(
                name="stub", analytic=1.0, empirical=0.0, tolerance=0.1,
                passed=False, samples=1,
            ),
        ), passed=False)
        monkeypatch.setattr(cli.mcsim, "validate_suite", lambda *a, **k: failing)
        cfg = write_config(tmp_path, trials=10)
        assert run_cli("validate", "--config", str(cfg), "--out", str(tmp_path)) == 3

    @pytest.mark.parametrize("command, filename, extra", [
        ("blockage", "blockage.json", ()),
        ("simulate", "samples.csv", ("--trials", "100")),
    ])
    def test_unwritable_out_is_an_output_error(self, tmp_path, monkeypatch, capsys,
                                               command, filename, extra):
        # an --out that names a file fails before the command computes anything
        taken = tmp_path / "taken"
        taken.write_text("")

        def forbidden(*args):
            raise AssertionError("the command ran")

        with monkeypatch.context() as patch:
            patch.setitem(cli._COMMANDS, command, forbidden)
            assert run_cli(command, "--config", str(BASELINE_CONFIG), "--out", str(taken),
                           *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "File exists" in err
        # a directory where the output file goes fails at the write
        (tmp_path / "out" / filename).mkdir(parents=True)
        assert run_cli(command, "--config", str(BASELINE_CONFIG), "--out",
                       str(tmp_path / "out"), *extra) == 1
        assert capsys.readouterr().err.startswith("output error: ")


class TestProcessEntry:
    """The process entry shared by the mmwregime script and python -m."""

    def test_entry_freezes_the_heap_before_exit(self, tmp_path):
        # the shutdown collections skip the permanent generation, so the
        # heap the command leaves is frozen by the time the exit handlers run
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            "sys.argv[1:] = ['blockage', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "runpy.run_module('mmwregime.cli', run_name='__main__', alter_sys=True)\n"
        )
        assert int(run_python(code, str(BASELINE_CONFIG), str(tmp_path))) > 0

    def test_main_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli("blockage", "--config", str(BASELINE_CONFIG), "--out", str(tmp_path)) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_entry_of_python_m(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, name = scripts["mmwregime"].split(":")
        assert module == cli.__name__
        tree = ast.parse(Path(cli.__file__).read_text())
        block = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({name}())"]
        assert getattr(cli, name) is cli.entry

    @pytest.mark.parametrize("argv, filename, code, err", [
        (["blockage", "--config", str(BASELINE_CONFIG)], "blockage.json", 0, ""),
        (["blockage"], None, 1, "usage: mmwregime blockage "),
        (["blockage", "--config", "{bad}"], None, 1, "config error: "),
        (["regime-map", "--config", "{overflow}"], "regime_map.csv", 2, "numerical failure: "),
    ], ids=["ok", "usage_error", "config_error", "overflow"])
    def test_process_exit_matches_main(self, tmp_path, capsys, argv, filename, code, err):
        # exit code, stderr and output bytes of python -m equal main's in-process
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        overflow = write_config(tmp_path, channel={"q_dbm": 2969.9, "alpha": 7.7},
                                geometry={"eps_min_m": 0.028})
        argv = [a.format(bad=bad, overflow=overflow) for a in argv]
        proc = run_interpreter("-m", "mmwregime.cli", *argv, "--out", str(tmp_path / "proc"))
        assert run_cli(*argv, "--out", str(tmp_path / "main")) == proc.returncode == code
        assert proc.stderr == capsys.readouterr().err
        assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err)
        if filename:
            assert ((tmp_path / "proc" / filename).read_bytes()
                    == (tmp_path / "main" / filename).read_bytes())


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
