"""The analytic commands at seeded random valid configs.

draw_config draws a config within load_config's rules, not only a
one-factor variant of the shipped one: both PSD shapes, any rolloff, both
blockage combine modes, both fit modes, powers in dBm or in watts, and
random geometry, density, interferer count, pathloss exponent and fading
shape.  At each config blockage, roc and regime-map exit 0, no row reads
error, every number they fill is finite, and the overlap table they share
builds no dense samples.
"""

import json
import math
import sys

import numpy as np
import pytest

from mmwregime import cli
from mmwregime.config import load_config
from mmwregime.spectral import upsilon_table

from test_config_cli import csv_rows

GENERATOR_SEED = 20261021
N_CONFIGS = 8


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _power(rng, lo_dbm: float, hi_dbm: float, base: str) -> dict:
    """One power drawn log-uniformly in [lo_dbm, hi_dbm], given in either unit."""
    dbm = float(rng.uniform(lo_dbm, hi_dbm))
    if rng.random() < 0.5:
        return {f"{base}_dbm": dbm}
    return {f"{base}_watts": 10.0 ** (dbm / 10.0 - 3.0)}


def draw_config(index: int) -> dict:
    """The index-th config of the seeded sequence, as a JSON document."""
    rng = np.random.default_rng([GENERATOR_SEED, index])
    radius = float(rng.uniform(3.0, 50.0))
    v0 = float(rng.uniform(0.0, 0.95)) * radius
    d_s = float(rng.uniform(0.05, 1.0))
    bandwidth = _log_uniform(rng, 2e7, 4e8)
    if rng.random() < 0.5:
        psd = {"shape": "gaussian", "std_hz": float(rng.uniform(0.05, 0.5)) * bandwidth}
    else:
        psd = {"shape": "rectangular", "width_hz": float(rng.uniform(0.1, 1.0)) * bandwidth}
    rho = 0.0 if rng.random() < 0.125 else _log_uniform(rng, 0.01, 5.0)
    n = int(rng.integers(0, 300))
    return {
        "schema_version": 2,
        "geometry": {
            "radius_m": radius,
            "v0_norm_m": v0,
            "beam_halfwidth_deg": float(rng.uniform(1.0, 60.0)),
            "eps_min_m": _log_uniform(rng, 0.01, 0.5 * radius),
        },
        "blockage": {
            "rho_per_m2": rho,
            "d_s_m": d_s,
            "d_e_m": d_s + float(rng.uniform(0.0, 1.5)),
            "mode": str(rng.choice(["reciprocal_length", "length_weighted"])),
        },
        "band": {
            "f_s_hz": 58e9,
            "f_e_hz": 64e9,
            "f_0_hz": float(rng.uniform(58e9, 64e9)),
            "filter_bandwidth_hz": bandwidth,
        },
        "spectral": {
            "psd": psd,
            "filter": {"shape": "raised_cosine", "rolloff": float(rng.uniform(0.0, 1.0)),
                       "width_hz": float(rng.uniform(0.5, 1.5)) * bandwidth},
        },
        "channel": {
            "alpha": float(rng.uniform(2.0, 5.0)),
            "m": float(rng.uniform(0.5, 5.0)),
            **_power(rng, -150.0, 300.0, "q"),
            "n_interferers": n,
            "occupancy": float(rng.uniform(0.0, 1.0)),
        },
        "noise": {**_power(rng, -200.0, 100.0, "sigma2"), **_power(rng, -200.0, 100.0, "phi")},
        "detection": {"beta_th": float(rng.uniform(0.001, 0.5)),
                      "fit_mode": str(rng.choice(["transcendental", "closed_form"]))},
        "sweeps": {
            "v0_grid_m": sorted({v0, float(rng.uniform(0.0, 0.95)) * radius}),
            "beta_grid": [1e-6, 0.01, 0.1, 0.5, 1.0],
            "rho_list": sorted({rho, _log_uniform(rng, 0.01, 5.0)}),
            "n_list": sorted({n, int(rng.integers(0, 300))}),
        },
        "simulation": {"blocking": str(rng.choice(["thinning", "geometric"]))},
        "trials": 1000,
        "seed": int(rng.integers(0, 2**32)),
    }


def finite_cells(rows, columns) -> list:
    """The filled cells of the named columns that are not finite numbers."""
    return [(col, row[col]) for row in rows for col in columns
            if row[col] and not math.isfinite(float(row[col]))]


def lrt_area_overflows(lam: float, sigma2: float) -> bool:
    """Whether the LRT area at rate lam is past the largest double.

    The area is C * int_0^X sqrt(x) exp(k x) dx with C = sqrt(2 pi sigma2)
    * lam, X = 20 * max(2 sigma2, 1/lam) and k = 1/(2 sigma2) - lam (see
    detector.lrt_area).  Its last 1/k of the window alone is at least
    sqrt(X - 1/k) * exp(k X) * (1 - 1/e) / k, a lower bound within about
    one unit of the log area.
    """
    big_x = 20.0 * max(2.0 * sigma2, 1.0 / lam)
    k = 0.5 / sigma2 - lam
    if not k * big_x > 1.0:
        return False
    log_bound = (0.5 * math.log(2.0 * math.pi * sigma2) + math.log(lam) + k * big_x
                 + math.log1p(-math.exp(-1.0)) - math.log(k) + 0.5 * math.log(big_x - 1.0 / k))
    return log_bound > math.log(sys.float_info.max)


@pytest.mark.parametrize("index", range(N_CONFIGS))
def test_analytic_commands_at_a_generated_config(index, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(draw_config(index)))
    run = load_config(path)  # the draw is valid
    upsilon_table.cache_clear()
    for command in ("blockage", "roc", "regime-map"):
        argv = [command, "--config", str(path), "--out", str(tmp_path)]
        assert cli.main(argv) == 0, argv

    doc = json.loads((tmp_path / "blockage.json").read_text())["blockage"]
    assert [key for key, value in doc.items()
            if isinstance(value, str) or not math.isfinite(value)] == []
    roc = csv_rows(tmp_path / "roc.csv")
    assert len(roc) == len(run.n_list) * len(run.beta_grid)
    assert finite_cells(roc, ("p_d",)) == []
    rows = csv_rows(tmp_path / "regime_map.csv")
    assert len(rows) == len(run.rho_list) * len(run.n_list) * len(run.v0_grid)
    assert [row["error"] for row in rows if row["verdict"] == "error"] == []
    assert finite_cells(rows, ("p_b", "mean_y_w", "lambda", "eta_prime_w", "p_d")) == []
    # an LRT area past double range is written inf; any other is finite
    assert [row for row in finite_cells(rows, ("lrt_area",)) if row[1] != "inf"] == []
    assert [row for row in rows if row["lrt_area"] == "inf"
            and not lrt_area_overflows(float(row["lambda"]), run.noise.sigma2)] == []
    assert "values" not in vars(upsilon_table(run.band, run.spectral))
