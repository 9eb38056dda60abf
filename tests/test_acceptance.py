"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line (visible with pytest -s); a failing
criterion surfaces as an ordinary pytest failure.  Monte-Carlo criteria run
at pinned seeds so the suite is deterministic; the margin analysis behind
the pinned values is in the test bodies.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats

import mmwregime as mw
from mmwregime import cli, mcsim

from conftest import write_config

NOISE = mw.NoiseConfig(sigma2=5e-3, phi=1e-3)
BAND = mw.BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=1e8)
MODEL = mw.SpectralModel(
    psd=mw.GaussianPsd(std=2.5e7),
    filter=mw.RaisedCosineFilter(rolloff=0.0, width=1e8),
)
GEO = mw.GeometryConfig(radius=10.0, v0_norm=0.0, theta=math.radians(10.0), eps_min=0.5)
BLOCKAGE = mw.BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length")
CHANNEL = mw.ChannelConfig(alpha=2.5, m=3.0, q=mw.dbm_to_watts(27.0), n=200, p=0.5)
V0_GRID = [float(v) for v in range(10)]


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_null_power_distribution():
    start = time.monotonic()
    samples = mcsim.sample_h0_power(NOISE, 100_000, seed=101)
    res = stats.kstest(samples, lambda y: mw.h0_cdf(y, NOISE))
    assert res.pvalue > 0.01
    assert time.monotonic() - start < 10.0
    report(1, f"null-power KS p={res.pvalue:.3f}")


def test_02_threshold_calibration():
    h0 = mcsim.sample_h0_power(NOISE, 100_000, seed=202)
    for beta in (0.1, 0.5, 0.9):
        eta = mw.np_threshold(beta, NOISE)
        assert abs(1.0 - mw.h0_cdf(eta, NOISE) - beta) <= 1e-10
        p_f = float(np.mean(h0 > eta))
        assert p_f == pytest.approx(beta, abs=0.01)
    report(2, "false-alarm calibration at beta in {0.1, 0.5, 0.9}")


def test_03_nonblocked_count_total_variation():
    # the simulator's per-trial count of in-band survivors, against the count
    # law at the analytic in-band share of offsets
    table = mw.upsilon_table(BAND, MODEL)
    in_band = table.rule_weights.sum() / (BAND.f_e - BAND.f_s)
    tvs = []
    for n, p, p_b in [(200, 0.5, 0.3), (50, 1.0, 0.0), (100, 0.2, 0.9)]:
        channel = dataclasses.replace(CHANNEL, n=n, p=p)
        rng = mcsim._rng(303, mcsim._NS_POWER, 0)
        k, _, _ = mcsim._inband_counts(rng, 100_000, channel, BAND, table.cutoff, p_b)
        emp = np.bincount(k, minlength=n + 1) / 100_000
        tv = 0.5 * float(np.abs(emp - mw.nonblocked_count_pmf(n, p * in_band, p_b)).sum())
        assert tv < 0.01, (n, p, p_b, tv)
        tvs.append(f"{tv:.4f}")
    report(3, f"simulated in-band count law within TV 0.01 (TV {', '.join(tvs)})")


def test_04_mgf_identities():
    assert abs(mw.interferer_power_mgf(0.0, CHANNEL, GEO, BAND, MODEL) - 1.0) <= 1e-12
    assert mw.aggregate_mgf(0.0, NOISE.phi, 0.3, CHANNEL, GEO, BAND, MODEL) == 1.0

    idle = dataclasses.replace(CHANNEL, p=0.0)
    for s in (-1e-3, -1.0, -1e3):
        want = math.exp(NOISE.phi * s)
        got_idle = mw.aggregate_mgf(s, NOISE.phi, 0.0, idle, GEO, BAND, MODEL)
        got_blocked = mw.aggregate_mgf(s, NOISE.phi, 1.0, CHANNEL, GEO, BAND, MODEL)
        assert abs(got_idle - want) <= 1e-12
        assert abs(got_blocked - want) <= 1e-12

    p_b = mw.blockage_probability(BLOCKAGE, GEO).p_b
    # alpha = 1.5 keeps the first pathloss moment integrable at the origin,
    # yet it starts at eps_min like every other moment
    for channel in (CHANNEL, dataclasses.replace(CHANNEL, alpha=1.5)):
        mean = mw.mean_received_power(NOISE.phi, p_b, channel, GEO, BAND, MODEL)
        h = 1e-6 / mean
        central = (
            mw.aggregate_mgf(h, NOISE.phi, p_b, channel, GEO, BAND, MODEL)
            - mw.aggregate_mgf(-h, NOISE.phi, p_b, channel, GEO, BAND, MODEL)
        ) / (2.0 * h)
        assert central == pytest.approx(mean, rel=1e-4), channel.alpha
    report(4, "MGF identities and first-moment derivative")


def test_05_moment_oracle_against_simulation():
    # eps_min pinned at 0.1 m here per the shipped guarantee.  The pathloss
    # tail concentrates variance at the exclusion radius: the standard
    # error is 1.8-2.1% of the mean at 1e6 trials, about 0.6% at 1e7.  So
    # the mean is held, as validate's mean-power check holds it, to 1% or
    # four standard errors, whichever is looser (about 2.4% here); a 4%
    # bias of the simulated mean fails at every seed from 3 to 10
    start = time.monotonic()
    geo = dataclasses.replace(GEO, eps_min=0.1)
    p_b = mw.blockage_probability(BLOCKAGE, geo).p_b
    analytic = mw.mean_received_power(NOISE.phi, p_b, CHANNEL, geo, BAND, MODEL)
    samples = mw.simulate_received_power(
        CHANNEL, geo, BAND, MODEL, NOISE.phi, trials=10_000_000, seed=3,
        blocking="thinning", p_b=p_b, workers=2,
    )
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
    assert mean == pytest.approx(analytic, abs=max(0.01 * analytic, 4.0 * se))
    assert time.monotonic() - start < 120.0
    report(5, f"simulated mean vs analytic ({mean / analytic - 1.0:+.2%}, se {se / analytic:.2%})")


def test_06_maximum_entropy_fit():
    p_b = mw.blockage_probability(BLOCKAGE, GEO).p_b
    mean = mw.mean_received_power(NOISE.phi, p_b, CHANNEL, GEO, BAND, MODEL)

    closed = mw.fit_me_lambda(mean, NOISE.phi, "closed_form")
    assert NOISE.phi + 1.0 / closed.lam == pytest.approx(mean, rel=1e-14)

    fit_t = mw.fit_me_lambda(mean, NOISE.phi, "transcendental")
    lam = fit_t.lam
    resid = (lam * NOISE.phi + 1.0) * math.exp(-lam * NOISE.phi) - mean * lam**2
    assert abs(resid) <= 1e-10

    no_signal = mw.fit_me_lambda(mean, 0.0, "transcendental")
    assert no_signal.lam == pytest.approx(1.0 / math.sqrt(mean), rel=1e-12)
    report(6, "maximum-entropy rate fits")


def test_07_detection_probability_exceedance():
    p_b = mw.blockage_probability(BLOCKAGE, GEO).p_b
    mean = mw.mean_received_power(NOISE.phi, p_b, CHANNEL, GEO, BAND, MODEL)
    fit = mw.fit_me_lambda(mean, NOISE.phi, "transcendental")
    eta = mw.np_threshold(0.1, NOISE)
    analytic = mw.detection_probability(fit, eta, NOISE.phi)
    rng = np.random.default_rng(707)
    samples = NOISE.phi + rng.exponential(1.0 / fit.lam, 100_000)
    emp = float(np.mean(samples > eta))
    assert emp == pytest.approx(analytic, abs=0.01)
    report(7, f"detection probability {analytic:.3f} matched within 0.01")


def _area_grids(rho_list, n_list):
    """The LRT areas of each (rho, n) family of one sweep, in V0_GRID order."""
    pts = mw.regime_map(BLOCKAGE, GEO, CHANNEL, BAND, MODEL, NOISE, rho_list, n_list, V0_GRID,
                        beta_th=0.05)
    assert all(p["error"] is None for p in pts)
    grids = {}
    for p in pts:
        grids.setdefault((p["rho"], p["n"]), []).append(p["lrt_area"])
    return grids


def test_08_location_sweep_trends():
    start = time.monotonic()
    grids = _area_grids([0.5, 1.0, 2.0], [CHANNEL.n])
    areas = {rho: grids[(rho, CHANNEL.n)] for rho in (0.5, 1.0, 2.0)}
    for rho, a in areas.items():
        assert all(b <= x for x, b in zip(a, a[1:])), (rho, a)
    for i in range(len(V0_GRID)):
        assert areas[0.5][i] >= areas[1.0][i] >= areas[2.0][i], i
    assert time.monotonic() - start < 300.0
    report(8, "LRT area falls with receiver offset and with obstacle density")


def test_09_population_sweep_trends():
    grids = _area_grids([BLOCKAGE.rho, 0.0], [50, 100, 200])
    by_n = {n: grids[(BLOCKAGE.rho, n)] for n in (50, 100, 200)}
    free_by_n = {n: grids[(0.0, n)] for n in (50, 100, 200)}
    for i in range(len(V0_GRID)):
        assert by_n[50][i] <= by_n[100][i] <= by_n[200][i], i
        for n in (50, 100, 200):
            assert free_by_n[n][i] >= by_n[n][i], (n, i)
    report(9, "LRT area grows with interferer count; ignoring blockage overstates it")


def test_10_roc_trends():
    betas = [1e-300, 1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0]
    p_b = mw.blockage_probability(BLOCKAGE, GEO).p_b
    curves = {}
    for n in (50, 100, 200):
        channel = dataclasses.replace(CHANNEL, n=n)
        mean = mw.mean_received_power(NOISE.phi, p_b, channel, GEO, BAND, MODEL)
        assert mean > NOISE.phi + NOISE.sigma2  # diagonal guarantee applies
        fit = mw.fit_me_lambda(mean, NOISE.phi, "transcendental")
        curve = mw.roc_curve(fit, NOISE, betas)
        assert all(p_d >= p_f for p_f, p_d in curve), n
        p_f0, p_d0 = curve[0]
        assert p_f0 <= 1e-12 and p_d0 <= 1e-6  # passes through (~0, ~0)
        assert curve[-1] == (1.0, 1.0)
        curves[n] = [p_d for _, p_d in curve]
    for i in range(len(betas)):
        assert curves[50][i] <= curves[100][i] <= curves[200][i], i
    report(10, "ROC above diagonal, correct endpoints, monotone in interferer count")


def test_11_byte_identical_outputs_across_workers(tmp_path):
    cfg = write_config(
        tmp_path,
        trials=20_000,
        sweeps={"v0_grid_m": [0.0, 3.0, 6.0, 9.0], "rho_list": [1.0], "n_list": [200]},
    )
    outs = {}
    for workers in (1, 8):
        for command, filename in (("validate", "validation.json"), ("regime-map", "regime_map.csv")):
            out = tmp_path / f"{command}-{workers}"
            code = cli.main([
                command, "--config", str(cfg), "--out", str(out),
                "--workers", str(workers),
            ])
            assert code == 0, (command, workers)
            outs[(command, workers)] = (out / filename).read_bytes()
    assert outs[("validate", 1)] == outs[("validate", 8)]
    assert outs[("regime-map", 1)] == outs[("regime-map", 8)]
    report(11, "validate and regime-map byte-identical for 1 and 8 workers")
