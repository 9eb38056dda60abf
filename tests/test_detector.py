import math
from dataclasses import replace

import numpy as np
import pytest

from mmwregime.detector import (
    INTERFERENCE_LIMITED,
    NOISE_LIMITED,
    REGIME_COLUMNS,
    InfeasibleFitError,
    MeFit,
    NoiseConfig,
    _dawson,
    _erfcinv,
    _gammainc_three_halves,
    detection_probability,
    fit_me_lambda,
    h0_cdf,
    h0_pdf,
    h1_pdf,
    lrt,
    lrt_area,
    np_threshold,
    regime_map,
    roc_curve,
    thermal_noise_power,
)
from mmwregime.numerics import DomainError, integrate


NOISE = NoiseConfig(sigma2=5e-3, phi=1e-3)


def shipped_map(run, channel=None, noise=None, fit_mode="transcendental"):
    """The shipped config's whole regime map, with its channel and noise
    replaceable."""
    return regime_map(run.blockage, run.geo, channel or run.channel, run.band, run.spectral,
                      noise or run.noise, run.rho_list, run.n_list, run.v0_grid,
                      run.beta_th, fit_mode)


class TestNoiseConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            NoiseConfig(sigma2=0.0)
        with pytest.raises(DomainError):
            NoiseConfig(sigma2=1.0, phi=-1.0)

    def test_thermal_default(self):
        # -174 dBm/Hz over 100 MHz is -94 dBm
        assert thermal_noise_power(1e8) == pytest.approx(10 ** ((-94 - 30) / 10), rel=1e-12)


class TestNullDensity:
    def test_cdf_limits(self):
        assert h0_cdf(NOISE.phi, NOISE) == 0.0
        assert h0_cdf(np.inf, NOISE) == pytest.approx(1.0)
        assert h0_cdf(NOISE.phi - 1.0, NOISE) == 0.0

    def test_cdf_at_two_noise_scales(self):
        from scipy.special import erf

        y = NOISE.phi + 2.0 * NOISE.sigma2
        assert h0_cdf(y, NOISE) == pytest.approx(float(erf(1.0)), rel=1e-12)

    def test_cdf_matches_regularized_incomplete_gamma(self):
        from scipy import special

        y = NOISE.phi + 2.0 * NOISE.sigma2 * np.geomspace(1e-12, 800.0, 2000)
        got = h0_cdf(y, NOISE)
        ref = special.gammainc(0.5, (y - NOISE.phi) / (2.0 * NOISE.sigma2))
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_pdf_integrates_to_cdf(self):
        hi = NOISE.phi + 8.0 * NOISE.sigma2
        mass = integrate(lambda y: h0_pdf(y, NOISE), NOISE.phi, hi)
        assert mass == pytest.approx(h0_cdf(hi, NOISE), rel=1e-8)

    def test_pdf_zero_at_or_below_signal_power(self):
        assert h0_pdf(NOISE.phi, NOISE) == 0.0
        assert h0_pdf(0.0, NOISE) == 0.0

    def test_cdf_monotone(self):
        y = NOISE.phi + np.linspace(0.0, 0.2, 300)
        c = h0_cdf(y, NOISE)
        assert np.all(np.diff(c) >= 0)

    def test_kolmogorov_smirnov_against_squared_gaussian(self):
        from scipy import stats

        rng = np.random.default_rng(101)
        z = rng.standard_normal(100_000)
        samples = NOISE.phi + NOISE.sigma2 * z * z
        res = stats.kstest(samples, lambda y: h0_cdf(y, NOISE))
        assert res.pvalue > 0.01


class TestMeFit:
    def test_closed_form_mean_identity(self):
        fit = fit_me_lambda(NOISE.phi + 2.0, NOISE.phi, "closed_form")
        assert fit.lam == pytest.approx(0.5, rel=1e-15)
        assert NOISE.phi + 1.0 / fit.lam == pytest.approx(NOISE.phi + 2.0, rel=1e-14)

    def test_transcendental_reduction_without_signal(self):
        fit = fit_me_lambda(4.0, 0.0, "transcendental")
        assert fit.lam == pytest.approx(0.5, rel=1e-12)

    def test_transcendental_residual(self):
        mean_y = 0.0289
        fit = fit_me_lambda(mean_y, NOISE.phi, "transcendental")
        lam = fit.lam
        resid = (lam * NOISE.phi + 1.0) * math.exp(-lam * NOISE.phi) - mean_y * lam * lam
        assert abs(resid) <= 1e-10

    def test_shipped_fits_converge_to_the_last_bit(self, baseline_run):
        # on every regime-map point of the shipped config, lambda and one of
        # its neighbouring doubles bracket a sign change of the fit equation
        phi = baseline_run.noise.phi
        fits = 0
        for pt in shipped_map(baseline_run):
            def f(lam):
                lp = lam * phi
                return (lp + 1.0) * math.exp(-lp) - pt["mean_y_w"] * lam * lam

            f_lam = f(pt["lambda"])
            neighbours = (f(math.nextafter(pt["lambda"], -math.inf)),
                          f(math.nextafter(pt["lambda"], math.inf)))
            assert f_lam == 0.0 or any((v < 0.0) != (f_lam < 0.0) for v in neighbours)
            fits += 1
        assert fits == 90

    @pytest.mark.parametrize("mean_y, phi", [
        (1e-30, 0.0), (1e-20, 0.0), (1e20, 0.0), (1e30, 0.0), (1e200, 0.0),
        (2e-30, 1e-30), (1e30, 1e-3), (1e200, 1e-3),
    ])
    def test_transcendental_fit_at_any_power_scale(self, mean_y, phi):
        # the root lies below 1/sqrt(mean_y), outside the power-scale bracket
        # [1e-12, 1e12]/max(phi, mean_y - phi) at extreme means; at phi = 0
        # it is 1/sqrt(mean_y) itself
        lam = fit_me_lambda(mean_y, phi, "transcendental").lam
        assert lam == pytest.approx(1.0 / math.sqrt(mean_y), rel=1e-12 if phi == 0.0 else 0.5)
        resid = (lam * phi + 1.0) * math.exp(-lam * phi) - mean_y * lam * lam
        assert abs(resid) <= 1e-12

    def test_modes_disagree_with_signal_power(self):
        a = fit_me_lambda(0.03, 1e-3, "transcendental").lam
        b = fit_me_lambda(0.03, 1e-3, "closed_form").lam
        assert a != pytest.approx(b, rel=1e-3)

    def test_infeasible(self):
        with pytest.raises(InfeasibleFitError):
            fit_me_lambda(1e-3, 1e-3, "closed_form")
        with pytest.raises(InfeasibleFitError):
            fit_me_lambda(5e-4, 1e-3, "transcendental")

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            fit_me_lambda(1.0, 0.0, "bayes")


class TestAlternativeDensity:
    FIT = MeFit(lam=4.0)

    def test_value_at_signal_power(self):
        assert h1_pdf(NOISE.phi, self.FIT, NOISE.phi) == pytest.approx(4.0)

    def test_normalization(self):
        from scipy.integrate import quad

        mass = quad(lambda y: h1_pdf(y, self.FIT, NOISE.phi), NOISE.phi, np.inf,
                    epsabs=0.0, epsrel=1e-12)[0]
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_mean(self):
        from scipy.integrate import quad

        mean = quad(lambda y: y * h1_pdf(y, self.FIT, NOISE.phi), NOISE.phi, np.inf,
                    epsabs=0.0, epsrel=1e-12)[0]
        assert mean == pytest.approx(NOISE.phi + 0.25, rel=1e-8)


class TestLikelihoodRatio:
    FIT = MeFit(lam=4.0)

    def test_vanishes_at_signal_power(self):
        vals = lrt(NOISE.phi + np.array([1e-12, 1e-9, 1e-6]), self.FIT, NOISE)
        assert np.all(np.diff(vals) > 0)
        assert vals[0] < 1e-4

    def test_equals_density_ratio(self):
        rng = np.random.default_rng(55)
        y = NOISE.phi + rng.uniform(1e-6, 0.5, 1000)
        direct = lrt(y, self.FIT, NOISE)
        ratio = h1_pdf(y, self.FIT, NOISE.phi) / h0_pdf(y, NOISE)
        assert np.allclose(direct, ratio, rtol=1e-10)

    def test_strictly_increasing_when_rate_below_noise_scale(self):
        # d/dy log lrt = (1/(2 sigma2) - lam) + 1/(2(y - phi)) > 0
        assert self.FIT.lam < 1.0 / (2.0 * NOISE.sigma2)
        y = NOISE.phi + np.linspace(1e-6, 1.0, 2000)
        vals = lrt(y, self.FIT, NOISE)
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lrt(NOISE.phi, self.FIT, NOISE)


class TestThreshold:
    def test_full_significance_collapses_to_signal_power(self):
        assert np_threshold(1.0, NOISE) == NOISE.phi

    def test_half_significance_value(self):
        # erf_inv(0.5)^2 = 0.4769362762044699^2
        expected = NOISE.phi + 2.0 * NOISE.sigma2 * 0.4769362762044699**2
        assert np_threshold(0.5, NOISE) == pytest.approx(expected, rel=1e-12)

    def test_false_alarm_identity(self):
        for beta in np.arange(0.01, 1.0, 0.01):
            eta = np_threshold(float(beta), NOISE)
            assert 1.0 - h0_cdf(eta, NOISE) == pytest.approx(float(beta), abs=1e-10)

    def test_zero_significance_rejected(self):
        with pytest.raises(DomainError):
            np_threshold(0.0, NOISE)

    def test_tiny_significance_finite(self):
        eta = np_threshold(1e-300, NOISE)
        assert math.isfinite(eta)
        assert eta > NOISE.phi

    @pytest.mark.parametrize("beta", [5e-324, 1e-323])
    def test_subnormal_significance_finite(self, beta):
        # the config accepts every beta in (0, 1]; erfc is flat at a
        # subnormal, and the inverse returns a z that erfc maps onto it
        z = _erfcinv(beta)
        assert math.isfinite(z) and math.erfc(z) == beta
        assert np_threshold(beta, NOISE) == 2.0 * NOISE.sigma2 * z * z + NOISE.phi

    def test_inverse_matches_scipy(self, baseline_run):
        from scipy import special

        betas = [b for b in baseline_run.beta_grid if b < 1.0]
        betas += [10.0 ** -k for k in range(1, 301)]
        z = [_erfcinv(b) for b in betas]
        np.testing.assert_allclose(z, special.erfcinv(betas), rtol=1e-14, atol=0.0)


class TestDetectionProbability:
    FIT = MeFit(lam=0.5)

    def test_threshold_at_signal_power(self):
        assert detection_probability(self.FIT, NOISE.phi, NOISE.phi) == 1.0

    def test_infinite_threshold(self):
        assert detection_probability(self.FIT, np.inf, NOISE.phi) == 0.0

    def test_exponent(self):
        assert detection_probability(self.FIT, NOISE.phi + 2.0, NOISE.phi) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_equals_alternative_tail(self):
        from scipy.integrate import quad

        eta = NOISE.phi + 0.7
        tail = quad(lambda y: h1_pdf(y, self.FIT, NOISE.phi), eta, np.inf,
                    epsabs=0.0, epsrel=1e-13)[0]
        assert detection_probability(self.FIT, eta, NOISE.phi) == pytest.approx(tail, rel=1e-12)

    def test_empirical_exceedance(self):
        rng = np.random.default_rng(8)
        lam = 3.0
        fit = MeFit(lam=lam)
        eta = np_threshold(0.1, NOISE)
        samples = NOISE.phi + rng.exponential(1.0 / lam, 100_000)
        emp = float(np.mean(samples > eta))
        assert emp == pytest.approx(detection_probability(fit, eta, NOISE.phi), abs=0.01)


class TestLrtArea:
    def test_non_negative_and_finite(self):
        fit = MeFit(lam=4.0)
        area = lrt_area(fit, NOISE)
        assert area > 0.0
        assert math.isfinite(area)

    def test_decreasing_in_rate(self):
        # weaker interference (larger rate) must shrink the area
        areas = [
            lrt_area(MeFit(lam=lam), NOISE)
            for lam in (3.0, 5.0, 8.0, 14.0, 30.0)
        ]
        assert all(b < a for a, b in zip(areas, areas[1:]))

    def test_window_insensitive_when_integrand_decays(self):
        # rate above the noise scale: the tail decays and the fixed window
        # holds the area over the whole half-line,
        # sqrt(2 pi sigma2) lam Gamma(3/2) |k|^-3/2 with k = 1/(2 sigma2) - lam
        noise = NoiseConfig(sigma2=1.0, phi=0.0)
        fit = MeFit(lam=1.0)
        k = 0.5 / noise.sigma2 - fit.lam
        assert k < 0.0
        whole = math.sqrt(2.0 * math.pi * noise.sigma2) * fit.lam * math.gamma(1.5) * (-k) ** -1.5
        assert lrt_area(fit, noise) == pytest.approx(whole, rel=1e-3)

    def test_bad_window(self):
        # phi + 20*max(2 sigma2, 1/lam) rounds to phi: no window to integrate
        fit = MeFit(lam=1e30)
        with pytest.raises(DomainError):
            lrt_area(fit, NoiseConfig(sigma2=1e-30, phi=1.0))

    def test_narrow_integrand_pinned(self):
        # a spike at phi that adaptive quadrature stepped over, returning 0
        fit = MeFit(lam=1e4)
        area = lrt_area(fit, NoiseConfig(sigma2=1.0, phi=1e-3))
        assert area == pytest.approx(0.0222160808760298, rel=1e-12)

    @pytest.mark.parametrize("sigma2, phi, lam", [
        (1.0, 1e-3, 1e4),  # k < 0, a spike at phi
        (1.0, 0.0, 1.0),  # k < 0
        (1.0, 0.0, 0.5),  # k = 0
        (1.0, 0.0, 0.5 - 1e-12),  # 0 < k <= 1e-12
        (1.0, 0.0, 0.5 + 1e-12),  # -1e-12 <= k < 0
        (1.0, 0.0, 0.49),  # k > 0 inside the series range
        (1.0, 0.0, 0.3),  # k > 0
        (5e-3, 1e-3, 14.0),  # k > 0 at the shipped noise, area ~ 1e51
        (5e-3, 1e-3, 3.0),  # k > 0 at the shipped noise, area ~ 1e278
    ])
    def test_matches_independent_quadrature(self, sigma2, phi, lam):
        from scipy import integrate as sp_integrate

        fit = MeFit(lam=lam)
        big_x = 20.0 * max(2.0 * sigma2, 1.0 / lam)
        k = 0.5 / sigma2 - lam
        # x = t^2 turns int_0^X sqrt(x) e^(kx) dx into int_0^sqrt(X) 2t^2
        # e^(kt^2) dt; for k > 0 the factor e^(-kX) keeps it near 1, and
        # breaks at multiples of 1/sqrt|k| resolve where it turns
        shift = max(k, 0.0) * big_x
        top = math.sqrt(big_x)
        breaks = [c / math.sqrt(abs(k)) for c in (0.5, 1.0, 3.0, 10.0) if k != 0.0]
        breaks = sorted({0.0, top, *(b for b in breaks if b < top)})
        scaled = sum(
            sp_integrate.quad(lambda t: 2.0 * t * t * math.exp(k * t * t - shift), a, b,
                              epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for a, b in zip(breaks[:-1], breaks[1:])
        )
        expected = math.sqrt(2.0 * math.pi * sigma2) * lam * scaled * math.exp(shift)
        area = lrt_area(fit, NoiseConfig(sigma2=sigma2, phi=phi))
        assert area == pytest.approx(expected, rel=1e-12)

    def test_inf_past_double_range(self):
        # thermal noise over 100 MHz against a 0.1 W interference mean
        noise = NoiseConfig(sigma2=thermal_noise_power(1e8), phi=0.0)
        fit = MeFit(lam=10.0)
        assert lrt_area(fit, noise) == math.inf

    def test_needs_no_quadrature(self, monkeypatch):
        from mmwregime import numerics

        def forbidden(*args, **kwargs):
            raise AssertionError("lrt_area called numerics.integrate")

        monkeypatch.setattr(numerics, "integrate", forbidden)
        monkeypatch.setattr(numerics, "integrate_piecewise", forbidden)
        for lam in (0.3, 0.5, 1.0, 1e4):
            lrt_area(MeFit(lam=lam), NOISE)


class TestLrtAreaSpecialFunctions:
    # lrt_area calls P(3/2, x) for x = |k X| >= 1/2 and D(u) for u = sqrt(k X)
    # >= sqrt(1/2); its window puts both well inside these ranges
    def test_gammainc_three_halves_matches_scipy(self):
        from scipy import special

        xs = np.concatenate((np.linspace(0.5, 800.0, 8001), np.geomspace(0.5, 800.0, 400)))
        got = [_gammainc_three_halves(float(x)) for x in xs]
        np.testing.assert_allclose(got, special.gammainc(1.5, xs), rtol=1e-14, atol=0.0)

    def test_dawson_matches_scipy_across_the_series_switch(self):
        from scipy import special

        us = np.concatenate((np.linspace(0.7, 12.0, 11301), np.geomspace(12.0, 1e3, 400),
                             np.nextafter(6.0, [0.0, 7.0])))
        got = [_dawson(float(u)) for u in us]
        np.testing.assert_allclose(got, special.dawsn(us), rtol=1e-14, atol=0.0)


class TestRocCurve:
    FIT = MeFit(lam=5.0)

    def test_endpoints(self):
        pts = roc_curve(self.FIT, NOISE, [1e-300, 1.0])
        (pf0, pd0), (pf1, pd1) = pts
        assert pf0 == 1e-300 and pd0 < 1e-6
        assert pf1 == 1.0 and pd1 == 1.0

    def test_sorted_and_above_diagonal(self):
        betas = np.geomspace(1e-8, 1.0, 25)
        pts = roc_curve(self.FIT, NOISE, list(betas)[::-1])
        pfs = [pf for pf, _ in pts]
        assert pfs == sorted(pfs)
        assert all(pd >= pf for pf, pd in pts)

    def test_detection_monotone_in_mean_power(self):
        # larger interference mean -> smaller rate -> better detection
        beta = 0.05
        pds = []
        for mean_y in (0.01, 0.03, 0.1, 0.3):
            fit = fit_me_lambda(mean_y, NOISE.phi, "transcendental")
            eta = np_threshold(beta, NOISE)
            pds.append(detection_probability(fit, eta, NOISE.phi))
        assert all(b > a for a, b in zip(pds, pds[1:]))


class TestRegimeMap:
    def test_sweep_baseline_setup(
        self, baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        pts = regime_map(
            baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model,
            baseline_noise, [baseline_blockage.rho], [baseline_channel.n], [0.0, 4.0, 8.0], 0.05,
        )
        assert [p["v0_m"] for p in pts] == [0.0, 4.0, 8.0]
        for p in pts:
            assert p["error"] is None
            assert p["verdict"] in (NOISE_LIMITED, INTERFERENCE_LIMITED)
            assert 0.0 <= p["p_b"] <= 1.0
            assert p["mean_y_w"] > baseline_noise.phi

    def test_rows_are_keyed_by_the_columns_with_python_floats(
        self, baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model,
        baseline_noise,
    ):
        # the CLI writes these rows as they are, each value through repr,
        # which would spell a numpy float np.float64(...).  The filled and
        # the idle family run as one sweep, whose lists override the base
        # config's rho and n
        numeric = [c for c in REGIME_COLUMNS if c not in ("n", "verdict", "error")]
        base_blk, base_chan = replace(baseline_blockage, rho=3.0), replace(baseline_channel, n=7)
        rows = regime_map(base_blk, baseline_geo, base_chan, baseline_band, baseline_model,
                          baseline_noise, [0.5], [200, 0], [0.0, 4.0], 0.05)
        assert [(row["rho"], row["n"]) for row in rows] == [(0.5, 200)] * 2 + [(0.5, 0)] * 2
        for row in rows:
            filled = row["n"] == 200
            assert tuple(row) == REGIME_COLUMNS
            assert type(row["n"]) is int and type(row["verdict"]) is str
            assert all(row[c] is None or type(row[c]) is float for c in numeric)
            assert (row["p_d"] is not None) == filled
            assert (row["error"] is None) == filled

    def test_idle_network_reports_noise_limited_with_flag(
        self, baseline_blockage, baseline_geo, baseline_band, baseline_model, baseline_noise
    ):
        from mmwregime.interference import ChannelConfig

        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=0, p=0.5)
        pts = regime_map(
            baseline_blockage, baseline_geo, idle, baseline_band, baseline_model,
            baseline_noise, [baseline_blockage.rho], [idle.n], [0.0, 5.0], 0.05,
        )
        for p in pts:
            assert p["verdict"] == NOISE_LIMITED
            assert p["error"] is not None
            assert p["lrt_area"] is None

    def test_total_blockage_is_noise_limited(
        self, baseline_geo, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        # p_b = 1 leaves no interference mean above phi: infeasible fit,
        # reported as noise-limited with the reason attached.  On a 1 m disk
        # every link is shorter than the apex length, so p_b = p_b1, which a
        # dense field drives to exactly 1
        from mmwregime.blockage import BlockageConfig

        dense = BlockageConfig(rho=1e3, d_s=0.2, d_e=0.8, mode="length_weighted")
        pts = regime_map(
            dense, replace(baseline_geo, radius=1.0), baseline_channel, baseline_band,
            baseline_model, baseline_noise, [dense.rho], [baseline_channel.n], [0.0], 0.05,
        )
        assert pts[0]["p_b"] == 1.0
        assert pts[0]["verdict"] == NOISE_LIMITED
        assert pts[0]["error"] is not None

    def test_near_total_blockage_closed_form_is_noise_limited(
        self, baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model,
        baseline_noise,
    ):
        # the closed-form rate diverges as the interference mean vanishes,
        # so detection probability collapses; the transcendental convention
        # instead saturates at a finite rate, which is why this check pins
        # the fit mode
        rare = replace(baseline_channel, p=1e-9 * baseline_channel.p)
        pts = regime_map(
            baseline_blockage, baseline_geo, rare, baseline_band, baseline_model, baseline_noise,
            [baseline_blockage.rho], [rare.n], [0.0], 0.05, fit_mode="closed_form",
        )
        assert pts[0]["verdict"] == NOISE_LIMITED
        assert pts[0]["error"] is None

    def test_grid_outside_disk_rejected(
        self, baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        with pytest.raises(DomainError):
            regime_map(
                baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model,
                baseline_noise, [baseline_blockage.rho], [baseline_channel.n], [11.0], 0.05,
            )

    def test_unit_invariance_closed_form(
        self, baseline_run, baseline_blockage, baseline_geo, baseline_channel,
        baseline_band, baseline_model, baseline_noise,
    ):
        # the same scene in mW: every power times 1e3.  The verdict and P_D
        # are dimensionless; the area carries the unit of y.
        v0_grid = baseline_run.v0_grid
        sweep = ([baseline_blockage.rho], [baseline_channel.n], v0_grid, 0.05)
        args = (baseline_geo, baseline_channel, baseline_band, baseline_model, baseline_noise)
        watts = regime_map(baseline_blockage, *args, *sweep, fit_mode="closed_form")
        milli_channel = replace(baseline_channel, q=1e3 * baseline_channel.q)
        milli_noise = NoiseConfig(sigma2=1e3 * baseline_noise.sigma2, phi=1e3 * baseline_noise.phi)
        milli = regime_map(
            baseline_blockage, baseline_geo, milli_channel, baseline_band, baseline_model,
            milli_noise, *sweep, fit_mode="closed_form",
        )
        assert len(milli) == len(v0_grid) == 10
        for w, m in zip(watts, milli):
            assert w["error"] is None and m["error"] is None
            assert m["verdict"] == w["verdict"]
            assert m["p_d"] == pytest.approx(w["p_d"], rel=1e-12)
            assert m["lrt_area"] == pytest.approx(1e3 * w["lrt_area"], rel=1e-12)

    def test_verdict_threshold_on_the_shipped_map(self, baseline_run):
        # interference-limited exactly when P_D > 1/2; the closed-form fit
        # gives both verdicts on the shipped map
        phi = baseline_run.noise.phi
        verdicts = set()
        for fit_mode in ("transcendental", "closed_form"):
            for pt in shipped_map(baseline_run, fit_mode=fit_mode):
                assert pt["error"] is None
                assert pt["verdict"] == (
                    INTERFERENCE_LIMITED if pt["p_d"] > 0.5 else NOISE_LIMITED
                )
                assert pt["eta_prime_w"] >= phi
                verdicts.add(pt["verdict"])
        assert verdicts == {INTERFERENCE_LIMITED, NOISE_LIMITED}

    @pytest.mark.parametrize("fit_mode, in_watts, in_milliwatts", [
        ("transcendental", 90, 0),
        ("closed_form", 13, 13),
    ])
    def test_interference_limited_count_by_power_unit(
        self, baseline_run, fit_mode, in_watts, in_milliwatts
    ):
        # the shipped map with every power in W and in mW (q, sigma2 and phi
        # times 1e3): the transcendental rate takes on the power unit and
        # flips every verdict, the closed-form rate does not (README)
        milli = (replace(baseline_run.channel, q=1e3 * baseline_run.channel.q),
                 NoiseConfig(sigma2=1e3 * baseline_run.noise.sigma2,
                             phi=1e3 * baseline_run.noise.phi))
        counts = [
            sum(pt["verdict"] == INTERFERENCE_LIMITED
                for pt in shipped_map(baseline_run, channel, noise, fit_mode))
            for channel, noise in ((baseline_run.channel, baseline_run.noise), milli)
        ]
        assert counts == [in_watts, in_milliwatts]

    @pytest.mark.parametrize("beta_th", [0.0, -0.1, 1.5])
    def test_invalid_significance_rejected_once(
        self, baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model,
        baseline_noise, beta_th,
    ):
        # the threshold does not depend on the point: a bad level is an
        # error of the call, not an error row at every point
        with pytest.raises(DomainError):
            regime_map(
                baseline_blockage, baseline_geo, baseline_channel, baseline_band, baseline_model,
                baseline_noise, [baseline_blockage.rho], [baseline_channel.n], [0.0, 5.0], beta_th,
            )
