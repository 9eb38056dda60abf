import dataclasses
import math

import numpy as np
import pytest

from mmwregime.blockage import GeometryConfig, distance_cdf, distance_pdf
from mmwregime.interference import (
    ChannelConfig,
    _power_atoms,
    aggregate_mgf,
    dbm_to_watts,
    gamma_n,
    interferer_power_mgf,
    kappa_n,
    mean_interferer_power,
    mean_received_power,
)
from mmwregime.mcsim import simulate_received_power
from mmwregime.numerics import DomainError
from mmwregime.spectral import upsilon_table


def geo(v0=0.0, eps=0.1):
    return GeometryConfig(radius=10.0, v0_norm=v0, theta=math.radians(10.0), eps_min=eps)


def distance_law_cuts(g):
    """eps_min, then the branch point R - v0 and the support end R + v0 above it."""
    return [g.eps_min] + sorted({e for e in (g.radius - g.v0_norm, g.radius + g.v0_norm)
                                 if e > g.eps_min})


class TestUnits:
    def test_dbm_conversion(self):
        assert dbm_to_watts(27.0) == pytest.approx(0.501187, rel=1e-5)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)


class TestChannelConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ChannelConfig(alpha=0.0, m=3.0, q=0.5, n=10, p=0.5)
        with pytest.raises(DomainError):
            ChannelConfig(alpha=2.5, m=0.3, q=0.5, n=10, p=0.5)
        with pytest.raises(DomainError):
            ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=10, p=1.5)


class TestKappa:
    def test_order_zero_is_half_radius_squared(self):
        assert kappa_n(0, geo(), 2.5) == pytest.approx(50.0, rel=1e-10)
        assert kappa_n(0, geo(v0=3.0), 2.5) == pytest.approx(50.0, rel=1e-8)
        # exclusion disk poking out of the deployment disk (eps > R - v0)
        assert kappa_n(0, geo(v0=9.0, eps=3.0), 2.5) == pytest.approx(50.0, rel=1e-8)

    def test_order_one_closed_form_centered(self):
        # conditioned on ell >= eps: divide by P(ell >= eps) = 1 - eps^2/R^2
        expected = 2.0 * (0.1 ** -0.5 - 10.0 ** -0.5) / (1.0 - 0.1**2 / 10.0**2)
        assert kappa_n(1, geo(), 2.5) == pytest.approx(expected, rel=1e-10)

    def test_sub_quadratic_orders_integrate_from_exclusion(self):
        # n*alpha < 2 is integrable at the origin but still starts at eps_min
        expected = 2.0 * (10.0 ** 0.5 - 0.1 ** 0.5) / (1.0 - 0.1**2 / 10.0**2)
        assert kappa_n(1, geo(), 1.5) == pytest.approx(expected, rel=1e-10)

    def test_decreasing_in_offset(self):
        vals = [kappa_n(1, geo(v0=v), 2.5) for v in (0.0, 3.0, 6.0, 9.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("v0", [0.0, 1.0, 4.0, 8.0, 9.0, 9.9])
    def test_matches_independent_quadrature(self, v0):
        # scipy.integrate.quad per branch of the distance law at epsrel 1e-13
        from scipy.integrate import quad

        for eps in (0.1, 0.5, 3.0):
            g = geo(v0=v0, eps=eps)
            cuts = distance_law_cuts(g)
            mass = 1.0 - distance_cdf(eps, g)
            for alpha in (1.5, 2.0, 2.5, 4.0):
                for n in (1, 2):
                    integral = sum(
                        quad(lambda l: l ** (-n * alpha) * distance_pdf(l, g), a, b,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        for a, b in zip(cuts[:-1], cuts[1:])
                    )
                    expected = 0.5 * g.radius**2 * integral / mass
                    got = kappa_n(n, g, alpha)
                    assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (eps, alpha, n)


class TestGamma:
    def test_order_zero_is_band_span(self, baseline_band, baseline_model):
        assert gamma_n(0, baseline_band, baseline_model) == pytest.approx(6e9)

    def test_order_one_both_slabs_capture_full_overlap(self, baseline_band, baseline_model):
        # overlap support is ~0.35 GHz versus slab ends at 2 and 4 GHz, so
        # each slab integral saturates at the half-line value: the PSD's unit
        # mass times the window, where a rolloff-0 filter as wide as the
        # window passes everything, over the half line, W/2
        assert baseline_model.filter.rolloff == 0.0
        assert baseline_model.filter.width == baseline_band.bandwidth
        assert gamma_n(1, baseline_band, baseline_model) == pytest.approx(
            baseline_band.bandwidth, rel=1e-12
        )

    def test_monotone_decreasing_in_order(self, baseline_band, baseline_model):
        vals = [gamma_n(n, baseline_band, baseline_model) for n in (1, 2, 3, 5, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def sampled_transform(s, channel, g, band, model, trials, seed):
    """Sample mean of exp(s * P) for one always-active interferer, and its SE."""
    one = ChannelConfig(alpha=channel.alpha, m=channel.m, q=channel.q, n=1, p=1.0)
    power = simulate_received_power(one, g, band, model, 0.0, trials, seed, blocking="thinning")
    vals = np.exp(s * power)
    return float(vals.mean()), float(vals.std() / math.sqrt(trials))


# 1 - M_P(s) from the log-space power series at commit 76fef76 (baseline
# channel and band, R = 10 m, eps_min = 0.5 m), keyed by v0, for
# s in (-1e-3, -0.1, -0.5, -1).  That series integrated the pathloss
# moments over the unconditioned law, so 1 - M_old = P(ell >= eps) (1 - M).
PARENT_SERIES = {
    0.0: (3.6675746872827375e-07, 3.568557092925584e-05,
          0.000163292005189275, 0.00030118301182280316),
    4.0: (3.607912720804407e-07, 3.508898710646857e-05,
          0.00016031145333306185, 0.00029522786241531485),
    9.0: (2.867495881853088e-07, 2.771482858621166e-05,
          0.00012401715576382255, 0.00022397438934151914),
}


class TestPowerAtoms:
    @pytest.mark.parametrize("alpha", (1.5, 2.5, 4.0))
    @pytest.mark.parametrize("eps", (0.1, 0.5))
    @pytest.mark.parametrize("v0", (0.0, 5.0, 9.0, 9.9))
    def test_mean_is_closed_form_mean(self, v0, eps, alpha, baseline_band, baseline_model):
        ch = ChannelConfig(alpha=alpha, m=3.0, q=0.5, n=1, p=1.0)
        g = geo(v0=v0, eps=eps)
        x, w = _power_atoms(ch, g, baseline_band, baseline_model)
        expected = mean_interferer_power(ch, g, baseline_band, baseline_model)
        assert float(w @ x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("v0", (0.0, 9.0))
    def test_weights_are_a_sub_probability(self, v0, baseline_band, baseline_model, baseline_channel):
        # the atoms carry the offsets inside the overlap cutoff; the rest of
        # the mass sits at x = 0
        x, w = _power_atoms(baseline_channel, geo(v0=v0), baseline_band, baseline_model)
        assert x.shape == w.shape and np.all(w > 0.0) and np.all(x >= 0.0)
        assert 0.0 < w.sum() < 1.0

    @pytest.mark.parametrize("f_0_below_f_e", [None, 0.0, 0.5])
    @pytest.mark.parametrize("v0", (0.0, 9.0))
    def test_in_band_mass_is_the_simulators(
        self, v0, f_0_below_f_e, baseline_band, baseline_model, baseline_channel
    ):
        # sum(w) is the share of offsets within the cutoff of f_0, the
        # survivor fraction mcsim._power_block's Binomial count draws
        band = baseline_band
        cutoff = upsilon_table(band, baseline_model).cutoff
        if f_0_below_f_e is not None:
            band = dataclasses.replace(band, f_0=band.f_e - f_0_below_f_e * cutoff)
        x, w = _power_atoms(baseline_channel, geo(v0=v0), band, baseline_model)
        in_band = min(band.f_e, band.f_0 + cutoff) - max(band.f_s, band.f_0 - cutoff)
        assert w.sum() == pytest.approx(in_band / (band.f_e - band.f_s), rel=1e-13, abs=0.0)
        if f_0_below_f_e is None:
            # 320 offset nodes crossed with 64 distance nodes per branch
            assert x.size == {0.0: 20_480, 9.0: 40_960}[v0]


class TestSingleInterfererMgf:
    def test_at_origin(self, baseline_band, baseline_model, baseline_channel):
        assert interferer_power_mgf(0.0, baseline_channel, geo(), baseline_band, baseline_model) == 1.0

    def test_first_moment_coefficient_vs_sampling_oracle(
        self, baseline_band, baseline_model, baseline_channel
    ):
        # E[P] = q * E[h] * E[ell^-alpha] * E[Upsilon]; draw each factor
        g = geo(eps=0.1)
        analytic = mean_interferer_power(baseline_channel, g, baseline_band, baseline_model)

        rng = np.random.default_rng(314)
        n = 2_000_000
        r = g.radius * np.sqrt(rng.random(n))
        bad = r < g.eps_min
        while bad.any():
            r[bad] = g.radius * np.sqrt(rng.random(int(bad.sum())))
            bad = r < g.eps_min
        h = rng.gamma(baseline_channel.m, 1.0 / baseline_channel.m, n)
        f = baseline_band.f_s + (baseline_band.f_e - baseline_band.f_s) * rng.random(n)
        table = upsilon_table(baseline_band, baseline_model)
        ups = table.lookup(np.abs(f - baseline_band.f_0))
        sample = baseline_channel.q * h * r ** (-baseline_channel.alpha) * ups
        se = sample.std() / math.sqrt(n)
        assert sample.mean() == pytest.approx(analytic, abs=max(4 * se, 0.01 * analytic))

    def test_fading_moments_concentrate_for_large_shape(
        self, baseline_band, baseline_model
    ):
        # Gamma(m, 1/m) concentrates at 1, so the transform must approach
        # E[exp(s * q * ell^-alpha * Upsilon)] with the fading struck out
        g = geo(eps=0.1)
        s = -1e3
        heavy = ChannelConfig(alpha=2.5, m=1e4, q=0.5, n=1, p=1.0)
        with_fading = interferer_power_mgf(s, heavy, g, baseline_band, baseline_model)

        rng = np.random.default_rng(2718)
        n = 1_000_000
        r = g.radius * np.sqrt(rng.random(n))
        bad = r < g.eps_min
        while bad.any():
            r[bad] = g.radius * np.sqrt(rng.random(int(bad.sum())))
            bad = r < g.eps_min
        f = baseline_band.f_s + (baseline_band.f_e - baseline_band.f_s) * rng.random(n)
        ups = upsilon_table(baseline_band, baseline_model).lookup(np.abs(f - baseline_band.f_0))
        vals = np.exp(s * heavy.q * r ** (-heavy.alpha) * ups)
        se = vals.std() / math.sqrt(n)
        assert with_fading == pytest.approx(vals.mean(), abs=4 * se)

    def test_finite_and_decreasing_for_negative_s(
        self, baseline_band, baseline_model, baseline_channel
    ):
        # far outside the radius of convergence of the MGF power series
        g = geo(eps=0.1)
        svals = (-1e-3, -0.1, -0.5, -1e3, -1e6)
        vals = [interferer_power_mgf(s, baseline_channel, g, baseline_band, baseline_model)
                for s in svals]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        for s, v in ((-0.5, vals[2]), (-1e3, vals[3])):
            mean, se = sampled_transform(
                s, baseline_channel, g, baseline_band, baseline_model, 1_000_000, 17
            )
            assert v == pytest.approx(mean, abs=4 * se), s

    def test_infinite_from_positive_radius(
        self, baseline_band, baseline_model, baseline_channel
    ):
        g = geo(eps=0.5)
        ups_max = upsilon_table(baseline_band, baseline_model).values.max()
        radius = baseline_channel.m / (
            baseline_channel.q * g.eps_min ** -baseline_channel.alpha * ups_max
        )
        with pytest.raises(DomainError):
            interferer_power_mgf(radius, baseline_channel, g, baseline_band, baseline_model)
        below = interferer_power_mgf(0.5 * radius, baseline_channel, g, baseline_band, baseline_model)
        assert 1.0 < below < math.inf

    @pytest.mark.parametrize("v0", sorted(PARENT_SERIES))
    def test_matches_parent_series_scaled(
        self, v0, baseline_band, baseline_model, baseline_channel
    ):
        g = geo(v0=v0, eps=0.5)
        mass = 1.0 - g.eps_min**2 / g.radius**2  # eps_min <= R - v0 here
        for s, old in zip((-1e-3, -0.1, -0.5, -1.0), PARENT_SERIES[v0]):
            new = interferer_power_mgf(s, baseline_channel, g, baseline_band, baseline_model)
            assert (1.0 - new) * mass == pytest.approx(old, rel=1e-5), s

    @pytest.mark.parametrize("v0", [0.0, 9.0, 9.9])
    def test_matches_independent_quadrature(
        self, v0, baseline_band, baseline_model, baseline_channel
    ):
        # 1 - M_P against scipy.integrate.quad per branch of the distance
        # law at epsrel 1e-13, on the same offset rule
        from scipy.integrate import quad

        ch = baseline_channel
        table = upsilon_table(baseline_band, baseline_model)
        ups = table.rule_values
        w = table.rule_weights / (baseline_band.f_e - baseline_band.f_s)
        for eps in (0.1, 0.5):
            g = geo(v0=v0, eps=eps)
            cuts = distance_law_cuts(g)
            mass = 1.0 - distance_cdf(eps, g)
            for s in (-1.0, -1e3, -1e6):
                def one_minus(l):
                    x = -s * ch.q / ch.m * l ** -ch.alpha * ups
                    return distance_pdf(l, g) / mass * float(-np.expm1(-ch.m * np.log1p(x)) @ w)

                expected = sum(quad(one_minus, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                               for a, b in zip(cuts[:-1], cuts[1:]))
                got = 1.0 - interferer_power_mgf(s, ch, g, baseline_band, baseline_model)
                assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (eps, s)


class TestAggregateMgf:
    def test_at_origin(self, baseline_band, baseline_model, baseline_channel):
        assert aggregate_mgf(0.0, 1e-3, 0.3, baseline_channel, geo(), baseline_band, baseline_model) == 1.0

    def test_idle_network_shortcut(self, baseline_band, baseline_model):
        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=200, p=0.0)
        for s in (-1e-3, -1.0, -1e3):
            assert aggregate_mgf(s, 1e-3, 0.0, idle, geo(), baseline_band, baseline_model) == pytest.approx(
                math.exp(1e-3 * s), rel=1e-15
            )

    def test_total_blockage_shortcut(self, baseline_band, baseline_model, baseline_channel):
        for s in (-1e-3, -1.0, -1e3):
            assert aggregate_mgf(s, 1e-3, 1.0, baseline_channel, geo(), baseline_band, baseline_model) == pytest.approx(
                math.exp(1e-3 * s), rel=1e-15
            )

    def test_decreasing_and_bounded_for_negative_s(
        self, baseline_band, baseline_model, baseline_channel, baseline_geo
    ):
        svals = (-0.3, -0.1, -0.03, -0.01, 0.0)
        out = [
            aggregate_mgf(s, 1e-3, 0.24, baseline_channel, baseline_geo, baseline_band, baseline_model)
            for s in svals
        ]
        assert out[-1] == 1.0
        assert all(0.0 < v <= 1.0 for v in out)
        assert all(a < b for a, b in zip(out, out[1:]))

    def test_inf_past_double_range_below_the_radius(
        self, baseline_band, baseline_model, baseline_channel, baseline_geo
    ):
        # (1 - thin + thin*M_P)^n overflows just below the convergence
        # radius, and exp(phi*s) does for a weak interferer at s far below it
        ch, g = baseline_channel, baseline_geo
        ups_max = upsilon_table(baseline_band, baseline_model).values.max()
        radius = ch.m / (ch.q * g.eps_min ** -ch.alpha * ups_max)
        assert radius == pytest.approx(1.1086, rel=1e-4)
        args = (ch, g, baseline_band, baseline_model)
        assert aggregate_mgf(0.999999 * radius, 1e-3, 0.24, *args) == math.inf
        weak = dataclasses.replace(ch, q=1e-9)
        assert 1e6 < weak.m / (weak.q * g.eps_min ** -weak.alpha * ups_max)
        assert aggregate_mgf(1e6, 1e-3, 0.24, weak, *args[1:]) == math.inf
        # at s <= 0 the value is the product form itself
        thin = ch.p * (1.0 - 0.24)
        for s in (-1e-3, -1.0, -1e3, -1e6):
            m_p = interferer_power_mgf(s, *args)
            expected = math.exp(1e-3 * s) * (1.0 - thin + thin * m_p) ** ch.n
            assert aggregate_mgf(s, 1e-3, 0.24, *args) == pytest.approx(expected, rel=1e-14), s


class TestMeanReceivedPower:
    def test_idle_cases_return_signal_power(self, baseline_band, baseline_model, baseline_channel):
        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=0, p=0.5)
        assert mean_received_power(2e-3, 0.3, idle, geo(), baseline_band, baseline_model) == 2e-3
        assert mean_received_power(2e-3, 1.0, baseline_channel, geo(), baseline_band, baseline_model) == 2e-3

    def test_matches_mgf_derivative(self, baseline_band, baseline_model, baseline_channel, baseline_geo):
        mean = mean_received_power(1e-3, 0.24, baseline_channel, baseline_geo, baseline_band, baseline_model)
        h = 1e-6 / mean
        plus = aggregate_mgf(h, 1e-3, 0.24, baseline_channel, baseline_geo, baseline_band, baseline_model)
        minus = aggregate_mgf(-h, 1e-3, 0.24, baseline_channel, baseline_geo, baseline_band, baseline_model)
        central = (plus - minus) / (2.0 * h)
        assert central == pytest.approx(mean, rel=1e-4)

    @pytest.mark.parametrize("eps", (1.0, 3.0))
    @pytest.mark.parametrize("alpha", (1.5, 2.5))
    @pytest.mark.parametrize("v0", (0.0, 6.0))
    def test_conditioned_mean_matches_simulation(
        self, eps, alpha, v0, baseline_band, baseline_model
    ):
        # the simulator redraws interferers inside eps_min, i.e. samples
        # the distance law conditioned on ell >= eps_min
        one = ChannelConfig(alpha=alpha, m=3.0, q=0.5, n=1, p=1.0)
        g = geo(v0=v0, eps=eps)
        trials = 400_000
        power = simulate_received_power(
            one, g, baseline_band, baseline_model, 0.0, trials, 11, blocking="thinning"
        )
        se = power.std() / math.sqrt(trials)
        analytic = mean_received_power(0.0, 0.0, one, g, baseline_band, baseline_model)
        assert abs(power.mean() - analytic) <= 4.0 * se

    def test_monotone_in_population_and_blockage(self, baseline_band, baseline_model, baseline_geo):
        base = dict(alpha=2.5, m=3.0, q=0.5)
        vals_n = [
            mean_received_power(
                1e-3, 0.3, ChannelConfig(n=n, p=0.5, **base), baseline_geo, baseline_band, baseline_model
            )
            for n in (10, 50, 200)
        ]
        assert vals_n[0] < vals_n[1] < vals_n[2]
        vals_pb = [
            mean_received_power(
                1e-3, pb, ChannelConfig(n=100, p=0.5, **base), baseline_geo, baseline_band, baseline_model
            )
            for pb in (0.0, 0.4, 0.9)
        ]
        assert vals_pb[0] > vals_pb[1] > vals_pb[2]
        vals_p = [
            mean_received_power(
                1e-3, 0.3, ChannelConfig(n=100, p=p, **base), baseline_geo, baseline_band, baseline_model
            )
            for p in (0.1, 0.5, 1.0)
        ]
        assert vals_p[0] < vals_p[1] < vals_p[2]
        vals_q = [
            mean_received_power(
                1e-3, 0.3,
                ChannelConfig(alpha=2.5, m=3.0, q=q, n=100, p=0.5),
                baseline_geo, baseline_band, baseline_model,
            )
            for q in (0.1, 0.5, 2.0)
        ]
        assert vals_q[0] < vals_q[1] < vals_q[2]
