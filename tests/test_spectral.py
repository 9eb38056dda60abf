import math

import numpy as np
import pytest

from mmwregime.numerics import DomainError
from mmwregime.spectral import (
    BandConfig,
    GaussianPsd,
    RaisedCosineFilter,
    RectangularPsd,
    SpectralModel,
    filter_gain_sq,
    frequency_offset_pdf,
    psd_value,
    upsilon,
    upsilon_table,
)


def band(f_0=62e9, w=1e8):
    return BandConfig(f_s=58e9, f_e=64e9, f_0=f_0, bandwidth=w)


def gaussian_model(std=2.5e7, rolloff=0.0, width=1e8):
    return SpectralModel(
        psd=GaussianPsd(std=std),
        filter=RaisedCosineFilter(rolloff=rolloff, width=width),
    )


def brick_overlap(omega, w, std):
    """Closed-form overlap of a unit Gaussian through an ideal rectangle."""
    from scipy.special import erf

    s = math.sqrt(2.0) * std
    return 0.5 * (erf((w / 2.0 + omega) / s) + erf((w / 2.0 - omega) / s))


OFFSET_MODELS = [
    pytest.param(GaussianPsd(std=2.5e7), 0.0, id="gaussian-0"),
    pytest.param(GaussianPsd(std=2.5e7), 0.25, id="gaussian-0.25"),
    pytest.param(RectangularPsd(width=5e7), 0.0, id="rectangular-0"),
    pytest.param(RectangularPsd(width=5e7), 0.25, id="rectangular-0.25"),
    pytest.param(RectangularPsd(width=5e7), 1.0, id="rectangular-1"),
]


def offset_quad(g, b, model, epsrel=1e-13):
    """scipy quad of g(Upsilon) over both offset slabs, told where Upsilon
    has kinks: a rectangular PSD's edges crossing the filter and window
    breakpoints, and the cutoff."""
    from scipy.integrate import quad

    flt = model.filter
    breaks = ((1.0 - flt.rolloff) * 0.5 * flt.width, (1.0 + flt.rolloff) * 0.5 * flt.width,
              0.5 * b.bandwidth)
    half = 0.5 * model.psd.width if isinstance(model.psd, RectangularPsd) else 0.0
    kinks = {abs(c + s * half) for c in breaks for s in (-1, 0, 1)}
    kinks.add(upsilon_table(b, model).cutoff)
    total = 0.0
    for edge in b.offset_edges:
        total += quad(lambda w: g(upsilon(w, b, model)), 0.0, edge,
                      points=sorted(k for k in kinks if 0.0 < k < edge),
                      epsabs=0.0, epsrel=epsrel, limit=500)[0]
    return total


class TestBandConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            BandConfig(f_s=64e9, f_e=58e9, f_0=60e9, bandwidth=1e8)
        with pytest.raises(DomainError):
            BandConfig(f_s=58e9, f_e=64e9, f_0=57e9, bandwidth=1e8)
        with pytest.raises(DomainError):
            BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=0.0)

    def test_60ghz_band_breakpoints(self):
        near, far = band().offset_edges
        assert near == pytest.approx(2e9)
        assert far == pytest.approx(4e9)


class TestFrequencyOffsetPdf:
    def test_center_tuning_single_slab(self):
        b = band(f_0=61e9)
        span = b.f_e - b.f_s
        assert frequency_offset_pdf(1e9, b) == pytest.approx(2.0 / span)
        assert frequency_offset_pdf(3.0000001e9, b) == 0.0

    def test_two_slab_values(self):
        b = band()
        span = 6e9
        assert frequency_offset_pdf(1e9, b) == pytest.approx(2.0 / span)
        assert frequency_offset_pdf(3e9, b) == pytest.approx(1.0 / span)
        assert frequency_offset_pdf(5e9, b) == 0.0
        assert frequency_offset_pdf(0.0, b) == 0.0

    def test_normalization_various_tunings(self):
        from mmwregime.numerics import integrate_piecewise

        for f_0 in (58.5e9, 62e9, 63.9e9):
            b = band(f_0=f_0)
            near, far = b.offset_edges
            mass = integrate_piecewise(
                lambda w: frequency_offset_pdf(w, b), (0.0, near, far, 6.1e9)
            )
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_exact_branch_mass(self):
        b = band()
        near, far = b.offset_edges
        span = b.f_e - b.f_s
        assert (2.0 * near + (far - near)) / span == pytest.approx(1.0)


class TestShapes:
    def test_gaussian_psd_unit_mass(self):
        from scipy.integrate import quad

        psd = GaussianPsd(std=3e7)
        mass = quad(lambda x: psd_value(psd, x), -4e8, 4e8, epsabs=0.0, epsrel=1e-12)[0]
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_rectangular_psd_unit_mass(self):
        from scipy.integrate import quad

        psd = RectangularPsd(width=5e7)
        mass = quad(lambda x: psd_value(psd, x), -3e7, 3e7, epsabs=0.0, epsrel=1e-12,
                    points=[-2.5e7, 2.5e7])[0]
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_filter_peak_normalized(self):
        for rolloff in (0.0, 0.25, 1.0):
            filt = RaisedCosineFilter(rolloff=rolloff, width=1e8)
            assert filter_gain_sq(filt, 0.0) == 1.0

    def test_brick_wall_support(self):
        filt = RaisedCosineFilter(rolloff=0.0, width=1e8)
        assert filter_gain_sq(filt, 4.9e7) == 1.0
        assert filter_gain_sq(filt, 5.1e7) == 0.0

    def test_rolloff_taper_monotone(self):
        filt = RaisedCosineFilter(rolloff=0.5, width=1e8)
        f = np.linspace(0.0, 7.6e7, 200)
        g = filter_gain_sq(filt, f)
        assert np.all(np.diff(g) <= 1e-12)
        assert filter_gain_sq(filt, 7.6e7) == 0.0


class TestUpsilon:
    def test_vanishing_at_large_offset(self):
        assert upsilon(5e9, band(), gaussian_model()) == pytest.approx(0.0, abs=1e-15)

    def test_full_capture_of_contained_psd(self):
        # rectangular PSD strictly inside the brick-wall window
        model = SpectralModel(
            psd=RectangularPsd(width=2e7),
            filter=RaisedCosineFilter(rolloff=0.0, width=1e8),
        )
        assert upsilon(0.0, band(), model) == pytest.approx(1.0, rel=1e-10)

    def test_matches_closed_form_gaussian_through_brick_wall(self):
        b = band()
        model = gaussian_model(std=2.5e7)
        for omega in (0.0, 1e7, 2.5e7, 5e7, 7.5e7, 1.2e8):
            assert upsilon(omega, b, model) == pytest.approx(
                brick_overlap(omega, 1e8, 2.5e7), abs=1e-14
            )

    def test_even_in_offset(self):
        b = band()
        model = gaussian_model()
        assert upsilon(-3e7, b, model) == pytest.approx(upsilon(3e7, b, model), rel=1e-12)

    def test_bounded_and_decreasing_for_unimodal_psd(self):
        b = band()
        model = gaussian_model()
        grid = np.linspace(0.0, 3e8, 31)
        vals = [upsilon(w, b, model) for w in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals[0] <= 1.0
        assert all(b2 <= a + 1e-12 for a, b2 in zip(vals, vals[1:]))

    def test_narrow_psd_not_missed(self):
        # a PSD far narrower than the first panel spacing
        model = gaussian_model(std=1e5)
        val = upsilon(0.0, band(), model)
        assert val == pytest.approx(1.0, rel=1e-6)
        # Gaussian tails beyond 4 std inside a wide first panel
        tapered = gaussian_model(std=1e4, rolloff=0.25)
        assert upsilon(3.5e7, band(), tapered) == pytest.approx(1.0, abs=1e-12)
        assert upsilon(4.99e7, band(), model) == pytest.approx(
            brick_overlap(4.99e7, 1e8, 1e5), abs=1e-12
        )

    @pytest.mark.parametrize("width", [3e8, 2e7])
    def test_rectangular_psd_interval_overlap(self, width):
        # window [-5e7, 5e7] against a PSD wider and one narrower than it
        model = SpectralModel(
            psd=RectangularPsd(width=width),
            filter=RaisedCosineFilter(rolloff=0.0, width=1e8),
        )
        for omega in (0.0, 2e7, 4.5e7, 6e7, 1.4e8, 2.1e8):
            lo = max(omega - width / 2.0, -5e7)
            hi = min(omega + width / 2.0, 5e7)
            expected = max(hi - lo, 0.0) / width
            assert upsilon(omega, band(), model) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("window, width", [(1e8, 1e8), (1e8, 5e7), (5e7, 1e8), (2e8, 1e8)])
    @pytest.mark.parametrize("rolloff", [0.0, 1e-6, 1e-3, 0.01, 0.25, 0.5, 1.0])
    def test_matches_independent_quadrature(self, window, width, rolloff):
        # scipy quad of psd * |H|^2 over the window, split at the filter
        # kinks and, for a Gaussian PSD, at every std out to 12 around omega
        from scipy.integrate import quad

        b = band(w=window)
        flt = RaisedCosineFilter(rolloff=rolloff, width=width)
        half = 0.5 * window
        kinks = [k * 0.5 * width for k in (-1 - rolloff, -1 + rolloff, 1 - rolloff, 1 + rolloff)]
        psds = [GaussianPsd(std=s) for s in (1e4, 1e5, 2.5e7, 3e8)]
        psds += [RectangularPsd(width=w) for w in (2e7, 3e8)]
        for psd in psds:
            model = SpectralModel(psd=psd, filter=flt)
            for omega in np.linspace(0.0, 2.2e8, 12):
                if isinstance(psd, GaussianPsd):
                    marks = [omega + k * psd.std for k in range(-12, 13)]
                else:
                    marks = [omega - 0.5 * psd.width, omega + 0.5 * psd.width]
                pts = sorted({-half, half} | {p for p in kinks + marks if -half < p < half})

                def f(u):
                    return float(psd_value(psd, u - omega) * filter_gain_sq(flt, u))

                expected = sum(quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500)[0]
                               for lo, hi in zip(pts, pts[1:]))
                assert upsilon(omega, b, model) == pytest.approx(expected, abs=1e-12)

    def test_scalar_in_float_out_array_in_array_out(self):
        model = gaussian_model(rolloff=0.25)
        assert type(upsilon(1e7, band(), model)) is float
        grid = np.linspace(0.0, 1e8, 7)
        vals = upsilon(grid, band(), model)
        assert isinstance(vals, np.ndarray) and vals.shape == (7,)
        assert vals.tolist() == [upsilon(w, band(), model) for w in grid]

    def test_rolloff_reduces_capture(self):
        b = band()
        sharp = gaussian_model(rolloff=0.0)
        soft = gaussian_model(rolloff=1.0)
        assert upsilon(2e7, b, soft) < upsilon(2e7, b, sharp)


class TestUpsilonTable:
    def test_lookup_matches_direct_evaluation(self):
        b = band()
        model = gaussian_model()
        table = upsilon_table(b, model)
        for omega in (0.0, 1.7e7, 6.3e7, 2.9e8):
            assert table.lookup(omega) == pytest.approx(
                upsilon(omega, b, model), abs=5e-7
            )

    def test_brick_wall_values_are_closed_form(self):
        table = upsilon_table(band(), gaussian_model())
        expected = [brick_overlap(w, 1e8, 2.5e7) for w in table.grid]
        np.testing.assert_allclose(table.values, expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("std, window", [(2.5e7, 1e8), (2.5e7, 6e7), (4e6, 1e8)])
    def test_rolloff_zero_gaussian_table_matches_faddeeva_form(self, std, window):
        # the flat part's Gaussian mass taken through the Faddeeva function
        # w at zero frequency: sign(x) * (1 - exp(-x^2) w(i|x|)) = erf(x)
        from scipy.special import wofz

        b, model = band(w=window), gaussian_model(std=std)
        table = upsilon_table(b, model)
        s = math.sqrt(2.0) * std
        half = min(0.5 * model.filter.width, 0.5 * window)

        def edge(u):
            x = (u - table.grid) / s
            sign = np.where(x < 0.0, -1.0, 1.0)
            return sign * (1.0 - (np.exp(-x * x) * wofz(1j * np.abs(x))).real)

        expected = np.clip(0.5 * (edge(half) - edge(-half)), 0.0, 1.0)
        np.testing.assert_allclose(table.values, expected, rtol=0.0, atol=1e-15)

    def test_tapered_table_needs_no_quadrature(self, monkeypatch):
        from mmwregime import numerics
        from mmwregime.spectral import UpsilonTable

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(numerics, "integrate", forbidden)
        monkeypatch.setattr(numerics, "integrate_piecewise", forbidden)
        table = UpsilonTable(band(), gaussian_model(rolloff=0.25))
        assert table.values[0] == pytest.approx(upsilon(0.0, band(), gaussian_model(rolloff=0.25)))
        assert np.all((table.values >= 0.0) & (table.values <= 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", [
        pytest.param(gaussian_model(), id="gaussian-0"),
        pytest.param(gaussian_model(rolloff=0.25), id="gaussian-0.25"),
        pytest.param(SpectralModel(
            psd=RectangularPsd(width=5e7), filter=RaisedCosineFilter(rolloff=0.0, width=1e8)
        ), id="rectangular-0"),
        # cutoffs where the first index guess is one low (3.3e7) or one
        # high (3.1e7) at some grid points or their neighbours
        pytest.param(gaussian_model(std=3.3e7), id="gaussian-step-up"),
        pytest.param(gaussian_model(std=3.1e7), id="gaussian-step-down"),
    ])
    def test_lookup_equals_np_interp(self, model):
        # the direct-index lookup is np.interp on |omega|, bit for bit
        table = upsilon_table(band(), model)
        g, c = table.grid, table.cutoff
        omega = np.concatenate([
            np.random.default_rng(5).uniform(-1.2 * c, 1.2 * c, 200_000),
            g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf), -g,
            [0.0, -0.0, c, -c, np.inf, -np.inf, np.nan, 5e-324],
        ])
        ref = np.interp(np.abs(omega), g, table.values, right=0.0)
        assert np.array_equal(table.lookup(omega), ref, equal_nan=True)
        for w in (0.0, 0.3 * c, c, np.inf, np.nan):
            got = table.lookup(np.array(w))  # 0-d
            assert type(got) is float
            assert np.array_equal(got, np.interp(abs(w), g, table.values, right=0.0), equal_nan=True)
        assert table.lookup(np.empty(0)).shape == (0,)

    def test_lookup_zero_past_cutoff(self):
        table = upsilon_table(band(), gaussian_model())
        assert table.lookup(table.cutoff * 2.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("psd, rolloff", OFFSET_MODELS)
    def test_gamma_n_against_quadrature(self, psd, rolloff, n):
        # gamma_n is the table's offset rule; the reference is scipy quad of
        # the closed-form Upsilon^n over both offset slabs, told where
        # Upsilon has kinks.  Measured: <= 1.6e-15 in every case
        from mmwregime.interference import gamma_n

        b = band()
        model = SpectralModel(psd=psd, filter=RaisedCosineFilter(rolloff=rolloff, width=1e8))
        direct = offset_quad(lambda u: u**n, b, model)
        assert gamma_n(n, b, model) == pytest.approx(direct, rel=1e-13)

    # a Gaussian Upsilon's far tail is an erf difference with 1e-16 absolute
    # noise, which k = 1e9 lifts above the reference's 1e-10 goal: quad then
    # warns of roundoff, and still agrees with its own epsrel-1e-8 value to 1e-9
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("f_0", [62e9, 64e9], ids=["inside", "band-edge"])
    @pytest.mark.parametrize("psd, rolloff", OFFSET_MODELS)
    def test_offset_rule_on_the_mgf_integrand(self, psd, rolloff, f_0):
        # the single-interferer MGF integrates 1 - (1 + k*Upsilon/m)^-m over
        # the offset for k = -s*q*ell^-alpha.  Measured: <= 9.6e-7 relative
        # (rectangular PSD, rolloff 0, k = 1e6), <= 8.6e-10 for a Gaussian
        # PSD.  At f_0 = f_e the near slab is empty and must give no nodes
        m = 3.0
        b = band(f_0=f_0)
        model = SpectralModel(psd=psd, filter=RaisedCosineFilter(rolloff=rolloff, width=1e8))
        table = upsilon_table(b, model)
        for k in (1.0, 1e3, 1e6, 1e9):
            def g(u):
                return -np.expm1(-m * np.log1p(k * u / m))

            got = float(table.rule_weights @ g(table.rule_values))
            expected = offset_quad(g, b, model, epsrel=1e-10)
            assert got == pytest.approx(expected, rel=1e-5, abs=0.0), k

    def test_cached_instance_reused(self):
        b = band()
        model = gaussian_model()
        assert upsilon_table(b, model) is upsilon_table(b, model)
