import math

import numpy as np
import pytest

from mmwregime import numerics
from mmwregime.numerics import (
    BracketingError,
    DomainError,
    Tolerance,
    erf,
    erf_inv,
    erfc_inv,
    find_root,
    integrate,
    integrate_piecewise,
    log_gamma,
    reg_lower_gamma,
)


def erf_series(x, terms=60):
    """Independent Maclaurin-series erf, accurate to ~1e-15 for |x| <= 2."""
    total = 0.0
    term = x
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def erf_inv_newton(p, iters=60):
    """Newton iteration on the series erf; oracle for the inverse."""
    x = 0.0
    for _ in range(iters):
        step = (erf_series(x) - p) * math.sqrt(math.pi) / 2.0 * math.exp(x * x)
        x -= step
        if abs(step) < 1e-15:
            break
    return x


class TestSpecialFunctions:
    def test_erf_at_zero(self):
        assert erf(0.0) == 0.0

    def test_erf_inv_at_zero(self):
        assert erf_inv(0.0) == 0.0

    def test_erf_inv_half(self):
        # oracle: Newton on the series expansion, frozen value below
        oracle = erf_inv_newton(0.5)
        assert oracle == pytest.approx(0.4769362762044699, abs=1e-14)
        assert erf_inv(0.5) == pytest.approx(0.4769362762044699, abs=1e-12)

    def test_erf_inv_roundtrip(self):
        for p in np.linspace(-0.999, 0.999, 41):
            assert abs(erf(erf_inv(p)) - p) <= 1e-12

    def test_erf_inv_domain(self):
        for bad in (-1.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                erf_inv(bad)

    def test_erfc_inv_matches_erf_inv(self):
        for q in (1e-3, 0.1, 0.5, 1.0, 1.7):
            assert erfc_inv(q) == pytest.approx(erf_inv(1.0 - q), abs=1e-12)

    def test_erfc_inv_tiny_argument_stays_finite(self):
        z = erfc_inv(1e-300)
        assert 26.0 < z < 27.0

    def test_erf_odd_and_monotone(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-6, 6, 1000)
        assert np.allclose(erf(-x), -erf(x), atol=1e-15)
        xs = np.sort(x)
        assert np.all(np.diff(erf(xs)) >= 0)

    def test_erf_inv_erf_roundtrip_band(self):
        x = np.linspace(-3.0, 3.0, 201)
        back = erf_inv(np.clip(erf(x), -1 + 1e-16, 1 - 1e-16))
        assert np.all(np.abs(back - x) <= 1e-9)

    def test_log_gamma_half(self):
        assert math.exp(log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_log_gamma_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.0)

    def test_reg_lower_gamma_endpoints(self):
        assert reg_lower_gamma(0.5, 0.0) == 0.0
        assert reg_lower_gamma(0.5, np.inf) == pytest.approx(1.0, abs=1e-14)

    def test_reg_lower_gamma_erf_identity(self):
        assert reg_lower_gamma(0.5, 1.0) == pytest.approx(erf(1.0), abs=1e-10)
        for x in (0.01, 0.3, 2.5, 9.0):
            assert reg_lower_gamma(0.5, x) == pytest.approx(
                erf(math.sqrt(x)), abs=1e-10
            )

    def test_reg_lower_gamma_domain(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(0.5, -1.0)


class TestTolerance:
    def test_invariants(self):
        with pytest.raises(DomainError):
            Tolerance(rel=0.0)
        with pytest.raises(DomainError):
            Tolerance(abs=-1.0)
        with pytest.raises(DomainError):
            Tolerance(max_iter=0)


class TestIntegrate:
    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_semi_infinite_exponential(self):
        # the fixed rule takes finite limits; a caller maps [0, inf) to
        # [0, 1) by x = t/(1 - t), checked against scipy's semi-infinite quad
        from scipy.integrate import quad

        mapped = integrate(lambda t: np.exp(-t / (1.0 - t)) / (1.0 - t) ** 2, 0.0, 1.0)
        val = quad(lambda x: math.exp(-x), 0.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(1.0, rel=1e-9)
        assert mapped == pytest.approx(val, rel=1e-9)

    def test_endpoint_singularity(self):
        val = integrate(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 0.99)
        assert val == pytest.approx(2.0 - 2.0 * math.sqrt(0.01), rel=1e-10)

    def test_integrable_singularity_at_left_endpoint(self):
        val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_doubly_infinite_gaussian(self):
        # both halves mapped to [0, 1) by |x| = t/(1 - t), against scipy's
        # doubly infinite quad
        from scipy.integrate import quad

        pdf = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        half = integrate(lambda t: pdf(t / (1.0 - t)) / (1.0 - t) ** 2, 0.0, 1.0)
        val = quad(pdf, -np.inf, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(1.0, rel=1e-9)
        assert 2.0 * half == pytest.approx(val, rel=1e-9)

    def test_empty_and_reversed(self):
        assert integrate(lambda x: x, 2.0, 2.0) == 0.0
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_linearity_on_random_polynomials(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cf = rng.uniform(-2, 2, 4)
            cg = rng.uniform(-2, 2, 4)
            a, b = sorted(rng.uniform(-3, 3, 2))
            alpha, beta = rng.uniform(-2, 2, 2)
            f = lambda x: cf[0] + cf[1] * x + cf[2] * x**2 + cf[3] * x**3
            g = lambda x: cg[0] + cg[1] * x + cg[2] * x**2 + cg[3] * x**3
            combined = integrate(lambda x: alpha * f(x) + beta * g(x), a, b)
            split = alpha * integrate(f, a, b) + beta * integrate(g, a, b)
            assert combined == pytest.approx(split, rel=1e-9, abs=1e-9)

    def test_infinite_limit_raises_domain_error(self):
        for a, b in ((0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)):
            with pytest.raises(DomainError, match="finite limits"):
                integrate(lambda x: np.exp(-x * x), a, b)
        with pytest.raises(DomainError):
            integrate_piecewise(lambda x: np.exp(-x), (0.0, 1.0, np.inf))

    def test_non_finite_integrand_raises_numerics_error(self):
        with pytest.raises(numerics.NumericsError, match="non-finite"):
            integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)

    def test_non_array_integrand_raises_domain_error(self):
        # one value for sixty-four nodes: the error names both shapes
        with pytest.raises(DomainError, match=r"\(64,\).*shape \(\)"):
            integrate(lambda x: 1.0, 0.0, 1.0)

    def test_piecewise_matches_single(self):
        f = lambda x: np.sin(x)
        whole = integrate(f, 0.0, 3.0)
        split = integrate_piecewise(f, (0.0, 1.0, 1.0, 2.5, 3.0))
        assert split == pytest.approx(whole, rel=1e-10)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_rate_equation_without_signal_power(self):
        # (lam*phi + 1) e^{-lam*phi} - mean*lam^2 at phi = 0 collapses to
        # 1 - mean*lam^2, whose positive root is 1/sqrt(mean)
        mean = 4.0
        root = find_root(lambda lam: 1.0 - mean * lam * lam, 1e-9, 1e9)
        assert root == pytest.approx(0.5, rel=1e-10)

    def test_residual_small_on_fixtures(self):
        cases = [
            (lambda x: x**3 - 7.0, 1.0, 3.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.expm1(x) - 0.5, 0.0, 1.0),
        ]
        tol = Tolerance(rel=1e-14, abs=1e-14, max_iter=200)
        for f, lo, hi in cases:
            x = find_root(f, lo, hi, tol)
            assert abs(f(x)) <= 1e-10

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketingError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bad_bracket_order(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 2.0, 1.0)
