import math

import numpy as np
import pytest

from mmwregime import numerics
from mmwregime.numerics import DomainError, find_root, integrate, integrate_piecewise, rule_piecewise


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
        # the same nodes and weights as arrays: 64 per non-empty piece
        x, w = rule_piecewise((0.0, 1.0, 1.0, 2.5, 3.0))
        assert x.shape == w.shape == (3 * 64,)
        assert float(w @ f(x)) == pytest.approx(split, rel=1e-14)
        with pytest.raises(DomainError):
            rule_piecewise((0.0, 1.0, np.inf))


class TestStoredRule:
    # the package stores leggauss(64) instead of computing it at import; the
    # test may load numpy.polynomial, the package must not
    def test_mirrored_table_is_leggauss(self):
        t, w = numerics._legendre_64()
        t_ref, w_ref = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(w, w_ref)

    def test_rule_is_the_cosine_map_of_leggauss_bit_for_bit(self):
        t, w = np.polynomial.legendre.leggauss(64)
        u = 0.5 * math.pi * (t + 1.0)
        assert np.array_equal(numerics._RULE_NODES, -np.cos(u))
        assert np.array_equal(numerics._RULE_WEIGHTS, 0.5 * math.pi * w * np.sin(u))


# (rho, N, v0) at which the rule's error budget in the README is measured
REFERENCE_POINTS = ((1.0, 200, 0.0), (2.0, 50, 9.0), (0.5, 100, 5.0))
RULE_COLUMNS = ("p_b", "mean_y_w", "lambda", "p_d")
# the largest relative changes 64 -> 128 nodes measured on these points are
# p_b 0, mean_y_w 9.3e-15, lambda 4.6e-15 and p_d 1.2e-15; the bound leaves
# room for other platforms' rounding
RULE_ERROR_BOUND = 1e-13


def reference_rows(run):
    from mmwregime import detector

    return [
        detector.regime_map(run.blockage, run.geo, run.channel, run.band, run.spectral,
                            run.noise, [rho], [n], [v0], run.beta_th, fit_mode=run.fit_mode)[0]
        for rho, n, v0 in REFERENCE_POINTS
    ]


def test_analytic_columns_hold_at_twice_the_rule_nodes(baseline_run):
    # the README's error budget of the fixed rule: each analytic column at
    # 64 nodes against the same column at 128, the 128-node rule built from
    # leggauss(128) by the package's own cosine map
    from mmwregime.spectral import upsilon_table

    stored = numerics._RULE_NODES, numerics._RULE_WEIGHTS
    upsilon_table.cache_clear()
    coarse = reference_rows(baseline_run)
    try:
        numerics._RULE_NODES, numerics._RULE_WEIGHTS = numerics._cosine_rule(
            *np.polynomial.legendre.leggauss(128))
        upsilon_table.cache_clear()
        fine = reference_rows(baseline_run)
    finally:
        numerics._RULE_NODES, numerics._RULE_WEIGHTS = stored
        upsilon_table.cache_clear()
    errors = {col: max(abs(f[col] - c[col]) / abs(f[col]) for c, f in zip(coarse, fine))
              for col in RULE_COLUMNS}
    assert all(err <= RULE_ERROR_BOUND for err in errors.values()), errors
    # the rule did change: the interference mean moved in its last digits
    assert errors["mean_y_w"] > 0.0


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
        for f, lo, hi in cases:
            x = find_root(f, lo, hi)
            assert abs(f(x)) <= 1e-10

    def test_converges_to_adjacent_doubles(self):
        # bisection stops at a sign change between x and a neighbouring double
        for f, lo, hi in ((lambda x: x * x - 2.0, 1.0, 2.0),
                          (lambda x: math.cos(x) - x, 0.0, 1.0),
                          (lambda x: 1.0 - 4.0 * x * x, 1e-9, 1e9)):
            x = find_root(f, lo, hi)
            fx = f(x)
            neighbours = (f(math.nextafter(x, -math.inf)), f(math.nextafter(x, math.inf)))
            assert fx == 0.0 or any((fn < 0.0) != (fx < 0.0) for fn in neighbours)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        # an exact zero at hi is returned without bisecting
        calls = []
        assert find_root(lambda x: calls.append(x) or x - 1.0, -3.0, 1.0) == 1.0
        assert calls == [-3.0, 1.0]

    def test_no_sign_change(self):
        with pytest.raises(DomainError, match="no sign change"):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_tiny_values_without_sign_change(self):
        # the product f(lo)*f(hi) underflows to 0 here; the signs still agree
        with pytest.raises(DomainError, match="no sign change"):
            find_root(lambda x: 1e-200, 0.0, 1.0)

    def test_bad_bracket_order(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 2.0, 1.0)
