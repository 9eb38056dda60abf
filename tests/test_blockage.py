import math

import numpy as np
import pytest

from mmwregime.blockage import (
    BlockageConfig,
    GeometryConfig,
    blockage_probability,
    distance_cdf,
    distance_pdf,
    mean_distance,
    mean_partial_blockage,
    nonblocked_count_distribution,
)
from mmwregime.numerics import DomainError, Tolerance, integrate, integrate_piecewise


def geo(radius=10.0, v0=0.0, theta_deg=10.0, eps=0.1):
    return GeometryConfig(radius=radius, v0_norm=v0, theta=math.radians(theta_deg), eps_min=eps)


class TestConfigs:
    def test_geometry_invariants(self):
        with pytest.raises(DomainError):
            geo(v0=10.0)  # v0 must be < radius
        with pytest.raises(DomainError):
            geo(theta_deg=90.0)
        with pytest.raises(DomainError):
            GeometryConfig(radius=10.0, v0_norm=0.0, theta=0.1, eps_min=0.0)

    def test_blockage_invariants(self):
        with pytest.raises(DomainError):
            BlockageConfig(rho=-1.0, d_s=0.2, d_e=0.8)
        with pytest.raises(DomainError):
            BlockageConfig(rho=1.0, d_s=0.8, d_e=0.2)
        with pytest.raises(DomainError):
            BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="nonsense")


class TestDistancePdf:
    def test_centered_receiver_single_branch(self):
        assert distance_pdf(5.0, geo()) == pytest.approx(0.1, abs=1e-15)

    def test_outside_support_is_zero(self):
        g = geo(v0=5.0)
        assert distance_pdf(-1.0, g) == 0.0
        assert distance_pdf(0.0, g) == 0.0
        assert distance_pdf(15.0001, g) == 0.0

    def test_far_branch_formula(self):
        g = geo(v0=5.0)
        ell = 12.0
        expected = (
            2.0 * ell * math.acos((25.0 - 100.0 + 144.0) / (2.0 * ell * 5.0))
            / (math.pi * 100.0)
        )
        assert distance_pdf(ell, g) == pytest.approx(expected, rel=1e-14)

    def test_far_branch_matches_monte_carlo_histogram(self):
        # distances of uniform disk points to an offset receiver
        g = geo(v0=5.0)
        rng = np.random.default_rng(20)
        n = 400_000
        r = g.radius * np.sqrt(rng.random(n))
        a = 2.0 * math.pi * rng.random(n)
        d = np.hypot(r * np.cos(a) - g.v0_norm, r * np.sin(a))
        for lo, hi in [(11.5, 12.5), (6.0, 7.0), (1.0, 2.0)]:
            p_emp = np.mean((d > lo) & (d <= hi))
            p_ana = integrate(lambda l: distance_pdf(l, g), lo, hi)
            assert p_emp == pytest.approx(p_ana, abs=4.0 * math.sqrt(p_ana / n) + 1e-4)

    def test_normalization_random_geometries(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            radius = rng.uniform(1.0, 50.0)
            v0 = rng.uniform(0.0, 0.95) * radius
            g = GeometryConfig(radius=radius, v0_norm=v0, theta=0.2, eps_min=0.01 * radius)
            mass = integrate_piecewise(
                lambda l: distance_pdf(l, g), (0.0, radius - v0, radius + v0)
            )
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_normalization_stated_offsets(self):
        for v0 in (0.0, 3.0, 9.0):
            g = geo(v0=v0)
            mass = integrate_piecewise(
                lambda l: distance_pdf(l, g), (0.0, 10.0 - v0, 10.0 + v0)
            )
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestDistanceCdf:
    @pytest.mark.parametrize("v0", [0.0, 3.0, 9.0, 9.5])
    def test_support_ends(self, v0):
        g = geo(v0=v0)
        assert distance_cdf(0.0, g) == 0.0
        assert distance_cdf(-1.0, g) == 0.0
        assert distance_cdf(10.0 + v0, g) == 1.0
        assert distance_cdf(25.0, g) == 1.0

    @pytest.mark.parametrize("v0", [0.0, 3.0, 9.0, 9.5])
    def test_monotone(self, v0):
        g = geo(v0=v0)
        f = distance_cdf(np.linspace(0.0, 10.0 + v0, 20001), g)
        assert np.all(np.diff(f) >= 0.0)

    @pytest.mark.parametrize("v0", [0.0, 3.0, 9.0, 9.5])
    def test_bin_masses_match_density_quadrature(self, v0):
        g = geo(v0=v0)
        edges = np.linspace(0.0, 10.0 + v0, 41)
        tight = Tolerance(rel=1e-13, abs=1e-15)
        expected = [
            integrate_piecewise(
                lambda l: distance_pdf(l, g),
                [lo] + [e for e in (10.0 - v0,) if lo < e < hi] + [hi], tight,
            )
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        np.testing.assert_allclose(np.diff(distance_cdf(edges, g)), expected, rtol=0.0, atol=1e-12)

    def test_centered_exclusion_mass(self):
        for eps in (0.1, 0.5, 3.0):
            g = geo(eps=eps)
            assert 1.0 - distance_cdf(eps, g) == pytest.approx(1.0 - eps**2 / 100.0, rel=1e-15)


class TestMeanDistance:
    def test_centered_closed_form(self):
        assert mean_distance(geo()) == pytest.approx(20.0 / 3.0, rel=1e-9)
        assert mean_distance(geo(radius=1.0, eps=0.01)) == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_support_bounds(self):
        for v0 in (0.0, 2.5, 8.0):
            g = geo(v0=v0)
            m = mean_distance(g)
            assert 0.0 < m < g.radius + v0

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.999999])
    def test_matches_independent_quadrature(self, t):
        # the mean of |x - v0| over the disk, in polar coordinates about the
        # disk centre, split where the ring through the receiver starts
        from scipy.integrate import quad

        R, v = 10.0, 10.0 * t

        def ring(r):
            f = lambda phi: math.sqrt(max(r * r + v * v - 2.0 * r * v * math.cos(phi), 0.0))
            return 2.0 * r * quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        total = sum(quad(ring, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for lo, hi in ((0.0, v), (v, R)))
        assert mean_distance(geo(v0=v)) == pytest.approx(total / (math.pi * R * R), rel=1e-10)

    def test_rim_limit(self):
        R = 10.0
        g = geo(radius=R, v0=float(np.nextafter(R, 0.0)))
        assert mean_distance(g) == pytest.approx(32.0 * R / (9.0 * math.pi), rel=1e-12)

    def test_needs_no_quadrature(self, monkeypatch):
        from mmwregime import numerics

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(numerics, "integrate", forbidden)
        monkeypatch.setattr(numerics, "integrate_piecewise", forbidden)
        assert mean_distance(geo(v0=4.0)) > mean_distance(geo())


class TestMeanPartialBlockage:
    def test_degenerate_radius_matches_inner_collapse(self):
        # a point-mass obstacle radius must agree with a vanishing interval
        g = geo()
        point = mean_partial_blockage(BlockageConfig(rho=1.0, d_s=0.5, d_e=0.5), g)
        narrow = mean_partial_blockage(BlockageConfig(rho=1.0, d_s=0.4999, d_e=0.5001), g)
        assert point == pytest.approx(narrow, rel=1e-4)

    def test_shadow_at_base_equals_obstacle_diameter(self):
        # the integrand 2*d*ell/r at r = ell is 2*d
        d, ell = 0.37, 8.0
        assert 2.0 * d * ell / ell == pytest.approx(2.0 * d)

    @pytest.mark.parametrize("v0", [0.0, 8.0])
    def test_against_sampling_oracle(self, v0):
        # plain Monte-Carlo average of 2*d*ell/r over the same joint density
        cfg = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8)
        g = geo(v0=v0)
        analytic = mean_partial_blockage(cfg, g)

        rng = np.random.default_rng(2024)
        n = 2_000_000
        tan_t = math.tan(g.theta)
        d = rng.uniform(cfg.d_s, cfg.d_e, n)
        # uniform points in the disk, measured from the offset receiver, so
        # the far (arccos) branch of the distance law is sampled too
        rad = g.radius * np.sqrt(rng.random(n))
        ang = 2.0 * math.pi * rng.random(n)
        ell = np.hypot(rad * np.cos(ang) - g.v0_norm, rad * np.sin(ang))
        a = d / (2.0 * tan_t)
        ok = ell > a
        u = rng.random(ok.sum())
        r = np.sqrt(a[ok] ** 2 + u * (ell[ok] ** 2 - a[ok] ** 2))
        s = np.zeros(n)
        s[ok] = 2.0 * d[ok] * ell[ok] / r
        assert s.mean() == pytest.approx(analytic, rel=0.01)

    @pytest.mark.parametrize(
        "d_s, d_e, v0, expected",
        [
            # independent double quadrature (scipy.integrate.quad over ell
            # and d, split where d/(2 tan theta) crosses R -+ v0)
            (0.2, 0.8, 8.0, 1.6311300991992042),
            (0.2, 0.8, 9.0, 1.6588480406770911),
            (0.05, 1.2, 8.5, 1.91379729558636),
            # point-mass radius, as the triple quadrature gave it
            (0.5, 0.5, 6.0, 1.62601988962848),
        ],
    )
    def test_pinned_values(self, d_s, d_e, v0, expected):
        cfg = BlockageConfig(rho=1.0, d_s=d_s, d_e=d_e)
        assert mean_partial_blockage(cfg, geo(v0=v0)) == pytest.approx(expected, rel=1e-9)

    def test_rho_independent(self):
        g = geo()
        a = mean_partial_blockage(BlockageConfig(rho=0.5, d_s=0.2, d_e=0.8), g)
        b = mean_partial_blockage(BlockageConfig(rho=2.0, d_s=0.2, d_e=0.8), g)
        assert a == b


class TestBlockageProbability:
    def test_no_obstacles_limit(self):
        res = blockage_probability(BlockageConfig(rho=0.0, d_s=0.2, d_e=0.8), geo())
        assert res.p_b == 0.0
        assert res.p_b1 == 0.0
        assert res.p_b2 == 0.0
        assert res.delta == 0.0

    def test_shadow_budget_closed_form(self):
        res = blockage_probability(BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8), geo())
        assert res.delta == pytest.approx(
            2.0 * (20.0 / 3.0) * math.tan(math.radians(10.0)), rel=1e-9
        )

    def test_full_block_term_vs_quadrature_oracle(self):
        # the closed form is the average of exp(-rho d^2 / (4 tan)) over d
        cfg = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8)
        g = geo()
        res = blockage_probability(cfg, g)
        tan_t = math.tan(g.theta)
        avg = integrate(
            lambda d: np.exp(-cfg.rho * d * d / (4.0 * tan_t)), cfg.d_s, cfg.d_e
        ) / (cfg.d_e - cfg.d_s)
        assert res.p_b1 == pytest.approx(1.0 - avg, rel=1e-10)

    def test_degenerate_radius_full_block_term(self):
        cfg = BlockageConfig(rho=1.0, d_s=0.5, d_e=0.5)
        res = blockage_probability(cfg, geo())
        tan_t = math.tan(math.radians(10.0))
        assert res.p_b1 == pytest.approx(1.0 - math.exp(-0.25 / (4.0 * tan_t)), rel=1e-12)

    @pytest.mark.parametrize("mode", ["reciprocal_length", "length_weighted"])
    def test_no_partial_shadow_when_obstacles_outsize_cone(self, mode):
        # c*d_s = 0.6/(2 tan 1 deg) ~ 17 m exceeds R + v0, so every obstacle in
        # reach blocks outright and E[S] = 0
        cfg = BlockageConfig(rho=1.0, d_s=0.6, d_e=0.8, mode=mode)
        for v0 in (0.0, 6.0):
            g = geo(v0=v0, theta_deg=1.0)
            res = blockage_probability(cfg, g)
            assert res.mean_shadow == 0.0
            assert res.p_b2 == 0.0
            assert 0.0 <= res.p_b <= 1.0

    def test_ingredients_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cfg = BlockageConfig(
                rho=rng.uniform(0.01, 4.0),
                d_s=rng.uniform(0.05, 0.4),
                d_e=rng.uniform(0.4, 1.2),
                mode="reciprocal_length",
            )
            g = geo(v0=rng.uniform(0.0, 9.0), theta_deg=rng.uniform(4.0, 25.0))
            res = blockage_probability(cfg, g)
            assert 0.0 <= res.p_b1 <= 1.0
            assert 0.0 <= res.p_b2 <= 1.0
            assert 0.0 <= res.p_b <= 1.0

    def test_monotone_in_density_reciprocal_length(self):
        rhos = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
        for v0 in (0.0, 4.0, 8.0):
            g = geo(v0=v0)
            vals = [
                blockage_probability(
                    BlockageConfig(rho=r, d_s=0.2, d_e=0.8, mode="reciprocal_length"), g
                ).p_b
                for r in rhos
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_beamwidth_reciprocal_length(self):
        thetas = (6.0, 8.0, 10.0, 12.0, 15.0, 20.0)
        vals = [
            blockage_probability(
                BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length"),
                geo(theta_deg=t),
            ).p_b
            for t in thetas
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_length_weighted_stays_in_unit_interval(self):
        for rho in (0.25, 1.0, 4.0):
            res = blockage_probability(
                BlockageConfig(rho=rho, d_s=0.2, d_e=0.8, mode="length_weighted"), geo()
            )
            assert 0.0 <= res.p_b <= 1.0

    def test_modes_differ(self):
        cfg_v = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length")
        cfg_w = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="length_weighted")
        assert blockage_probability(cfg_v, geo()).p_b != blockage_probability(cfg_w, geo()).p_b

    def test_clamp_reported(self):
        # reciprocal-length weights blow past 1 for slim, long cones
        cfg = BlockageConfig(rho=6.0, d_s=0.05, d_e=0.1, mode="reciprocal_length")
        res = blockage_probability(cfg, geo(theta_deg=20.0))
        if res.clamped:
            assert res.p_b in (0.0, 1.0)


class TestNonblockedCount:
    def test_certain_success(self):
        law = nonblocked_count_distribution(10, 1.0, 0.0)
        assert law.success_prob == 1.0
        assert law.pmf(10) == pytest.approx(1.0)
        assert law.pmf(9) == 0.0

    def test_idle_network(self):
        law = nonblocked_count_distribution(10, 0.0, 0.3)
        assert law.pmf(0) == pytest.approx(1.0)

    def test_pgf_normalization_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            law = nonblocked_count_distribution(
                int(rng.integers(0, 300)), rng.random(), rng.random()
            )
            assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_pgf_matches_pmf_sum(self):
        law = nonblocked_count_distribution(40, 0.6, 0.25)
        z = 0.7
        k = np.arange(41)
        assert law.pgf(z) == pytest.approx(float(np.sum(law.pmf(k) * z**k)), rel=1e-12)

    def test_thinning_histogram_total_variation(self):
        law = nonblocked_count_distribution(200, 0.5, 0.3)
        rng = np.random.default_rng(77)
        trials = 100_000
        counts = np.zeros(201)
        chunk = 20_000
        for start in range(0, trials, chunk):
            draws = rng.random((chunk, 200)) < law.success_prob
            counts += np.bincount(draws.sum(axis=1), minlength=201)
        emp = counts / trials
        tv = 0.5 * float(np.abs(emp - law.pmf(np.arange(201))).sum())
        assert tv < 0.01

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            nonblocked_count_distribution(-1, 0.5, 0.5)
        with pytest.raises(DomainError):
            nonblocked_count_distribution(10, 1.5, 0.5)
