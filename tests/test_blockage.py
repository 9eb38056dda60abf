import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mmwregime.blockage import (
    BlockageConfig,
    GeometryConfig,
    _ellipke,
    blockage_probability,
    distance_cdf,
    distance_pdf,
    mean_distance,
    mean_partial_blockage,
    nonblocked_count_pmf,
)
from mmwregime.numerics import DomainError, integrate, integrate_piecewise


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
        from scipy.integrate import quad

        g = geo(v0=v0)
        edges = np.linspace(0.0, 10.0 + v0, 41)
        expected = [
            quad(lambda l: distance_pdf(l, g), lo, hi, epsabs=1e-15, epsrel=1e-13,
                 limit=200, points=[e for e in (10.0 - v0,) if lo < e < hi] or None)[0]
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

    def test_elliptic_integrals_match_scipy(self):
        # m = (v0/R)^2 over the receiver offsets a config can hold
        from scipy import special

        ms = np.concatenate((np.linspace(0.0, 0.9999, 4001), [1e-300, 1e-16, 1e-8]))
        k, e = np.array([_ellipke(float(m)) for m in ms]).T
        np.testing.assert_allclose(k, special.ellipk(ms), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(e, special.ellipe(ms), rtol=1e-14, atol=0.0)
        assert _ellipke(0.0) == (0.5 * math.pi, 0.5 * math.pi)


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

    @pytest.mark.parametrize("theta_deg", [4.0, 10.0, 25.0, 60.0])
    def test_matches_independent_quadrature(self, theta_deg):
        # scipy.integrate.quad over ell of the same elementary inner
        # integrals, split at the same kinks, at epsrel 1e-13
        from scipy.integrate import quad

        for v0 in (0.0, 4.0, 8.0, 9.5, 9.9):
            g = geo(v0=v0, theta_deg=theta_deg)
            c = 0.5 / math.tan(g.theta)
            for d_s, d_e in ((0.2, 0.8), (0.5, 0.5), (0.05, 3.0), (1.0, 2.0)):
                lo, upper = c * d_s, 10.0 + v0

                def shadow(l, d_s=d_s, d_e=d_e, lo=lo):
                    if d_e == d_s:
                        return 4.0 * d_s * l / (l + lo)
                    span = min(max(l / c, d_s), d_e) - d_s
                    return 4.0 * l * (span / c - l / (c * c) * math.log1p(c * span / (l + lo))) / (d_e - d_s)

                cuts = sorted(e for e in {lo, c * d_e, 10.0 - v0, upper} if lo <= e <= upper)
                expected = sum(
                    quad(lambda l: distance_pdf(l, g) * shadow(l), a, b,
                         epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(cuts[:-1], cuts[1:])
                )
                got = mean_partial_blockage(BlockageConfig(rho=1.0, d_s=d_s, d_e=d_e), g)
                assert got == pytest.approx(expected, rel=1e-13, abs=0.0), (v0, d_s, d_e)

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

    def test_reciprocal_length_pole_is_domain_error(self, tmp_path, monkeypatch):
        # E[ell] equal to the apex length (d_s + d_e)/(4 tan theta) is the
        # pole of the reciprocal-length weights; it must be a numerical
        # failure (CLI exit 2), not a ZeroDivisionError traceback
        from mmwregime import blockage, cli

        from conftest import BASELINE_CONFIG

        def at_apex(g):
            return 0.5 * (0.2 + 0.8) / (2.0 * math.tan(g.theta))

        monkeypatch.setattr(blockage, "mean_distance", at_apex)
        cfg = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length")
        with pytest.raises(DomainError, match="pole"):
            blockage_probability(cfg, geo())
        out = tmp_path / "out"
        assert cli.main(["blockage", "--config", str(BASELINE_CONFIG), "--out", str(out)]) == 2
        # validate fails only the three checks that read p_b and still
        # writes its report, a validation failure
        argv = ["validate", "--config", str(BASELINE_CONFIG), "--out", str(out), "--trials", "2000"]
        assert cli.main(argv) == 3
        checks = json.loads((out / "validation.json").read_text())["checks"]
        failed = {c["name"] for c in checks if c["note"].startswith("failed:")}
        assert failed == {"count_check", "mean_power_check", "geometric_gap_check"}
        assert all("pole" in c["note"] for c in checks if c["name"] in failed)
        assert len(checks) - len(failed) == 6

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

    @pytest.mark.parametrize("rho", [450.0, 1e3, 1e4])
    def test_dense_field_stays_finite(self, rho):
        # from rho*E[S] ~ 709.78 (rho ~ 458 on this geometry) expm1 overflows;
        # the shadow-count ceiling is 1 there
        cfg = BlockageConfig(rho=rho, d_s=0.2, d_e=0.8, mode="reciprocal_length")
        res = blockage_probability(cfg, geo(eps=0.5))
        for value in (res.p_b1, res.p_b2, res.p_b):
            assert math.isfinite(value) and 0.0 <= value <= 1.0
        if rho == 450.0:
            # below the overflow the expression is unchanged, bit for bit
            assert res.p_b == 0.7053079228338226

    def test_length_unit(self, baseline_blockage, baseline_geo):
        # the shipped scene with every length times 100 and rho times 1e-4:
        # p_b1 reads rho*d^2 and is unit-free, delta = 2*rho*E[ell]*tan(theta)
        # is per meter, so p_b2 and both combinations move (README)
        big_geo = replace(baseline_geo, radius=1e3, v0_norm=0.0, eps_min=50.0)
        expected = {"reciprocal_length": (0.2392, 0.002527), "length_weighted": (0.1578, 0.2136)}
        for mode, (p_b, big_p_b) in expected.items():
            cfg = replace(baseline_blockage, mode=mode)
            big = replace(cfg, rho=1e-4 * cfg.rho, d_s=100.0 * cfg.d_s, d_e=100.0 * cfg.d_e)
            small_res = blockage_probability(cfg, baseline_geo)
            big_res = blockage_probability(big, big_geo)
            assert big_res.p_b1 == pytest.approx(small_res.p_b1, rel=1e-12)
            assert big_res.delta == pytest.approx(small_res.delta / 100.0, rel=1e-12)
            assert (small_res.p_b2, big_res.p_b2) == pytest.approx((0.1174, 0.1882), abs=5e-5)
            assert (small_res.p_b, big_res.p_b) == pytest.approx((p_b, big_p_b), rel=5e-4)

    @pytest.mark.parametrize("rho", [1e3, 1e4, 1e6])
    def test_reciprocal_length_plateau(self, baseline_blockage, baseline_geo, rho):
        # p_b1 -> 1 and p_b2 -> 0 leave p_b1/length_apex, in 1/m: a dense
        # field reads 1/1.418 = 0.7053, not 1 (README)
        res = blockage_probability(replace(baseline_blockage, rho=rho), baseline_geo)
        length_apex = 0.5 * (0.2 + 0.8) / (2.0 * math.tan(baseline_geo.theta))
        assert length_apex == pytest.approx(1.418, abs=5e-4)
        assert res.p_b == pytest.approx(1.0 / length_apex, rel=1e-12)
        assert not res.clamped

    def test_clamp_reported(self):
        # reciprocal-length weights blow past 1 for slim, long cones
        cfg = BlockageConfig(rho=6.0, d_s=0.05, d_e=0.1, mode="reciprocal_length")
        res = blockage_probability(cfg, geo(theta_deg=20.0))
        if res.clamped:
            assert res.p_b in (0.0, 1.0)


class TestNonblockedCount:
    def test_certain_success(self):
        assert nonblocked_count_pmf(10, 1.0, 0.0).tolist() == [0.0] * 10 + [1.0]

    def test_idle_network(self):
        assert nonblocked_count_pmf(10, 0.0, 0.3).tolist() == [1.0] + [0.0] * 10

    @pytest.mark.parametrize("n", [0, 1, 200, 10_000])
    @pytest.mark.parametrize("q", [0.05, 0.35, 0.5, 0.9])
    def test_pmf_matches_scipy_binomial(self, n, q):
        from scipy import stats

        k = np.arange(n + 1)
        ref = stats.binom.pmf(k, n, q)
        got = nonblocked_count_pmf(n, q, 0.0)
        # log C(n, k) + k log q + (n - k) log(1 - q) cancels to the log of the
        # pmf from terms up to ~n in size: the relative error grows with n
        normal = ref >= 1e-300
        assert np.all(np.abs(got - ref) <= 1e-13)
        assert np.all(np.abs(got - ref)[normal] <= 1e-10 * ref[normal])

    def test_thinning_histogram_total_variation(self):
        pmf = nonblocked_count_pmf(200, 0.5, 0.3)
        rng = np.random.default_rng(77)
        trials = 100_000
        counts = np.zeros(201)
        chunk = 20_000
        for start in range(0, trials, chunk):
            draws = rng.random((chunk, 200)) < 0.5 * (1.0 - 0.3)
            counts += np.bincount(draws.sum(axis=1), minlength=201)
        emp = counts / trials
        tv = 0.5 * float(np.abs(emp - pmf).sum())
        assert tv < 0.01

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            nonblocked_count_pmf(-1, 0.5, 0.5)
        with pytest.raises(DomainError):
            nonblocked_count_pmf(10, 1.5, 0.5)
        with pytest.raises(DomainError):
            nonblocked_count_pmf(10, 0.5, -0.1)
