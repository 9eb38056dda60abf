import math

import numpy as np
import pytest

from mmwregime import mcsim
from mmwregime.blockage import BlockageConfig, GeometryConfig
from mmwregime.detector import np_threshold
from mmwregime.interference import ChannelConfig, mean_received_power
from mmwregime.mcsim import (
    empirical_rates,
    is_blocked,
    sample_h0_power,
    simulate_received_power,
    validate_suite,
)
from mmwregime.numerics import DomainError


V0 = np.array([0.0, 0.0])
THETA = math.radians(10.0)


def geo(v0=0.0, eps=0.1):
    return GeometryConfig(radius=10.0, v0_norm=v0, theta=THETA, eps_min=eps)


class TestIsBlocked:
    def test_no_obstacles(self):
        assert not is_blocked([5.0, 0.0], np.empty((0, 2)), np.empty(0), V0, THETA)

    def test_apex_obstacle_wider_than_cone(self):
        # obstacle center right in front of the interferer: local cone
        # half-width is r*tan(theta), far below d/2
        ixy = [5.0, 0.0]
        obs = np.array([[4.9, 0.0]])
        rad = np.array([0.4])
        assert is_blocked(ixy, obs, rad, V0, THETA)

    def test_two_partial_shadows_accumulate(self):
        # each obstacle shades 0.6 of the base width; together they exceed it
        ell = 8.0
        tan_t = math.tan(THETA)
        base = 2.0 * ell * tan_t
        # shadow = 2 d ell / r = 0.6 * base  =>  d = 0.6 * base * r / (2 ell)
        r = 5.0
        d = 0.6 * base * r / (2.0 * ell)
        ixy = [ell, 0.0]
        on_axis = ell - r  # axial distance r from the apex toward the receiver
        obs = np.array([[on_axis, 0.001], [on_axis, -0.001]])
        rad = np.array([d, d])
        assert d / (2.0 * tan_t) < r  # neither is a full near-field block
        assert is_blocked(ixy, obs, rad, V0, THETA)
        assert not is_blocked(ixy, obs[:1], rad[:1], V0, THETA)

    def test_obstacle_behind_interferer_ignored(self):
        ixy = [5.0, 0.0]
        obs = np.array([[6.0, 0.0]])  # behind the apex, outside the cone
        assert not is_blocked(ixy, obs, np.array([2.0]), V0, THETA)

    def test_obstacle_off_axis_ignored(self):
        ixy = [5.0, 0.0]
        obs = np.array([[2.5, 3.0]])  # far outside the 10-degree cone
        assert not is_blocked(ixy, obs, np.array([0.3]), V0, THETA)

    def test_adding_obstacles_never_unblocks(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            ixy = rng.uniform(-7, 7, 2)
            n = int(rng.integers(1, 30))
            obs = rng.uniform(-8, 8, (n, 2))
            rad = rng.uniform(0.1, 0.6, n)
            before = is_blocked(ixy, obs[:-1], rad[:-1], V0, THETA)
            after = is_blocked(ixy, obs, rad, V0, THETA)
            assert after or not before


class TestSimulatedPower:
    def test_deterministic_and_worker_invariant(
        self, baseline_channel, baseline_band, baseline_model
    ):
        kw = dict(blocking="thinning", p_b=0.3)
        a = simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 1e-3, 10_000, 9, workers=1, **kw
        )
        b = simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 1e-3, 10_000, 9, workers=8, **kw
        )
        assert np.array_equal(a, b)

    def test_total_blockage_gives_pure_signal(self, baseline_channel, baseline_band, baseline_model):
        s = simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 2e-3, 500, 1,
            blocking="thinning", p_b=1.0,
        )
        assert np.all(s == 2e-3)

    def test_idle_network_gives_pure_signal(self, baseline_band, baseline_model):
        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=0, p=0.7)
        s = simulate_received_power(idle, geo(), baseline_band, baseline_model, 2e-3, 500, 1)
        assert np.all(s == 2e-3)

    def test_exclusion_radius_enforced_in_support(self, baseline_band, baseline_model):
        # a single always-on interferer: the largest possible sample is
        # bounded by the eps_min pathloss
        one = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=1, p=1.0)
        g = geo(eps=0.5)
        s = simulate_received_power(
            one, g, baseline_band, baseline_model, 0.0, 20_000, 3, blocking="none"
        )
        cap = one.q * g.eps_min ** (-one.alpha) * 60.0  # 60 ~ safe fading headroom
        assert s.max() < cap

    def test_mean_matches_analytic_for_thinning(
        self, baseline_channel, baseline_band, baseline_model, baseline_geo
    ):
        p_b = 0.24
        s = simulate_received_power(
            baseline_channel, baseline_geo, baseline_band, baseline_model, 1e-3, 200_000, 11,
            blocking="thinning", p_b=p_b,
        )
        analytic = mean_received_power(
            1e-3, p_b, baseline_channel, baseline_geo, baseline_band, baseline_model
        )
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert s.mean() == pytest.approx(analytic, abs=4.0 * se)

    def test_geometric_blocks_more_than_none(
        self, baseline_channel, baseline_band, baseline_model, baseline_blockage
    ):
        # medians, not means: rare near-exclusion interferers dominate the
        # mean at small trial counts
        free = simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 0.0, 400, 13, blocking="none"
        )
        geom = simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 0.0, 400, 13,
            blocking="geometric", blockage_cfg=baseline_blockage,
        )
        assert np.median(geom) < np.median(free)

    def test_geometric_requires_blockage_config(self, baseline_channel, baseline_band, baseline_model):
        with pytest.raises(DomainError):
            simulate_received_power(
                baseline_channel, geo(), baseline_band, baseline_model, 0.0, 10, 1,
                blocking="geometric",
            )

    def test_unknown_mode_rejected(self, baseline_channel, baseline_band, baseline_model):
        with pytest.raises(DomainError):
            simulate_received_power(
                baseline_channel, geo(), baseline_band, baseline_model, 0.0, 10, 1,
                blocking="sometimes",
            )

    def test_denser_obstacles_block_more_with_coupled_fields(
        self, baseline_channel, baseline_band
    ):
        # PPP thinning couples the two densities on common draws: the sparse
        # field is a subset of the dense one, so blocking can only grow
        rng = np.random.default_rng(17)
        g = geo()
        rho_hi, rho_lo = 2.0, 0.5
        blocked_hi = blocked_lo = total = 0
        for _ in range(300):
            n_obs = rng.poisson(rho_hi * math.pi * g.radius**2)
            r = g.radius * np.sqrt(rng.random(n_obs))
            a = 2.0 * math.pi * rng.random(n_obs)
            obs = np.column_stack((r * np.cos(a), r * np.sin(a)))
            rad = 0.2 + 0.6 * rng.random(n_obs)
            keep = rng.random(n_obs) < rho_lo / rho_hi
            ri = g.radius * np.sqrt(rng.random(20))
            ai = 2.0 * math.pi * rng.random(20)
            ixy = np.column_stack((ri * np.cos(ai), ri * np.sin(ai)))
            hi = mcsim._blocked_mask(ixy, obs, rad, V0, g.theta)
            lo = mcsim._blocked_mask(ixy, obs[keep], rad[keep], V0, g.theta)
            assert not np.any(lo & ~hi)  # subset field never blocks more
            blocked_hi += hi.sum()
            blocked_lo += lo.sum()
            total += 20
        assert blocked_hi > blocked_lo


class TestEmpiricalRates:
    def test_threshold_at_signal_power_fires_always(
        self, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        # the simulated interference law has a small atom exactly at phi
        # (trials where every contribution is idle, blocked or out of band),
        # so the detection rate can fall short of 1 by that atom's mass
        p_f, p_d = empirical_rates(
            baseline_channel, geo(), baseline_band, baseline_model, baseline_noise,
            eta_prime=baseline_noise.phi, trials=2_000, seed=21,
            blocking="thinning", p_b=0.3,
        )
        assert p_f == 1.0
        assert p_d >= 0.995

    def test_infinite_threshold_never_fires(
        self, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        p_f, p_d = empirical_rates(
            baseline_channel, geo(), baseline_band, baseline_model, baseline_noise,
            eta_prime=np.inf, trials=2_000, seed=21,
            blocking="thinning", p_b=0.3,
        )
        assert p_f == 0.0
        assert p_d == 0.0

    def test_false_alarm_calibrated(self, baseline_channel, baseline_band, baseline_model, baseline_noise):
        eta = np_threshold(0.2, baseline_noise)
        p_f, _ = empirical_rates(
            baseline_channel, geo(), baseline_band, baseline_model, baseline_noise,
            eta_prime=eta, trials=100_000, seed=23, blocking="thinning", p_b=1.0,
        )
        assert p_f == pytest.approx(0.2, abs=0.01)


class TestH0Sampling:
    def test_deterministic(self, baseline_noise):
        assert np.array_equal(
            sample_h0_power(baseline_noise, 1000, 5), sample_h0_power(baseline_noise, 1000, 5)
        )

    def test_support(self, baseline_noise):
        s = sample_h0_power(baseline_noise, 10_000, 6)
        assert np.all(s >= baseline_noise.phi)


class TestValidateSuite:
    def test_baseline_setup_passes(
        self, baseline_channel, baseline_geo, baseline_band, baseline_model, baseline_noise, baseline_blockage
    ):
        report = validate_suite(
            baseline_channel, baseline_geo, baseline_band, baseline_model, baseline_noise,
            baseline_blockage, trials=30_000, seed=101,
        )
        names = {c.name for c in report.checks}
        assert "interferer_distance_density" in names
        assert "frequency_offset_density" in names
        assert "nonblocked_count_tv" in names
        assert "mean_received_power" in names
        assert "noise_power_distribution" in names
        gap = next(c for c in report.checks if c.name == "geometric_blockage_gap")
        assert gap.tolerance is None and gap.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failed checks: {failed}"

    def test_trivial_configuration_passes(self, baseline_band, baseline_model, baseline_noise):
        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=50, p=0.0)
        empty = BlockageConfig(rho=0.0, d_s=0.2, d_e=0.8)
        report = validate_suite(
            idle, geo(), baseline_band, baseline_model, baseline_noise, empty,
            trials=20_000, seed=44,
        )
        assert report.passed

    def test_report_roundtrips_to_dict(self, baseline_band, baseline_model, baseline_noise):
        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=10, p=0.0)
        empty = BlockageConfig(rho=0.0, d_s=0.2, d_e=0.8)
        report = validate_suite(
            idle, geo(), baseline_band, baseline_model, baseline_noise, empty,
            trials=5_000, seed=4,
        )
        doc = report.to_dict()
        assert doc["passed"] == report.passed
        assert len(doc["checks"]) == len(report.checks)

    def test_worker_invariance(
        self, baseline_channel, baseline_geo, baseline_band, baseline_model, baseline_noise, baseline_blockage
    ):
        kw = dict(trials=10_000, seed=7)
        a = validate_suite(
            baseline_channel, baseline_geo, baseline_band, baseline_model, baseline_noise,
            baseline_blockage, workers=1, **kw,
        )
        b = validate_suite(
            baseline_channel, baseline_geo, baseline_band, baseline_model, baseline_noise,
            baseline_blockage, workers=8, **kw,
        )
        assert a == b
