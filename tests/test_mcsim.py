import concurrent.futures
import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

from mmwregime import mcsim
from mmwregime.blockage import (
    BlockageConfig, GeometryConfig, blockage_probability, nonblocked_count_pmf,
)
from mmwregime.detector import np_threshold
from mmwregime.interference import ChannelConfig, mean_received_power
from mmwregime.mcsim import (
    sample_h0_power,
    simulate_received_power,
    validate_suite,
)
from mmwregime.numerics import DomainError


V0 = np.array([0.0, 0.0])
THETA = math.radians(10.0)


def geo(v0=0.0, eps=0.1):
    return GeometryConfig(radius=10.0, v0_norm=v0, theta=THETA, eps_min=eps)


def kernel(int_xy, obstacle_xy, obstacle_radius, v0_xy, theta):
    """The kernel on cone frames built for this scene alone."""
    frame = mcsim._cone_frame(int_xy, v0_xy, theta)
    return mcsim._blocked_mask(int_xy, obstacle_xy, obstacle_radius, v0_xy, theta, frame)


def is_blocked(ixy, obs, rad):
    """The kernel's decision for one interferer."""
    return bool(kernel(np.array([ixy], dtype=float), obs, rad, V0, THETA)[0])


class TestIsBlocked:
    def test_no_obstacles(self):
        assert not is_blocked([5.0, 0.0], np.empty((0, 2)), np.empty(0))

    def test_apex_obstacle_wider_than_cone(self):
        # obstacle center right in front of the interferer: local cone
        # half-width is r*tan(theta), far below d/2
        ixy = [5.0, 0.0]
        obs = np.array([[4.9, 0.0]])
        rad = np.array([0.4])
        assert is_blocked(ixy, obs, rad)

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
        assert is_blocked(ixy, obs, rad)
        assert not is_blocked(ixy, obs[:1], rad[:1])

    def test_obstacle_behind_interferer_ignored(self):
        ixy = [5.0, 0.0]
        obs = np.array([[6.0, 0.0]])  # behind the apex, outside the cone
        assert not is_blocked(ixy, obs, np.array([2.0]))

    def test_obstacle_off_axis_ignored(self):
        ixy = [5.0, 0.0]
        obs = np.array([[2.5, 3.0]])  # far outside the 10-degree cone
        assert not is_blocked(ixy, obs, np.array([0.3]))

    def test_adding_obstacles_never_unblocks(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            ixy = rng.uniform(-7, 7, 2)
            n = int(rng.integers(1, 30))
            obs = rng.uniform(-8, 8, (n, 2))
            rad = rng.uniform(0.1, 0.6, n)
            before = is_blocked(ixy, obs[:-1], rad[:-1])
            after = is_blocked(ixy, obs, rad)
            assert after or not before


def _dense_cone_pairs(int_xy, obstacle_xy, v0_xy, theta):
    # the all-pairs exact in-cone rule: each cone's length, and the axial
    # distance and in-cone flag of every (interferer, obstacle) pair
    axis = v0_xy[None, :] - int_xy
    ell = np.hypot(axis[:, 0], axis[:, 1])
    safe_ell = np.where(ell > 0.0, ell, 1.0)
    ux = axis[:, 0] / safe_ell
    uy = axis[:, 1] / safe_ell
    relx = obstacle_xy[None, :, 0] - int_xy[:, None, 0]
    rely = obstacle_xy[None, :, 1] - int_xy[:, None, 1]
    r_ax = relx * ux[:, None] + rely * uy[:, None]
    perp = np.abs(relx * uy[:, None] - rely * ux[:, None])
    in_cone = (r_ax > 0.0) & (r_ax <= ell[:, None]) & (perp <= r_ax * math.tan(theta))
    return ell, r_ax, in_cone


def _dense_blocked_mask(int_xy, obstacle_xy, obstacle_radius, v0_xy, theta, frame=None):
    # reference: the all-pairs cone-shadow rule, kept verbatim so the
    # two-stage kernel can be held to its decisions; it takes the kernel's
    # signature but builds its own geometry, ignoring a caller's frame
    n_i = int_xy.shape[0]
    if n_i == 0:
        return np.zeros(0, dtype=bool)
    tan_t = math.tan(theta)
    if obstacle_xy.shape[0] == 0:
        return np.zeros(n_i, dtype=bool)
    ell, r_ax, in_cone = _dense_cone_pairs(int_xy, obstacle_xy, v0_xy, theta)
    d = obstacle_radius[None, :]
    full_block = in_cone & (r_ax <= d / (2.0 * tan_t))
    blocked = full_block.any(axis=1)
    shadow = np.where(in_cone & ~full_block, 2.0 * d * ell[:, None] / np.where(r_ax > 0, r_ax, 1.0), 0.0)
    blocked |= shadow.sum(axis=1) >= 2.0 * ell * tan_t
    blocked &= ell > 0.0
    return blocked


def _boundary_scenes(theta, scale):
    """One-interferer, one-obstacle scenes with the obstacle on the cone's
    boundary, for cone axes at 16 bearings: on each edge at half length, at
    the receiver (r == ell) and the base corners, at the apex and just past
    it.  Sizes 1.5*r*tan(theta) make every accepted pair block by shadow."""
    tan_t = math.tan(theta)
    v0_xy = np.array([3.0, -1.0]) * scale
    ell = 8.0 * scale
    scenes = {"edge": [], "base": [], "apex": [], "past_apex": []}
    for phi in 2.0 * math.pi * np.arange(16) / 16:
        u = -np.array([math.cos(phi), math.sin(phi)])
        v = np.array([u[1], -u[0]])
        apex = v0_xy - ell * u
        points = {
            "edge": [(apex + 0.5 * ell * (u + s * tan_t * v), 0.5 * ell) for s in (1.0, -1.0)],
            "base": [(apex + ell * (u + s * tan_t * v), ell) for s in (1.0, 0.0, -1.0)],
            "apex": [(apex, 0.5 * scale)],
            "past_apex": [(apex + 1e-12 * ell * u, 1e-12 * ell)],
        }
        for case, pts in points.items():
            for o, r in pts:
                size = 0.5 * scale if case == "apex" else 1.5 * r * tan_t
                scenes[case].append((apex[None, :], o[None, :], np.array([size]), v0_xy, theta))
    return scenes


class TestBlockedMaskAgainstDense:
    @staticmethod
    def assert_scenes_match(v0, theta_deg, n_int, scale=1.0):
        rng = np.random.default_rng([int(v0 * 10), int(theta_deg), n_int])
        g = GeometryConfig(
            radius=10.0 * scale, v0_norm=v0 * scale, theta=math.radians(theta_deg), eps_min=0.5 * scale
        )
        v0_xy = np.array([g.v0_norm, 0.0])
        blocked = 0
        for _ in range(20):
            ixy, _ = mcsim._draw_positions_with_exclusion(rng, n_int, g, v0_xy)
            n_obs = rng.poisson(math.pi * 100.0)
            obs = mcsim._uniform_disk(rng, n_obs, g.radius)
            rad = (0.2 + 0.6 * rng.random(n_obs)) * scale
            got = kernel(ixy, obs, rad, v0_xy, g.theta)
            assert np.array_equal(got, _dense_blocked_mask(ixy, obs, rad, v0_xy, g.theta))
            blocked += int(got.sum())
        if n_int > 1:
            assert 0 < blocked < 20 * n_int  # the scenes show both outcomes

    @pytest.mark.parametrize("v0", [0.0, 5.0, 9.5])
    @pytest.mark.parametrize("theta_deg", [0.5, 4.0, 10.0, 25.0, 60.0, 85.0])
    @pytest.mark.parametrize("n_int", [1, 33, 200])
    def test_decisions_match_dense_rule(self, v0, theta_deg, n_int):
        self.assert_scenes_match(v0, theta_deg, n_int)

    # the prefilter's float32 works in units of the scene's largest
    # |coordinate|, so its decisions hold in any length unit
    @pytest.mark.parametrize("scale", [1e-30, 1e-3, 1e3, 1e30])
    @pytest.mark.parametrize("theta_deg", [0.5, 10.0, 85.0])
    @pytest.mark.parametrize("v0", [0.0, 9.5])
    def test_decisions_match_dense_rule_in_other_length_units(self, v0, theta_deg, scale):
        self.assert_scenes_match(v0, theta_deg, 200, scale)

    # with the raw coordinates in float32, a slack of 1e-5 loses boundary
    # pairs from 1e3 on, and any slack loses them past float32's range
    # (about 3e38), where the coordinates overflow
    @pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 1e3, 1e9, 1e30, 1e40])
    @pytest.mark.parametrize("theta_deg", [0.5, 10.0, 60.0, 85.0])
    def test_boundary_pairs_match_dense_rule(self, theta_deg, scale):
        # pairs the exact rule accepts on the boundary must survive the
        # prefilter's rounding; the apex itself (r = 0) is never in the cone
        for case, scenes in _boundary_scenes(math.radians(theta_deg), scale).items():
            dense = [bool(_dense_blocked_mask(*sc)[0]) for sc in scenes]
            got = [bool(kernel(*sc)[0]) for sc in scenes]
            assert got == dense, case
            assert any(dense) != (case == "apex"), case

    def test_interferer_at_the_receiver(self):
        # ell = 0 leaves no cone: every obstacle passes the prefilter and
        # none the exact rule, and the other interferers are unaffected
        rng = np.random.default_rng(8)
        g = geo(v0=5.0)
        v0_xy = np.array([5.0, 0.0])
        ixy, _ = mcsim._draw_positions_with_exclusion(rng, 40, g, v0_xy)
        ixy[17] = v0_xy
        obs = mcsim._uniform_disk(rng, 300, g.radius)
        rad = 0.2 + 0.6 * rng.random(300)
        got = kernel(ixy, obs, rad, v0_xy, g.theta)
        assert np.array_equal(got, _dense_blocked_mask(ixy, obs, rad, v0_xy, g.theta))
        assert not got[17] and got.any()

    def test_scene_with_every_coordinate_zero(self):
        # no length to scale by, and no cone: nothing is blocked
        ixy, obs = np.zeros((3, 2)), np.zeros((4, 2))
        rad = np.full(4, 0.5)
        got = kernel(ixy, obs, rad, V0, THETA)
        assert np.array_equal(got, _dense_blocked_mask(ixy, obs, rad, V0, THETA))
        assert not got.any()

    @pytest.mark.parametrize("n_int", [0, 1, 33])
    def test_empty_obstacle_set(self, n_int):
        ixy = mcsim._uniform_disk(np.random.default_rng(n_int), n_int, 10.0)
        got = kernel(ixy, np.empty((0, 2)), np.empty(0), V0, THETA)
        assert got.shape == (n_int,) and not got.any()
        assert np.array_equal(got, _dense_blocked_mask(ixy, np.empty((0, 2)), np.empty(0), V0, THETA))


class TestKernelTiles:
    """Stage 1 and 2 run over tiles of interferer rows under _KERNEL_BYTES."""

    @staticmethod
    def scene(rng, rho, n_int):
        g = GeometryConfig(radius=10.0, v0_norm=4.0, theta=THETA, eps_min=0.5)
        v0_xy = np.array([g.v0_norm, 0.0])
        ixy, _ = mcsim._draw_positions_with_exclusion(rng, n_int, g, v0_xy)
        _, obs, rad = mcsim._draw_obstacles(rng, BlockageConfig(rho=rho, d_s=0.2, d_e=0.8), g, 1)
        return ixy, obs, rad, v0_xy, g.theta

    # one row a tile, and tiles of 7 and 70 rows on a shipped field (about
    # 314 obstacles); 1 and 7 rows on a dense one (about 3140)
    @pytest.mark.parametrize("budget", [1, 40_000, 400_000])
    @pytest.mark.parametrize("rho", [1.0, 10.0])
    def test_tiled_masks_match_dense_rule(self, monkeypatch, budget, rho):
        monkeypatch.setattr(mcsim, "_KERNEL_BYTES", budget)
        rng = np.random.default_rng([budget, int(rho)])
        blocked = 0
        for _ in range(5):
            sc = self.scene(rng, rho, 200)
            assert budget // (18 * len(sc[1])) < 200  # more than one tile
            got = kernel(*sc)
            assert np.array_equal(got, _dense_blocked_mask(*sc))
            blocked += int(got.sum())
        assert 0 < blocked < 5 * 200

    def test_shipped_scene_is_one_tile(self, baseline_channel, baseline_blockage, baseline_geo):
        # even with twice the mean obstacle count
        k = baseline_blockage.rho * math.pi * baseline_geo.radius**2
        assert mcsim._KERNEL_BYTES // (18 * 2 * k) > baseline_channel.n

    def test_peak_memory_within_the_budget(self, monkeypatch):
        # 100 interferers over 10 000 obstacles: about 18 MB of stage-1
        # arrays in one pass, against a 1 MiB budget
        import tracemalloc

        budget = 1 << 20
        sc = self.scene(np.random.default_rng(12), 10_000 / (math.pi * 100.0), 100)
        ixy, obs, rad, v0_xy, theta = sc
        k = len(obs)
        # stage 2's candidate arrays: a generous 400 bytes for each pair the
        # exact rule accepts in the largest tile (stage 1 adds only the pairs
        # within its slack of the cone's edges)
        per_row = np.array([
            int(_dense_cone_pairs(ixy[i:i + 1], obs, v0_xy, theta)[2].sum()) for i in range(100)
        ])
        rows = budget // (18 * k)
        candidates = max(per_row[lo:lo + rows].sum() for lo in range(0, 100, rows))
        # plus the float32 obstacle coordinates and the rows of the frame
        bound = budget + 400 * candidates + 12 * k + 64 * 1024
        frame = mcsim._cone_frame(ixy, v0_xy, theta)

        def peak():
            tracemalloc.start()
            try:
                mcsim._blocked_mask(ixy, obs, rad, v0_xy, theta, frame)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(mcsim, "_KERNEL_BYTES", budget)
        assert peak() <= bound
        monkeypatch.setattr(mcsim, "_KERNEL_BYTES", 1 << 40)  # one pass
        assert peak() > 4 * bound


class TestKernelEndToEnd:
    """The two-stage kernel leaves every sample and row of the all-pairs rule."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_geometric_samples_match_dense_rule(
        self, monkeypatch, workers, baseline_channel, baseline_geo, baseline_band, baseline_model,
        baseline_blockage,
    ):
        args = (baseline_channel, baseline_geo, baseline_band, baseline_model, 1e-3, 300, 5)
        kw = dict(blocking="geometric", blockage_cfg=baseline_blockage, workers=workers)
        got = simulate_received_power(*args, **kw)
        monkeypatch.setattr(mcsim, "_blocked_mask", _dense_blocked_mask)
        assert np.array_equal(got, simulate_received_power(*args, **kw))

    def test_gap_check_row_matches_dense_rule(
        self, monkeypatch, baseline_channel, baseline_geo, baseline_blockage
    ):
        args = (baseline_channel, baseline_geo, baseline_blockage, 200, 3)
        got = mcsim._geometric_gap_check(*args)
        monkeypatch.setattr(mcsim, "_blocked_mask", _dense_blocked_mask)
        assert got == mcsim._geometric_gap_check(*args)
        assert 0.0 < got.empirical < 1.0


def _gap_rate_per_scene(channel, g, blockage_cfg, trials, seed):
    """The gap check's blocked share from the same chunked draws, with the
    kernel called scene by scene on its own frames."""
    rng = mcsim._rng(seed, mcsim._NS_SCENARIO, 3)
    v0_xy = np.array([g.v0_norm, 0.0])
    n = channel.n
    chunk = mcsim._scene_chunk(n, blockage_cfg, g)
    blocked = 0
    for start in range(0, trials, chunk):
        scenes = min(chunk, trials - start)
        xy, _ = mcsim._draw_positions_with_exclusion(rng, scenes * n, g, v0_xy)
        counts, obs, rad = mcsim._draw_obstacles(rng, blockage_cfg, g, scenes)
        cuts = np.cumsum(counts)[:-1]
        for s, (o, r) in enumerate(zip(np.split(obs, cuts), np.split(rad, cuts))):
            blocked += int(kernel(xy[s * n:(s + 1) * n], o, r, v0_xy, g.theta).sum())
    return blocked / (trials * n)


class TestGapCheckChunks:
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_rate_matches_per_scene_loop(self, offset, baseline_channel, baseline_geo, baseline_blockage):
        # one scene, and the chunk boundary from either side
        chunk = mcsim._scene_chunk(baseline_channel.n, baseline_blockage, baseline_geo)
        trials = 1 if offset is None else chunk + offset
        got = mcsim._geometric_gap_check(
            baseline_channel, baseline_geo, baseline_blockage, trials, 11
        )
        assert got.samples == trials
        assert got.empirical == _gap_rate_per_scene(
            baseline_channel, baseline_geo, baseline_blockage, trials, 11
        )
        assert 0.0 < got.empirical < 1.0

    def test_shipped_chunk_size(self, baseline_channel, baseline_geo, baseline_blockage):
        # 32768 items over 200 interferers and 314 obstacles a scene
        assert mcsim._scene_chunk(baseline_channel.n, baseline_blockage, baseline_geo) == 63

    def test_dense_field_draws_one_scene_per_chunk(
        self, baseline_channel, baseline_geo, baseline_blockage
    ):
        # about 157 000 obstacles a scene at rho = 500: over the budget alone
        dense = dataclasses.replace(baseline_blockage, rho=500.0)
        assert mcsim._scene_chunk(baseline_channel.n, dense, baseline_geo) == 1


def _in_band(channel, band, table, p_b=0.0):
    """The slice [lo, hi] of the band within the cutoff of f_0, and a
    candidate's chance to be active, unblocked and in it."""
    lo = max(band.f_s, band.f_0 - table.cutoff)
    hi = min(band.f_e, band.f_0 + table.cutoff)
    return lo, hi, channel.p * (1.0 - p_b) * (hi - lo) / (band.f_e - band.f_s)


def _geometric_per_scene(channel, g, band, model, blockage_cfg, phi, trials, seed):
    """Geometric samples from the simulator's draws, judged scene by scene:
    per trial block, one Binomial in-band count per trial; per chunk of
    scenes, the positions and the obstacle fields; then every link's offset
    on [lo, hi] and gain.  The kernel runs on each scene's own frames, and
    each trial adds its unblocked power link by link.  Also returns the
    blocked and unblocked link counts."""
    table = mcsim.upsilon_table(band, model)
    lo, hi, in_band = _in_band(channel, band, table)
    v0_xy = np.array([g.v0_norm, 0.0])
    chunk = mcsim._scene_chunk(channel.n, blockage_cfg, g)
    y, links = [], [0, 0]
    for block in range(-(-trials // mcsim.TRIAL_BLOCK)):
        rng = mcsim._rng(seed, mcsim._NS_POWER, block)
        size = min(mcsim.TRIAL_BLOCK, trials - block * mcsim.TRIAL_BLOCK)
        active = rng.binomial(channel.n, in_band, size)
        xy, dist, scenes = [], [], []
        for start in range(0, size, chunk):
            a = active[start:start + chunk]
            chunk_xy, chunk_dist = mcsim._draw_positions_with_exclusion(rng, int(a.sum()), g, v0_xy)
            counts, obs, rad = mcsim._draw_obstacles(rng, blockage_cfg, g, len(a))
            cuts = np.cumsum(counts)[:-1]
            xy.append(chunk_xy)
            dist.append(chunk_dist)
            scenes += zip(np.split(obs, cuts), np.split(rad, cuts))
        xy, dist = np.concatenate(xy), np.concatenate(dist)
        freq = lo + (hi - lo) * rng.random(len(dist))
        h = rng.gamma(channel.m, 1.0 / channel.m, len(dist))
        power = channel.q * h * dist ** (-channel.alpha) * table.lookup(np.abs(freq - band.f_0))
        for a, end, (o, r) in zip(active, np.cumsum(active), scenes):
            scene = slice(end - a, end)
            total = 0.0
            for p, b in zip(power[scene], kernel(xy[scene], o, r, v0_xy, g.theta)):
                links[int(b)] += 1
                if not b:
                    total += p
            y.append(phi + total)
    return np.array(y), links


def _geometric_every_candidate(channel, g, band, model, blockage_cfg, phi, trials, rng):
    """The geometric law drawn with every active candidate: per chunk of
    scenes, a Binomial(n, p) active count per trial and the scenes judged
    by _judge_scenes, then a full-band offset and a gain for every link,
    out-of-band links adding Upsilon = 0."""
    table = mcsim.upsilon_table(band, model)
    y = np.full(trials, phi)
    chunk = mcsim._scene_chunk(channel.n, blockage_cfg, g)
    for start in range(0, trials, chunk):
        active = rng.binomial(channel.n, channel.p, min(chunk, trials - start))
        dist, blocked = mcsim._judge_scenes(rng, active, blockage_cfg, g)
        freq = band.f_s + (band.f_e - band.f_s) * rng.random(len(dist))
        h = rng.gamma(channel.m, 1.0 / channel.m, len(dist))
        power = channel.q * h * dist ** (-channel.alpha) * table.lookup(np.abs(freq - band.f_0))
        y[start:start + len(active)] += mcsim._trial_sums(active, np.where(blocked, 0.0, power))
    return y


class TestGeometricScenes:
    """Geometric simulate judges its scenes a chunk at a time, as the gap
    check does, and draws the law of independent active links."""

    @pytest.mark.parametrize("boundary, offset", [
        ("chunk", -1), ("chunk", 1), ("block", -1), ("block", 1),
    ])
    def test_samples_match_per_scene_loop(self, boundary, offset, baseline_band, baseline_model):
        # ten candidates over the shipped obstacle field: 101 scenes a chunk
        channel = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=10, p=0.5)
        blockage_cfg = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8)
        g = geo(v0=4.0, eps=0.5)
        chunk = mcsim._scene_chunk(channel.n, blockage_cfg, g)
        assert chunk == 101 and mcsim.TRIAL_BLOCK % chunk != 0
        trials = {"chunk": chunk, "block": mcsim.TRIAL_BLOCK}[boundary] + offset
        args = (channel, g, baseline_band, baseline_model, 1e-3, trials, 6)
        ref, (unblocked, blocked) = _geometric_per_scene(
            channel, g, baseline_band, baseline_model, blockage_cfg, 1e-3, trials, 6
        )
        assert unblocked > 0 and blocked > 0
        for workers in (1, 2):
            got = simulate_received_power(
                *args, blocking="geometric", blockage_cfg=blockage_cfg, workers=workers
            )
            assert np.array_equal(got, ref), workers

    def test_same_law_as_every_candidate_drawn(
        self, baseline_channel, baseline_geo, baseline_band, baseline_model, baseline_blockage,
        baseline_noise,
    ):
        # drawing only the in-band candidates leaves the law of Y: on unrelated
        # streams, the exceedance of eta' at beta = 0.05, the chance that no
        # link adds power and the mean agree within 4 combined standard errors
        args = (baseline_channel, baseline_geo, baseline_band, baseline_model)
        phi, trials = baseline_noise.phi, 5000
        got = simulate_received_power(
            *args, phi, trials, 1, blocking="geometric", blockage_cfg=baseline_blockage
        )
        ref = _geometric_every_candidate(
            *args, baseline_blockage, phi, trials, mcsim._rng(2, 99)
        )
        eta = np_threshold(0.05, baseline_noise)
        for stat in (lambda y: y > eta, lambda y: y == phi, lambda y: y):
            a, b = stat(got).astype(float), stat(ref).astype(float)
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(trials)
            assert abs(a.mean() - b.mean()) <= 4.0 * se

    @pytest.mark.parametrize("v0", [0.0, 4.0])
    def test_mean_without_obstacles_matches_analytic(
        self, v0, baseline_channel, baseline_band, baseline_model
    ):
        # no obstacle blocks anything, so the mean is the analytic one at p_b = 0
        g = geo(v0=v0, eps=0.5)
        s = simulate_received_power(
            baseline_channel, g, baseline_band, baseline_model, 1e-3, 20_000, 8,
            blocking="geometric", blockage_cfg=BlockageConfig(rho=0.0, d_s=0.2, d_e=0.8),
        )
        analytic = mean_received_power(1e-3, 0.0, baseline_channel, g, baseline_band, baseline_model)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert s.mean() == pytest.approx(analytic, abs=4.0 * se)


class TestDistanceSampler:
    @pytest.mark.parametrize("v0", [0.0, 4.0, 9.9])
    def test_matches_hypot_of_disk_points(self, v0):
        dist = mcsim._disk_distances(mcsim._rng(3, 0, 1), 200_000, 10.0, v0)
        xy = mcsim._uniform_disk(mcsim._rng(3, 0, 1), 200_000, 10.0)
        ref = np.hypot(xy[:, 0] - v0, xy[:, 1])
        np.testing.assert_allclose(dist, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("v0", [0.0, 4.0, 9.9])
    def test_same_draws_and_redraws_as_position_path(self, v0):
        # eps_min = 2 m forces several percent of redraws, some repeated
        g = GeometryConfig(radius=10.0, v0_norm=v0, theta=THETA, eps_min=2.0)
        a, b = mcsim._rng(5, 0, 2), mcsim._rng(5, 0, 2)
        dist = mcsim._distances_with_exclusion(a, 50_000, g)
        _, ref = mcsim._draw_positions_with_exclusion(b, 50_000, g, np.array([v0, 0.0]))
        assert np.array_equal(a.random(8), b.random(8))  # the stream stays aligned
        np.testing.assert_allclose(dist, ref, rtol=1e-13, atol=0.0)
        assert dist.min() >= g.eps_min


def _thinning_reference(channel, g, band, model, phi, trials, rng, p_b):
    # the per-candidate law written out in full: every candidate's survival,
    # distance, frequency and fading drawn, every contribution evaluated
    counts = (rng.random((trials, channel.n)) < channel.p * (1.0 - p_b)).sum(axis=1)
    total = int(counts.sum())
    dist = mcsim._distances_with_exclusion(rng, total, g)
    freq = band.f_s + (band.f_e - band.f_s) * rng.random(total)
    h = rng.gamma(channel.m, 1.0 / channel.m, total)
    ups = mcsim.upsilon_table(band, model).lookup(np.abs(freq - band.f_0))
    power = channel.q * h * dist ** (-channel.alpha) * ups
    ids = np.repeat(np.arange(trials), counts)
    return phi + np.bincount(ids, weights=power, minlength=trials)


def _in_band_block(channel, g, band, model, phi, trials, seed, p_b, distances):
    # the thinning block written out in full, with the distances taken from
    # `distances`: a Binomial count of in-band survivors per trial, then a
    # distance, a frequency in [lo, hi] and a fading gain for each of them
    rng = mcsim._rng(seed, mcsim._NS_POWER, 0)
    table = mcsim.upsilon_table(band, model)
    lo, hi, in_band = _in_band(channel, band, table, p_b)
    counts = rng.binomial(channel.n, in_band, trials)
    total = int(counts.sum())
    dist = distances(rng, total)
    freq = lo + (hi - lo) * rng.random(total)
    h = rng.gamma(channel.m, 1.0 / channel.m, total)
    power = channel.q * h * dist ** (-channel.alpha) * table.lookup(np.abs(freq - band.f_0))
    ids = np.repeat(np.arange(trials), counts)
    return phi + np.bincount(ids, weights=power, minlength=trials)


class TestThinningAgainstReference:
    @pytest.mark.parametrize("v0", [0.0, 4.0, 9.9])
    def test_matches_in_band_block(self, v0, baseline_channel, baseline_band, baseline_model):
        g = geo(v0=v0, eps=0.5)
        args = (baseline_channel, g, baseline_band, baseline_model, 1e-3, 600, 12)
        got = simulate_received_power(*args, blocking="thinning", p_b=0.3)
        assert (got > 1e-3).any()
        exact = _in_band_block(
            *args, 0.3, lambda rng, k: mcsim._distances_with_exclusion(rng, k, g)
        )
        assert np.array_equal(got, exact)
        # and the distance-only draws reproduce the (x, y) path to rounding
        xy_path = _in_band_block(
            *args, 0.3,
            lambda rng, k: mcsim._draw_positions_with_exclusion(rng, k, g, np.array([v0, 0.0]))[1],
        )
        np.testing.assert_allclose(got, xy_path, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("v0", [0.0, 4.0, 9.9])
    def test_same_law_as_every_candidate_drawn(
        self, v0, baseline_channel, baseline_band, baseline_model
    ):
        # drawing only the in-band survivors is the per-candidate law: the
        # two samples, on unrelated streams, pass a two-sample KS test
        from scipy import stats

        g = geo(v0=v0, eps=0.5)
        args = (baseline_channel, g, baseline_band, baseline_model, 1e-3, 20_000)
        got = simulate_received_power(*args, 12, blocking="thinning", p_b=0.3)
        ref = _thinning_reference(*args, mcsim._rng(12, 99), 0.3)
        assert stats.ks_2samp(got, ref).pvalue > 1e-3

    @pytest.mark.parametrize("f_0_below_f_e", [0.1, 0.0])
    def test_mean_at_the_band_edge(
        self, f_0_below_f_e, baseline_channel, baseline_band, baseline_model
    ):
        # with f_0 within the cutoff of f_e, [lo, hi] is clipped to the band
        cutoff = mcsim.upsilon_table(baseline_band, baseline_model).cutoff
        band = dataclasses.replace(
            baseline_band, f_0=baseline_band.f_e - f_0_below_f_e * cutoff
        )
        g = geo(eps=0.5)
        s = simulate_received_power(
            baseline_channel, g, band, baseline_model, 1e-3, 50_000, 4,
            blocking="thinning", p_b=0.3,
        )
        analytic = mean_received_power(1e-3, 0.3, baseline_channel, g, band, baseline_model)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert s.mean() == pytest.approx(analytic, abs=4.0 * se)


class TestChi2Pvalue:
    def test_sample_outside_the_analytic_support_fails(self):
        counts = np.array([400, 350, 250, 7])
        probs = np.array([0.4, 0.35, 0.25, 0.0])
        assert mcsim._chi2_pvalue(counts, probs) == 0.0
        # the same counts without the stray bin fit perfectly
        assert mcsim._chi2_pvalue(counts[:3], probs[:3]) == pytest.approx(1.0)

    def test_empty_zero_mass_bins_are_harmless(self):
        counts = np.array([0, 400, 350, 250, 0])
        probs = np.array([0.0, 0.4, 0.35, 0.25, 0.0])
        assert mcsim._chi2_pvalue(counts, probs) == pytest.approx(1.0)

    def test_small_tail_bin_merges_into_the_last_full_bin(self):
        # 100 samples: the tail's expected count of 5 is under 10, so it
        # joins the bin before it instead of forming a bin of its own
        counts, probs = mcsim._merge_small_bins(np.array([50, 45, 5]),
                                                np.array([0.5, 0.45, 0.05]))
        np.testing.assert_array_equal(counts, [50, 50])
        np.testing.assert_allclose(probs, [0.5, 0.5], rtol=1e-15)

    def test_fewer_than_two_merged_bins_cannot_refute(self):
        # 7 samples never reach an expected count of 10: no bin, no test
        assert mcsim._chi2_pvalue(np.array([3, 4]), np.array([0.5, 0.5])) == 1.0

    def test_matches_chi2_survival_function(self):
        from scipy import stats

        counts = np.array([120, 95, 110, 80, 95])
        probs = np.full(5, 0.2)
        expected = counts.sum() * probs
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert mcsim._chi2_pvalue(counts, probs) == pytest.approx(
            stats.chi2.sf(stat, df=4), rel=1e-14
        )

    def test_survival_matches_scipy_over_dof_and_statistic(self):
        from scipy import stats

        stat = np.geomspace(1e-3, 1e4, 150)
        for dof in range(1, 61):
            ref = stats.chi2.sf(stat, dof)
            got = np.array([mcsim._chi2_sf(dof, float(x)) for x in stat])
            # below 1e-100 the exponent of each term runs to several hundred,
            # and its rounding puts scipy itself ~1e-13 off the exact value
            tol = np.where(ref >= 1e-100, 1e-13, 2e-13) * ref
            normal = ref >= 1e-300
            assert np.all(np.abs(got - ref)[normal] <= tol[normal]), dof
            assert np.all(got[~normal] < 1e-290), dof

    def test_huge_statistic_underflows_to_zero(self):
        assert mcsim._chi2_sf(39, 1e9) == 0.0
        assert mcsim._chi2_sf(40, 1e9) == 0.0
        assert mcsim._chi2_sf(40, 0.0) == 1.0


# sample sizes across every method of the two-sided KS tail; z = d*sqrt(n)
# runs through each branch cutoff (n*d^2 = 2.2 and 4, n*d^1.5 = 1.4, d = 1/2)
KS_SIZES = [1, 2, 5, 10, 50, 140, 141, 1000, 10_000, 100_000, 1_000_000]
KS_Z = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.45, 1.5, 1.8, 2.0,
        2.1, 2.5, 3.0, 4.0, 6.0]


class TestKsPvalue:
    @pytest.mark.parametrize("n", KS_SIZES)
    def test_matches_scipy_kstwo(self, n):
        from scipy import stats

        # scipy's exact one-sided tail costs it ~1.7 s a point at n = 1e6;
        # one point there (z = 1.5) covers that branch
        zs = [z for z in KS_Z if n < 1_000_000 or z <= 1.5]
        d = np.array(zs) / math.sqrt(n)
        ref = stats.kstwo.sf(d, n)
        got = np.array([mcsim._ks_pvalue(n, float(x)) for x in d])
        assert np.all(np.abs(got - ref) <= 1e-9)
        normal = ref >= 1e-300
        assert np.all(np.abs(got - ref)[normal] <= 1e-7 * ref[normal])

    def test_h0_check_matches_scipy_kstest(self, baseline_noise):
        from scipy import stats

        from mmwregime.detector import h0_cdf

        for trials, seed in [(50, 3), (2000, 4), (20_000, 5)]:
            samples = sample_h0_power(baseline_noise, trials, seed)
            ref = stats.kstest(samples, lambda y: h0_cdf(y, baseline_noise)).pvalue
            got = mcsim._h0_check(baseline_noise, samples)
            assert got.samples == trials
            assert got.empirical == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_ends_of_the_range(self):
        assert mcsim._ks_pvalue(100, 1.0) == 0.0
        assert mcsim._ks_pvalue(100, 0.004) == 1.0
        # n*d in (1/2, 1]: 1 - n!/n^n (2nd - 1)^n
        assert mcsim._ks_pvalue(3, 0.3) == pytest.approx(1.0 - 6.0 / 27.0 * 0.8 ** 3, rel=1e-14)
        # n*d >= n - 1: 2 (1 - d)^n
        assert mcsim._ks_pvalue(4, 0.8) == pytest.approx(2.0 * 0.2 ** 4, rel=1e-14)


class TestDistanceCheck:
    @pytest.mark.parametrize("v0", [0.0, 4.0])
    def test_bins_the_exclusion_sampler(self, monkeypatch, v0):
        # eps_min = 2 m redraws several percent of the draws; the row passes
        # on the simulator's sampler and fails when its redraws are replaced
        # by clipping to eps_min
        g = GeometryConfig(radius=10.0, v0_norm=v0, theta=THETA, eps_min=2.0)
        assert mcsim._distance_check(g, 20_000, 5).passed

        def clipped(rng, count, geo):
            dist = mcsim._disk_distances(rng, count, geo.radius, geo.v0_norm)
            return np.maximum(dist, geo.eps_min)

        monkeypatch.setattr(mcsim, "_distances_with_exclusion", clipped)
        assert mcsim._distance_check(g, 20_000, 5).empirical < 1e-6


class TestCountCheck:
    def test_counts_are_the_simulators(
        self, monkeypatch, baseline_channel, baseline_band, baseline_model, baseline_blockage
    ):
        # the check's counts are the in-band counts _power_block draws: the
        # blocks' counts, captured while simulate_received_power runs, give
        # the check's total variation
        drawn = []

        def recording(*args):
            result = in_band_counts(*args)
            drawn.append(result[0])
            return result

        in_band_counts = mcsim._inband_counts
        monkeypatch.setattr(mcsim, "_inband_counts", recording)
        # the check thins by the analytic p_b of its blockage config, 0.239 here
        trials, seed = 10_000, 12
        p_b = blockage_probability(baseline_blockage, geo()).p_b
        simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 1e-3,
            trials=trials, seed=seed, blocking="thinning", p_b=p_b, workers=1,
        )
        simulated = np.concatenate(drawn)
        drawn.clear()
        check = mcsim._count_check(
            baseline_channel, geo(), baseline_band, baseline_model, baseline_blockage, trials, seed
        )
        assert len(simulated) == trials and simulated.any()
        assert np.array_equal(np.concatenate(drawn), simulated)
        table = mcsim.upsilon_table(baseline_band, baseline_model)
        in_band = table.rule_weights.sum() / (baseline_band.f_e - baseline_band.f_s)
        pmf = nonblocked_count_pmf(baseline_channel.n, baseline_channel.p * in_band, p_b)
        emp = np.bincount(simulated, minlength=baseline_channel.n + 1) / trials
        assert check.empirical == 0.5 * float(np.sum(np.abs(emp - pmf)))
        assert check.passed


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

    @pytest.mark.parametrize("p_b, n, p", [(1.0, 200, 0.5), (0.3, 200, 0.0), (0.3, 0, 0.7)])
    def test_no_contribution_gives_pure_signal(self, p_b, n, p, baseline_band, baseline_model):
        # total blockage, a silent roster or no candidates at all
        ch = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=n, p=p)
        s = simulate_received_power(
            ch, geo(), baseline_band, baseline_model, 2e-3, 5000, 1, blocking="thinning", p_b=p_b
        )
        assert np.all(s == 2e-3)

    def test_exclusion_radius_enforced_in_support(self, baseline_band, baseline_model):
        # a single always-on interferer: the largest possible sample is
        # bounded by the eps_min pathloss
        one = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=1, p=1.0)
        g = geo(eps=0.5)
        s = simulate_received_power(
            one, g, baseline_band, baseline_model, 0.0, 20_000, 3, blocking="thinning"
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
            baseline_channel, geo(), baseline_band, baseline_model, 0.0, 400, 13, blocking="thinning"
        )
        geom = simulate_received_power(
            baseline_channel, geo(), baseline_band, baseline_model, 0.0, 400, 13,
            blocking="geometric", blockage_cfg=baseline_blockage,
        )
        assert np.median(geom) < np.median(free)

    def test_geometric_requires_blockage_config(self, baseline_channel, baseline_band, baseline_model):
        # checked before any trial block runs, so also with no trials
        for trials in (0, 10):
            with pytest.raises(DomainError):
                simulate_received_power(
                    baseline_channel, geo(), baseline_band, baseline_model, 0.0, trials, 1,
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
            hi = kernel(ixy, obs, rad, V0, g.theta)
            lo = kernel(ixy, obs[keep], rad[keep], V0, g.theta)
            assert not np.any(lo & ~hi)  # subset field never blocks more
            blocked_hi += hi.sum()
            blocked_lo += lo.sum()
            total += 20
        assert blocked_hi > blocked_lo


class TestEmpiricalRates:
    """Exceedance rates of the null and thinning draws at a power threshold."""

    @staticmethod
    def rates(channel, band, model, noise, eta_prime, trials, seed, p_b):
        h0 = sample_h0_power(noise, trials, seed)
        h1 = simulate_received_power(
            channel, geo(), band, model, noise.phi, trials, seed, blocking="thinning", p_b=p_b,
        )
        return float(np.mean(h0 > eta_prime)), float(np.mean(h1 > eta_prime))

    def test_threshold_at_signal_power_fires_always(
        self, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        # the simulated interference law has a small atom exactly at phi
        # (trials where every contribution is idle, blocked or out of band),
        # so the detection rate can fall short of 1 by that atom's mass
        p_f, p_d = self.rates(
            baseline_channel, baseline_band, baseline_model, baseline_noise,
            eta_prime=baseline_noise.phi, trials=2_000, seed=21, p_b=0.3,
        )
        assert p_f == 1.0
        assert p_d >= 0.995

    def test_infinite_threshold_never_fires(
        self, baseline_channel, baseline_band, baseline_model, baseline_noise
    ):
        p_f, p_d = self.rates(
            baseline_channel, baseline_band, baseline_model, baseline_noise,
            eta_prime=np.inf, trials=2_000, seed=21, p_b=0.3,
        )
        assert p_f == 0.0
        assert p_d == 0.0

    def test_false_alarm_calibrated(self, baseline_noise):
        eta = np_threshold(0.2, baseline_noise)
        p_f = float(np.mean(sample_h0_power(baseline_noise, 100_000, seed=23) > eta))
        assert p_f == pytest.approx(0.2, abs=0.01)


class TestFalseAlarmGate:
    def test_tolerance_is_four_binomial_standard_errors_at_few_trials(self, baseline_noise):
        h0 = sample_h0_power(baseline_noise, 2000, 7)
        rows = mcsim._false_alarm_checks(baseline_noise, h0, (0.01, 0.1, 0.5, 0.9))
        # four standard errors are 0.0089 (floored to 0.01), 0.0268, 0.0447, 0.0268
        tols = [row.tolerance for row in rows]
        assert tols == pytest.approx([0.01, 0.026833, 0.044721, 0.026833], abs=1e-6)
        assert all(row.passed for row in rows)

    def test_fixed_floor_at_the_shipped_trials(self, baseline_noise):
        h0 = sample_h0_power(baseline_noise, 100_000, 7)
        rows = mcsim._false_alarm_checks(baseline_noise, h0, (0.1, 0.5, 0.9))
        assert [row.tolerance for row in rows] == [0.01] * 3

    def test_miscalibrated_threshold_fails(self, baseline_noise, monkeypatch):
        # a threshold set for 2 beta: off by beta, far past 4 standard errors
        monkeypatch.setattr(mcsim, "np_threshold", lambda beta, noise: np_threshold(2 * beta, noise))
        h0 = sample_h0_power(baseline_noise, 2000, 7)
        rows = mcsim._false_alarm_checks(baseline_noise, h0, (0.1, 0.3))
        assert not any(row.passed for row in rows)


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

    def test_report_roundtrips_asdict(self, baseline_band, baseline_model, baseline_noise):
        idle = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=10, p=0.0)
        empty = BlockageConfig(rho=0.0, d_s=0.2, d_e=0.8)
        report = validate_suite(
            idle, geo(), baseline_band, baseline_model, baseline_noise, empty,
            trials=5_000, seed=4,
        )
        doc = dataclasses.asdict(report)
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

    @staticmethod
    def run_small(band, model, noise, workers=1):
        return validate_suite(
            ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=10, p=0.5), geo(), band, model, noise,
            BlockageConfig(rho=0.5, d_s=0.2, d_e=0.8), trials=4000, seed=9, workers=workers,
        )

    def test_noise_samples_drawn_once(self, monkeypatch, baseline_band, baseline_model, baseline_noise):
        # the KS and false-alarm checks read one set of noise-limited draws
        calls = []

        def counting(noise, trials, seed):
            calls.append((trials, seed))
            return sample_h0_power(noise, trials, seed)

        monkeypatch.setattr(mcsim, "sample_h0_power", counting)
        self.run_small(baseline_band, baseline_model, baseline_noise)
        assert calls == [(4000, 9)]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_runs_in_one_process(self, monkeypatch, workers, baseline_band, baseline_model, baseline_noise):
        # worker threads serve the mean-power simulation alone; no check
        # starts a process
        pools = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        report = self.run_small(baseline_band, baseline_model, baseline_noise, workers)
        assert report.checks[-1].name == "geometric_blockage_gap"
        assert pools == []
        assert multiprocessing.active_children() == []

    def test_numerical_failure_fails_only_its_own_check(
        self, monkeypatch, baseline_band, baseline_model, baseline_noise
    ):
        def failing(*args):
            raise DomainError("theta produces unusable tan(theta)")

        healthy = self.run_small(baseline_band, baseline_model, baseline_noise).checks
        monkeypatch.setattr(mcsim, "_blocked_mask", failing)
        checks = self.run_small(baseline_band, baseline_model, baseline_noise, 2).checks
        assert checks[:-1] == healthy[:-1]
        row = checks[-1]
        assert row.name == "geometric_gap_check" and not row.passed
        assert row.note == "failed: theta produces unusable tan(theta)"

    def test_other_errors_propagate(self, monkeypatch, baseline_band, baseline_model, baseline_noise):
        def broken(*args):
            raise RuntimeError("check broke")

        monkeypatch.setattr(mcsim, "_h0_check", broken)
        with pytest.raises(RuntimeError, match="check broke"):
            self.run_small(baseline_band, baseline_model, baseline_noise, 2)
