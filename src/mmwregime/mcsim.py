"""Geometric Monte-Carlo oracle for the analytic pipeline.

Scenarios are drawn exactly as the analytic model assumes: a fixed roster
of candidate interferers, each active with the occupancy probability, at
uniform positions in the disk and uniform frequencies in the band; obstacle
disks from a Poisson field.  Blocking can be decided two ways:

  "geometric"  cone-shadow rule per interferer (near-apex full block, or
               accumulated partial shadows covering the cone base),
  "thinning"   independent Bernoulli survival with a supplied probability
               (matches the analytic treatment of blockage exactly); p_b = 0
               simulates a blockage-free network.

Both modes draw only the candidates that can add power.  Activity,
frequency, position, fading and survival are independent per candidate,
a link's cone-shadow decision depends only on its own position and its
scene's obstacles, and Upsilon is exactly 0 past the overlap cutoff.  So
a trial block draws each trial's Binomial count of candidates within the
cutoff of f_0, then their distances (thinning) or their cone-shadow
scenes (geometric), then an offset uniform on that slice of the band and
a gain for each; blocked links add 0.  Distances are drawn alone, from
the same uniforms (in the same order) as the (x, y) positions of scenes.

Cone-shadow scenes have one path, _judge_scenes, shared with validate's
blockage gap check, which puts the whole roster in every scene.  It draws
a chunk of scenes at once (their interferers, then their obstacle
fields), builds the chunk's cone frames once and judges each scene with
_blocked_mask.

Randomness comes from counter-based Philox streams keyed by (seed,
namespace, block), with trials partitioned into fixed-size blocks, so any
worker count reproduces the serial sample stream bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import detector, numerics
from .blockage import (
    BLOCKING_MODES,
    BlockageConfig,
    GeometryConfig,
    _log_choose,
    blockage_probability,
    distance_cdf,
    nonblocked_count_pmf,
)
from .detector import NoiseConfig, np_threshold
from .interference import ChannelConfig, mean_received_power
from .numerics import DomainError
from .spectral import BandConfig, SpectralModel, frequency_offset_pdf, upsilon, upsilon_table

__all__ = [
    "ValidationCheck",
    "ValidationReport",
    "TRIAL_BLOCK",
    "simulate_received_power",
    "sample_h0_power",
    "validate_suite",
]

# Trials are carved into fixed blocks, each with its own keyed stream, so
# the mapping trial -> random numbers is independent of worker count.
TRIAL_BLOCK = 4096

# stream namespaces (second key element)
_NS_POWER = 0
_NS_H0 = 1
_NS_SCENARIO = 2


def _rng(seed: int, namespace: int, block: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence((int(seed), int(namespace), int(block)))
    return np.random.Generator(np.random.Philox(ss))


def _uniform_disk(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


def _disk_distances(rng: np.random.Generator, n: int, radius: float, v0: float) -> np.ndarray:
    """Distances from (v0, 0) of n uniform disk points, without the points.

    Takes the same uniforms, in the same order, as _uniform_disk, so the
    stream stays aligned with the (x, y) path.  With psi = 2*pi*u the law
    of cosines reads ell^2 = (r - v0)^2 + 4*r*v0*sin^2(psi/2): a sum of two
    non-negative terms, accurate to a few ulps even near v0, and exactly r
    at v0 = 0.
    """
    r = radius * np.sqrt(rng.random(n))
    s = np.sin(math.pi * rng.random(n))
    ell2 = (r - v0) ** 2
    ell2 += (4.0 * v0) * r * (s * s)
    return np.sqrt(ell2, out=ell2)


def _cone_frame(int_xy: np.ndarray, v0_xy: np.ndarray, theta: float):
    """Each interferer's cone frame: the length ell, the unit axis (ux, uy)
    toward the receiver and _blocked_mask's stage-1 rows (3, n_i, 3), the
    half-plane normals and offsets before they are divided by the scene's
    scale.  Elementwise, so a frame of many scenes' interferers, sliced,
    equals the frames of the scenes drawn one at a time."""
    axis = v0_xy[None, :] - int_xy                      # (n_i, 2)
    ell = np.hypot(axis[:, 0], axis[:, 1])              # (n_i,)
    safe_ell = np.where(ell > 0.0, ell, 1.0)
    ux = axis[:, 0] / safe_ell
    uy = axis[:, 1] / safe_ell
    # rows (nx, ny, c) of the forms n.o + c, which measure how far obstacle
    # o lies inside each half-plane; blocks of n_i rows are the edges
    # (rel.u)*sin - (rel.v)*cos and (rel.u)*sin + (rel.v)*cos with
    # v = (uy, -ux) and rel = o - apex, then the base ell - rel.u
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    planes = np.zeros((3, len(ell), 3))
    planes[0, :, 0] = sin_t * ux - cos_t * uy
    planes[0, :, 1] = sin_t * uy + cos_t * ux
    planes[1, :, 0] = sin_t * ux + cos_t * uy
    planes[1, :, 1] = sin_t * uy - cos_t * ux
    planes[2, :, 0] = -ux
    planes[2, :, 1] = -uy
    planes[2, :, 2] = ell
    planes[:, :, 2] -= planes[:, :, 0] * int_xy[:, 0] + planes[:, :, 1] * int_xy[:, 1]
    return ell, ux, uy, planes


# _blocked_mask's budget in bytes for one tile of interferer rows; a row
# costs about 18 bytes an obstacle in stage 1 (three float32 forms, their
# three masks and two ands), and a tile has at least one row
_KERNEL_BYTES = 1 << 25


def _blocked_mask(
    int_xy: np.ndarray,
    obstacle_xy: np.ndarray,
    obstacle_radius: np.ndarray,
    v0_xy: np.ndarray,
    theta: float,
    frame,
) -> np.ndarray:
    """Vectorized cone-shadow blocking decision for many interferers at once.

    For each interferer, the cone has its apex at the interferer, axis
    toward the receiver, half-angle theta and length ell.  An obstacle of
    size d = obstacle_radius whose center lies in the cone at axial
    distance r blocks outright when the full cone width there is at most d,
    2*r*tan(theta) <= d (d read as a diameter); otherwise it casts a shadow
    of length 2*d*ell/r on the base (the projection of a width 2*d, d read
    as a radius), and the link is blocked when the shadows of all in-cone
    obstacles cover the base width 2*ell*tan(theta).

    In-cone pairs are found in two stages.  The cone is the triangle cut
    out by three half-planes: its two edges at +-theta about the axis u,
    and the base line through the receiver with normal -u.  Stage 1 stacks
    their unit normals and offsets into a (3*n_i, 3) matrix and multiplies
    it by the homogeneous obstacle coordinates (3, k), one small GEMM in
    float32 per tile; the pairs where all three forms are >= -1e-5 are the
    candidates.  Stage 2 applies the exact rule, r > 0, r <= ell and
    |perp| <= r*tan(theta), in float64 to the candidates alone.  Both are
    needed: the GEMM rounds differently from the exact expressions, so on
    its own it could flip a pair on the cone boundary, while the exact
    rule over all n_i*k pairs costs passes over a matrix of which only a
    few percent is inside a cone.

    Stage 1 works in units of s, the scene's largest |coordinate|: the
    obstacle coordinates and the plane offsets are divided by s, so every
    coordinate lies in [-1, 1], the normals are unit vectors and each
    offset is at most 3*sqrt(2) (the base's ell plus u.apex).  Each float32
    form is then off from its exact value by at most about 1e-6, at any
    theta in (0, pi/2) and in any length unit, with no underflow or
    overflow; the slack of 1e-5 exceeds that, so stage 1 keeps a superset
    of the pairs the exact rule accepts.  A scene whose coordinates are all 0 keeps
    s = 1.  Candidates keep row-major (interferer, obstacle) order, so the
    shadow sums add in the same order as over the full matrix.

    Both stages run over tiles of interferer rows, as many as fit in
    _KERNEL_BYTES, so a dense scene's memory stays bounded.  Each row lies
    in one tile and s is the scene's, so the tiles' decisions are those of
    one pass over every row; the shipped scene is a single tile.

    frame is _cone_frame(int_xy, v0_xy, theta), which callers build for
    many scenes at once.
    """
    n_i = int_xy.shape[0]
    if n_i == 0:
        return np.zeros(0, dtype=bool)
    tan_t = math.tan(theta)
    if not math.isfinite(tan_t) or tan_t <= 0.0:
        raise DomainError(f"theta produces unusable tan(theta) = {tan_t}")
    k = obstacle_xy.shape[0]
    if k == 0:
        return np.zeros(n_i, dtype=bool)
    ell, ux, uy, planes = frame
    ix, iy = int_xy[:, 0], int_xy[:, 1]

    # stage 1: the frame's rows, offsets in units of the scene's scale
    scale = max(np.abs(int_xy).max(), np.abs(obstacle_xy).max(), np.abs(v0_xy).max()) or 1.0
    rows = np.empty((3, n_i, 3), dtype=np.float32)
    rows[:, :, :2] = planes[:, :, :2]
    rows[:, :, 2] = planes[:, :, 2] / scale
    homog = np.ones((3, k), dtype=np.float32)
    homog[:2] = obstacle_xy.T / scale
    tile = max(1, _KERNEL_BYTES // (18 * k))
    blocked = np.zeros(n_i, dtype=bool)
    for lo in range(0, n_i, tile):
        t = slice(lo, min(lo + tile, n_i))
        m = t.stop - lo
        forms = (rows[:, t].reshape(3 * m, 3) @ homog).reshape(3, m, k)
        inside = forms >= np.float32(-1e-5)
        i, j = np.divmod(np.flatnonzero(inside[0] & inside[1] & inside[2]), k)
        i += lo

        # stage 2: the exact rule, on the candidates only
        relx = obstacle_xy[j, 0] - ix[i]
        rely = obstacle_xy[j, 1] - iy[i]
        r_ax = relx * ux[i] + rely * uy[i]
        perp = np.abs(relx * uy[i] - rely * ux[i])
        in_cone = (r_ax > 0.0) & (r_ax <= ell[i]) & (perp <= r_ax * tan_t)
        # one entry per in-cone pair: interferer, axial distance, obstacle size
        i = i[in_cone]
        r = r_ax[in_cone]
        d = obstacle_radius[j[in_cone]]

        blocked[i[r <= d / (2.0 * tan_t)]] = True
        # full blocks already decide those links; adding their shadow is harmless
        shadow_total = np.bincount(i - lo, weights=2.0 * d * ell[i] / r, minlength=m)
        blocked[t] |= shadow_total >= 2.0 * ell[t] * tan_t
    blocked &= ell > 0.0
    return blocked


def _distances_with_exclusion(
    rng: np.random.Generator, count: int, geo: GeometryConfig
) -> np.ndarray:
    """Distances of uniform disk points to v0, redrawing any inside eps_min.

    The draws and redraws are those of _draw_positions_with_exclusion.
    """
    dist = _disk_distances(rng, count, geo.radius, geo.v0_norm)
    bad = dist < geo.eps_min
    while bad.any():
        dist[bad] = _disk_distances(rng, int(bad.sum()), geo.radius, geo.v0_norm)
        bad = dist < geo.eps_min
    return dist


def _draw_positions_with_exclusion(
    rng: np.random.Generator, count: int, geo: GeometryConfig, v0_xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform disk positions, redrawing any that land inside eps_min of v0."""
    xy = _uniform_disk(rng, count, geo.radius)
    dist = np.hypot(xy[:, 0] - v0_xy[0], xy[:, 1] - v0_xy[1])
    bad = dist < geo.eps_min
    while bad.any():
        redraw = _uniform_disk(rng, int(bad.sum()), geo.radius)
        xy[bad] = redraw
        dist[bad] = np.hypot(redraw[:, 0] - v0_xy[0], redraw[:, 1] - v0_xy[1])
        bad = dist < geo.eps_min
    return xy, dist


def _draw_obstacles(
    rng: np.random.Generator, blockage_cfg: BlockageConfig, geo: GeometryConfig, scenes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Obstacle fields of some scenes: their Poisson counts, then every
    field's uniform disk centres, then their sizes uniform on [d_s, d_e],
    fields in scene order."""
    counts = rng.poisson(blockage_cfg.rho * math.pi * geo.radius**2, scenes)
    n_obs = int(counts.sum())
    obs_xy = _uniform_disk(rng, n_obs, geo.radius)
    return counts, obs_xy, blockage_cfg.d_s + (blockage_cfg.d_e - blockage_cfg.d_s) * rng.random(n_obs)


# obstacles and interferers drawn per chunk of cone-shadow scenes: about 64
# shipped scenes (314 obstacles and 200 interferers each); a scene denser
# than this is drawn alone, so memory stays that of one scene.  The sizing
# counts the whole roster, which the gap check's scenes hold exactly and
# simulate's in-band scenes at most
_SCENE_CHUNK_ITEMS = 32_768


def _scene_chunk(n: int, blockage_cfg: BlockageConfig, geo: GeometryConfig) -> int:
    """Scenes per chunk: the item budget over a scene's n interferers plus
    its mean obstacle count, and at least 1."""
    per_scene = n + blockage_cfg.rho * math.pi * geo.radius**2
    return max(1, int(_SCENE_CHUNK_ITEMS // max(per_scene, 1.0)))


def _judge_scenes(
    rng: np.random.Generator, counts: np.ndarray, blockage_cfg: BlockageConfig, geo: GeometryConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a chunk of scenes, counts[s] interferers in scene s (eps_min
    redraws included), then their obstacle fields, and judge every link on
    cone frames built once per chunk.  Returns each interferer's distance
    to the receiver and whether it is blocked, in scene order."""
    v0_xy = np.array([geo.v0_norm, 0.0])
    xy, dist = _draw_positions_with_exclusion(rng, int(counts.sum()), geo, v0_xy)
    obs_counts, obs_xy, obs_r = _draw_obstacles(rng, blockage_cfg, geo, len(counts))
    ell, ux, uy, planes = _cone_frame(xy, v0_xy, geo.theta)
    ib = np.concatenate(([0], np.cumsum(counts))).tolist()
    ob = np.concatenate(([0], np.cumsum(obs_counts))).tolist()
    blocked = np.empty(len(dist), dtype=bool)
    for s in range(len(counts)):
        i, o = slice(ib[s], ib[s + 1]), slice(ob[s], ob[s + 1])
        blocked[i] = _blocked_mask(
            xy[i], obs_xy[o], obs_r[o], v0_xy, geo.theta, (ell[i], ux[i], uy[i], planes[:, i])
        )
    return dist, blocked


def _inband_counts(
    rng: np.random.Generator, n_trials: int, channel: ChannelConfig, band: BandConfig,
    cutoff: float, p_b: float,
) -> tuple[np.ndarray, float, float]:
    """A trial block's first draw: per trial, the count of active
    non-blocked candidates whose frequency lies in [lo, hi], the band within
    cutoff of f_0, where Upsilon > 0.  One Binomial(n, p*(1-p_b)*(hi-lo)/
    (f_e-f_s)) draw each (p_b = 0 under geometric blocking, whose scenes
    decide blocking); returns the counts, lo and hi."""
    lo = max(band.f_s, band.f_0 - cutoff)
    hi = min(band.f_e, band.f_0 + cutoff)
    thin = channel.p * (1.0 - p_b)
    return rng.binomial(channel.n, thin * (hi - lo) / (band.f_e - band.f_s), n_trials), lo, hi


def _trial_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per trial t, the sum of its counts[t] consecutive values, in order."""
    return np.bincount(np.repeat(np.arange(len(counts)), counts), weights=values, minlength=len(counts))


# overlap samples the simulator interpolates: 2**12 intervals on [0, cutoff]
_LOOKUP_POINTS = 4097


def _overlap_lookup(band: BandConfig, model: SpectralModel, cutoff: float):
    """Upsilon(|omega|) interpolated linearly on a uniform grid over [0,
    cutoff], 0 past it.  Each offset's interval is found by direct index,
    not a binary search, with the slopes np.interp forms: the lookup of an
    array equals np.interp(|omega|, grid, values, right=0.0) bit for bit,
    NaN included."""
    grid = np.linspace(0.0, cutoff, _LOOKUP_POINTS)
    values = upsilon(grid, band, model)
    slopes = np.diff(values) / np.diff(grid)
    last = _LOOKUP_POINTS - 2

    def lookup(omega: np.ndarray) -> np.ndarray:
        # clamped so that inf reaches no arithmetic; NaN passes through
        w = np.minimum(np.abs(omega), 2.0 * cutoff)
        # the interval index up to rounding (fmin sends NaN to the last),
        # then one step each way to grid[j] <= w < grid[j + 1]
        j = np.fmin(w * ((last + 1) / cutoff), last).astype(np.intp)
        j -= grid[j] > w
        j += (grid[j + 1] <= w) & (j < last)
        out = slopes[j] * (w - grid[j]) + values[j]
        return np.where(w >= cutoff, np.where(w == cutoff, values[-1], 0.0), out)

    return lookup


def _power_block(
    block: int,
    n_trials: int,
    channel: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    cutoff: float,
    phi: float,
    seed: int,
    blocking: str,
    p_b: float,
    blockage_cfg: Optional[BlockageConfig],
    lookup,
) -> np.ndarray:
    # perfbench's trace notes read n_trials and blocking at positions 1 and 8
    rng = _rng(seed, _NS_POWER, block)
    geometric = blocking == "geometric"
    counts, lo, hi = _inband_counts(rng, n_trials, channel, band, cutoff, 0.0 if geometric else p_b)
    if geometric:
        chunk = _scene_chunk(channel.n, blockage_cfg, geo)
        parts = [_judge_scenes(rng, counts[s:s + chunk], blockage_cfg, geo) for s in range(0, n_trials, chunk)]
        dist, blocked = (np.concatenate(a) for a in zip(*parts))
    else:
        dist, blocked = _distances_with_exclusion(rng, int(counts.sum()), geo), False
    omega = np.abs(lo + (hi - lo) * rng.random(len(dist)) - band.f_0)
    h = rng.gamma(channel.m, 1.0 / channel.m, len(dist))
    power = channel.q * h * dist ** (-channel.alpha) * lookup(omega)
    return phi + _trial_sums(counts, np.where(blocked, 0.0, power))


def _run_blocks(worker_fn, n_trials: int, workers: int) -> np.ndarray:
    blocks = [
        (b, min(TRIAL_BLOCK, n_trials - b * TRIAL_BLOCK))
        for b in range((n_trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK)
    ]
    if workers <= 1:
        parts = [worker_fn(b, size) for b, size in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda bs: worker_fn(*bs), blocks))
    return np.concatenate(parts) if parts else np.empty(0)


def simulate_received_power(
    channel: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
    phi: float,
    trials: int,
    seed: int,
    blocking: str = "thinning",
    p_b: float = 0.0,
    blockage_cfg: Optional[BlockageConfig] = None,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial received power phi + sum of active non-blocked contributions.

    Interferers closer to the receiver than geo.eps_min are redrawn, the
    same truncation the analytic pathloss moments apply.  Fading is the
    unit-mean Nakagami power gain Gamma(m, 1/m).  Spectral capture comes
    from _overlap_lookup, built once per call, and in both modes only the
    candidates within the overlap cutoff are drawn (see the module
    docstring).  Output is ordered by trial index and is identical for any
    worker count.
    """
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    if blocking not in BLOCKING_MODES:
        raise DomainError(f"blocking must be one of {BLOCKING_MODES}, got {blocking!r}")
    if blocking == "thinning" and not (0.0 <= p_b <= 1.0):
        raise DomainError(f"p_b must be in [0, 1], got {p_b}")
    if blocking == "geometric" and blockage_cfg is None:
        raise DomainError("geometric blocking requires a BlockageConfig")
    # the grid is built here, before any worker thread starts, and only read after
    cutoff = upsilon_table(band, model).cutoff
    lookup = _overlap_lookup(band, model, cutoff)

    def work(block, size):
        return _power_block(
            block, size, channel, geo, band, cutoff, phi, seed,
            blocking, p_b, blockage_cfg, lookup,
        )

    return _run_blocks(work, int(trials), workers)


def sample_h0_power(noise: NoiseConfig, trials: int, seed: int) -> np.ndarray:
    """Noise-limited power draws phi + sigma2 * (standard normal)^2."""
    rng = _rng(seed, _NS_H0)
    z = rng.standard_normal(int(trials))
    return noise.phi + noise.sigma2 * z * z


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    """One analytic-vs-empirical comparison.

    For goodness-of-fit checks the empirical field holds the test p-value,
    the analytic field is the ideal 1.0 and the tolerance 0.99, and passed
    is p > 0.01.  The uniform rule |analytic - empirical| <= tolerance
    reads p >= 0.01 up to the rounding of 1 - p instead: at p = 0.01 it
    holds while the check fails.  Informational checks carry tolerance
    None and always pass.
    """

    name: str
    analytic: float
    empirical: float
    tolerance: Optional[float]
    passed: bool
    samples: int
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Bundle of validation checks with an overall verdict."""

    checks: tuple[ValidationCheck, ...]
    passed: bool


def _gof_check(name: str, p_value: float, samples: int) -> ValidationCheck:
    return ValidationCheck(
        name=name, analytic=1.0, empirical=float(p_value), tolerance=0.99,
        passed=bool(p_value > 0.01), samples=samples, note="pass means p-value > 0.01",
    )


def _merge_small_bins(counts: np.ndarray, probs: np.ndarray):
    """Merge adjacent histogram bins until every expected count reaches 10."""
    total = counts.sum()
    out_c, out_p = [], []
    acc_c, acc_p = 0.0, 0.0
    for c, p in zip(counts, probs):
        acc_c += c
        acc_p += p
        if acc_p * total >= 10.0:
            out_c.append(acc_c)
            out_p.append(acc_p)
            acc_c, acc_p = 0.0, 0.0
    if acc_p > 0.0 and out_c:
        out_c[-1] += acc_c
        out_p[-1] += acc_p
    return np.array(out_c), np.array(out_p)


def _chi2_sf(dof: int, stat: float) -> float:
    """Chi-square survival Q(dof/2, stat/2) for an integer dof.

    A finite sum of positive terms y^a e^-y / Gamma(a + 1), y = stat/2, over
    a = 0, 1, .., dof/2 - 1 (even dof), or over a = 1/2, 3/2, .., dof/2 - 1
    plus erfc(sqrt(y)) (odd dof).  Each term is formed in log space, so a
    huge statistic underflows to 0 instead of overflowing.
    """
    y = 0.5 * stat
    if y <= 0.0:
        return 1.0
    if dof % 2:
        head, orders = math.erfc(math.sqrt(y)), [j + 0.5 for j in range((dof - 1) // 2)]
    else:
        head, orders = 0.0, range(dof // 2)
    log_y = math.log(y)
    return head + math.fsum(math.exp(a * log_y - y - math.lgamma(a + 1.0)) for a in orders)


def _log_factorial_over_power(n: int) -> float:
    # log(n!/n^n), summed pairwise over the n factors i/n
    return float(np.log(np.arange(1, n + 1) / n).sum())


def _smirnov_sf(n: int, d: float) -> float:
    """One-sided P(D_n+ >= d) by the exact Birnbaum-Tingey sum
    d * sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1), j <= n(1 - d)."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_choose = _log_choose(n)[:len(j)]
    # the last base is 0 where n(1 - d) is a whole number; its log is -inf
    with np.errstate(divide="ignore"):
        log_base = np.log(np.maximum(1.0 - d - j / n, 0.0))
    return d * float(np.exp(log_choose + (n - j) * log_base + (j - 1) * np.log(d + j / n)).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """Exact P(D_n < d) from the n-th power of Durbin's matrix, as Marsaglia,
    Tsang and Wang (2003) compute it, rescaling by 2^-128 as it grows."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1, m + 1))))
    # mat[r, c] = 1/(r - c + 1)! on and below the superdiagonal, with the
    # first column and the last row corrected for the fractional part h
    r, c = np.indices((m, m))
    mat = np.where(r + 1 >= c, inv_fact[np.clip(r - c + 1, 0, m)], 0.0)
    v = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    v[-1] = (1.0 - 2.0 * h ** m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
    mat[:, 0] = v
    mat[-1, :] = v[::-1]
    power, power_exp, mat_exp = np.eye(m), 0, 0
    left = n
    while left:
        if left % 2:
            power = power @ mat
            power_exp += mat_exp
        mat = mat @ mat
        mat_exp *= 2
        if abs(mat[k - 1, k - 1]) > 2.0 ** 128:
            mat /= 2.0 ** 128
            mat_exp += 128
        left //= 2
    p = float(power[k - 1, k - 1])
    if p <= 0.0:
        return 0.0
    return math.exp(math.log(p) + power_exp * math.log(2.0) + _log_factorial_over_power(n))


def _pelz_good_cdf(n: int, d: float) -> float:
    """Pelz and Good's (1976) asymptotic P(D_n <= d) in z = d sqrt(n), to
    order n^-3/2: Kolmogorov's series and its Li-Chien/Korolyuk corrections
    through the Jacobi theta transformation, good for small z."""
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z ** 2, z ** 3, z ** 4, z ** 6
    pi2, pi4, pi6 = math.pi ** 2, math.pi ** 4, math.pi ** 6
    log_q = -pi2 / 8 / z2
    if log_q < -708:
        return 0.0
    q = math.exp(log_q)
    k1a, k1b = -z2, pi2 / 4
    k2a, k2b, k2c = 6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * pi2 / 4, pi4 * (1 - 2 * z2) / 16
    k3a = -30 * z6 - 90 * z ** 8
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    # Horner in q^8 over the odd m = 2k - 1 of sum_m c(m) q^(m^2)
    terms = np.zeros(4)
    kmax = math.ceil(16 * z / math.pi)
    for k in range(kmax, 0, -1):
        m = 2 * k - 1
        m2, m4, m6 = m ** 2, m ** 4, m ** 6
        terms *= q ** (8 * k)
        terms += np.array([
            1.0, k1a + k1b * m2, k2a + k2b * m2 + k2c * m4,
            k3a + k3b * m2 + k3c * m4 + k3d * m6,
        ])
    terms *= q
    terms *= math.sqrt(2 * math.pi)
    terms /= np.array([z, 6 * z4, 72 * z ** 7, 6480 * z ** 10])
    # the extra sums of K2 and K3 run over all integers k
    ks = np.arange(kmax, 0, -1)
    k_sq = ks ** 2
    q_pow = math.exp(-pi2 / 2 / z2) ** k_sq
    terms[2] += np.sum(k_sq * q_pow) * (pi2 * math.sqrt(2 * math.pi) / (-36 * z3))
    sqrt3z, k_pi = math.sqrt(3) * z, math.pi * ks
    terms[3] += np.sum((sqrt3z + k_pi) * (sqrt3z - k_pi) * k_sq * q_pow) * (
        pi2 * math.sqrt(2 * math.pi) / (216 * z6)
    )
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms.tolist())


def _ks_pvalue(n: int, d: float) -> float:
    """Two-sided Kolmogorov-Smirnov P(D_n >= d) for n samples.

    Picks the method by Simard and L'Ecuyer's (2011) rule: Ruben and
    Gambino's closed forms at n*d <= 1 and n*d >= n - 1; twice the exact
    one-sided tail (Miller's approximation, exact for d >= 1/2) in the far
    tail, n*d^2 >= 2.2 (n*d^2 > 4 when n <= 140); Durbin's exact matrix for
    n <= 140, and for n <= 1e5 with n*d^1.5 <= 1.4; Pelz-Good otherwise.
    """
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        return 1.0 - math.exp(_log_factorial_over_power(n) + n * math.log(2.0 * t - 1.0))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    t_d = t * d
    if d >= 0.5 or t_d > 4.0 or (n > 140 and t_d >= 2.2):
        return min(2.0 * _smirnov_sf(n, d), 1.0)
    if n <= 140 or (n <= 100_000 and n * d ** 1.5 <= 1.4):
        cdf = _durbin_cdf(n, d)
    else:
        cdf = _pelz_good_cdf(n, d)
    return min(max(1.0 - cdf, 0.0), 1.0)


def _chi2_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    # a sample where the analytic law puts no mass refutes it outright;
    # merging would otherwise fold such counts away unseen
    if np.any((probs <= 0.0) & (counts > 0)):
        return 0.0
    counts, probs = _merge_small_bins(counts, probs)
    if len(counts) < 2:
        return 1.0
    # renormalize the analytic mass over the binned support
    expected = counts.sum() * probs / probs.sum()
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return _chi2_sf(len(counts) - 1, stat)


def _distance_check(geo, trials, seed) -> ValidationCheck:
    # the simulator's draws, eps_min redraws included; _chi2_pvalue
    # renormalises the law's mass on [eps_min, R + v0] to the conditioned law
    dist = _distances_with_exclusion(_rng(seed, _NS_SCENARIO, 1), trials, geo)
    edges = np.linspace(geo.eps_min, geo.radius + geo.v0_norm, 41)
    counts, _ = np.histogram(dist, bins=edges)
    probs = np.diff(distance_cdf(edges, geo))
    return _gof_check("interferer_distance_density", _chi2_pvalue(counts, probs), trials)


def _frequency_check(band, trials, seed) -> ValidationCheck:
    rng = _rng(seed, _NS_SCENARIO, 2)
    freq = band.f_s + (band.f_e - band.f_s) * rng.random(trials)
    omega = np.abs(freq - band.f_0)
    near, far = band.offset_edges
    interior = np.linspace(0.0, far, 33)
    # np.unique would import numpy.ma, at more cost than this sort
    edges = interior if near in interior else np.sort(np.append(interior, near))
    counts, _ = np.histogram(omega, bins=edges)
    # near is an edge, so the density is constant on every bin
    probs = frequency_offset_pdf(0.5 * (edges[:-1] + edges[1:]), band) * np.diff(edges)
    return _gof_check("frequency_offset_density", _chi2_pvalue(counts, probs), trials)


def _count_check(channel, geo, band, model, blockage_cfg, trials, seed) -> ValidationCheck:
    # the in-band counts of the mean-power check's thinning blocks, against
    # the count law with the analytic in-band share of offsets
    p_b = blockage_probability(blockage_cfg, geo).p_b
    table = upsilon_table(band, model)
    cutoff, in_band = table.cutoff, float(table.rule_weights.sum()) / (band.f_e - band.f_s)

    def counts(block, size):
        return _inband_counts(_rng(seed, _NS_POWER, block), size, channel, band, cutoff, p_b)[0]

    k = _run_blocks(counts, trials, 1)
    pmf = nonblocked_count_pmf(channel.n, channel.p * in_band, p_b)
    emp = np.bincount(k, minlength=channel.n + 1) / trials
    tv = 0.5 * float(np.sum(np.abs(emp - pmf)))
    # a perfect sampler still shows TV ~ sum of per-bin binomial noise;
    # hold the check to twice that expectation, floored at 1%
    expected_tv = 0.5 * math.sqrt(2.0 / (math.pi * trials)) * float(
        np.sqrt(pmf * (1.0 - pmf)).sum()
    )
    tol = max(0.01, 2.0 * expected_tv)
    return ValidationCheck(
        name="nonblocked_count_tv", analytic=0.0, empirical=tv, tolerance=tol,
        passed=tv <= tol, samples=trials,
        note="total variation of the simulated in-band count vs Binomial(n, p*w*(1-p_b)), "
             "w the analytic in-band share of offsets and p_b the analytic blockage; "
             "tolerance = max(1%, twice the sampling-noise expectation)",
    )


def _mean_power_check(channel, geo, band, model, noise, blockage_cfg, trials, seed,
                      workers) -> ValidationCheck:
    p_b = blockage_probability(blockage_cfg, geo).p_b
    samples = simulate_received_power(
        channel, geo, band, model, noise.phi, trials, seed,
        blocking="thinning", p_b=p_b, workers=workers,
    )
    analytic = mean_received_power(noise.phi, p_b, channel, geo, band, model)
    emp = float(samples.mean())
    # the pathloss tail near eps_min makes this a heavy-tailed mean; hold the
    # check to 1% or four standard errors, whichever is looser
    se = float(samples.std(ddof=1)) / math.sqrt(len(samples)) if len(samples) > 1 else 0.0
    tol = max(0.01 * analytic, 4.0 * se)
    return ValidationCheck(
        name="mean_received_power", analytic=analytic, empirical=emp,
        tolerance=tol, passed=abs(emp - analytic) <= tol, samples=trials,
        note="tolerance = max(1% of analytic, 4 standard errors)",
    )


def _h0_check(noise, h0) -> ValidationCheck:
    cdf = detector.h0_cdf(np.sort(h0), noise)
    n = len(cdf)
    # D = max(D+, D-), the largest gap between the empirical and null CDFs
    d = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(n) / n)))
    return _gof_check("noise_power_distribution", _ks_pvalue(n, d), n)


def _false_alarm_checks(noise, h0, betas) -> list[ValidationCheck]:
    trials = len(h0)
    out = []
    for beta in betas:
        eta = np_threshold(beta, noise)
        p_f = float(np.mean(h0 > eta))
        tol = max(0.01, 4.0 * math.sqrt(beta * (1.0 - beta) / trials))
        out.append(ValidationCheck(
            name=f"false_alarm_calibration_beta_{beta:g}", analytic=float(beta),
            empirical=p_f, tolerance=tol, passed=abs(p_f - beta) <= tol,
            samples=trials, note="tolerance = max(0.01, 4 binomial standard errors)",
        ))
    return out


def _geometric_gap_check(channel, geo, blockage_cfg, trials, seed) -> ValidationCheck:
    # whole-roster scenes through the simulator's scene path; 2000 shipped
    # scenes take about 0.8 s and give the informational rate 2 digits.  The
    # cost grows with rho*R^2, the mean obstacle count of a scene
    trials = min(trials, 2000)
    rng = _rng(seed, _NS_SCENARIO, 3)
    chunk = _scene_chunk(channel.n, blockage_cfg, geo)
    blocked = 0
    for start in range(0, trials, chunk):
        counts = np.full(min(chunk, trials - start), channel.n)
        blocked += int(_judge_scenes(rng, counts, blockage_cfg, geo)[1].sum())
    total = trials * channel.n
    rate = blocked / total if total else 0.0
    return ValidationCheck(
        name="geometric_blockage_gap", analytic=float(blockage_probability(blockage_cfg, geo).p_b),
        empirical=rate, tolerance=None, passed=True, samples=trials,
        note="informational: cone-shadow simulation vs the closed-form p_b, "
             "which is itself an approximation",
    )


def _guarded(fn, *args) -> list[ValidationCheck]:
    """Rows of one check; a numerical failure fails only that check, in a
    row named after it (fn's name without underscores)."""
    try:
        result = fn(*args)
    except numerics.NumericsError as exc:
        return [ValidationCheck(
            name=fn.__name__.strip("_"), analytic=math.nan, empirical=math.nan,
            tolerance=0.0, passed=False, samples=0, note=f"failed: {exc}",
        )]
    return result if isinstance(result, list) else [result]


def validate_suite(
    channel: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
    noise: NoiseConfig,
    blockage_cfg: BlockageConfig,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ValidationReport:
    """Bind every analytic quantity to an empirical estimate.

    Runs: distance-density and offset-density goodness of fit, the
    simulator's in-band count law in total variation, the mean received
    power, the noise-power distribution (KS), false-alarm calibration at
    significance levels 0.1, 0.5 and 0.9, and an informational
    geometric-vs-analytic blockage comparison.  A numerical failure aborts only its own check.

    The p-values are computed here, without scipy: the two density checks
    use a chi-square survival sum (_chi2_sf), the noise-power check the
    two-sided KS tail by Simard and L'Ecuyer's choice of method
    (_ks_pvalue), and the count law's pmf summed log-binomials.

    workers is the number of trial-block threads of the mean-power
    simulation; every other check runs in the calling thread.  The report
    is identical for any count.
    """
    trials = int(trials)
    # one set of noise-limited draws serves the KS and false-alarm checks
    h0 = sample_h0_power(noise, trials, seed)
    checks = [
        *_guarded(_distance_check, geo, trials, seed),
        *_guarded(_frequency_check, band, trials, seed),
        *_guarded(_count_check, channel, geo, band, model, blockage_cfg, trials, seed),
        *_guarded(_mean_power_check, channel, geo, band, model, noise, blockage_cfg, trials, seed, workers),
        *_guarded(_h0_check, noise, h0),
        *_guarded(_false_alarm_checks, noise, h0, (0.1, 0.5, 0.9)),
        *_guarded(_geometric_gap_check, channel, geo, blockage_cfg, trials, seed),
    ]
    return ValidationReport(tuple(checks), all(c.passed for c in checks))
