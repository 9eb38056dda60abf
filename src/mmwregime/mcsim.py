"""Geometric Monte-Carlo oracle for the analytic pipeline.

Scenarios are drawn exactly as the analytic model assumes: a fixed roster
of candidate interferers, each active with the occupancy probability, at
uniform positions in the disk and uniform frequencies in the band; obstacle
disks from a Poisson field.  Blocking can be decided three ways:

  "geometric"  cone-shadow rule per interferer (near-apex full block, or
               accumulated partial shadows covering the cone base),
  "thinning"   independent Bernoulli survival with a supplied probability
               (matches the analytic treatment of blockage exactly),
  "none"       every active interferer contributes.

Randomness comes from counter-based Philox streams keyed by (seed,
namespace, block), with trials partitioned into fixed-size blocks, so any
worker count reproduces the serial sample stream bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import detector, numerics
from .blockage import (
    BlockageConfig,
    GeometryConfig,
    blockage_probability,
    distance_cdf,
    nonblocked_count_distribution,
)
from .detector import NoiseConfig, np_threshold
from .interference import ChannelConfig, mean_received_power
from .numerics import DomainError
from .spectral import BandConfig, SpectralModel, frequency_offset_pdf, upsilon_table

__all__ = [
    "ValidationCheck",
    "ValidationReport",
    "BLOCKING_MODES",
    "TRIAL_BLOCK",
    "is_blocked",
    "simulate_received_power",
    "sample_h0_power",
    "sample_nonblocked_counts",
    "empirical_rates",
    "validate_suite",
]

BLOCKING_MODES = ("geometric", "thinning", "none")

# Trials are carved into fixed blocks, each with its own keyed stream, so
# the mapping trial -> random numbers is independent of worker count.
TRIAL_BLOCK = 4096

# stream namespaces (second key element)
_NS_POWER = 0
_NS_H0 = 1
_NS_SCENARIO = 2
_NS_COUNT = 3


def _rng(seed: int, namespace: int, block: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence((int(seed), int(namespace), int(block)))
    return np.random.Generator(np.random.Philox(ss))


def _uniform_disk(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    return np.column_stack((r * np.cos(ang), r * np.sin(ang)))


def _blocked_mask(
    int_xy: np.ndarray,
    obstacle_xy: np.ndarray,
    obstacle_radius: np.ndarray,
    v0_xy: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Vectorized cone-shadow blocking decision for many interferers at once.

    For each interferer, the cone has its apex at the interferer, axis
    toward the receiver, half-angle theta and length ell.  An obstacle
    whose center lies in the cone blocks outright when the local cone
    cross-section is narrower than its diameter (axial distance r <=
    d / (2 tan theta)); otherwise it casts a shadow of length 2*d*ell/r on
    the base, and the link is blocked when the shadows of all in-cone
    obstacles cover the base width 2*ell*tan(theta).
    """
    n_i = int_xy.shape[0]
    if n_i == 0:
        return np.zeros(0, dtype=bool)
    tan_t = math.tan(theta)
    if not math.isfinite(tan_t) or tan_t <= 0.0:
        raise DomainError(f"theta produces unusable tan(theta) = {tan_t}")
    if obstacle_xy.shape[0] == 0:
        return np.zeros(n_i, dtype=bool)
    axis = v0_xy[None, :] - int_xy                      # (n_i, 2)
    ell = np.hypot(axis[:, 0], axis[:, 1])              # (n_i,)
    safe_ell = np.where(ell > 0.0, ell, 1.0)
    ux = axis[:, 0] / safe_ell
    uy = axis[:, 1] / safe_ell
    relx = obstacle_xy[None, :, 0] - int_xy[:, None, 0]  # (n_i, k)
    rely = obstacle_xy[None, :, 1] - int_xy[:, None, 1]
    r_ax = relx * ux[:, None] + rely * uy[:, None]
    perp = np.abs(relx * uy[:, None] - rely * ux[:, None])
    in_cone = (r_ax > 0.0) & (r_ax <= ell[:, None]) & (perp <= r_ax * tan_t)

    d = obstacle_radius[None, :]
    full_block = in_cone & (r_ax <= d / (2.0 * tan_t))
    blocked = full_block.any(axis=1)

    shadow = np.where(in_cone & ~full_block, 2.0 * d * ell[:, None] / np.where(r_ax > 0, r_ax, 1.0), 0.0)
    # full blocks already decide those links; adding their shadow is harmless
    shadow_total = shadow.sum(axis=1)
    blocked |= shadow_total >= 2.0 * ell * tan_t
    blocked &= ell > 0.0
    return blocked


def is_blocked(
    interferer_xy: Sequence[float],
    obstacle_xy: np.ndarray,
    obstacle_radius: np.ndarray,
    v0_xy: Sequence[float],
    theta: float,
) -> bool:
    """Cone-shadow blocking decision for a single interferer."""
    mask = _blocked_mask(
        np.asarray(interferer_xy, dtype=float).reshape(1, 2),
        np.asarray(obstacle_xy, dtype=float).reshape(-1, 2),
        np.asarray(obstacle_radius, dtype=float).reshape(-1),
        np.asarray(v0_xy, dtype=float),
        theta,
    )
    return bool(mask[0])


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


def _power_block(
    block: int,
    n_trials: int,
    channel: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    table,
    phi: float,
    seed: int,
    blocking: str,
    p_b: float,
    blockage_cfg: Optional[BlockageConfig],
) -> np.ndarray:
    rng = _rng(seed, _NS_POWER, block)
    v0_xy = np.array([geo.v0_norm, 0.0])
    n = channel.n

    if blocking != "geometric":
        thin = channel.p if blocking == "none" else channel.p * (1.0 - p_b)
        survive = rng.random((n_trials, n)) < thin
        counts = survive.sum(axis=1)
        total = int(counts.sum())
        y = np.full(n_trials, phi, dtype=float)
        if total == 0:
            return y
        xy, dist = _draw_positions_with_exclusion(rng, total, geo, v0_xy)
        freq = band.f_s + (band.f_e - band.f_s) * rng.random(total)
        h = rng.gamma(channel.m, 1.0 / channel.m, total)
        ups = table.lookup(np.abs(freq - band.f_0))
        power = channel.q * h * dist ** (-channel.alpha) * ups
        ids = np.repeat(np.arange(n_trials), counts)
        y += np.bincount(ids, weights=power, minlength=n_trials)
        return y

    if blockage_cfg is None:
        raise DomainError("geometric blocking requires a BlockageConfig")
    lam_obs = blockage_cfg.rho * math.pi * geo.radius**2
    y = np.full(n_trials, phi, dtype=float)
    for i in range(n_trials):
        active = rng.random(n) < channel.p
        n_act = int(active.sum())
        if n_act == 0:
            continue
        xy, dist = _draw_positions_with_exclusion(rng, n_act, geo, v0_xy)
        freq = band.f_s + (band.f_e - band.f_s) * rng.random(n_act)
        n_obs = int(rng.poisson(lam_obs))
        obs_xy = _uniform_disk(rng, n_obs, geo.radius)
        obs_r = blockage_cfg.d_s + (blockage_cfg.d_e - blockage_cfg.d_s) * rng.random(n_obs)
        h = rng.gamma(channel.m, 1.0 / channel.m, n_act)
        blocked = _blocked_mask(xy, obs_xy, obs_r, v0_xy, geo.theta)
        keep = ~blocked
        if keep.any():
            ups = table.lookup(np.abs(freq[keep] - band.f_0))
            y[i] += float(np.sum(
                channel.q * h[keep] * dist[keep] ** (-channel.alpha) * ups
            ))
    return y


def _run_blocks(worker_fn, n_trials: int, workers: int) -> np.ndarray:
    blocks = [
        (b, min(TRIAL_BLOCK, n_trials - b * TRIAL_BLOCK))
        for b in range((n_trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK)
    ]
    if workers <= 1:
        parts = [worker_fn(b, size) for b, size in blocks]
    else:
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
    from the shared overlap table.  Output is ordered by trial index and is
    identical for any worker count.
    """
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    if blocking not in BLOCKING_MODES:
        raise DomainError(f"blocking must be one of {BLOCKING_MODES}, got {blocking!r}")
    if blocking == "thinning" and not (0.0 <= p_b <= 1.0):
        raise DomainError(f"p_b must be in [0, 1], got {p_b}")
    table = upsilon_table(band, model)

    def work(block, size):
        return _power_block(
            block, size, channel, geo, band, table, phi, seed,
            blocking, p_b, blockage_cfg,
        )

    return _run_blocks(work, int(trials), workers)


def sample_h0_power(noise: NoiseConfig, trials: int, seed: int) -> np.ndarray:
    """Noise-limited power draws phi + sigma2 * (standard normal)^2."""
    rng = _rng(seed, _NS_H0)
    z = rng.standard_normal(int(trials))
    return noise.phi + noise.sigma2 * z * z


def empirical_rates(
    channel: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
    noise: NoiseConfig,
    eta_prime: float,
    trials: int,
    seed: int,
    blocking: str = "thinning",
    p_b: float = 0.0,
    blockage_cfg: Optional[BlockageConfig] = None,
    workers: int = 1,
) -> tuple[float, float]:
    """Empirical (false alarm, detection) rates at a power threshold."""
    h0 = sample_h0_power(noise, trials, seed)
    p_f = float(np.mean(h0 > eta_prime))
    h1 = simulate_received_power(
        channel, geo, band, model, noise.phi, trials, seed,
        blocking=blocking, p_b=p_b, blockage_cfg=blockage_cfg, workers=workers,
    )
    p_d = float(np.mean(h1 > eta_prime))
    return p_f, p_d


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    """One analytic-vs-empirical comparison.

    For goodness-of-fit checks the empirical field holds the test p-value,
    the analytic field is the ideal 1.0 and the tolerance 0.99, so the
    uniform rule pass == (|analytic - empirical| <= tolerance) encodes
    p > 0.01.  Informational checks carry tolerance None and always pass.
    """

    name: str
    analytic: float
    empirical: float
    tolerance: Optional[float]
    passed: bool
    samples: int
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "analytic": self.analytic,
            "empirical": self.empirical,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "samples": self.samples,
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Bundle of validation checks with an overall verdict."""

    checks: tuple[ValidationCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    @staticmethod
    def from_checks(checks: Sequence[ValidationCheck]) -> "ValidationReport":
        return ValidationReport(tuple(checks), all(c.passed for c in checks))


def _gof_check(name: str, p_value: float, samples: int, note: str = "") -> ValidationCheck:
    return ValidationCheck(
        name=name, analytic=1.0, empirical=float(p_value), tolerance=0.99,
        passed=bool(p_value > 0.01), samples=samples, note=note or "pass means p-value > 0.01",
    )


def _merge_small_bins(counts: np.ndarray, probs: np.ndarray, floor: float = 10.0):
    """Merge adjacent histogram bins until every expected count clears floor."""
    total = counts.sum()
    out_c, out_p = [], []
    acc_c, acc_p = 0.0, 0.0
    for c, p in zip(counts, probs):
        acc_c += c
        acc_p += p
        if acc_p * total >= floor:
            out_c.append(acc_c)
            out_p.append(acc_p)
            acc_c, acc_p = 0.0, 0.0
    if acc_p > 0.0 and out_c:
        out_c[-1] += acc_c
        out_p[-1] += acc_p
    return np.array(out_c), np.array(out_p)


def _chi2_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    from scipy import stats

    counts, probs = _merge_small_bins(counts, probs)
    if len(counts) < 2:
        return 1.0
    # renormalize the analytic mass over the binned support
    expected = counts.sum() * probs / probs.sum()
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return float(stats.chi2.sf(stat, df=len(counts) - 1))


def _distance_check(geo, trials, seed) -> ValidationCheck:
    rng = _rng(seed, _NS_SCENARIO, 1)
    xy = _uniform_disk(rng, trials, geo.radius)
    dist = np.hypot(xy[:, 0] - geo.v0_norm, xy[:, 1])
    edges = np.linspace(0.0, geo.radius + geo.v0_norm, 41)
    counts, _ = np.histogram(dist, bins=edges)
    probs = np.diff(distance_cdf(edges, geo))
    return _gof_check("interferer_distance_density", _chi2_pvalue(counts, probs), trials)


def _frequency_check(band, trials, seed) -> ValidationCheck:
    rng = _rng(seed, _NS_SCENARIO, 2)
    freq = band.f_s + (band.f_e - band.f_s) * rng.random(trials)
    omega = np.abs(freq - band.f_0)
    near, far = band.offset_edges
    interior = np.linspace(0.0, far, 33)
    edges = np.unique(np.concatenate((interior, [near])))
    counts, _ = np.histogram(omega, bins=edges)
    # near is an edge, so the density is constant on every bin
    probs = frequency_offset_pdf(0.5 * (edges[:-1] + edges[1:]), band) * np.diff(edges)
    return _gof_check("frequency_offset_density", _chi2_pvalue(counts, probs), trials)


def sample_nonblocked_counts(
    channel: ChannelConfig, p_b: float, trials: int, seed: int
) -> np.ndarray:
    """Per-trial counts of active non-blocked candidates (Bernoulli thinning)."""
    rng = _rng(seed, _NS_COUNT)
    thin = channel.p * (1.0 - p_b)
    counts = np.empty(trials, dtype=np.int64)
    # chunked so the Bernoulli matrix never exceeds a few megabytes
    chunk = max(1, (1 << 22) // max(channel.n, 1))
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        if channel.n:
            counts[done:done + take] = (rng.random((take, channel.n)) < thin).sum(axis=1)
        else:
            counts[done:done + take] = 0
        done += take
    return counts


def _count_check(channel, p_b, trials, seed) -> ValidationCheck:
    k = sample_nonblocked_counts(channel, p_b, trials, seed)
    law = nonblocked_count_distribution(channel.n, channel.p, p_b)
    support = np.arange(channel.n + 1)
    pmf = law.pmf(support)
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
        note="total variation vs Binomial(n, p*(1-p_b)) with the analytic p_b "
             "injected; tolerance = max(1%, twice the sampling-noise expectation)",
    )


def _mean_power_check(channel, geo, band, model, noise, p_b, trials, seed, workers) -> ValidationCheck:
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


def _h0_check(noise, trials, seed) -> ValidationCheck:
    from scipy import stats

    samples = sample_h0_power(noise, trials, seed)
    res = stats.kstest(samples, lambda y: detector.h0_cdf(y, noise))
    return _gof_check("noise_power_distribution", res.pvalue, trials)


def _false_alarm_checks(noise, trials, seed, betas) -> list[ValidationCheck]:
    h0 = sample_h0_power(noise, trials, seed)
    out = []
    for beta in betas:
        eta = np_threshold(beta, noise)
        p_f = float(np.mean(h0 > eta))
        out.append(ValidationCheck(
            name=f"false_alarm_calibration_beta_{beta:g}", analytic=float(beta),
            empirical=p_f, tolerance=0.01, passed=abs(p_f - beta) <= 0.01,
            samples=trials,
        ))
    return out


def _geometric_gap_check(channel, geo, band, blockage_cfg, p_b, trials, seed) -> ValidationCheck:
    # cone-shadow trials cost ~2 ms each; an informational two-digit rate
    # estimate does not need more than this
    trials = min(trials, 2000)
    rng = _rng(seed, _NS_SCENARIO, 3)
    v0_xy = np.array([geo.v0_norm, 0.0])
    lam_obs = blockage_cfg.rho * math.pi * geo.radius**2
    blocked = 0
    total = 0
    for _ in range(trials):
        xy, _ = _draw_positions_with_exclusion(rng, channel.n, geo, v0_xy)
        n_obs = int(rng.poisson(lam_obs))
        obs_xy = _uniform_disk(rng, n_obs, geo.radius)
        obs_r = blockage_cfg.d_s + (blockage_cfg.d_e - blockage_cfg.d_s) * rng.random(n_obs)
        blocked += int(_blocked_mask(xy, obs_xy, obs_r, v0_xy, geo.theta).sum())
        total += channel.n
    rate = blocked / total if total else 0.0
    return ValidationCheck(
        name="geometric_blockage_gap", analytic=float(p_b), empirical=rate,
        tolerance=None, passed=True, samples=trials,
        note="informational: cone-shadow simulation vs the closed-form p_b, "
             "which is itself an approximation",
    )


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
    betas: Sequence[float] = (0.1, 0.5, 0.9),
) -> ValidationReport:
    """Bind every analytic quantity to an empirical estimate.

    Runs: distance-density and offset-density goodness of fit, the thinned
    count law in total variation, the mean received power, the noise-power
    distribution (KS), false-alarm calibration over a significance grid,
    and an informational geometric-vs-analytic blockage comparison.  A
    numerical failure aborts only its own check.
    """
    trials = int(trials)
    p_b = blockage_probability(blockage_cfg, geo).p_b
    checks: list[ValidationCheck] = []

    def guard(fn, *args):
        try:
            result = fn(*args)
        except numerics.NumericsError as exc:
            checks.append(ValidationCheck(
                name=fn.__name__.strip("_"), analytic=math.nan, empirical=math.nan,
                tolerance=0.0, passed=False, samples=0, note=f"failed: {exc}",
            ))
            return
        if isinstance(result, list):
            checks.extend(result)
        else:
            checks.append(result)

    guard(_distance_check, geo, trials, seed)
    guard(_frequency_check, band, trials, seed)
    guard(_count_check, channel, p_b, trials, seed)
    guard(_mean_power_check, channel, geo, band, model, noise, p_b, trials, seed, workers)
    guard(_h0_check, noise, trials, seed)
    guard(_false_alarm_checks, noise, trials, seed, tuple(betas))
    guard(_geometric_gap_check, channel, geo, band, blockage_cfg, p_b, trials, seed)
    return ValidationReport.from_checks(checks)
