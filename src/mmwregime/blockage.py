"""Line-of-sight blockage statistics for cone-shaped mmWave beams.

An interferer illuminates the receiver through a radiation cone (apex at
the interferer, half-width theta).  Obstacles are disks from a Poisson
field with density rho and uniform radius in [d_s, d_e]; each one in the
cone casts a shadow of length 2*d*ell/r on the cone base.  A link goes
down either because a single obstacle near the apex out-sizes the local
cone cross-section, or because accumulated partial shadows cover the base.
This module evaluates the closed-form probability of each mechanism and
combines them into a per-interferer blockage probability p_b.  The mean
partial shadow E[S] that the second mechanism needs is one quadrature over
the link length: its integrals over the obstacle's axial position and
radius are elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numerics
from .numerics import DomainError, Tolerance

__all__ = [
    "GeometryConfig",
    "BlockageConfig",
    "BlockageResult",
    "NonblockedCount",
    "COMBINE_MODES",
    "distance_pdf",
    "distance_cdf",
    "mean_distance",
    "mean_partial_blockage",
    "blockage_probability",
    "nonblocked_count_distribution",
]

COMBINE_MODES = ("reciprocal_length", "length_weighted")


@dataclass(frozen=True)
class GeometryConfig:
    """Disk deployment geometry seen from the reference receiver.

    radius: deployment disk radius R in meters, centered at the origin.
    v0_norm: receiver distance from the origin, 0 <= v0_norm < R.
    theta: beam half-width in radians (the full beamwidth is 2*theta).
    eps_min: exclusion radius around the receiver; interferers closer than
        this are excluded so that pathloss moments stay finite.
    """

    radius: float
    v0_norm: float
    theta: float
    eps_min: float = 0.1

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise DomainError(f"radius must be > 0, got {self.radius}")
        if not (0.0 <= self.v0_norm < self.radius):
            raise DomainError(
                f"v0_norm must be in [0, radius), got {self.v0_norm} with radius {self.radius}"
            )
        if not (0.0 < self.theta < 0.5 * math.pi):
            raise DomainError(f"theta must be in (0, pi/2), got {self.theta}")
        if not (0.0 < self.eps_min < self.radius):
            raise DomainError(f"eps_min must be in (0, radius), got {self.eps_min}")


@dataclass(frozen=True)
class BlockageConfig:
    """Obstacle field parameters and the p_b combination convention.

    rho: obstacle density per square meter (Poisson field).
    d_s, d_e: minimum / maximum obstacle radius in meters (uniform).
    mode: how the full-block and cumulative-shadow probabilities are merged;
        "reciprocal_length" weights each term by the reciprocal of its
        characteristic length (then clamps to [0, 1]), "length_weighted"
        averages the two with dimensionless length fractions of the mean
        path.
    """

    rho: float
    d_s: float
    d_e: float
    mode: str = "length_weighted"

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise DomainError(f"rho must be >= 0, got {self.rho}")
        if not (0.0 < self.d_s <= self.d_e):
            raise DomainError(
                f"obstacle radii must satisfy 0 < d_s <= d_e, got [{self.d_s}, {self.d_e}]"
            )
        if self.mode not in COMBINE_MODES:
            raise DomainError(f"mode must be one of {COMBINE_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class BlockageResult:
    """Blockage probability with its ingredients.

    p_b1: probability a single obstacle fully blocks the cone near the apex.
    p_b2: probability accumulated partial shadows cover the cone base.
    delta: mean shadow budget 2*rho*E[ell]*tan(theta) (dimensionless).
    mean_ell: mean interferer-receiver distance E[ell] in meters.
    mean_shadow: mean single-obstacle shadow length E[S] in meters.
    p_b: combined probability, clamped to [0, 1].
    clamped: True when the raw combination fell outside [0, 1].
    """

    p_b1: float
    p_b2: float
    delta: float
    mean_ell: float
    mean_shadow: float
    p_b: float
    clamped: bool = False


def distance_pdf(ell, geo: GeometryConfig):
    """Density of the distance from a uniform point in the disk to the receiver.

    Two branches: 2*ell/R^2 while the circle of radius ell around the
    receiver stays inside the deployment disk, and an arccos-weighted tail
    out to R + v0_norm once it pokes out.  Zero outside (0, R + v0_norm].
    Accepts scalars or arrays.
    """
    l = np.asarray(ell, dtype=float)
    scalar = l.ndim == 0
    l = np.atleast_1d(l)
    R = geo.radius
    v = geo.v0_norm
    out = np.zeros_like(l)
    near = (l > 0.0) & (l <= R - v)
    out[near] = 2.0 * l[near] / (R * R)
    if v > 0.0:
        far = (l > R - v) & (l <= R + v)
        lf = l[far]
        # rounding can push the arccos argument a hair outside [-1, 1]
        arg = np.clip((v * v - R * R + lf * lf) / (2.0 * lf * v), -1.0, 1.0)
        out[far] = 2.0 * lf * np.arccos(arg) / (math.pi * R * R)
    return float(out[0]) if scalar else out


def distance_cdf(x, geo: GeometryConfig):
    """P(ell <= x): the area of the deployment disk within x of the receiver.

    x^2/R^2 up to R - v0_norm, 1 from R + v0_norm on, and in between the
    lens where the circle of radius x around the receiver overlaps the
    deployment disk, divided by pi*R^2.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    R, v = geo.radius, geo.v0_norm
    out = np.clip(x / R, 0.0, 1.0) ** 2
    out[x >= R + v] = 1.0
    # the lens is empty at v0_norm = 0, so nothing below divides by zero
    lens = (x > R - v) & (x < R + v)
    xl = x[lens]
    # rounding can push the arccos arguments a hair outside [-1, 1]
    a = np.arccos(np.clip((v * v + xl * xl - R * R) / (2.0 * v * xl), -1.0, 1.0))
    b = np.arccos(np.clip((v * v + R * R - xl * xl) / (2.0 * v * R), -1.0, 1.0))
    kite = np.sqrt(np.maximum((R - v + xl) * (v + xl - R) * (v - xl + R) * (v + xl + R), 0.0))
    out[lens] = (xl * xl * a + R * R * b - 0.5 * kite) / (math.pi * R * R)
    return float(out[0]) if scalar else out


def mean_distance(geo: GeometryConfig) -> float:
    """E[ell]: mean distance from a uniform interferer to the receiver.

    In closed form through the complete elliptic integrals of parameter
    m = t^2, t = v0_norm/R: (4R/(9 pi)) * [(7 + m) E(m) - 4(1 - m) K(m)],
    which is 2R/3 for a centered receiver and tends to 32R/(9 pi) as the
    receiver approaches the rim.
    """
    R = geo.radius
    m = (geo.v0_norm / R) ** 2
    e, k = numerics.elliptic_ek(m)
    return 4.0 * R / (9.0 * math.pi) * ((7.0 + m) * e - 4.0 * (1.0 - m) * k)


# E[S] is one quadrature of a piecewise-smooth integrand split at its
# kinks; rel 1e-9 leaves the shipped p_b values unchanged.
_SHADOW_TOL = Tolerance(rel=1e-9, abs=1e-12, max_iter=2000)


@lru_cache(maxsize=512)
def _mean_partial_blockage_cached(d_s: float, d_e: float, geo: GeometryConfig) -> float:
    # an obstacle of radius d fully shades the cone for axial r < c*d; the
    # r-integral of 2*d*ell/r against f(r | ell) = 2r/(ell^2 - (c*d)^2) on
    # [c*d, ell] is 4*d*ell/(ell + c*d)
    c = 0.5 / math.tan(geo.theta)
    lo = c * d_s
    upper = geo.radius + geo.v0_norm
    if lo >= upper:
        return 0.0

    if d_e == d_s:
        def shadow_given_ell(l):
            return np.where(l > lo, 4.0 * d_s * l / (l + lo), 0.0)
    else:
        # the d-integral over [d_s, min(d_e, ell/c)], averaged over d
        def shadow_given_ell(l):
            span = np.clip(l / c, d_s, d_e) - d_s
            x = c * span / (l + lo)
            return 4.0 * l * (span / c - l / (c * c) * np.log1p(x)) / (d_e - d_s)

    def integrand(l):
        return distance_pdf(l, geo) * shadow_given_ell(l)

    # split at the kink of the d-range (ell = c*d_e) and the branch point
    edges = {lo, c * d_e, geo.radius - geo.v0_norm, upper}
    edges = sorted(e for e in edges if lo <= e <= upper)
    return numerics.integrate_piecewise(integrand, edges, _SHADOW_TOL)


def mean_partial_blockage(cfg: BlockageConfig, geo: GeometryConfig) -> float:
    """E[S]: mean shadow length 2*d*ell/r cast on the cone base.

    Averages over obstacle radius d (uniform), link length ell (disk
    distance density, restricted to ell > d/(2 tan theta)) and the
    obstacle's axial position r (area-weighted within the cone).  The r- and
    d-integrals are elementary, so E[S] is one quadrature over ell.  Result
    is independent of rho and of the combination mode.
    """
    return _mean_partial_blockage_cached(cfg.d_s, cfg.d_e, geo)


def blockage_probability(cfg: BlockageConfig, geo: GeometryConfig) -> BlockageResult:
    """Per-interferer blockage probability p_b and its ingredients.

    p_b1 is the chance that at least one obstacle sits close enough to the
    apex to out-size the cone (an erf expression in rho, theta and the
    radius range).  p_b2 is the chance that the accumulated shadow budget
    delta spread over obstacles of mean shadow E[S] covers the base (a
    Poisson probability evaluated at a ceiling-rounded count).  The two are
    combined according to cfg.mode; see BlockageConfig.
    """
    tan_t = math.tan(geo.theta)
    mean_ell = mean_distance(geo)
    mean_shadow = mean_partial_blockage(cfg, geo)
    delta = 2.0 * cfg.rho * mean_ell * tan_t

    if cfg.rho == 0.0:
        return BlockageResult(0.0, 0.0, 0.0, mean_ell, mean_shadow, 0.0, False)

    t = math.sqrt(cfg.rho / (4.0 * tan_t))
    if cfg.d_e > cfg.d_s:
        span = cfg.d_e - cfg.d_s
        bracket = float(numerics.erf(cfg.d_e * t)) - float(numerics.erf(cfg.d_s * t))
        p_b1 = 1.0 - math.sqrt(math.pi * tan_t / cfg.rho) / span * bracket
    else:
        # degenerate uniform radius: the erf difference quotient collapses
        p_b1 = 1.0 - math.exp(-cfg.rho * cfg.d_s * cfg.d_s / (4.0 * tan_t))
    p_b1 = min(max(p_b1, 0.0), 1.0)

    if mean_shadow > 0.0:
        # expm1 keeps the obstacle-count ceiling stable as rho*E[S] -> 0
        k = math.ceil(delta / math.expm1(cfg.rho * mean_shadow))
        log_p_b2 = k * math.log1p(delta) - (1.0 + delta) - numerics.log_gamma(k + 1.0)
        p_b2 = min(math.exp(log_p_b2), 1.0)
    else:
        p_b2 = 0.0  # every obstacle in reach out-sizes the cone: no partial shadow

    length_apex = 0.5 * (cfg.d_s + cfg.d_e) / (2.0 * tan_t)
    if cfg.mode == "reciprocal_length":
        raw = p_b1 / length_apex + p_b2 / (mean_ell - length_apex)
    else:
        l1 = min(length_apex, mean_ell)
        raw = (l1 * p_b1 + (mean_ell - l1) * p_b2) / mean_ell
    p_b = min(max(raw, 0.0), 1.0)
    return BlockageResult(p_b1, p_b2, delta, mean_ell, mean_shadow, p_b, p_b != raw)


@dataclass(frozen=True)
class NonblockedCount:
    """Binomial law of the number of active, non-blocked interferers."""

    n: int
    success_prob: float

    def pgf(self, z):
        """Probability generating function E[z^K]."""
        q = self.success_prob
        return (1.0 - q + q * np.asarray(z, dtype=float)) ** self.n

    def pmf(self, k):
        """P(K = k), evaluated in log space to stay finite for large n."""
        k = np.asarray(k)
        kf = k.astype(float)
        q = self.success_prob
        if q == 0.0:
            out = np.where(k == 0, 1.0, 0.0)
        elif q == 1.0:
            out = np.where(k == self.n, 1.0, 0.0)
        else:
            log_choose = (
                numerics.log_gamma(self.n + 1.0)
                - numerics.log_gamma(kf + 1.0)
                - numerics.log_gamma(self.n - kf + 1.0)
            )
            out = np.exp(log_choose + kf * math.log(q) + (self.n - kf) * math.log1p(-q))
        out = np.where((k >= 0) & (k <= self.n), out, 0.0)
        return float(out) if out.ndim == 0 else out


def nonblocked_count_distribution(n: int, p: float, p_b: float) -> NonblockedCount:
    """Thin N candidate interferers by occupancy p and survival (1 - p_b).

    Each candidate transmits with probability p and, independently, escapes
    blockage with probability 1 - p_b, so the active non-blocked count is
    Binomial(n, p * (1 - p_b)).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must be in [0, 1], got {p}")
    if not (0.0 <= p_b <= 1.0):
        raise DomainError(f"p_b must be in [0, 1], got {p_b}")
    return NonblockedCount(n=int(n), success_prob=p * (1.0 - p_b))
