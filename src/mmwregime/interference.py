"""Aggregate interference-power statistics via moment generating functions.

The received power from one interferer is q * h * ell^(-alpha) * Upsilon(omega)
with Nakagami-m power fading h (unit-mean Gamma), random position and random
spectral offset.  The position follows the disk-distance law conditioned on
ell >= eps_min, the law the Monte-Carlo oracle samples when it redraws
interferers inside the exclusion radius; every pathloss quantity here takes
its lower limit and its normalisation from that one law.

The fading averages out in closed form, (1 - s*x/m)^(-m) for the power
x = q*ell^(-alpha)*Upsilon before fading, which leaves the single-interferer
MGF as a weighted sum over atoms of x: the distance nodes of the one fixed
rule in numerics on each branch of the distance law, crossed with the
overlap table's offset rule, one node set weighted by the offset law.  The
pathloss moments kappa_n are closed form on the near branch and take the
fixed rule on the arccos tail; the overlap moments gamma_n take the offset
rule.  Thinning by occupancy and blockage then lifts the MGF to the
network.  The mean needs no transform: it is the product of the first
pathloss moment kappa_1 and overlap moment gamma_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .blockage import GeometryConfig, distance_cdf, distance_pdf
from .numerics import DomainError
from .spectral import BandConfig, SpectralModel, upsilon_table

__all__ = [
    "ChannelConfig",
    "kappa_n",
    "gamma_n",
    "interferer_power_mgf",
    "aggregate_mgf",
    "mean_interferer_power",
    "mean_received_power",
    "dbm_to_watts",
]

def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ChannelConfig:
    """Per-interferer channel and population parameters.

    alpha: pathloss exponent.
    m: Nakagami shape of the small-scale fading (power gain ~ Gamma(m, 1/m)).
    q: transmit power of every interfering AP, in watts.
    n: number of candidate interfering APs.
    p: occupancy probability of each candidate (space-frequency slot busy).
    """

    alpha: float
    m: float
    q: float
    n: int
    p: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not (self.m >= 0.5):
            raise DomainError(f"Nakagami shape m must be >= 0.5, got {self.m}")
        if not (self.q > 0.0):
            raise DomainError(f"q must be > 0 watts, got {self.q}")
        if self.n < 0:
            raise DomainError(f"n must be >= 0, got {self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"p must be in [0, 1], got {self.p}")


# ---------------------------------------------------------------------------
# the conditioned distance law and its pathloss moments kappa_n
# ---------------------------------------------------------------------------

def _distance_law(geo: GeometryConfig) -> tuple[list, float]:
    """Branch edges and mass of the disk-distance law conditioned on ell >= eps_min.

    The edges run from eps_min through the branch point R - v0 (where
    distance_pdf turns from 2*ell/R^2 to its arccos tail) to R + v0; the
    mass P(ell >= eps_min) = 1 - F(eps_min) normalises them.
    """
    R, v, eps = geo.radius, geo.v0_norm, geo.eps_min
    edges = [eps] + sorted({e for e in (R - v, R + v) if e > eps})
    return edges, 1.0 - distance_cdf(eps, geo)


def kappa_n(n: int, geo: GeometryConfig, alpha: float) -> float:
    """n-th pathloss moment of the distance law conditioned on ell >= eps_min.

    Scaled so that E[ell^(-n*alpha) | ell >= eps_min] = 2*kappa_n / R^2,
    which keeps kappa_0 = R^2 / 2: the integral of ell^(-n*alpha) against
    distance_pdf from eps_min, divided by P(ell >= eps_min), times R^2/2.
    On the near branch (density 2*ell/R^2, up to hi = max(eps_min, R - v0))
    that integral times R^2/2 is (hi^p - eps^p)/p with p = 2 - n*alpha, or
    log(hi/eps) at p = 0; the arccos tail out to R + v0 takes the fixed rule
    of numerics.integrate.
    """
    if n < 0:
        raise DomainError(f"moment order n must be >= 0, got {n}")
    R, v, eps = geo.radius, geo.v0_norm, geo.eps_min
    hi = max(eps, R - v)
    p = 2.0 - n * alpha
    log_ratio = math.log(hi / eps)
    # expm1 keeps (hi^p - eps^p)/p accurate as p -> 0
    near = eps**p * (math.expm1(p * log_ratio) / p if p else log_ratio)
    far = numerics.integrate(lambda l: l ** (-n * alpha) * distance_pdf(l, geo), hi, R + v)
    _, mass = _distance_law(geo)
    return (near + 0.5 * R**2 * far) / mass


# ---------------------------------------------------------------------------
# overlap moments gamma_n
# ---------------------------------------------------------------------------

def gamma_n(n: int, band: BandConfig, model: SpectralModel) -> float:
    """n-th overlap moment (Hz): (f_e - f_s) * E[Upsilon^n] over the offset law.

    Order 0 is the band span; higher orders take the overlap table's offset
    rule, which stops at the cutoff, past which Upsilon is numerically zero.
    """
    if n < 0:
        raise DomainError(f"moment order n must be >= 0, got {n}")
    if n == 0:
        return band.f_e - band.f_s
    table = upsilon_table(band, model)
    return float(table.rule_weights @ table.rule_values**n)


# ---------------------------------------------------------------------------
# the single-interferer law as weighted atoms, and its MGF
# ---------------------------------------------------------------------------

def _power_atoms(
    cfg: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
) -> tuple[np.ndarray, np.ndarray]:
    """One interferer's received power before fading, as atoms x with weights w.

    x = q * ell^(-alpha) * Upsilon on the fixed rule's distance nodes on
    each branch of the conditioned distance law (numerics.rule_piecewise)
    crossed with the overlap table's offset rule; w is the distance weight
    distance_pdf / mass times the rule weight, times the offset rule's
    weight over the band span: the offset density times the rule weight.
    The rest of the mass, 1 - sum(w), sits at x = 0: offsets past the
    overlap cutoff, the ones the simulator's in-band count leaves out.
    """
    edges, mass = _distance_law(geo)
    ell, w_ell = numerics.rule_piecewise(edges)
    table = upsilon_table(band, model)
    x = np.outer(cfg.q * ell**-cfg.alpha, table.rule_values)
    w = np.outer(distance_pdf(ell, geo) / mass * w_ell, table.rule_weights / (band.f_e - band.f_s))
    return x.ravel(), w.ravel()


def interferer_power_mgf(
    s: float,
    cfg: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
) -> float:
    """MGF of a single interferer's received power, E[exp(s * P)].

    The Nakagami MGF (1 - s*x/m)^(-m) averaged over the atoms x of
    _power_atoms, summed as 1 + sum(w * expm1(-m * log1p(-s*x/m))): the
    atom at x = 0 adds nothing, M(0) = 1 exactly, and small |s| keeps full
    relative precision in 1 - M.  Finite for every s <= 0; for s > 0 the
    transform is infinite from s = m / (q * eps_min^-alpha * max Upsilon)
    on, and DomainError is raised there.
    """
    s = float(s)
    table = upsilon_table(band, model)
    if s > 0.0 and s >= cfg.m / (cfg.q * geo.eps_min ** -cfg.alpha * table.peak):
        raise DomainError(
            f"the interferer-power MGF is infinite at s = {s!r}: s must stay below "
            f"m / (q * eps_min^-alpha * max Upsilon)"
        )
    x, w = _power_atoms(cfg, geo, band, model)
    return 1.0 + float(w @ np.expm1(-cfg.m * np.log1p(-s / cfg.m * x)))


def aggregate_mgf(
    s: float,
    phi: float,
    p_b: float,
    cfg: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
) -> float:
    """MGF of the total received power under the interference hypothesis.

    exp(phi*s) times the thinned single-AP MGF raised to the candidate
    count: each of the n candidates contributes independently with
    probability p*(1 - p_b).  When that probability is zero (idle network
    or total blockage) the result is exactly exp(phi*s) and the transform
    is never evaluated.  Returns inf past double range.
    """
    s = float(s)
    if not (0.0 <= p_b <= 1.0):
        raise DomainError(f"p_b must be in [0, 1], got {p_b}")
    if s == 0.0:
        return 1.0
    thin = cfg.p * (1.0 - p_b)
    idle = thin == 0.0 or cfg.n == 0
    m_p = 1.0 if idle else interferer_power_mgf(s, cfg, geo, band, model)
    try:
        return math.exp(phi * s) * (1.0 - thin + thin * m_p) ** cfg.n
    except OverflowError:
        return math.inf


def mean_interferer_power(
    cfg: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
) -> float:
    """Mean received power from one active, non-blocked interferer (watts).

    Closed form: the unit-mean fading drops out and
    E[P] = q * E[Upsilon] * E[ell^-alpha | ell >= eps_min].
    """
    k1 = kappa_n(1, geo, cfg.alpha)
    g1 = gamma_n(1, band, model)
    return cfg.q * 2.0 * g1 * k1 / (geo.radius**2 * (band.f_e - band.f_s))


def mean_received_power(
    phi: float,
    p_b: float,
    cfg: ChannelConfig,
    geo: GeometryConfig,
    band: BandConfig,
    model: SpectralModel,
) -> float:
    """Mean total received power under the interference hypothesis (watts).

    phi plus the expected count of active non-blocked interferers times the
    per-interferer mean; equals the derivative of aggregate_mgf at s = 0
    without any numerical differentiation.
    """
    if phi < 0.0:
        raise DomainError(f"phi must be >= 0, got {phi}")
    if not (0.0 <= p_b <= 1.0):
        raise DomainError(f"p_b must be in [0, 1], got {p_b}")
    if cfg.n == 0 or cfg.p == 0.0 or p_b == 1.0:
        return phi
    return phi + cfg.n * cfg.p * (1.0 - p_b) * mean_interferer_power(cfg, geo, band, model)
