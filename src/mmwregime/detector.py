"""Regime hypothesis test: densities, maximum-entropy fit, threshold, sweeps.

Under the noise-limited hypothesis the received power is the known signal
power phi plus squared Gaussian noise, a scaled chi-square with one degree
of freedom.  Under the interference-limited hypothesis the exact law is
only available through its MGF, so it is replaced by the maximum-entropy
density matching the first moment: a shifted exponential with rate lambda.
The likelihood ratio of the two densities feeds a Neyman-Pearson test whose
threshold is set by the significance level through an inverse-erf formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import numerics
from .blockage import BlockageConfig, GeometryConfig, blockage_probability
from .interference import ChannelConfig, mean_received_power
from .numerics import DomainError
from .spectral import BandConfig, SpectralModel

__all__ = [
    "NoiseConfig",
    "MeFit",
    "InfeasibleFitError",
    "FIT_MODES",
    "REGIME_COLUMNS",
    "thermal_noise_power",
    "h0_pdf",
    "h0_cdf",
    "fit_me_lambda",
    "h1_pdf",
    "lrt",
    "np_threshold",
    "detection_probability",
    "lrt_area",
    "roc_curve",
    "regime_map",
]

FIT_MODES = ("transcendental", "closed_form")

# the columns of a regime-map row, in the order regime_map.csv writes them
REGIME_COLUMNS = ("rho", "n", "v0_m", "p_b", "mean_y_w", "lambda", "eta_prime_w",
                  "p_d", "lrt_area", "verdict", "error")

NOISE_LIMITED = "noise_limited"
INTERFERENCE_LIMITED = "interference_limited"


class InfeasibleFitError(numerics.NumericsError):
    """The interference mean does not exceed the signal power; no rate fits."""


def thermal_noise_power(bandwidth_hz: float) -> float:
    """Thermal noise power in watts over a bandwidth, at the room-temperature
    floor of -174 dBm/Hz."""
    if bandwidth_hz <= 0.0:
        raise DomainError(f"bandwidth must be > 0, got {bandwidth_hz}")
    return 10.0 ** ((-174.0 + 10.0 * math.log10(bandwidth_hz) - 30.0) / 10.0)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise variance (= mean noise power, watts) and known signal power."""

    sigma2: float
    phi: float = 0.0

    def __post_init__(self):
        if not (self.sigma2 > 0.0):
            raise DomainError(f"sigma2 must be > 0, got {self.sigma2}")
        if not (self.phi >= 0.0):
            raise DomainError(f"phi must be >= 0, got {self.phi}")


@dataclass(frozen=True)
class MeFit:
    """Fitted shifted-exponential rate for the interference hypothesis."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise DomainError(f"lambda must be > 0, got {self.lam}")


# ---------------------------------------------------------------------------
# hypothesis densities
# ---------------------------------------------------------------------------

def h0_pdf(y, noise: NoiseConfig):
    """Noise-limited density of the received power (1/W).

    Scaled chi-square(1) shifted by phi; diverges integrably as y -> phi+
    and is zero at or below phi.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.zeros_like(y)
    pos = y > noise.phi
    u = (y[pos] - noise.phi) / (2.0 * noise.sigma2)
    out[pos] = np.exp(-u) / (math.gamma(0.5) * np.sqrt(2.0 * noise.sigma2 * (y[pos] - noise.phi)))
    return float(out[0]) if scalar else out


def h0_cdf(y, noise: NoiseConfig):
    """Noise-limited CDF: regularized lower incomplete gamma of order 1/2,
    P(1/2, u) = erf(sqrt(u)) with u = (y - phi) / (2 sigma2)."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.zeros_like(y)
    pos = y > noise.phi
    u = (y[pos] - noise.phi) / (2.0 * noise.sigma2)
    out[pos] = [math.erf(math.sqrt(v)) for v in u.tolist()]
    return float(out[0]) if scalar else out


def fit_me_lambda(mean_y: float, phi: float, mode: str = "transcendental") -> MeFit:
    """Rate of the maximum-entropy shifted exponential matching mean_y.

    mode "closed_form" uses the textbook solution lambda = 1/(mean_y - phi)
    of the entropy problem with normalization and first-moment constraints.
    mode "transcendental" instead solves the alternative matching condition
    (lambda*phi + 1)*exp(-lambda*phi) - mean_y*lambda^2 = 0, which reduces
    to lambda = 1/sqrt(mean_y) at phi = 0.  The two disagree in general;
    both are exposed so results can be compared.
    """
    if mode not in FIT_MODES:
        raise DomainError(f"mode must be one of {FIT_MODES}, got {mode!r}")
    if not math.isfinite(mean_y):
        raise numerics.NumericsError(f"mean received power {mean_y!r} W is not finite "
                                     "(past double range); no rate fits")
    if not (mean_y > phi):
        raise InfeasibleFitError(
            f"mean received power {mean_y!r} must exceed the signal power {phi!r} "
            "for an exponential tail to fit"
        )
    if mode == "closed_form":
        return MeFit(lam=1.0 / (mean_y - phi))

    def equation(lam):
        lp = lam * phi
        return (lp + 1.0) * math.exp(-lp) - mean_y * lam * lam

    # the equation falls in lam and crosses 0 below 1/sqrt(mean_y), where
    # mean_y*lam^2 reaches 1: each end of the power-scale bracket is moved
    # past that point where it would miss the root
    scale, root_scale = max(phi, mean_y - phi), 1.0 / math.sqrt(mean_y)
    lam = numerics.find_root(equation, min(1e-12 / scale, 0.5 * root_scale),
                             max(1e12 / scale, 2.0 * root_scale))
    return MeFit(lam=lam)


def h1_pdf(y, fit: MeFit, phi: float):
    """Interference-limited density: shifted exponential with rate fit.lam."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.zeros_like(y)
    pos = y >= phi
    out[pos] = fit.lam * np.exp(-fit.lam * (y[pos] - phi))
    return float(out[0]) if scalar else out


def lrt(y, fit: MeFit, noise: NoiseConfig):
    """Likelihood ratio of the interference density to the noise density.

    Closed form 2*Gamma(1/2)*sigma2*lambda * sqrt(u) * exp((1/(2 sigma2) -
    lambda)(y - phi)) with u = (y - phi)/(2 sigma2); tends to 0 as y ->
    phi+ because the noise density diverges there.  Requires y > phi.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if np.any(y <= noise.phi):
        raise DomainError(f"lrt requires y > phi = {noise.phi}")
    s2 = noise.sigma2
    shifted = y - noise.phi
    # past double range the ratio is inf, the honest value of an
    # overwhelming likelihood ratio, so numpy need not warn
    with np.errstate(over="ignore"):
        out = (
            2.0 * math.gamma(0.5) * s2 * fit.lam
            * np.sqrt(shifted / (2.0 * s2))
            * np.exp((1.0 / (2.0 * s2) - fit.lam) * shifted)
        )
    return float(out[0]) if scalar else out


def _erfcinv(beta: float) -> float:
    """z in [0, 28] with erfc(z) = beta, for 0 < beta < 1.

    Bisection of math.erfc down to adjacent doubles.  erfc(28) is 0 in
    double precision, so every positive beta, subnormals included, has its
    root inside the bracket and the result is finite; where erfc is flat at
    a subnormal beta, a z with erfc(z) == beta is returned.
    """
    return numerics.find_root(lambda z: math.erfc(z) - beta, 0.0, 28.0)


def np_threshold(beta_th: float, noise: NoiseConfig) -> float:
    """Power threshold with false-alarm probability exactly beta_th.

    eta' = 2*sigma2*(erf_inv(1 - beta))^2 + phi, evaluated through the
    complementary inverse so significance levels down to the smallest
    subnormal keep full precision and a finite threshold.  beta = 1
    collapses to phi; beta = 0 would be infinite and raises DomainError.
    """
    if not (0.0 < beta_th <= 1.0):
        raise DomainError(
            f"beta_th must be in (0, 1] (threshold infinite at 0), got {beta_th}"
        )
    if beta_th == 1.0:
        return noise.phi
    z = _erfcinv(beta_th)  # == erfinv(1 - beta_th)
    return 2.0 * noise.sigma2 * z * z + noise.phi


def detection_probability(fit: MeFit, eta_prime: float, phi: float) -> float:
    """Probability the interference hypothesis exceeds the threshold."""
    if eta_prime < phi:
        raise DomainError(f"eta_prime must be >= phi, got {eta_prime} < {phi}")
    return math.exp(-fit.lam * (eta_prime - phi))


def _gammainc_three_halves(x: float) -> float:
    """Regularized lower incomplete gamma P(3/2, x) for x > 0.

    erf(sqrt x) - 2 sqrt(x/pi) exp(-x), from P(a + 1, x) = P(a, x) -
    x^a exp(-x)/Gamma(a + 1) and P(1/2, x) = erf(sqrt x).  The difference
    cancels as x -> 0; lrt_area calls it only for x >= 1/2.
    """
    return math.erf(math.sqrt(x)) - 2.0 * math.sqrt(x / math.pi) * math.exp(-x)


def _dawson(u: float) -> float:
    """Dawson's integral D(u) = exp(-u^2) int_0^u exp(t^2) dt for u > 0.

    Below u = 6 the positive series exp(-u^2) sum u^(2n+1)/(n! (2n+1));
    from 6 on the asymptotic series (1/(2u)) sum (2n-1)!!/(2u^2)^n, cut
    before its terms stop shrinking.  Both are within 2e-15 of the true
    value on either side of the switch.
    """
    if u < 6.0:
        x = u * u
        term = total = u
        n = 0
        while term > 1e-17 * total:
            n += 1
            term *= x / n
            total += term / (2 * n + 1)
        return math.exp(-x) * total
    x = 0.5 / (u * u)
    term = total = 1.0
    n = 1
    while True:
        nxt = term * (2 * n - 1) * x
        if nxt >= term or nxt <= 1e-17 * total:
            return total / (2.0 * u)
        term = nxt
        total += term
        n += 1


def lrt_area(fit: MeFit, noise: NoiseConfig) -> float:
    """Area under the likelihood-ratio curve from phi up to y_max.

    A scalar summary of how strongly the interference hypothesis dominates:
    larger rate (weaker interference) shrinks it.  The window is fixed at
    y_max = phi + 20*max(2 sigma2, 1/lam), twenty times the wider of the two
    hypothesis scales, past which the integrand either decays
    (lam > 1/(2 sigma2)) or the window already dominates the value.

    Closed form in log space.  With x = y - phi, X = y_max - phi,
    k = 1/(2 sigma2) - lam and C = sqrt(2 pi sigma2) * lam the area is
    C * int_0^X sqrt(x) exp(k x) dx: Gamma(3/2) |k|^-3/2 P(3/2, |k| X) for
    k < 0, k^-3/2 exp(k X) (u - D(u)) with u = sqrt(k X) and D the Dawson
    function for k > 0, and X^3/2 sum_n (k X)^n / (n! (n + 3/2)) near
    k X = 0, where the other two cancel.  Returns inf past double range.
    """
    phi = noise.phi
    y_max = phi + 20.0 * max(2.0 * noise.sigma2, 1.0 / fit.lam)
    if not (y_max > phi):
        raise DomainError(f"the window phi + 20*max(2 sigma2, 1/lam) rounds to phi = {phi}")
    big_x = y_max - phi
    k = 0.5 / noise.sigma2 - fit.lam
    z = k * big_x
    log_c = 0.5 * math.log(2.0 * math.pi * noise.sigma2) + math.log(fit.lam)
    if abs(z) < 0.5:
        # 18 terms leave a remainder below 1e-20 of the sum
        series = sum(z**n / (math.factorial(n) * (n + 1.5)) for n in range(18))
        log_int = 1.5 * math.log(big_x) + math.log(series)
    elif k < 0.0:
        log_int = (math.lgamma(1.5) - 1.5 * math.log(-k)
                   + math.log(_gammainc_three_halves(-z)))
    else:
        u = math.sqrt(z)
        log_int = z - 1.5 * math.log(k) + math.log(u - _dawson(u))
    try:
        return math.exp(log_c + log_int)
    except OverflowError:
        return math.inf


def roc_curve(
    fit: MeFit, noise: NoiseConfig, betas: Sequence[float]
) -> list[tuple[float, float]]:
    """(false alarm, detection) pairs over a significance grid, sorted by P_F.

    By construction of the threshold the false-alarm probability equals the
    significance level itself, so the curve is parameterized directly.
    """
    pts = []
    for beta in betas:
        eta = np_threshold(beta, noise)
        pts.append((float(beta), detection_probability(fit, eta, noise.phi)))
    return sorted(pts)


def _location_p_b(blockage_cfg: BlockageConfig, geo: GeometryConfig):
    """p_b at the receiver geo places, or the NumericsError that stopped it."""
    try:
        return blockage_probability(blockage_cfg, geo).p_b
    except numerics.NumericsError as exc:
        return exc


def _regime_point(
    blockage_cfg: BlockageConfig,
    geo: GeometryConfig,
    p_b: float | numerics.NumericsError,
    channel: ChannelConfig,
    band: BandConfig,
    model: SpectralModel,
    noise: NoiseConfig,
    eta_prime: float,
    fit_mode: str,
) -> dict:
    """The regime-map row of the receiver geo places, keyed by REGIME_COLUMNS.

    rho, n and v0_m come from blockage_cfg, channel and geo, and p_b is
    _location_p_b's value there.  The values the chain did not reach are
    None, and error holds the reason of a failed point.
    """
    row = dict.fromkeys(REGIME_COLUMNS)
    row.update(rho=blockage_cfg.rho, n=channel.n, v0_m=geo.v0_norm)
    try:
        if isinstance(p_b, numerics.NumericsError):
            raise p_b
        row["p_b"] = p_b
        row["mean_y_w"] = mean_y = mean_received_power(
            noise.phi, row["p_b"], channel, geo, band, model
        )
        fit = fit_me_lambda(mean_y, noise.phi, fit_mode)
        p_d = detection_probability(fit, eta_prime, noise.phi)
        area = lrt_area(fit, noise)
    except numerics.NumericsError as exc:
        # no interference mean above the signal power is trivially noise-limited
        row["verdict"] = NOISE_LIMITED if isinstance(exc, InfeasibleFitError) else "error"
        row["error"] = str(exc)
        return row
    row.update({"lambda": fit.lam, "eta_prime_w": eta_prime, "p_d": p_d, "lrt_area": area,
                "verdict": INTERFERENCE_LIMITED if p_d > 0.5 else NOISE_LIMITED})
    return row


def regime_map(
    blockage_cfg: BlockageConfig,
    geo: GeometryConfig,
    channel: ChannelConfig,
    band: BandConfig,
    model: SpectralModel,
    noise: NoiseConfig,
    rho_list: Sequence[float],
    n_list: Sequence[int],
    v0_grid: Sequence[float],
    beta_th: float,
    fit_mode: str = "transcendental",
) -> list[dict]:
    """Every row of the regime map, in the order regime_map.csv writes them:
    rho outermost, then n, then v0, each in list order.  Each row is a dict
    keyed by REGIME_COLUMNS (see _regime_point).

    The lists replace blockage_cfg.rho, channel.n and geo.v0_norm; a v0
    outside [0, radius) raises DomainError.  Each point is
    interference-limited when P_D > 1/2 at the threshold of beta_th, which
    is computed once (an invalid beta_th raises DomainError), and p_b once
    per (rho, v0).  An infeasible fit is noise-limited with its reason in
    the error column; any other numerical failure is an "error" row.
    """
    geos = [replace(geo, v0_norm=float(v)) for v in v0_grid]
    eta_prime = np_threshold(beta_th, noise)
    rows = []
    for cfg in (replace(blockage_cfg, rho=rho) for rho in rho_list):
        located = [(g, _location_p_b(cfg, g)) for g in geos]  # before the n loop
        rows += [_regime_point(cfg, g, p_b, replace(channel, n=n), band, model, noise,
                               eta_prime, fit_mode)
                 for n in n_list for g, p_b in located]
    return rows
