"""Frequency-domain machinery: offset densities and spectral overlap.

Interferers land at uniform frequencies in the operating band, so the
spectral distance to the receiver has a simple two-slab density.  The
fraction of an interferer's power that survives the receiver's matched
filter is the overlap functional Upsilon(omega): the interferer PSD,
shifted by the offset omega, integrated against the filter's squared
magnitude over the receiver window.  PSDs are unit-mass and the filter is
peak-normalized, so Upsilon is a dimensionless capture fraction in [0, 1]
and the transmit power carries all power units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import numerics
from .numerics import DomainError

__all__ = [
    "BandConfig",
    "GaussianPsd",
    "RectangularPsd",
    "RaisedCosineFilter",
    "SpectralModel",
    "frequency_offset_pdf",
    "psd_value",
    "filter_gain_sq",
    "upsilon",
    "UpsilonTable",
    "upsilon_table",
]


@dataclass(frozen=True)
class BandConfig:
    """Operating band, receiver tuning and filter window width (all Hz)."""

    f_s: float
    f_e: float
    f_0: float
    bandwidth: float

    def __post_init__(self):
        if not (self.f_s < self.f_e):
            raise DomainError(f"band edges must satisfy f_s < f_e, got [{self.f_s}, {self.f_e}]")
        if not (self.f_s <= self.f_0 <= self.f_e):
            raise DomainError(
                f"f_0 must lie inside [f_s, f_e], got {self.f_0} outside [{self.f_s}, {self.f_e}]"
            )
        if not (self.bandwidth > 0.0):
            raise DomainError(f"bandwidth must be > 0, got {self.bandwidth}")

    @property
    def offset_edges(self) -> tuple[float, float]:
        """(min, max) of the absolute band-edge offsets from f_0."""
        w_e = abs(self.f_e - self.f_0)
        w_s = abs(self.f_s - self.f_0)
        return (min(w_e, w_s), max(w_e, w_s))


@dataclass(frozen=True)
class GaussianPsd:
    """Unit-mass Gaussian power spectral density with standard deviation std (Hz)."""

    std: float

    def __post_init__(self):
        if not (self.std > 0.0):
            raise DomainError(f"Gaussian PSD std must be > 0, got {self.std}")


@dataclass(frozen=True)
class RectangularPsd:
    """Unit-mass rectangular power spectral density of total width (Hz)."""

    width: float

    def __post_init__(self):
        if not (self.width > 0.0):
            raise DomainError(f"rectangular PSD width must be > 0, got {self.width}")


@dataclass(frozen=True)
class RaisedCosineFilter:
    """Raised-cosine receive filter, peak-normalized (|H(0)|^2 = 1).

    width is the two-sided brick-wall-equivalent bandwidth; rolloff 0 is an
    exact rectangle on [-width/2, width/2], rolloff in (0, 1] tapers the
    amplitude with the standard cosine flank out to (1+rolloff)*width/2.
    """

    rolloff: float
    width: float

    def __post_init__(self):
        if not (0.0 <= self.rolloff <= 1.0):
            raise DomainError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if not (self.width > 0.0):
            raise DomainError(f"filter width must be > 0, got {self.width}")


Psd = Union[GaussianPsd, RectangularPsd]


@dataclass(frozen=True)
class SpectralModel:
    """Interferer PSD shape paired with the receiver filter shape."""

    psd: Psd
    filter: RaisedCosineFilter


def frequency_offset_pdf(omega, band: BandConfig):
    """Density of the absolute spectral distance |f_i - f_0| (1/Hz).

    A uniform frequency in [f_s, f_e] folds onto two slabs around the
    receiver: both signs of the offset exist below the nearer band edge
    (density 2/(f_e-f_s)), only one beyond it (density 1/(f_e-f_s)).
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    near, far = band.offset_edges
    span = band.f_e - band.f_s
    out = np.zeros_like(w)
    out[(w > 0.0) & (w <= near)] = 2.0 / span
    out[(w > near) & (w <= far)] = 1.0 / span
    return float(out[0]) if scalar else out


def psd_value(psd: Psd, x):
    """Evaluate a unit-mass PSD shape at frequency offset x (Hz)."""
    x = np.asarray(x, dtype=float)
    if isinstance(psd, GaussianPsd):
        s = psd.std
        return np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    if isinstance(psd, RectangularPsd):
        return np.where(np.abs(x) <= 0.5 * psd.width, 1.0 / psd.width, 0.0)
    raise DomainError(f"unsupported PSD shape: {psd!r}")


def filter_gain_sq(filt: RaisedCosineFilter, f):
    """|H(f)|^2 of the raised-cosine filter, peak-normalized."""
    f = np.asarray(f, dtype=float)
    af = np.abs(f)
    half = 0.5 * filt.width
    if filt.rolloff == 0.0:
        return np.where(af <= half, 1.0, 0.0)
    flat = (1.0 - filt.rolloff) * half
    stop = (1.0 + filt.rolloff) * half
    amp = np.zeros_like(af)
    amp[af <= flat] = 1.0
    taper = (af > flat) & (af <= stop)
    amp[taper] = 0.5 * (
        1.0 + np.cos(math.pi * (af[taper] - flat) / (filt.rolloff * filt.width))
    )
    return amp * amp


def _psd_halfwidth(psd: Psd) -> float:
    # beyond this offset the PSD mass is negligible at double precision
    if isinstance(psd, GaussianPsd):
        return 12.0 * psd.std
    return 0.5 * psd.width


def _psd_breakpoints(psd: Psd, center: float) -> list[float]:
    if isinstance(psd, GaussianPsd):
        # +-12 std too: a wide panel reaching only to +-4 std can put no node
        # in the tail and report zero error while missing its mass
        s = psd.std
        return [center - 12.0 * s, center - 4.0 * s, center,
                center + 4.0 * s, center + 12.0 * s]
    h = 0.5 * psd.width
    return [center - h, center + h]


def _brick_wall_upsilon(omega, band: BandConfig, model: SpectralModel) -> np.ndarray:
    """Upsilon at rolloff 0: the PSD mass inside [-h, h], h = min(W, width)/2."""
    w = np.abs(np.asarray(omega, dtype=float))
    h = 0.5 * min(band.bandwidth, model.filter.width)
    psd = model.psd
    if isinstance(psd, GaussianPsd):
        s = math.sqrt(2.0) * psd.std
        val = 0.5 * (numerics.erf((h + w) / s) + numerics.erf((h - w) / s))
    elif isinstance(psd, RectangularPsd):
        half = 0.5 * psd.width
        val = np.maximum(np.minimum(w + half, h) - np.maximum(w - half, -h), 0.0) / psd.width
    else:
        raise DomainError(f"unsupported PSD shape: {psd!r}")
    return np.clip(val, 0.0, 1.0)


def upsilon(omega, band: BandConfig, model: SpectralModel) -> float:
    """Spectral capture fraction of an interferer offset by omega (Hz).

    Integrates psd(u - omega) * |H(u)|^2 for u over the receiver window
    [-W/2, W/2] (baseband coordinates around f_0).  Even in omega; value in
    [0, 1] by the normalization conventions of this module.  A brick-wall
    filter (rolloff 0) takes the closed form, an erf difference for a
    Gaussian PSD and an interval overlap for a rectangular one; a tapered
    filter takes adaptive quadrature.
    """
    if model.filter.rolloff == 0.0:
        return float(_brick_wall_upsilon(omega, band, model))
    w = abs(float(omega))
    half_window = 0.5 * band.bandwidth
    flt = model.filter

    def integrand(u):
        return psd_value(model.psd, u - w) * filter_gain_sq(flt, u)

    # seed panel edges with every known kink so narrow features are never
    # stepped over by the first coarse panels
    edges = {-half_window, half_window}
    flat = (1.0 - flt.rolloff) * 0.5 * flt.width
    stop = (1.0 + flt.rolloff) * 0.5 * flt.width
    edges.update((-stop, -flat, flat, stop))
    edges.update(_psd_breakpoints(model.psd, w))
    pts = sorted(e for e in edges if -half_window <= e <= half_window)
    if pts[0] > -half_window:
        pts.insert(0, -half_window)
    if pts[-1] < half_window:
        pts.append(half_window)
    val = numerics.integrate_piecewise(integrand, pts)
    return min(max(val, 0.0), 1.0)


class UpsilonTable:
    """Dense overlap samples on [0, cutoff], shared by the MGF and simulation.

    The overlap decays to numerical zero beyond cutoff = (filter stop edge
    clipped to the window) + (PSD halfwidth); lookups past the grid return
    exactly 0.  Values are linear-interpolated, which keeps the table cheap
    to evaluate on millions of sampled offsets.  At rolloff 0 the samples
    come from the closed form in one array expression, otherwise from one
    quadrature per grid point.
    """

    def __init__(self, band: BandConfig, model: SpectralModel, points: int = 4097):
        stop = (1.0 + model.filter.rolloff) * 0.5 * model.filter.width
        cutoff = min(0.5 * band.bandwidth, stop) + _psd_halfwidth(model.psd)
        self.band = band
        self.model = model
        self.grid = np.linspace(0.0, cutoff, points)
        if model.filter.rolloff == 0.0:
            self.values = _brick_wall_upsilon(self.grid, band, model)
        else:
            self.values = np.array([upsilon(w, band, model) for w in self.grid])

    @property
    def cutoff(self) -> float:
        return float(self.grid[-1])

    def lookup(self, omega):
        """Interpolated Upsilon(|omega|); zero beyond the cutoff."""
        w = np.abs(np.asarray(omega, dtype=float))
        out = np.interp(w, self.grid, self.values, right=0.0)
        return float(out) if out.ndim == 0 else out

    def trapezoid(self, upper: float) -> tuple[np.ndarray, np.ndarray]:
        """Overlap samples on [0, min(upper, cutoff)] and their trapezoid weights (Hz)."""
        if upper <= 0.0:
            return np.empty(0), np.empty(0)
        g, v = self.grid, self.values
        if upper < g[-1]:
            idx = int(np.searchsorted(g, upper))
            xs = np.append(g[:idx], upper)
            ys = np.append(v[:idx], self.lookup(upper))
        else:
            xs, ys = g, v
        half_dx = 0.5 * np.diff(xs)
        return ys, np.append(half_dx, 0.0) + np.insert(half_dx, 0, 0.0)

    def power_integral(self, n: int, upper: float) -> float:
        """Integral of Upsilon^n over [0, min(upper, cutoff)] via the grid."""
        ys, weights = self.trapezoid(upper)
        return float(weights @ ys**n)


@lru_cache(maxsize=64)
def upsilon_table(band: BandConfig, model: SpectralModel, points: int = 4097) -> UpsilonTable:
    """Cached overlap table for a (band, model) pair."""
    return UpsilonTable(band, model, points)
