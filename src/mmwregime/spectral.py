"""Frequency-domain machinery: offset densities and spectral overlap.

Interferers land at uniform frequencies in the operating band, so the
spectral distance to the receiver has a simple two-slab density.  The
fraction of an interferer's power that survives the receiver's matched
filter is the overlap functional Upsilon(omega): the interferer PSD,
shifted by the offset omega, integrated against the filter's squared
magnitude over the receiver window.  PSDs are unit-mass and the filter is
peak-normalized, so Upsilon is a dimensionless capture fraction in [0, 1]
and the transmit power carries all power units.  Upsilon has a closed form
for every rolloff and both PSD shapes; the overlap table integrates it over
the offset law with the one fixed rule of numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .numerics import DomainError, rule_piecewise

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


def _gauss_mass(a, b):
    """0.5 * (erf(b) - erf(a)) element by element, for a <= b.

    Where both ends lie on one side of 0 the erf difference cancels, so an
    interval left of 0 is mirrored to the right and the mass is taken there
    as 0.5 * (erfc(a) - erfc(b)).
    """
    left = b <= 0.0
    a, b = np.where(left, -b, a), np.where(left, -a, b)
    tail = a >= 0.0
    out = np.empty(a.shape)
    out[tail] = [math.erfc(x) - math.erfc(y) for x, y in zip(a[tail].tolist(), b[tail].tolist())]
    out[~tail] = [math.erf(y) - math.erf(x) for x, y in zip(a[~tail].tolist(), b[~tail].tolist())]
    return 0.5 * out


def _overlap(omega, lo: float, hi: float, centre: float, freq: float, psd: Psd):
    """Integral of psd(u - omega) * cos(freq * (u - centre)) for u over [lo, hi]."""
    if isinstance(psd, GaussianPsd):
        s = math.sqrt(2.0) * psd.std
        if freq == 0.0:
            # the Gaussian mass on [lo, hi]
            return _gauss_mass((lo - omega) / s, (hi - omega) / s)
        # erf(x - iy) with y = freq*s/2, taken as exp(-y^2)*erf(x - iy) =
        # sign(x)*[exp(-y^2) - exp(-x^2 + 2ixy)*w(sign(x)*y + i|x|)] with the
        # Faddeeva function w, which stays finite for any freq*std.  Only the
        # cosine terms of a tapered filter get here, so scipy is imported
        # here rather than at package start-up
        from scipy import special

        y = 0.5 * freq * s

        def edge(u):
            x = (u - omega) / s
            sign = np.where(x < 0.0, -1.0, 1.0)
            tail = np.exp(-x * x + 1j * freq * (u - centre))
            tail *= special.wofz(sign * y + 1j * np.abs(x))
            return sign * (math.exp(-y * y) * np.exp(1j * freq * (omega - centre)) - tail)

        return 0.5 * (edge(hi) - edge(lo)).real
    if isinstance(psd, RectangularPsd):
        # overlap length times cos at its midpoint times sinc
        a = np.maximum(omega - 0.5 * psd.width, lo)
        b = np.minimum(omega + 0.5 * psd.width, hi)
        length = np.maximum(b - a, 0.0)
        cos_mid = np.cos(freq * (0.5 * (a + b) - centre))
        return length * cos_mid * np.sinc(freq * length / (2.0 * math.pi)) / psd.width
    raise DomainError(f"unsupported PSD shape: {psd!r}")


def upsilon(omega, band: BandConfig, model: SpectralModel):
    """Spectral capture fraction of an interferer offset by omega (Hz).

    The integral of psd(u - omega) * |H(u)|^2 for u over the receiver
    window [-W/2, W/2] (baseband coordinates around f_0), in closed form.
    |H|^2 is 1 on the flat part of the filter and cos^4(x/2) = 3/8 +
    cos(x)/2 + cos(2x)/8 on each taper, x = pi*(|u| - flat)/(stop - flat),
    so Upsilon is a weighted sum of integrals of the PSD against a cosine
    over at most three intervals, each clipped to the window.  For a
    Gaussian PSD each constant term is an erf difference and each cosine
    term of a taper a Faddeeva (complex erf) difference; for a rectangular
    one each term is an interval overlap times cos * sinc.  Even in omega;
    value in [0, 1] by the normalization conventions of this module.  A
    scalar omega gives a float, an array gives an array.
    """
    w = np.abs(np.asarray(omega, dtype=float))
    flt = model.filter
    half_window = 0.5 * band.bandwidth
    flat = (1.0 - flt.rolloff) * 0.5 * flt.width
    stop = (1.0 + flt.rolloff) * 0.5 * flt.width
    cos4 = (0.375, 0.5, 0.125)
    total = np.zeros_like(w)
    for lo, hi, centre, weights in ((-flat, flat, 0.0, (1.0,)),
                                    (flat, stop, flat, cos4),
                                    (-stop, -flat, -flat, cos4)):
        lo, hi = max(lo, -half_window), min(hi, half_window)
        if lo >= hi:
            continue  # the tapers are empty at rolloff 0; the window may clip any part
        for k, weight in enumerate(weights):
            # the term weight * cos(k*x); x has no scale on the flat part, where k = 0
            freq = k * math.pi / (stop - flat) if k else 0.0
            total += weight * _overlap(w, lo, hi, centre, freq, model.psd)
    out = np.clip(total, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


class UpsilonTable:
    """The offset rule for the moments, the overlap cutoff and Upsilon's peak.

    The overlap decays to numerical zero beyond cutoff = (filter stop edge
    clipped to the window) + (PSD halfwidth).  rule_values and rule_weights
    (Hz) are Upsilon on the fixed rule of numerics on [0, min(far slab,
    cutoff)], weights times frequency_offset_pdf * (f_e - f_s): one node
    set for both offset slabs, the package's only integral over the offset,
    for gamma_n and the atoms.  Upsilon is even and non-increasing in
    |omega|, so peak = Upsilon(0) is its maximum, the one value the MGF's
    convergence bound reads.
    """

    def __init__(self, band: BandConfig, model: SpectralModel):
        rolloff, half = model.filter.rolloff, 0.5 * model.filter.width
        self.cutoff = cutoff = (min(0.5 * band.bandwidth, (1.0 + rolloff) * half)
                                + _psd_halfwidth(model.psd))
        self.peak = upsilon(0.0, band, model)
        # rule edges: four equal pieces, the near slab's end, where the offset
        # density steps, and the kinks of Upsilon at |c -+ w/2| for the
        # breakpoints c and a rectangular PSD's width w
        near, far = band.offset_edges
        top = min(far, cutoff)
        w = model.psd.width if isinstance(model.psd, RectangularPsd) else 0.0
        breaks = ((1.0 - rolloff) * half, (1.0 + rolloff) * half, 0.5 * band.bandwidth)
        kinks = [near] + [abs(c + 0.5 * w * s) for c in breaks for s in (-1, 1)]
        edges = [*np.linspace(0.0, top, 5), *(k for k in kinks if k < top)]
        nodes, weights = rule_piecewise(sorted(edges))
        self.rule_values = upsilon(nodes, band, model)
        self.rule_weights = weights * (frequency_offset_pdf(nodes, band) * (band.f_e - band.f_s))


@lru_cache(maxsize=64)
def upsilon_table(band: BandConfig, model: SpectralModel) -> UpsilonTable:
    """Cached overlap table for a (band, model) pair."""
    return UpsilonTable(band, model)
