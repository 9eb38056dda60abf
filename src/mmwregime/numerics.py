"""Numerical kernels shared by every other module.

Special functions are thin, domain-checked wrappers around scipy.special.
Quadrature is one fixed 64-node Gauss-Legendre rule under a cosine map of
each finite interval: it clusters nodes at both ends, never evaluates the
integrand on an endpoint (the disk-distance density has square-root
behaviour there) and takes no tolerance.  It serves only the averages over
the disk-distance law that have no closed form.  Root finding is bracketed
Brent iteration.

Everything in this module is a pure function; all routines are safe to call
concurrently from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "Tolerance",
    "NumericsError",
    "DomainError",
    "BracketingError",
    "erf",
    "erf_inv",
    "erfc_inv",
    "log_gamma",
    "reg_lower_gamma",
    "dawson",
    "faddeeva",
    "elliptic_ek",
    "integrate",
    "integrate_piecewise",
    "find_root",
]


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class DomainError(NumericsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketingError(NumericsError):
    """A root-finding bracket does not contain a sign change."""


@dataclass(frozen=True)
class Tolerance:
    """Convergence control for root finding.

    rel/abs are the usual mixed stopping criterion; max_iter bounds the
    iterations.  Quadrature takes no tolerance: it is one fixed rule.
    """

    rel: float = 1e-10
    abs: float = 1e-13
    max_iter: int = 2000

    def __post_init__(self):
        if not (self.rel > 0.0):
            raise DomainError(f"Tolerance.rel must be > 0, got {self.rel}")
        if not (self.abs >= 0.0):
            raise DomainError(f"Tolerance.abs must be >= 0, got {self.abs}")
        if self.max_iter < 1:
            raise DomainError(f"Tolerance.max_iter must be >= 1, got {self.max_iter}")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def erf(x):
    """Error function, vectorized, odd and monotone increasing."""
    return special.erf(x)


def erf_inv(p):
    """Inverse error function on (-1, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError(f"erf_inv requires |p| < 1 (infinite at +-1), got {p!r}")
    out = special.erfinv(arr)
    return float(out) if out.ndim == 0 else out


def erfc_inv(q):
    """Inverse complementary error function on (0, 2).

    erfc_inv(q) == erf_inv(1 - q) but stays accurate for q near 0, where
    forming 1 - q in floating point would lose all precision.
    """
    arr = np.asarray(q, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 2.0):
        raise DomainError(f"erfc_inv requires 0 < q < 2, got {q!r}")
    out = special.erfcinv(arr)
    return float(out) if out.ndim == 0 else out


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    out = special.gammaln(arr)
    return float(out) if out.ndim == 0 else out


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) in [0, 1], a > 0, x >= 0."""
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(a_arr <= 0.0):
        raise DomainError(f"reg_lower_gamma requires a > 0, got a={a!r}")
    if np.any(x_arr < 0.0):
        raise DomainError(f"reg_lower_gamma requires x >= 0, got x={x!r}")
    out = special.gammainc(a_arr, x_arr)
    return float(out) if out.ndim == 0 else out


def dawson(x):
    """Dawson function D(x) = exp(-x^2) * integral of exp(t^2) over [0, x]."""
    out = special.dawsn(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) * erfc(-iz), vectorized, complex."""
    return special.wofz(np.asarray(z, dtype=complex))


def elliptic_ek(m: float) -> tuple[float, float]:
    """Complete elliptic integrals (E(m), K(m)) of parameter m in [0, 1)."""
    if not (0.0 <= m < 1.0):
        raise DomainError(f"elliptic_ek requires 0 <= m < 1, got {m!r}")
    return float(special.ellipe(m)), float(special.ellipk(m))


# ---------------------------------------------------------------------------
# fixed-rule quadrature
# ---------------------------------------------------------------------------

def _cosine_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre in u on (0, pi) mapped to [-1, 1] by x = -cos(u).

    The weights carry dx/du = sin(u).
    """
    t, w = np.polynomial.legendre.leggauss(points)
    u = 0.5 * math.pi * (t + 1.0)
    return -np.cos(u), 0.5 * math.pi * w * np.sin(u)


_RULE_NODES, _RULE_WEIGHTS = _cosine_rule(64)


def integrate(f: Callable, a: float, b: float) -> float:
    """Integral of f over the finite interval [a, b] by one fixed rule.

    64-node Gauss-Legendre in u under x = mid - half*cos(u), u in (0, pi).
    The map clusters nodes at both ends and absorbs square-root behaviour
    there (1/sqrt(x - a) and sqrt(x - a) both become smooth in u), and no
    node sits on an endpoint.  f must accept an ndarray of abscissae and
    return an array of matching shape; any other result, or an infinite
    limit, raises DomainError.  A non-finite integrand value raises
    NumericsError.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate requires finite limits, got a={a}, b={b}")
    if a > b:
        raise DomainError(f"integrate requires a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _RULE_NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError(
            f"integrand must map nodes of shape {x.shape} to values of the same "
            f"shape, got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise NumericsError(f"integrand returned non-finite values on [{a}, {b}]")
    return half * float(_RULE_WEIGHTS @ y)


def integrate_piecewise(f: Callable, edges: Sequence[float]) -> float:
    """Integrate f over consecutive [edges[i], edges[i+1]] intervals and sum.

    Edges must be finite and non-decreasing.  Used where the integrand has
    known kinks or jumps, so that each piece is smooth for the fixed rule.
    """
    edges = [float(e) for e in edges]
    if len(edges) < 2:
        raise DomainError("integrate_piecewise needs at least two edges")
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi < lo:
            raise DomainError(f"edges must be non-decreasing, got {lo} > {hi}")
        if hi > lo:
            total += integrate(f, lo, hi)
    return total


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------

def find_root(f: Callable, lo: float, hi: float, tol: Tolerance = Tolerance()) -> float:
    """Root of f on a sign-changing bracket [lo, hi].

    Uses Brent's method (inverse quadratic / secant with a bisection
    fallback, so convergence is guaranteed for any continuous f with
    f(lo)*f(hi) <= 0).  Raises BracketingError when there is no sign change.
    """
    lo = float(lo)
    hi = float(hi)
    if not (lo < hi):
        raise DomainError(f"find_root requires lo < hi, got {lo} >= {hi}")
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketingError(
            f"no sign change on bracket: f({lo})={flo}, f({hi})={fhi}"
        )
    from scipy import optimize

    rtol = max(tol.rel, 4.0 * np.finfo(float).eps)
    try:
        root = optimize.brentq(
            f, lo, hi, xtol=max(tol.abs * 1e-3, 1e-300), rtol=rtol,
            maxiter=max(tol.max_iter, 2),
        )
    except RuntimeError as exc:  # scipy signals iteration exhaustion this way
        raise NumericsError(f"root search failed to converge: {exc}") from exc
    return float(root)
