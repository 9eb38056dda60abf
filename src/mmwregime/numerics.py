"""Numerical kernels shared by every other module.

Special functions are thin, domain-checked wrappers around scipy.special.
Quadrature is a hand-rolled adaptive Gauss-Kronrod (G7/K15) scheme because
the rest of the package relies on two properties scipy.integrate does not
contract: panel nodes never touch the interval endpoints (integrable
endpoint singularities are common here), and non-convergence raises an
exception carrying the partial estimate instead of returning silently.

Everything in this module is a pure function; all routines are safe to call
concurrently from any number of threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "NumericsError",
    "DomainError",
    "QuadratureError",
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


class QuadratureError(NumericsError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message: str, partial: float, error_estimate: float):
        super().__init__(
            f"{message} (partial estimate {partial!r}, error estimate {error_estimate!r})"
        )
        self.partial = partial
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class Tolerance:
    """Convergence control for quadrature and root finding.

    rel/abs are the usual mixed stopping criterion; max_iter bounds panel
    subdivisions (quadrature) or iterations (root finding).
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


DEFAULT_TOL = Tolerance()


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
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod abscissae on [-1, 1]; the odd-index entries are the
# embedded 7-point Gauss rule.  All nodes are strictly interior.
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]


def _eval_vector(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of nodes; f must return one value per node."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError(
            f"integrand must map nodes of shape {x.shape} to values of the same "
            f"shape, got shape {y.shape}"
        )
    return y


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = _eval_vector(f, mid + half * _K15_NODES)
    if not np.all(np.isfinite(y)):
        raise QuadratureError(
            f"integrand returned non-finite values on [{a}, {b}]",
            partial=math.nan, error_estimate=math.inf,
        )
    k15 = half * float(np.dot(_K15_WEIGHTS, y))
    g7 = half * float(np.dot(_G7_WEIGHTS, y))
    return k15, abs(k15 - g7)


def _adaptive(f: Callable, a: float, b: float, tol: Tolerance) -> float:
    val, err = _panel(f, a, b)
    total_val, total_err = val, err
    heap = [(-err, 0, a, b, val, err)]
    counter = 1
    panels = 1
    while total_err > max(tol.abs, tol.rel * abs(total_val)):
        if panels >= tol.max_iter:
            raise QuadratureError(
                f"quadrature did not converge within {tol.max_iter} panels",
                partial=total_val, error_estimate=total_err,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            raise QuadratureError(
                "panel collapsed to machine precision before convergence",
                partial=total_val, error_estimate=total_err,
            )
        v1, e1 = _panel(f, pa, mid)
        v2, e2 = _panel(f, mid, pb)
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, counter, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, pb, v2, e2))
        counter += 2
        panels += 1
        # running error sums drift; resync occasionally against the heap
        if panels % 64 == 0:
            total_err = sum(item[5] for item in heap)
            total_val = sum(item[4] for item in heap)
    return total_val


def integrate(f: Callable, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Adaptive quadrature of f over [a, b] with interior-only nodes.

    f must accept an ndarray of abscissae and return an array of matching
    shape; any other result raises DomainError.  Semi-infinite limits
    are mapped through x = a + t/(1-t); doubly infinite ranges are split at
    zero.  Integrable endpoint singularities are fine because no node ever
    lands on an endpoint.

    Raises QuadratureError (carrying the partial estimate) when the panel
    budget tol.max_iter is exhausted.
    """
    a = float(a)
    b = float(b)
    if math.isnan(a) or math.isnan(b):
        raise DomainError("integration limits must not be NaN")
    if a > b:
        raise DomainError(f"integrate requires a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    if math.isinf(a) and math.isinf(b):
        return integrate(f, a, 0.0, tol) + integrate(f, 0.0, b, tol)
    if math.isinf(b):
        def g(t, _f=f, _a=a):
            t = np.asarray(t)
            u = 1.0 - t
            return _f(_a + t / u) / (u * u)
        return _adaptive(g, 0.0, 1.0, tol)
    if math.isinf(a):
        def g(t, _f=f, _b=b):
            t = np.asarray(t)
            u = 1.0 - t
            return _f(_b - t / u) / (u * u)
        return _adaptive(g, 0.0, 1.0, tol)
    return _adaptive(f, a, b, tol)


def integrate_piecewise(
    f: Callable,
    edges: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Integrate f over consecutive [edges[i], edges[i+1]] intervals and sum.

    Edges must be non-decreasing and finite except possibly the last, which
    may be +inf.  Used where the integrand has known kinks or jumps.
    """
    edges = [float(e) for e in edges]
    if len(edges) < 2:
        raise DomainError("integrate_piecewise needs at least two edges")
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi < lo:
            raise DomainError(f"edges must be non-decreasing, got {lo} > {hi}")
        if hi > lo:
            total += integrate(f, lo, hi, tol)
    return total


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------

def find_root(f: Callable, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL) -> float:
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
