"""Numerical kernels shared by every other module.

Only algorithms the package implements itself live here; special functions
are computed in the modules that use them.  Quadrature is one fixed
64-node Gauss-Legendre rule under a cosine map of each finite interval: it
clusters nodes at both ends, never evaluates the integrand on an endpoint
(the disk-distance density has square-root behaviour there) and takes no
tolerance.  Its Legendre nodes and weights are numpy's leggauss(64),
stored here bit for bit (a test holds them to it), so loading the module
builds no polynomial and calls no eigenvalue solver.  It serves the
disk-distance averages with no closed form and every integral over the
frequency offset, and its nodes are the package's only node set:
rule_piecewise hands them out as (x, w) arrays, to the MGF's distance
atoms and the overlap table's offset rule.  Root finding is bisection down
to adjacent doubles, which also takes no tolerance.

Everything in this module is a pure function; all routines are safe to call
concurrently from any number of threads.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "DomainError",
    "integrate",
    "integrate_piecewise",
    "rule_piecewise",
    "find_root",
]


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class DomainError(NumericsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


# ---------------------------------------------------------------------------
# fixed-rule quadrature
# ---------------------------------------------------------------------------

# The positive half of numpy.polynomial.legendre.leggauss(64) as (node,
# weight) pairs, each written by repr, so bit for bit its values.  leggauss
# symmetrises its output, so the other half is the exact mirror.
_LEGENDRE_64_HALF = (
    (0.02435029266342443, 0.048690957009139814), (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996), (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042), (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447), (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566), (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361), (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544), (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009), (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794), (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554), (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491), (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297), (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284), (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786), (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397), (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499), (0.9993050417357722, 0.00178328072169414),
)


def _legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    t, w = np.array(_LEGENDRE_64_HALF).T
    return np.concatenate((-t[::-1], t)), np.concatenate((w[::-1], w))


def _cosine_rule(t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes t and weights w, taken in u on (0, pi) and
    mapped to [-1, 1] by x = -cos(u).

    The weights carry dx/du = sin(u).
    """
    u = 0.5 * math.pi * (t + 1.0)
    return -np.cos(u), 0.5 * math.pi * w * np.sin(u)


_RULE_NODES, _RULE_WEIGHTS = _cosine_rule(*_legendre_64())


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


def _pieces(edges: Sequence[float]) -> list[tuple[float, float]]:
    """The non-empty intervals between finite, non-decreasing edges."""
    edges = [float(e) for e in edges]
    if len(edges) < 2:
        raise DomainError("a piecewise rule needs at least two edges")
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"a piecewise rule requires finite edges, got {lo}, {hi}")
        if hi < lo:
            raise DomainError(f"edges must be non-decreasing, got {lo} > {hi}")
        if hi > lo:
            pieces.append((lo, hi))
    return pieces


def integrate_piecewise(f: Callable, edges: Sequence[float]) -> float:
    """Integrate f over consecutive [edges[i], edges[i+1]] intervals and sum.

    Edges must be finite and non-decreasing.  Used where the integrand has
    known kinks or jumps, so that each piece is smooth for the fixed rule.
    """
    total = 0.0
    for lo, hi in _pieces(edges):
        total += integrate(f, lo, hi)
    return total


def rule_piecewise(edges: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the fixed rule on each piece between edges.

    The nodes and weights integrate_piecewise applies, concatenated piece
    by piece, so that w @ f(x) is the same integral up to rounding.
    """
    x, w = [np.empty(0)], [np.empty(0)]
    for lo, hi in _pieces(edges):
        half = 0.5 * (hi - lo)
        x.append(0.5 * (lo + hi) + half * _RULE_NODES)
        w.append(half * _RULE_WEIGHTS)
    return np.concatenate(x), np.concatenate(w)


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------

def find_root(f: Callable, lo: float, hi: float) -> float:
    """Root of a continuous f on a sign-changing bracket [lo, hi].

    Bisects at the midpoint until lo and hi are adjacent doubles, then
    returns the end with the smaller |f|, so the result is correct to the
    last bit with no tolerance to choose.  An end where f is exactly 0 is
    returned at once.  A bracket without a sign change raises DomainError.
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
    # compare signs, not the product, which can underflow to 0
    if (flo < 0.0) == (fhi < 0.0):
        raise DomainError(f"no sign change on bracket: f({lo})={flo}, f({hi})={fhi}")
    while True:
        # lo/2 + hi/2 cannot overflow, and it lies strictly inside the
        # bracket until the two ends are adjacent doubles
        mid = 0.5 * lo + 0.5 * hi
        if not (lo < mid < hi):
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = float(f(mid))
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
