"""Adaptive one-dimensional quadrature: the oracle of the closed forms.

The engine is a globally adaptive Gauss-Kronrod (G7, K15) bisection scheme
with a QUADPACK-style error estimate, written over Python floats. An
integrand is a function of one float that returns a float, called at the
15 Kronrod nodes of each segment in turn. A nan or inf value, or an
OverflowError or ZeroDivisionError raised by the integrand, is reported as
ValueError("integrand is not finite at x=...") with the first bad node (at
y=... under integrate_to_inf, the point of the original range), a rule
that _finite alone states; a subdivision budget spent short of the
tolerances, as QuadratureError.

Semi-infinite integrals are mapped onto [0, 1) with the rational substitution
y = a + t/(1 - t), so the reported error estimate covers the whole tail
instead of relying on a raw large cutoff.

No report runs the engine: only `verify` imports this module, to check the
continuum integrals of `quadrature` against the two integrands below, the
self-mass of `renorm` and a beta integral; a row whose integration raises
fails alone.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .quadrature import DEFAULT_SPEC, QuadratureSpec

# Gauss-Kronrod (G7, K15) nodes and weights on [-1, 1]; Kronrod nodes are
# symmetric, listed here for x >= 0. QUADPACK's dqk15 constants to 33 digits,
# so each rounds to the nearest double: K15 is then exact on x^d, d <= 22, and
# G7 on d <= 13, to a few ulps. (QUADPACK's xgk(5) ends ...845693013, off in
# the 27th digit; the node below is the root itself. Both give one double.)
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)

# All 15 Kronrod nodes and weights, ascending; the Gauss points are the
# odd-index nodes, whose weights are _WEIGHTS_G in the same order.
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_WEIGHTS_K = _WGK + _WGK[-2::-1]
_WEIGHTS_G = _WG + _WG[-2::-1]

Integrand = Callable[[float], float]

# Bisections one adaptive integration may make before it gives up.
_MAX_SUBDIVISIONS = 2000


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; the message states the best estimate."""


class QuadratureResult(NamedTuple):
    value: float
    error: float
    neval: int
    subdivisions: int


def _finite(f: Integrand, x: float, name: str) -> float:
    """f(x), or a ValueError naming the point as `name` if that value is not
    finite or f raises OverflowError or ZeroDivisionError."""
    try:
        v = f(x)
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"integrand is not finite at {name}={x!r}")
    return v


def _segment(f: Integrand, lo: float, hi: float) -> tuple[float, float]:
    """(K15 value, error) of f over [lo, hi].

    f is called at the 15 Kronrod nodes in ascending order, each through
    _finite, so the first bad node is named in a ValueError.

    The error is QUADPACK's sharpening of |K15 - G7|:
    resasc t^1.5 with t = min(1, 200 |K15 - G7| / resasc), resasc being the
    K15 integral of |f - mean f|; t^1.5 is taken as t sqrt(t), which rounds
    alike everywhere. The weighted sums are math.fsum, correctly rounded,
    so the result does not depend on the Python version (the builtin sum
    compensates from Python 3.12 on) or on the order of the terms.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fs = [_finite(f, mid + half * t, "x") for t in _NODES]
    k15 = math.fsum(map(mul, fs, _WEIGHTS_K))
    resk = k15 * half
    err = abs(resk - math.fsum(map(mul, fs[1::2], _WEIGHTS_G)) * half)
    mean = 0.5 * k15
    resasc = math.fsum(map(mul, [abs(v - mean) for v in fs], _WEIGHTS_K)) * abs(half)
    if resasc != 0.0 and err != 0.0:
        t = min(1.0, 200.0 * err / resasc)
        err = resasc * t * math.sqrt(t)
    return resk, err


def integrate_adaptive(
    f: Integrand,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints: Sequence[float] | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] to the spec's tolerances.

    Optional breakpoints seed the initial partition, which matters when the
    integrand's support is a small fraction of [a, b]; the engine never
    samples outside [a, b]. Raises QuadratureError, its message stating the
    best estimate, if _MAX_SUBDIVISIONS bisections do not meet the tolerances.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_adaptive needs finite limits; "
                         "use integrate_to_inf for semi-infinite ranges")
    if b <= a:
        raise ValueError(f"require b > a, got [{a}, {b}]")

    edges = [a, b]
    if breakpoints:
        edges += [float(x) for x in breakpoints if a < float(x) < b]
    edges = sorted(set(edges))

    # Heap of (-error, insertion index, lo, hi, value); index breaks ties
    # deterministically.
    heap: list[tuple[float, int, float, float, float]] = []
    counter = count()

    def push(lo: float, hi: float) -> None:
        v, e = _segment(f, lo, hi)
        heapq.heappush(heap, (-e, next(counter), lo, hi, v))

    for lo, hi in zip(edges, edges[1:]):
        push(lo, hi)
    neval = 15 * len(heap)

    subdivisions = 0
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(-item[0] for item in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return QuadratureResult(value=total, error=total_err, neval=neval,
                                    subdivisions=subdivisions)
        if subdivisions >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"max_subdivisions={_MAX_SUBDIVISIONS} exceeded "
                f"(value={total!r}, error={total_err!r})")
        subdivisions += 1
        _, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating-point resolution: keep its value, stop
            # charging its error against the budget.
            heapq.heappush(heap, (0.0, next(counter), lo, hi, val))
            continue
        push(lo, mid)
        push(mid, hi)
        neval += 30


def integrate_to_inf(
    f: Integrand,
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Integrate f over [a, inf) via the substitution y = a + t/(1-t).

    The integrand must decay fast enough that f(y)/(1-t)^2 -> 0 as t -> 1
    (any decay faster than y^-2). Gauss-Kronrod nodes are interior, so f is
    never evaluated at t = 1. f is called through _finite, so a bad value
    is reported at y=..., not at the mapped node t.
    """

    def g(t: float) -> float:
        omt = 1.0 - t
        return _finite(f, a + t / omt, "y") / (omt * omt)

    # Seed points cluster resolution near t=1 where the tail lives.
    return integrate_adaptive(g, 0.0, 1.0, spec,
                              breakpoints=[0.25, 0.5, 0.75, 0.9, 0.99])


def kappa1_continuum_integrand(y: float) -> float:
    """Integrand y^3/(y^2+1)^3 * (arctan(y)/y^2 - 1/(y*sqrt(y^2+1))).

    The bracket is a difference of two terms that both diverge as 1/y at
    small y; below y = 1e-3 it is replaced by its series
    y/6 - 7y^3/40 + 19y^5/112 to avoid cancellation. It is positive for all
    y > 0, since arctan(y) > y/sqrt(1+y^2).
    """
    return (y**3 / (y * y + 1.0) ** 3
            * (y / 6.0 - 7.0 * y**3 / 40.0 + 19.0 * y**5 / 112.0 if y < 1e-3
               else math.atan(y) / y**2 - 1.0 / (y * math.sqrt(y * y + 1.0))))


def kappa2_continuum_integrand(y: float) -> float:
    """Integrand (256/27pi) * y^4/(y^2+1)^6."""
    return 256.0 / (27.0 * math.pi) * y**4 / (y * y + 1.0) ** 6
