"""Adaptive one-dimensional quadrature and the plane-wave continuum integrals.

The engine is a globally adaptive Gauss-Kronrod (G7, K15) bisection scheme
with a QUADPACK-style error estimate, written over Python floats. An
integrand is called with a list of nodes (15 per segment, every segment of
one pass in a single call) and returns a sequence of as many floats; it may
use any array library inside itself. A nan or inf value, or an
OverflowError or ZeroDivisionError raised by the integrand, is reported as
ValueError("integrand is not finite at x=...") with the first bad node.

Semi-infinite integrals are mapped onto [0, 1) with the rational substitution
y = a + t/(1 - t), so the reported error estimate covers the whole tail
instead of relying on a raw large cutoff.

The two continuum integrals, kappa1_continuum and kappa2_continuum, do not
use the engine: both integrands have elementary antiderivatives, evaluated
directly for y_min <= 1.5 and as alternating series in 1/y_min above, where
the antiderivatives cancel. Each sums its addends with math.fsum and reports
a bound on their rounding and truncation as estimated_error. The engine on
the public integrands is their oracle (verify's kappa*_continuum_engine_*
rows), and the tolerances a caller passes to them steer nothing.
"""

from __future__ import annotations

import heapq
import math
import sys
from functools import cache
from itertools import count
from operator import mul
from typing import Callable, NamedTuple, Sequence

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

Integrand = Callable[[list[float]], Sequence[float]]


class _QuadratureSpec(NamedTuple):
    abs_tol: float = 1e-14
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000


class QuadratureSpec(_QuadratureSpec):
    """Tolerances and budget for one adaptive integration."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "QuadratureSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable) -> "QuadratureSpec":   # so _replace checks too
        return cls(*iterable)


DEFAULT_SPEC = QuadratureSpec()


class QuadratureResult(NamedTuple):
    value: float
    error: float
    neval: int
    subdivisions: int


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, value: float, error: float, subdivisions: int):
        super().__init__(message)
        self.value = value
        self.error = error
        self.subdivisions = subdivisions


def _segment_nodes(lo: float, hi: float) -> list[float]:
    """The 15 Kronrod nodes of [lo, hi], ascending, as the engine places them."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return [mid + half * t for t in _NODES]


def _segment_estimate(fs: Sequence[float], lo: float,
                     hi: float) -> tuple[float, float]:
    """(K15 value, error) of one segment from its 15 integrand values.

    The error is QUADPACK's sharpening of |K15 - G7|:
    resasc t^1.5 with t = min(1, 200 |K15 - G7| / resasc), resasc being the
    K15 integral of |f - mean f|; t^1.5 is taken as t sqrt(t), which rounds
    alike everywhere. The weighted sums are math.fsum, correctly rounded,
    so the result does not depend on the Python version (the builtin sum
    compensates from Python 3.12 on) or on the order of the terms.
    """
    half = 0.5 * (hi - lo)
    k15 = math.fsum(map(mul, fs, _WEIGHTS_K))
    resk = k15 * half
    err = abs(resk - math.fsum(map(mul, fs[1::2], _WEIGHTS_G)) * half)
    mean = 0.5 * k15
    resasc = math.fsum(map(mul, [abs(v - mean) for v in fs], _WEIGHTS_K)) * abs(half)
    if resasc != 0.0 and err != 0.0:
        t = min(1.0, 200.0 * err / resasc)
        err = resasc * t * math.sqrt(t)
    return resk, err


def _not_finite(f: Integrand, nodes: list[float]) -> ValueError:
    """The error for the first node at which f is not a finite float."""
    for x in nodes:
        try:
            v, = f([x])
        except (OverflowError, ZeroDivisionError):
            break
        if not math.isfinite(v):
            break
    else:
        x = nodes[0]
    return ValueError(f"integrand is not finite at x={x!r}")


def _eval_segments(f: Integrand,
                   segments: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """(value, error) of each segment, with one call of f for all of them."""
    nodes = [x for lo, hi in segments for x in _segment_nodes(lo, hi)]
    try:
        fx = f(nodes)
    except (OverflowError, ZeroDivisionError):
        raise _not_finite(f, nodes) from None
    fx = list(map(float, fx))
    if len(fx) != len(nodes):
        raise ValueError(f"integrand returned {len(fx)} values for {len(nodes)} nodes")
    if not all(map(math.isfinite, fx)):
        raise _not_finite(f, nodes)
    return [_segment_estimate(fx[15 * i:15 * i + 15], lo, hi)
            for i, (lo, hi) in enumerate(segments)]


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
    samples outside [a, b]. Raises QuadratureError (best estimate attached)
    if max_subdivisions is exceeded.
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
    segs = list(zip(edges, edges[1:]))

    neval = 15 * len(segs)
    # Heap of (-error, insertion index, lo, hi, value); index breaks ties
    # deterministically.
    heap = []
    counter = 0
    for (lo, hi), (v, e) in zip(segs, _eval_segments(f, segs)):
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1

    subdivisions = 0
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(-item[0] for item in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            break
        if subdivisions >= spec.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={spec.max_subdivisions} exceeded "
                f"(value={total!r}, error={total_err!r})",
                value=total, error=total_err, subdivisions=subdivisions,
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating-point resolution: keep its value, stop
            # charging its error against the budget.
            heapq.heappush(heap, (0.0, counter, lo, hi, val))
            counter += 1
            subdivisions += 1
            continue
        children = [(lo, mid), (mid, hi)]
        neval += 30
        for (clo, chi), (v, e) in zip(children, _eval_segments(f, children)):
            heapq.heappush(heap, (-e, counter, clo, chi, v))
            counter += 1
        subdivisions += 1

    # Deterministic final reduction: sum in left-to-right interval order.
    items = sorted(heap, key=lambda it: it[2])
    value = math.fsum(it[4] for it in items)
    error = math.fsum(-it[0] for it in items)
    return QuadratureResult(value=value, error=error, neval=neval,
                            subdivisions=subdivisions)


def integrate_to_inf(
    f: Integrand,
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Integrate f over [a, inf) via the substitution y = a + t/(1-t).

    The integrand must decay fast enough that f(y)/(1-t)^2 -> 0 as t -> 1
    (any decay faster than y^-2). Gauss-Kronrod nodes are interior, so f is
    never evaluated at t = 1.
    """

    def g(ts: list[float]) -> list[float]:
        omts = [1.0 - t for t in ts]
        fy = f([a + t / omt for t, omt in zip(ts, omts)])
        return [v / (omt * omt) for v, omt in zip(fy, omts)]

    # Seed points cluster resolution near t=1 where the tail lives.
    return integrate_adaptive(g, 0.0, 1.0, spec,
                              breakpoints=[0.25, 0.5, 0.75, 0.9, 0.99])


class ContinuumResult(NamedTuple):
    """One continuum integral value at a given lower cutoff y_min = q*a0."""

    value: float
    y_min: float
    estimated_error: float


def kappa1_continuum_integrand(ys: list[float]) -> list[float]:
    """Integrand y^3/(y^2+1)^3 * (arctan(y)/y^2 - 1/(y*sqrt(y^2+1))).

    The bracket is a difference of two terms that both diverge as 1/y at
    small y; below y = 1e-3 it is replaced by its series
    y/6 - 7y^3/40 + 19y^5/112 to avoid cancellation. It is positive for all
    y > 0, since arctan(y) > y/sqrt(1+y^2).
    """
    atan, sqrt = math.atan, math.sqrt
    return [y**3 / (y * y + 1.0) ** 3
            * (y / 6.0 - 7.0 * y**3 / 40.0 + 19.0 * y**5 / 112.0 if y < 1e-3
               else atan(y) / y**2 - 1.0 / (y * sqrt(y * y + 1.0)))
            for y in ys]


def kappa2_continuum_integrand(ys: list[float]) -> list[float]:
    """Integrand (256/27pi) * y^4/(y^2+1)^6."""
    front = 256.0 / (27.0 * math.pi)
    return [front * y**4 / (y * y + 1.0) ** 6 for y in ys]


# Largest accepted lower cutoff. Beyond it both continuum integrals are below
# 1e-24; below it the engine's nodes of the rational map stay under about
# 1e16, where every power in the two integrands is finite.
Y_MIN_MAX = 1e6


def _check_y_min(y_min: float) -> None:
    if not 0 <= y_min <= Y_MIN_MAX:
        raise ValueError(f"y_min must be in [0, {Y_MIN_MAX:g}], got {y_min!r}")


# The continuum integrals in closed form; a is y_min. Up to _Y_STAR the
# antiderivatives are evaluated directly. Above it they cancel (at a = 10 the
# direct kappa2 keeps only 10 digits), and alternating series in 1/a take
# over; at a = 1.25 the series would still lose digits, to about 2e-14.
_Y_STAR = 1.5
# Each addend of either form is within 20 units of roundoff of its exact
# value: a handful of roundings, atan and pow within an ulp each, and a power
# of the rounded 1 + a^2 scaling its rounding by the exponent (kappa2's
# (1 + a^2)^5 is the worst, at about 19). The fsum adds one unit of the sum,
# so _ROUNDING times the sum of the addends' magnitudes bounds the rounding.
_ROUNDING = 12.0 * sys.float_info.epsilon


def _kappa1_direct(a: float) -> tuple[list[float], float]:
    """Addends of 3pi/64 - 2/15 - F1(a) + G1(a), and no truncation.

    F1(y) = (3y^4 atan y + 3y^3 + 6y^2 atan y + 5y - 5 atan y)/(32(1+y^2)^2)
    is the antiderivative of y atan(y)/(1+y^2)^3, G1(y) =
    y^3 (2y^2 + 5)/(15 (1+y^2)^(5/2)) that of y^2/(1+y^2)^(7/2); the
    integrand is their difference, and 3pi/64, 2/15 their limits at infinity.
    """
    at = math.atan(a)
    f = 32.0 * (1.0 + a * a) ** 2
    g = 15.0 * (1.0 + a * a) ** 2.5
    return [3.0 * math.pi / 64.0, -2.0 / 15.0,
            -3.0 * a**4 * at / f, -3.0 * a**3 / f, -6.0 * a * a * at / f,
            -5.0 * a / f, 5.0 * at / f, 2.0 * a**5 / g, 5.0 * a**3 / g], 0.0


def _kappa2_direct(a: float) -> tuple[list[float], float]:
    """Addends of 1/18 - F2(a), and no truncation, where
    F2(y) = [y (15y^8 + 70y^6 + 128y^4 - 70y^2 - 15) + 15 (1+y^2)^5 atan y]
    / (135pi (1+y^2)^5) is the antiderivative of (256/27pi) y^4/(1+y^2)^6.
    """
    d = 135.0 * math.pi * (1.0 + a * a) ** 5
    return [1.0 / 18.0, -15.0 * a**9 / d, -70.0 * a**7 / d, -128.0 * a**5 / d,
            70.0 * a**3 / d, 15.0 * a / d, -math.atan(a) / (9.0 * math.pi)], 0.0


# The coefficients c_k of the three series below: exact ratios rounded once,
# kappa2's then divided by pi. Each is made on first use, not at import; a
# just above _Y_STAR reads k <= 71.
@cache
def _kappa2_coefficient(k: int) -> float:
    return 256 * math.comb(k + 5, 5) / (27 * (2 * k + 7)) / math.pi


@cache
def _kappa1_by_parts_coefficient(k: int) -> float:
    return (k + 1) * (k + 2) / (8 * (2 * k + 5))


@cache
def _kappa1_binomial_coefficient(k: int) -> float:
    return -math.comb(2 * k + 6, k + 3) * (k + 1) * (k + 3) / (15 * 4 ** (k + 2))


def _alternating(coefficient: Callable[[int], float], p: int,
                 a: float) -> tuple[list[float], float]:
    """The terms (-1)^k c_k a^-(p + 2k), a > 1, down to the first one below
    2^-60 of the partial sum, and the size of that first term left out.

    In each of the three series below the ratio of successive terms falls
    with k, so once the terms shrink they shrink for good, and what is left
    out is smaller than its first term. Every term is a division and a pow
    from its coefficient.
    """
    terms: list[float] = []
    partial = 0.0
    for k in count():
        t = coefficient(k) / a ** (p + 2 * k)
        if abs(t) <= 2.0**-60 * abs(partial):
            return terms, abs(t)
        t = -t if k % 2 else t
        terms.append(t)
        partial += t


def _kappa1_series(a: float) -> tuple[list[float], float]:
    """Addends of kappa1_continuum for a > _Y_STAR, and their truncation bound.

    With t = 1/y the integral is that of
    t^3 (pi/2 - atan t - (1+t^2)^(-1/2)) / (1+t^2)^3 over [0, 1/a]. By parts
    against t^4/(4(1+t^2)^2), the antiderivative of t^3/(1+t^2)^3, the first
    part is atan(a)/(4(1+a^2)^2) + (1/4) int t^4/(1+t^2)^3; that integral
    and int t^3 (1+t^2)^(-7/2) are binomial series in t^2, integrated term by
    term: c_k = (k+1)(k+2)/(8(2k+5)) on a^-(2k+5) and
    -C(2k+6, k+3)(k+1)(k+3)/(15 4^(k+2)) on a^-(2k+4).
    """
    t1, e1 = _alternating(_kappa1_by_parts_coefficient, 5, a)
    t2, e2 = _alternating(_kappa1_binomial_coefficient, 4, a)
    return [math.atan(a) / (4.0 * (1.0 + a * a) ** 2), *t1, *t2], e1 + e2


def _kappa2_series(a: float) -> tuple[list[float], float]:
    """Addends of kappa2_continuum for a > _Y_STAR, and their truncation bound.

    With t = 1/y the integral is (256/27pi) int t^6/(1+t^2)^6 over [0, 1/a],
    a binomial series in t^2: c_k = (256/27pi) C(k+5, 5)/(2k+7) on
    a^-(2k+7).
    """
    return _alternating(_kappa2_coefficient, 7, a)


def _continuum(direct: Callable, series: Callable,
               y_min: float) -> ContinuumResult:
    _check_y_min(y_min)
    terms, tail = direct(y_min) if y_min <= _Y_STAR else series(y_min)
    return ContinuumResult(value=math.fsum(terms), y_min=y_min,
                           estimated_error=_ROUNDING * math.fsum(map(abs, terms))
                           + tail)


def kappa1_continuum(y_min: float = 1.0,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ContinuumResult:
    """Continuum (plane-wave) part of the first vacuum-coupling coefficient.

    The integral of kappa1_continuum_integrand from y_min, in closed form;
    estimated_error bounds its rounding and truncation. That is the quantity
    the adopted coefficient totals are built from (0.0139 at y_min = 0,
    0.0094 at y_min = 1). `spec` steers nothing: it is accepted because the
    benchmark's replay still passes one.
    """
    return _continuum(_kappa1_direct, _kappa1_series, y_min)


def kappa2_continuum(y_min: float = 1.0,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ContinuumResult:
    """Continuum (plane-wave) part of the second vacuum-coupling coefficient.

    The integral of kappa2_continuum_integrand from y_min, in closed form, as
    kappa1_continuum; at y_min = 0 it is (256/27pi) * (3pi/512) = 1/18.
    `spec` steers nothing, as there.
    """
    return _continuum(_kappa2_direct, _kappa2_series, y_min)


KAPPA2_CONTINUUM_AT_ZERO = 1.0 / 18.0          # (256/27pi)*(3pi/512)
KAPPA1_CONTINUUM_AT_ZERO = 3.0 * math.pi / 64.0 - 2.0 / 15.0


def ymin_sensitivity(
    which: str,
    y_min_grid: Sequence[float],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[ContinuumResult]:
    """Scan a continuum integral over an ascending grid of lower cutoffs.

    `spec` steers nothing, as in kappa1_continuum.
    """
    if which not in ("kappa1", "kappa2"):
        raise ValueError(f"unknown integral {which!r}; expected kappa1 or kappa2")
    grid = [float(y) for y in y_min_grid]
    if not grid:
        raise ValueError("y_min grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("y_min grid must be strictly ascending")
    op = kappa1_continuum if which == "kappa1" else kappa2_continuum
    return [op(y) for y in grid]
