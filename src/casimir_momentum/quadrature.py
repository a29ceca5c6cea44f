"""Adaptive one-dimensional quadrature and the plane-wave continuum integrals.

The engine is a globally adaptive Gauss-Kronrod (G7, K15) bisection scheme
with a QUADPACK-style error estimate, written over Python floats. An
integrand is a function of one float that returns a float, called at the
15 Kronrod nodes of each segment in turn. A nan or inf value, or an
OverflowError or ZeroDivisionError raised by the integrand, is reported as
ValueError("integrand is not finite at x=...") with the first bad node.

Semi-infinite integrals are mapped onto [0, 1) with the rational substitution
y = a + t/(1 - t), so the reported error estimate covers the whole tail
instead of relying on a raw large cutoff.

The two continuum integrals, kappa1_continuum and kappa2_continuum, do not
use the engine: both integrands have elementary antiderivatives, evaluated
directly for y_min <= 1.5 and above, where the antiderivatives cancel, as
series in u = 1/(1 + y_min^2) whose terms are incomplete beta functions
expanded binomially, each a polynomial in u taken by Horner's rule to a term
count set by u, from a fixed table cached on first use; u and the count are
made once per cutoff. Each reports a bound on its rounding and truncation as
estimated_error. The engine on the public integrands is their oracle
(verify's kappa*_continuum_engine_* rows), and the tolerances a caller
passes to them steer nothing.
"""

from __future__ import annotations

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

Integrand = Callable[[float], float]

# Bisections one adaptive integration may make before it gives up.
_MAX_SUBDIVISIONS = 2000


class QuadratureSpec(NamedTuple):
    """Tolerances for one adaptive integration. Precondition: both positive,
    as the --rel-tol and --abs-tol checks enforce."""

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10


DEFAULT_SPEC = QuadratureSpec()


class QuadratureResult(NamedTuple):
    value: float
    error: float
    neval: int
    subdivisions: int


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; the message states the best estimate."""


def _segment(f: Integrand, lo: float, hi: float) -> tuple[float, float]:
    """(K15 value, error) of f over [lo, hi].

    f is called at the 15 Kronrod nodes in ascending order; the first node
    at which it is not finite, or raises OverflowError or ZeroDivisionError,
    is named in a ValueError.

    The error is QUADPACK's sharpening of |K15 - G7|:
    resasc t^1.5 with t = min(1, 200 |K15 - G7| / resasc), resasc being the
    K15 integral of |f - mean f|; t^1.5 is taken as t sqrt(t), which rounds
    alike everywhere. The weighted sums are math.fsum, correctly rounded,
    so the result does not depend on the Python version (the builtin sum
    compensates from Python 3.12 on) or on the order of the terms.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fs = []
    for t in _NODES:
        x = mid + half * t
        try:
            v = f(x)
        except (OverflowError, ZeroDivisionError):
            v = math.nan
        if not math.isfinite(v):
            raise ValueError(f"integrand is not finite at x={x!r}")
        fs.append(v)
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
    import heapq        # here, as only the engine uses it

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
    never evaluated at t = 1.
    """

    def g(t: float) -> float:
        omt = 1.0 - t
        return f(a + t / omt) / (omt * omt)

    # Seed points cluster resolution near t=1 where the tail lives.
    return integrate_adaptive(g, 0.0, 1.0, spec,
                              breakpoints=[0.25, 0.5, 0.75, 0.9, 0.99])


class ContinuumResult(NamedTuple):
    """One continuum integral value at a given lower cutoff y_min = q*a0."""

    value: float
    y_min: float
    estimated_error: float


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


# Largest accepted lower cutoff. Beyond it both continuum integrals are below
# 1e-24; below it the engine's nodes of the rational map stay under about
# 1e16, where every power in the two integrands is finite.
Y_MIN_MAX = 1e6


def _check_y_min(y_min: float) -> None:
    # The --ymin rule, for the benchmark's lib-sweep and replay.
    if not 0 <= y_min <= Y_MIN_MAX:
        raise ValueError(f"y_min must be in [0, {Y_MIN_MAX:g}], got {y_min!r}")


# The continuum integrals in closed form; a is y_min. Up to _Y_STAR the
# antiderivatives are evaluated directly. Above it they cancel (at a = 10 the
# direct kappa2 keeps only 10 digits), and series in u = 1/(1 + a^2) take
# over. Below the switch the series would keep their digits (at a = 1.25
# kappa1's is within 8e-16 relative, bar 3.1e-14, the direct form within
# 1.2e-15, bar 2e-13), but each of kappa1's two takes 45 Horner steps there.
_Y_STAR = 1.5
# Each addend of the direct form is within 20 units of roundoff (eps/2) of its
# exact value: a handful of roundings, atan and pow within an ulp each, and a
# power of the rounded 1 + a^2 scaling its rounding by the exponent (kappa2's
# (1 + a^2)^5 is the worst, at about 19), and the fsum adds one unit of the
# sum of the addends' magnitudes. In a series, b = 1 + a^2 is within 2 units
# and u = 1/b within 3. Horner's rule gives sum_k c_k u^k (1 + theta_k),
# theta_k within 2k + 1 roundings; u^k is within 3k, c_k within 1 (kappa2's
# 3, with its /pi), the pow b^-p within 2p + 2 (b's 2 scaled by p, the pow 2)
# and the product 1. So the term c_k u^(k+p) is within 5k + 2p + 5 units,
# kappa2's 5k + 2p + 7, and kappa1's atan addend within 9. The terms fall by
# at least u <= 4/13 from k = 2 on; weighted by their magnitudes these sizes
# come to at most 15.5 units (kappa2, p = 7/2, at a = 1.5 where u is largest;
# 14 as a grows) and 9.4 for kappa1, whose final fsum of three addends adds
# one. So _ROUNDING, 24 units, times the sum of the addends' magnitudes
# bounds the rounding of either form.
_ROUNDING = 12.0 * sys.float_info.epsilon


def _kappa1_direct(a: float) -> list[float]:
    """Addends of 3pi/64 - 2/15 - F1(a) + G1(a).

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
            -5.0 * a / f, 5.0 * at / f, 2.0 * a**5 / g, 5.0 * a**3 / g]


def _kappa2_direct(a: float) -> list[float]:
    """Addends of 1/18 - F2(a), where
    F2(y) = [y (15y^8 + 70y^6 + 128y^4 - 70y^2 - 15) + 15 (1+y^2)^5 atan y]
    / (135pi (1+y^2)^5) is the antiderivative of (256/27pi) y^4/(1+y^2)^6.
    """
    d = 135.0 * math.pi * (1.0 + a * a) ** 5
    return [1.0 / 18.0, -15.0 * a**9 / d, -70.0 * a**7 / d, -128.0 * a**5 / d,
            70.0 * a**3 / d, 15.0 * a / d, -math.atan(a) / (9.0 * math.pi)]


# The three series below, sum_k c_k u^(k + p) with u = 1/(1 + a^2) <= 4/13
# for a > _Y_STAR. With t = 1/y and w = t^2/(1 + t^2), each integrand is
# (1/2) w^(p-1) (1 - w)^q dw over [0, u], an incomplete beta function; the
# binomial series of (1 - w)^q, integrated term by term, gives c_k, an exact
# ratio rounded once, kappa2's then divided by pi. Each table holds
# c_0.._TERMS_MAX and is made on first use, not at import.
#
# Natural log of 2^60: a series of n(u) = max(3, ceil(_LN_2_TO_60 / ln(1/u)))
# terms leaves out u^n(u) <= 2^-60 of its leading power, at most _TERMS_MAX =
# 36 above _Y_STAR, where the quotient is below 35.29. Rounding in it can move
# that target by a term at most; the truncation a series reports is its own
# first term left out, so its bound holds either way.
_LN_2_TO_60 = 60.0 * math.log(2.0)
_TERMS_MAX = math.ceil(_LN_2_TO_60 / math.log1p(_Y_STAR**2))


@cache
def _kappa2_coefficients() -> tuple[float, ...]:
    """kappa2_continuum is (256/27pi) int t^6/(1+t^2)^6 over [0, 1/a], with
    p = 7/2 and q = 3/2: c_k = 768 C(2k, k)/(27 4^k (2k-1)(2k-3)(2k+7))/pi."""
    return tuple(768 * math.comb(2 * k, k)
                 / (27 * 4**k * (2 * k - 1) * (2 * k - 3) * (2 * k + 7)) / math.pi
                 for k in range(_TERMS_MAX + 1))


@cache
def _kappa1_by_parts_coefficients() -> tuple[float, ...]:
    return tuple(math.comb(2 * k, k) / (4 * 4**k * (2 * k + 5))
                 for k in range(_TERMS_MAX + 1))


@cache
def _kappa1_binomial_coefficients() -> tuple[float, ...]:
    return tuple(math.comb(2 * k, k) / (2 * 4**k * (2 * k - 1) * (k + 2))
                 for k in range(_TERMS_MAX + 1))


def _term_count(b: float) -> int:
    """n(u) for u = 1/b."""
    return max(3, math.ceil(_LN_2_TO_60 / math.log(b)))


def _series(a: float, *series: tuple[tuple[float, ...], float]
            ) -> list[tuple[float, float, float]]:
    """For each (table of c_k, first power p) given: the sum of c_k u^(k + p)
    over k < n(u), u = 1/(1 + a^2), the sum of those terms' magnitudes, and
    a bound on what is left out. b = 1 + a^2, u and n(u) are made once for
    all the series.

    Each polynomial in u is taken by Horner's rule, then multiplied once by
    b^-p. Only c_0 and c_1 can be negative, so the magnitudes sum to the
    series plus twice those terms. In each of the three series c_(k+1)/c_k
    lies in (0, 1) from k = 2 on, so the terms keep one sign and
    |t_(k+1)/t_k| < u: what is left out from the first term t_n left out is
    below |t_n|/(1 - u), with t_n = c_n/b^(n + p).
    """
    b = 1.0 + a * a
    u = 1.0 / b
    n = _term_count(b)
    out = []
    for table, p in series:
        total = 0.0
        for c in table[n - 1::-1]:
            total = total * u + c
        scale = b ** -p
        negative = min(table[0], 0.0) + min(table[1], 0.0) * u
        out.append((total * scale, (total - 2.0 * negative) * scale,
                    abs(table[n] / b ** (n + p)) / (1.0 - u)))
    return out


def _kappa1_series(a: float) -> tuple[float, float, float]:
    """kappa1_continuum for a > _Y_STAR, the sum of its addends' magnitudes,
    and its truncation bound.

    With t = 1/y the integral is that of
    t^3 (pi/2 - atan t - (1+t^2)^(-1/2)) / (1+t^2)^3 over [0, 1/a]. By parts
    against t^4/(4(1+t^2)^2), the antiderivative of t^3/(1+t^2)^3, the first
    part is atan(a)/(4(1+a^2)^2) + (1/4) int t^4/(1+t^2)^3; that integral
    and -int t^3 (1+t^2)^(-7/2) are, in w = t^2/(1+t^2), (1/2) int w^(3/2)
    (1-w)^(-1/2) and -(1/2) int w (1-w)^(1/2) over [0, u]: c_k =
    C(2k, k)/(4 4^k (2k+5)) on u^(k+5/2) and C(2k, k)/(2 4^k (2k-1)(k+2))
    on u^(k+2).
    """
    front = math.atan(a) / (4.0 * (1.0 + a * a) ** 2)
    (s1, m1, e1), (s2, m2, e2) = _series(a, (_kappa1_by_parts_coefficients(), 2.5),
                                         (_kappa1_binomial_coefficients(), 2.0))
    return math.fsum((front, s1, s2)), math.fsum((front, m1, m2)), e1 + e2


def _kappa2_series(a: float) -> tuple[float, float, float]:
    return _series(a, (_kappa2_coefficients(), 3.5))[0]


def _continuum(direct: Callable, series: Callable,
               y_min: float) -> ContinuumResult:
    _check_y_min(y_min)
    if y_min > _Y_STAR:
        value, size, tail = series(y_min)
        return ContinuumResult(value, y_min, _ROUNDING * size + tail)
    terms = direct(y_min)
    return ContinuumResult(math.fsum(terms), y_min, _ROUNDING * math.fsum(map(abs, terms)))


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


def ymin_sensitivity(
    which: str,
    y_min_grid: Sequence[float],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[ContinuumResult]:
    """Scan a continuum integral over an ascending grid of lower cutoffs.

    `spec` steers nothing, as in kappa1_continuum.
    """
    # The --which and --ymin-grid rules, for the benchmark's lib-sweep and replay.
    if which not in ("kappa1", "kappa2"):
        raise ValueError(f"unknown integral {which!r}; expected kappa1 or kappa2")
    grid = [float(y) for y in y_min_grid]
    if not grid:
        raise ValueError("y_min grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("y_min grid must be strictly ascending")
    op = kappa1_continuum if which == "kappa1" else kappa2_continuum
    return [op(y) for y in grid]
