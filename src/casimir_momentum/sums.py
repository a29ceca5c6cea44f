"""Discrete Rydberg sums in closed form, with exact tails.

With v = 1/n^2 and X_c(v) = exp(-c sum_{j>=1} v^j/(2j+1)), the closed forms
of `hydrogen` make n^3 t(n) of each series over the 1s -> np states a
rational function of v times e^-2 X_2(v) or e^-4 X_4(v) (see SERIES). Its
power series sum_k c_k v^k converges for n >= 2, so the tail beyond n_max
is sum_k c_k zeta(3 + 2k, n_max + 1) at every n_max, with the Hurwitz zeta
computed in-house by `hurwitz_zeta`, whose start depends on s alone and is
memoized per s. The weights zeta(3 + 2k, n_max + 1) are the same for all
five series and memoized for the last _ZETA_MEMO (k, n_max) pairs. Each
c_k, an exact rational times e^-2 plus one times e^-4, is worked out on
first use in 256-bit fixed point and rounded to a float once.

The sum of a series to infinity, S_inf, is worked out once per series on
first use: its first terms directly, the rest as the tail beyond _HEAD, by
the same expansion and weight memo. The partial sum over n = 2..n_max is
then S_inf minus the tail beyond n_max, so a sum costs the same at every
n_max and keeps no table. `verify` checks each partial against an exact sum.
"""

from __future__ import annotations

import math
import sys
from functools import cache, lru_cache
from itertools import count
from typing import Callable, NamedTuple

from . import hydrogen
from .hydrogen import transition_energy

DEFAULT_N_MAX_KAPPA = 200
DEFAULT_N_MAX_POLARIZABILITY = 400
DEFAULT_LAMB_LOG = -8.35     # standard excitation-log value, supplied, never computed

_ZETA_EM_START = 25.0
# B_2k / (2k)! for k = 1..5, the Euler-Maclaurin coefficients used by hurwitz_zeta,
# and |B_12| / 12!, that of the first term it leaves out.
_ZETA_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
                   1.0 / 47900160.0)
_ZETA_EM_OMITTED = 691.0 / 2730.0 / 479001600.0

# A stated bound, relative, on the rounding of the float terms and of the
# sums that hold them. A term is within 8.3 eps of its exact value up to
# n = 1e5, but their errors do not add in one direction: those of n = 2.._HEAD
# add to 1.43 eps of their sum at most (against 60-digit exact-route terms).
# A tail term c_k zeta(3+2k, n_max+1) is within 2.65 eps (the zeta; see
# hurwitz_zeta) plus 0.5 eps (its product), under the 4 eps charged;
# math.fsum adds one rounding of the sum.
_ROUNDING = 4 * sys.float_info.epsilon


# hurwitz_zeta takes any s, so the memo of its start is bounded; a sweep of
# the five series reads about a dozen values of s.
@lru_cache(maxsize=128)
def _em_start(s: float) -> tuple[float, float]:
    """The part of hurwitz_zeta's start that depends on s alone: the log of
    B_12/12! s(s+1)...(s+10) / 4e-16, and the least x at which the first term
    left out is below 4e-16 of x^(1-s)/(s-1)."""
    log_omitted = math.log(_ZETA_EM_OMITTED / 4e-16) + math.fsum(
        math.log(s + j) for j in range(11))
    return log_omitted, math.exp((log_omitted + math.log(s - 1.0)) / 12.0)


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (a + k)^-s for finite s > 1 and a > 0.

    Sums (a + k)^-s directly while a + k is below the start, then adds the
    Euler-Maclaurin tail from x = a + k: x^(1-s)/(s-1) + x^-s/2 + sum_k
    B_2k/(2k)! s(s+1)...(s+2k-2) x^(-s-2k+1), k = 1..5. The start is the
    least x >= 25 at which the first term left out, B_12/12! s...(s+10)
    x^(-s-11), is below 4e-16 of either lower bound of the sum: the tail's
    leading term x^(1-s)/(s-1), or the first term a^-s. It is 25 for s <= 4
    and at most 62 at s = 15 and 114 at s = 31; for large s the second bound
    keeps it near a. Against 50-digit references (a direct sum to a + 120
    and the Euler-Maclaurin tail there) at every odd s from 3 to 79 and 519
    integer a from 3 to 100001, the relative error is at most 2.65 eps
    (5.9e-16, at s = 17, a = 69), and above 1.35 eps at 266 of the 19946
    pairs. That scan leaves out the pairs where a^-s is below the normal
    float range; there digits are lost with it.
    """
    if not (math.isfinite(s) and math.isfinite(a) and s > 1.0 and a > 0.0):
        raise ValueError(f"hurwitz_zeta needs finite s > 1 and a > 0, got s={s!r}, a={a!r}")
    log_omitted, start_by_tail = _em_start(s)
    start = max(_ZETA_EM_START, min(
        start_by_tail, math.exp((log_omitted + s * math.log(a)) / (s + 11.0))))
    n_direct = max(0, math.ceil(start - a))
    x = a + n_direct
    x_s = x**-s
    power = x_s / x                 # x^(-s-2k+1) for k = 1
    rising = s                      # s(s+1)...(s+2k-2) for k = 1
    em_terms = []
    for k, coeff in enumerate(_ZETA_EM_COEFFS, start=1):
        em_terms.append(coeff * rising * power)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= x * x
    total = 0.0
    for t in reversed(em_terms):    # smallest first
        total += t
    total += x * x_s / (s - 1.0) + 0.5 * x_s
    for k in reversed(range(n_direct)):
        total += (a + k) ** -s
    return total


# The (k, n_max) pairs whose tail weights stay memoized. The five series
# share them: a sweep of all five over 8 values of n_max from 100 to 450
# reads 43 pairs 213 times, and their sums to infinity 12 more, (k, _HEAD).
_ZETA_MEMO = 256


@lru_cache(maxsize=_ZETA_MEMO)
def _zeta_weight(k: int, n_max: int) -> float:
    """zeta(3 + 2k, n_max + 1), the weight of c_k in the tail beyond n_max."""
    return hurwitz_zeta(3.0 + 2 * k, n_max + 1.0)


class _Series(NamedTuple):
    """One Rydberg series: its term t(n) from (I1, I2, I3, dE) of one n, and
    n^3 t(n) as a sum of parts w e^-c X_c(v) p(v) (1 - v)^-m, each part given
    as ((numerator, denominator) of w, c, m, coefficients of p in v)."""

    term: Callable[[float, float, float, float], float]
    parts: tuple[tuple[tuple[int, int], int, int, tuple[int, ...]], ...]


SERIES = {
    "kappa1": _Series(lambda i1, i2, i3, de: (2.0 / 27.0) * i1 * i3 / de**2,
                      (((256, 27), 2, 5, (1,)), ((-128, 27), 4, 6, (10, -2)))),
    "kappa2": _Series(lambda i1, i2, i3, de: (1.0 / 27.0) * i2 * i3 / de,
                      (((256, 27), 4, 5, (1,)),)),
    "polarizability": _Series(lambda i1, i2, i3, de: (2.0 / 3.0) * i3 * i3 / de,
                              (((1024, 3), 4, 6, (1,)),)),
    "bethe": _Series(lambda i1, i2, i3, de: i2 * i2, (((64, 1), 4, 3, (1,)),)),
    "oscillator": _Series(lambda i1, i2, i3, de: (2.0 / 3.0) * de * i3 * i3,
                          (((256, 3), 4, 4, (1,)),)),
}


# The coefficients are worked out on first use, never at import, in fixed
# point: a value times _ONE as a Python integer. Each floor division is off
# by less than a unit, so a c_k is within 2^-200 relative of its exact value
# (2^-240 measured to k = 69) before int / int rounds it to a float, once.
_ONE = 1 << 256


@cache
def _x(c: int, k: int) -> int:
    """The coefficient of v^k in X_c(v), times _ONE, from the recurrence
    k x_k = sum_{j=1}^k (-c j/(2j+1)) x_{k-j} of X' = (log X)' X."""
    if k == 0:
        return _ONE
    return sum(-c * j * _x(c, k - j) // (2 * j + 1) for j in range(1, k + 1)) // k


@cache
def _exp_minus(c: int) -> int:
    """e^-c times _ONE: sum_{i<100} (-c)^i/i!, whose rest is below 2^-300
    for c <= 4."""
    total = 0
    power = _ONE                    # (-c)^i _ONE
    factorial = 1                   # i!
    for i in range(100):
        total += power // factorial
        power *= -c
        factorial *= i + 1
    return total


@cache
def _x_over(c: int, m: int, k: int) -> int:
    """The coefficient of v^k in X_c(v) (1 - v)^-m, times _ONE: the partial
    sums of those of X_c(v) (1 - v)^-(m-1), which makes it
    sum_i C(m-1+i, i) x_{k-i}, exactly."""
    if m == 0:
        return _x(c, k)
    return _x_over(c, m - 1, k) + (_x_over(c, m, k - 1) if k else 0)


@cache
def _coefficient(name: str, k: int) -> float:
    """c_k of a series, rounded once: the coefficient of v^k in
    p(v) X_c(v) (1 - v)^-m is sum_d p_d [v^(k-d)] X_c(v) (1 - v)^-m."""
    return sum(num * _exp_minus(c) * sum(
        p * _x_over(c, m, k - d) for d, p in enumerate(poly[:k + 1])) // den
        for (num, den), c, m, poly in SERIES[name].parts) / _ONE**2


def expansion(name: str, weight: Callable[[int], float]) -> tuple[float, float]:
    """sum_k c_k weight(k) of a series, and its error bar.

    The terms are taken for k = 0, 1, ... until the next one is below 2^-60
    of their sum, and added by math.fsum. Every c_k is positive and, from
    k = 1 on, c_{k+1}/c_k is below 2.9 (4.7 from c_0 to c_1), so where
    weight(k+1)/weight(k) <= 1/9, as for n^-(3+2k) and zeta(3+2k, a) at
    n, a >= 3, the terms at least halve from one k to the next. The bar is
    then twice the first term left out, plus the rounding of the
    coefficients (eps/2 each) and _ROUNDING, of the terms' sizes.
    """
    terms = []
    total = 0.0
    for k in count():
        t = _coefficient(name, k) * weight(k)
        if abs(t) <= 2.0**-60 * total:
            size = math.fsum(map(abs, terms))
            return math.fsum(terms), (2.0 * abs(t) + (sys.float_info.epsilon / 2
                                                      + _ROUNDING) * size)
        terms.append(t)
        total += abs(t)


class SpectralSumResult(NamedTuple):
    """A discrete sum with its tail accounting; `partial` is the sum of the
    terms n = 2..n_max, S_inf minus `tail_estimate` (see _spectral_sum)."""

    value: float
    n_max: int
    partial: float
    tail_estimate: float
    error_bound: float


# The terms n = 2.._HEAD of a sum to infinity are taken directly, the rest
# from the expansion at a = _HEAD + 1. At a = 10 the five series read 55
# coefficients in all, over 12 weights _zeta_weight(k, _HEAD) that they
# share; at a = 3 (a head of t(2) alone) they would read 113.
_HEAD = 9


@cache
def _sum_to_infinity(name: str) -> tuple[float, float]:
    """S_inf, the sum of a series over n = 2..inf, and its error bar, worked
    out on first use: math.fsum of the closed-form terms n = 2.._HEAD and of
    sum_k c_k zeta(3 + 2k, _HEAD + 1). The bar is the expansion's, plus
    _ROUNDING of the terms and eps/2 of S_inf for the fsum."""
    series = SERIES[name]
    head = [series.term(*hydrogen._closed_form(n), transition_energy(n))
            for n in range(2, _HEAD + 1)]
    rest, bar = expansion(name, lambda k: _zeta_weight(k, _HEAD))
    total = math.fsum([*head, rest])
    return total, bar + _ROUNDING * math.fsum(head) + sys.float_info.epsilon / 2 * total


def _spectral_sum(name: str, n_max: int, tail: bool) -> SpectralSumResult:
    """The sum of the terms n = 2..n_max of a series, as S_inf minus the
    exact tail beyond n_max, and that tail; the cost is the same at every
    n_max. The bar adds S_inf's, the tail's and eps/2 of the partial sum for
    the subtraction; with the tail on, eps/2 of the value for adding it back,
    and with the tail off, the tail itself."""
    # The --n-max rule, for the benchmark's lib-sweep and replay.
    if not (n_max >= 2 and n_max % 1 == 0):
        raise ValueError("n_max must be an integer >= 2")
    total, total_bar = _sum_to_infinity(name)
    rest, bar = expansion(name, lambda k: _zeta_weight(k, n_max))
    partial = total - rest
    bar += total_bar + sys.float_info.epsilon / 2 * partial
    if tail:
        value = partial + rest
        return SpectralSumResult(value=value, n_max=n_max, partial=partial,
                                 tail_estimate=rest,
                                 error_bound=bar + sys.float_info.epsilon / 2 * value)
    return SpectralSumResult(value=partial, n_max=n_max, partial=partial,
                             tail_estimate=0.0, error_bound=rest + bar)


def kappa1_discrete(n_max: int = DEFAULT_N_MAX_KAPPA, tail: bool = True) -> SpectralSumResult:
    """(2/27) sum_n I1(n) I3(n) / dE_n^2 over the np series; positive.

    This is the second-order magnetic-coupling coefficient that lowers the
    field-induced momentum; the n = 2 term alone is 0.1644.
    """
    return _spectral_sum("kappa1", n_max, tail)


def kappa2_discrete(n_max: int = DEFAULT_N_MAX_KAPPA, tail: bool = True) -> SpectralSumResult:
    """(1/27) sum_n I2(n) I3(n) / dE_n over the np series; positive."""
    return _spectral_sum("kappa2", n_max, tail)


def polarizability_discrete(n_max: int = DEFAULT_N_MAX_POLARIZABILITY,
                            tail: bool = True) -> SpectralSumResult:
    """Bound-state part of the static dipole polarizability, atomic units.

    (2/3) sum_n I3(n)^2 / dE_n, in units of 4 pi eps0 a0^3. The exact value
    including the continuum is 9/2; the bound states alone give 3.663.
    """
    return _spectral_sum("polarizability", n_max, tail)


POLARIZABILITY_EXACT_AU = 4.5   # bound states plus continuum, = 18 pi a0^3 / (4 pi a0^3)


def bethe_sum(n_max: int = DEFAULT_N_MAX_KAPPA, tail: bool = True) -> SpectralSumResult:
    """sum_n I2(n)^2: squared unit-vector matrix elements at constant log."""
    return _spectral_sum("bethe", n_max, tail)


def oscillator_strength_sum(n_max: int = DEFAULT_N_MAX_POLARIZABILITY,
                            tail: bool = True) -> SpectralSumResult:
    """Discrete 1s -> np oscillator-strength sum; < 1 by the TRK rule."""
    return _spectral_sum("oscillator", n_max, tail)


def normalization_constant(log_value: float, bethe: SpectralSumResult) -> float:
    """Ground-state normalization deficit as the coefficient of alpha^3.

    (1/pi) (-log_value - 1/2) S_B, where S_B is the constant-log sum above
    and log_value is supplied externally (DEFAULT_LAMB_LOG = -8.35 is the
    standard value used in excitation-spectrum averages). With S_B = 0.336
    the coefficient is 0.84.
    """
    return (-log_value - 0.5) * bethe.value / math.pi
