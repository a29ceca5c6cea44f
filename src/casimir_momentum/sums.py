"""Discrete Rydberg sums in closed form, with exact tails.

With v = 1/n^2 and X_c(v) = exp(-c sum_{j>=1} v^j/(2j+1)), the closed forms
of `hydrogen` make n^3 t(n) of each series over the 1s -> np states a
rational function of v times e^-2 X_2(v) or e^-4 X_4(v) (verify._SERIES
writes out each series). Its power series sum_k c_k v^k converges for
n >= 2, so the tail beyond n_max is sum_k c_k zeta(3 + 2k, n_max + 1) at
every n_max, with the Hurwitz zeta computed in-house by `hurwitz_zeta`,
whose start depends on s alone and is memoized per s. The weights
zeta(3 + 2k, n_max + 1) are the same for all five series and memoized for
the last _ZETA_MEMO (k, n_max) pairs. The c_k are read from a literal
table, _COEFFICIENTS, to k = 23, the largest index a sum at any n_max >= 2
reads.

The sum of a series to infinity, S_inf, and its bar are read from a second
literal table, _SUMS_TO_INFINITY. The partial sum over n = 2..n_max is
S_inf minus the tail beyond n_max, so a sum costs the same at every n_max
and keeps no table of terms. `verify` derives every entry of both tables,
each c_k (an exact rational times e^-2 plus one times e^-4) in 256-bit
fixed point, and requires it equal to its table entry in every bit; it also
checks each partial against an exact sum.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

DEFAULT_N_MAX_KAPPA = 200
DEFAULT_N_MAX_POLARIZABILITY = 400
DEFAULT_LAMB_LOG = -8.35     # standard excitation-log value, supplied, never computed

_ZETA_EM_START = 25.0
# B_2k / (2k)! for k = 1..5, the Euler-Maclaurin coefficients used by hurwitz_zeta,
# and |B_12| / 12!, that of the first term it leaves out.
_ZETA_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
                   1.0 / 47900160.0)
_ZETA_EM_OMITTED = 691.0 / 2730.0 / 479001600.0

# A stated bound, relative, on the rounding of a tail term c_k zeta(3+2k,
# n_max+1): 2.65 eps for the zeta (see hurwitz_zeta) and 0.5 eps for the
# product, under the 4 eps charged; math.fsum adds one rounding of the sum.
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
# reads 43 pairs 213 times. verify's derivation of the sums to infinity
# reads 12 more, (k, 9).
_ZETA_MEMO = 256


@lru_cache(maxsize=_ZETA_MEMO)
def _zeta_weight(k: int, n_max: int) -> float:
    """zeta(3 + 2k, n_max + 1), the weight of c_k in the tail beyond n_max."""
    return hurwitz_zeta(3.0 + 2 * k, n_max + 1.0)


# c_0..c_23 of each series: the floats that verify's exact derivation
# (fixed point, within 2^-200 relative of exact) rounds once, written with
# repr. The row rydberg_tables_exact holds every entry equal to it.
_COEFFICIENTS = {
    "kappa1": (
        0.41488202707381844, 1.6820491900231898, 4.1876688745646415,
        8.261681834718798, 14.186042614506107, 22.20393658418385, 32.52749952928191,
        45.34385284794163, 60.819746806347226, 79.10513994328994,
        100.33598281550576, 124.6364075970307, 152.12047105570463,
        182.89355841001438, 217.0535267642034, 254.69164623403583,
        295.89338212477077, 340.7390508754513, 389.3043747248524, 441.6609543415624,
        497.87667440919347, 558.0160539603064, 622.1405508232532, 690.3088276821177,
    ),
    "kappa2": (
        0.17365939094503519, 0.6367511001317957, 1.462597981514852,
        2.6994693825597023, 4.380659718654351, 6.530120020728801, 9.165706419167721,
        12.301136191699706, 15.947215939024003, 20.112642523223357,
        24.804543193779093, 30.028850721487164, 35.79057077705045,
        42.09397690946158, 48.94275563354681, 56.340116352817915, 64.2888759906063,
        72.79152509648254, 81.85028015966725, 91.46712549848695, 101.643847164588,
        112.38206065397664, 123.68323376006657, 135.5487055762045,
    ),
    "polarizability": (
        6.251738074021267, 29.174777678765913, 81.82830501330058,
        179.00920278544987, 336.7129526570065, 571.7972734032434, 901.7627044932813,
        1344.6036073944708, 1918.703381199335, 2642.7585120353756,
        3535.722067011423, 4616.760692984961, 5905.221240958777, 7420.604409699394,
        9182.54361250708, 11210.787801208524, 13525.187336870351,
        16145.682240343722, 19092.292326091745, 22385.108844037273,
        26044.28734196244, 30090.0415255056, 34542.637940868, 39422.39134161136,
    ),
    "bethe": (
        1.1722008888789874, 1.9536681481316458, 2.4485974123249963,
        2.77441550771711, 2.999152811586137, 3.160822270363664, 3.281351150460174,
        3.3739427751281816, 3.446887329848105, 3.5055911489066363,
        3.5537000829055803, 3.5937462857782645, 3.62753456302267,
        3.6563810187230144, 3.6812649938001334, 3.7029284675046568,
        3.7219426999916503, 3.7387539095930173, 3.7537152118321777,
        3.7671093605361294, 3.7791652091491583, 3.7900698071912258,
        3.7999774127337207, 3.80901629282398,
    ),
    "oscillator": (
        1.5629345185053167, 4.167825382680845, 7.432621932447506,
        11.131842609403652, 15.130713024851836, 19.345142718670054,
        23.720277585950285, 28.21886795278786, 32.81471772591867, 37.48883925779418,
        42.227106035001626, 47.01876774937264, 51.85548050006954, 56.73065519170022,
        61.63900851676706, 66.57624647343994, 71.53883674009548, 76.52384195288616,
        81.5287955686624, 86.55160804937724, 91.59049499490945, 96.64392140449776,
        101.71055795480937, 106.78924634524135,
    ),
}


def expansion(name: str, weight: Callable[[int], float]) -> tuple[float, float]:
    """sum_k c_k weight(k) of a series, and its error bar.

    The terms are taken for k = 0, 1, ... until the next one is below 2^-60
    of their sum, and added by math.fsum. Every c_k is positive and, from
    k = 1 on, c_{k+1}/c_k is below 2.9 (4.7 from c_0 to c_1), so where
    weight(k+1)/weight(k) <= 1/9, as for n^-(3+2k) and zeta(3+2k, a) at
    n, a >= 3, the terms at least halve from one k to the next. The bar is
    then twice the first term left out, plus the rounding of the
    coefficients (eps/2 each) and _ROUNDING, of the terms' sizes. A weight
    that decays too slowly to stop within the table raises ValueError.
    """
    terms = []
    total = 0.0
    for k, c in enumerate(_COEFFICIENTS[name]):
        t = c * weight(k)
        if abs(t) <= 2.0**-60 * total:
            size = math.fsum(map(abs, terms))
            return math.fsum(terms), (2.0 * abs(t) + (sys.float_info.epsilon / 2
                                                      + _ROUNDING) * size)
        terms.append(t)
        total += abs(t)
    raise ValueError(f"the expansion of {name!r} needs c_k past k = {k}, "
                     "the last in its table")


class SpectralSumResult(NamedTuple):
    """A discrete sum with its tail accounting; `partial` is the sum of the
    terms n = 2..n_max, S_inf minus `tail_estimate` (see _spectral_sum)."""

    value: float
    n_max: int
    partial: float
    tail_estimate: float
    error_bound: float


# (S_inf, its bar) of each series, written with repr: verify derives each
# pair from the exact terms n = 2..9 and the expansion's sum at a = 10, and
# rydberg_tables_exact holds the entries equal to it.
_SUMS_TO_INFINITY = {
    "kappa1": (0.20874842692572437, 4.8435879679141803e-17),
    "kappa2": (0.07962086489387006, 1.854960396313885e-17),
    "polarizability": (3.6632578903094712, 8.448902081979e-16),
    "bethe": (0.337016972356072, 8.064633186004985e-17),
    "oscillator": (0.565004150674852, 1.3324064459097148e-16),
}


def _spectral_sum(name: str, n_max: int, tail: bool) -> SpectralSumResult:
    """The sum of the terms n = 2..n_max of a series, as S_inf minus the
    exact tail beyond n_max, and that tail; the cost is the same at every
    n_max. The bar adds S_inf's, the tail's and eps/2 of the partial sum for
    the subtraction; with the tail on, eps/2 of the value for adding it back,
    and with the tail off, the tail itself."""
    # The --n-max rule, for the benchmark's lib-sweep and replay.
    if not (n_max >= 2 and n_max % 1 == 0):
        raise ValueError("n_max must be an integer >= 2")
    total, total_bar = _SUMS_TO_INFINITY[name]
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
