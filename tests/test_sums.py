import functools
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from casimir_momentum import hydrogen, sums, verify
from casimir_momentum.hydrogen import radial_record
from casimir_momentum.sums import (
    SpectralSumResult,
    bethe_sum,
    hurwitz_zeta,
    kappa1_discrete,
    kappa2_discrete,
    normalization_constant,
    oscillator_strength_sum,
    polarizability_discrete,
)
from casimir_momentum.units import POLARIZABILITY_EXACT_AU

SQRT6 = math.sqrt(6.0)
I1_2 = 16.0 / (27.0 * SQRT6)
I2_2 = 32.0 / (27.0 * SQRT6)
I3_2 = 768.0 / (243.0 * SQRT6)

# Direct high-precision summation oracle for sum_{n>100} n^-3 (Hurwitz).
ZETA3_TAIL_AT_100 = 4.9502499916674999e-5


# --- Hurwitz zeta -------------------------------------------------------------

def test_hurwitz_zeta_known_values():
    assert hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-15)
    assert hurwitz_zeta(3.0, 1.0) == pytest.approx(1.2020569031595942, rel=1e-15)
    assert hurwitz_zeta(3.0, 101.0) == pytest.approx(ZETA3_TAIL_AT_100, rel=1e-15)


# zeta(s, a) at a = 3, 26, 60, 201 for s <= 31, from mpmath at 100 digits,
# cross-checked against 120 digits and against mpmath.nsum of the defining
# series; at a = 3, 6, 10 for s = 41 and 55, the orders the Rydberg tails
# reach at small n_max, from mpmath.nsum at 130 digits, cross-checked
# against mpmath.zeta at 110 and 130 digits (they agree to 1e-66). A row
# for s <= 31 lists a = 3, 26, 60, 201 in order; one for s = 41 or 55 is
# keyed by the index of a in _ZETA_A.
_ZETA_A = (3.0, 26.0, 60.0, 201.0, 6.0, 10.0)
ZETA_HIGH_S = {
    7: (5.367773819228268398e-4, 6.0456229053590879634e-10,
        3.7543291980440575122e-12, 2.5653320244145100475e-15),
    15: (7.0658182020493551729e-8, 1.4338278730455874912e-21,
         1.0222617908527509286e-26, 4.2089732597427706818e-34),
    23: (1.0636414529823067789e-11, 5.0090964133489766572e-33,
         4.1268888434093818149e-41, 1.0252583061945079818e-52),
    31: (1.6191956391494864233e-15, 2.000927923704680402e-44,
         1.9170410711782993012e-55, 2.8775900853901850926e-71),
    41: {0: 2.74177512837223916717e-20, 4: 1.24905883199445130407e-32,
         5: 1.02067566236909852407e-41},
    55: {0: 5.73232821522553283627e-27, 4: 1.59137152486156103004e-43,
         5: 1.00533406066875474077e-55},
}


@pytest.mark.parametrize("i, a, s", [
    (i, _ZETA_A[i], s) for s in sorted(ZETA_HIGH_S)
    for i in (range(4) if s <= 31 else ZETA_HIGH_S[s])])
def test_hurwitz_zeta_high_s_literals(s, i, a):
    # A start fixed at 25 left 1e-11 at (15, 26) and 1e-8 at (31, 26).
    assert hurwitz_zeta(float(s), a) == pytest.approx(ZETA_HIGH_S[s][i],
                                                      rel=1e-15, abs=0.0)


@pytest.mark.parametrize("s", [3.0, 4.0])
@pytest.mark.parametrize("a", [1.0, 9.0, 24.5, 25.0, 201.0, 1e6])
def test_hurwitz_zeta_recurrence(s, a):
    # Pairs straddle the switch to the Euler-Maclaurin tail at a + k = 25.
    assert hurwitz_zeta(s, a) == pytest.approx(hurwitz_zeta(s, a + 1.0) + a**-s,
                                               rel=1e-14)


@pytest.mark.parametrize("s, a", [(1.0, 2.0), (0.5, 2.0), (3.0, 0.0), (3.0, -1.0),
                                  (math.nan, 2.0), (3.0, math.nan),
                                  (math.inf, 2.0), (3.0, math.inf)])
def test_hurwitz_zeta_domain(s, a):
    with pytest.raises(ValueError):
        hurwitz_zeta(s, a)


# B_2k / (2k)! for k = 1..10.
_BERNOULLI_RATIOS = tuple(
    Fraction(b) / math.factorial(2 * k) for k, b in enumerate(
        ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6",
         "-3617/510", "43867/798", "-174611/330"), start=1))


def _zeta_reference(s: int, a: int) -> Decimal:
    """zeta(s, a) at 40 digits: (a + k)^-s summed directly for k < 120,
    then the Euler-Maclaurin tail at x = a + 120 to its B_20 term."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(a + 120)
        total = sum((Decimal(a + k) ** -s for k in range(120)), Decimal(0))
        total += x ** (1 - s) / (s - 1) + x ** -s / 2
        rising, power = Decimal(s), x ** (-s - 1)
        for k, ratio in enumerate(_BERNOULLI_RATIOS, start=1):
            total += Decimal(ratio.numerator) / ratio.denominator * rising * power
            rising *= (s + 2 * k - 1) * (s + 2 * k)
            power /= x * x
        return total


@pytest.mark.parametrize("s, a", [(17, 69), (21, 82), (69, 241),
                                  *((s, 100001) for s in (3, 13, 29, 41, 55))])
def test_hurwitz_zeta_within_3_eps_of_decimal_reference(s, a):
    # The worst pairs of a scan over the odd s and integer a that the Rydberg
    # tails read (2.65 eps at (17, 69)), and a at the --n-max ceiling plus 1.
    ref = _zeta_reference(s, a)
    with localcontext() as ctx:
        ctx.prec = 40
        rel = abs(Decimal(hurwitz_zeta(float(s), float(a))) - ref) / ref
    assert rel <= 3 * Decimal(sys.float_info.epsilon), float(rel)


# The n_max of a scan from the least n_max to past the --n-max ceiling.
_SCAN_N_MAX = (*range(2, 401), 1000, 3000, 20000, 99999, 100000)


def test_sums_read_hurwitz_zeta_where_a_to_minus_s_is_normal(fresh_memos, monkeypatch):
    # hurwitz_zeta loses digits where a^-s is subnormal; no pair that the
    # five sums and verify's derivation of their sums to infinity read is
    # one (the smallest a^-s is 2e-39, at s = 9, a = 20001; the largest s
    # is 49, at a = 3).
    pairs = set()

    def recorded(s, a):
        pairs.add((s, a))
        return hurwitz_zeta(s, a)
    monkeypatch.setattr(sums, "hurwitz_zeta", recorded)
    for name in verify._SERIES:
        verify._sum_to_infinity(name)
        for n_max in _SCAN_N_MAX:
            sums._spectral_sum(name, n_max, True)
    assert min(a**-s for s, a in pairs) >= sys.float_info.min
    assert max(s for s, _ in pairs) == 49.0


def test_largest_coefficient_read_is_the_tables_last(fresh_memos, monkeypatch):
    # Over the scan, and verify's derivation of the sums to infinity, the
    # largest k read is c_23, the last entry of every series' table; only
    # polarizability at n_max = 2 reads it.
    read = dict.fromkeys(verify._SERIES, 0)
    expansion = sums.expansion

    def recorded(name, weight):
        def noted(k):
            read[name] = max(read[name], k)
            return weight(k)
        return expansion(name, noted)
    monkeypatch.setattr(sums, "expansion", recorded)
    for name in verify._SERIES:
        verify._sum_to_infinity(name)
        for n_max in _SCAN_N_MAX:
            sums._spectral_sum(name, n_max, True)
    lengths = {len(table) for table in sums._COEFFICIENTS.values()}
    assert lengths == {max(read.values()) + 1} == {24}
    assert [name for name, k in read.items() if k == 23] == ["polarizability"]


@pytest.mark.parametrize("name", list(verify._SERIES))
def test_expansion_past_its_table_names_the_series(name):
    # A weight that decays by 0.9 a step never falls below 2^-60 of the sum
    # within 24 terms: the expansion refuses, where a bare IndexError or a
    # silently short sum would not say which series ran out.
    with pytest.raises(ValueError, match=f"'{name}'.*k = 23"):
        sums.expansion(name, lambda k: 0.9**k)


# --- discrete sums ----------------------------------------------------------

def test_kappa1_first_term():
    res = kappa1_discrete(n_max=2, tail=False)
    expected = (2.0 / 27.0) * I1_2 * I3_2 / 0.375**2
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.value == pytest.approx(0.16441, abs=1e-4)
    assert res.partial == res.value


def test_kappa2_first_term():
    res = kappa2_discrete(n_max=2, tail=False)
    expected = (1.0 / 27.0) * I2_2 * I3_2 / 0.375
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.value == pytest.approx(0.061660, abs=1e-4)


def test_polarizability_first_term():
    res = polarizability_discrete(n_max=2, tail=False)
    expected = (2.0 / 3.0) * I3_2**2 / 0.375
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.value == pytest.approx(2.9599, abs=1e-3)


def test_bethe_first_term():
    res = bethe_sum(n_max=2, tail=False)
    assert res.value == pytest.approx(I2_2**2, rel=1e-12)
    assert res.value == pytest.approx(0.234069, abs=1e-4)


# The bands are the rows of verify.CHECKS, applied to a direct call.
_BAND = {chk.name: chk for chk in verify.CHECKS}


def test_kappa_values_at_default_truncation():
    assert _BAND["kappa1_discrete_200"].passes(kappa1_discrete(200, tail=True).value)
    assert _BAND["kappa2_discrete_200"].passes(kappa2_discrete(200, tail=True).value)


def test_bethe_value():
    assert _BAND["bethe_sum_200"].passes(bethe_sum(200, tail=True).value)


def test_polarizability_values():
    res = polarizability_discrete(400, tail=True)
    assert res.value < POLARIZABILITY_EXACT_AU
    # All truncations stay below the exact total; continuum part is positive.
    assert all(polarizability_discrete(n, tail=False).value < POLARIZABILITY_EXACT_AU
               for n in range(2, 401))


def test_oscillator_sum_value():
    assert oscillator_strength_sum(400, tail=True).value < 1.0
    assert all(oscillator_strength_sum(n, tail=False).value < 1.0
               for n in range(2, 401))


def test_kappa2_monotone_in_n_max():
    assert kappa2_discrete(50, tail=False).value < kappa2_discrete(100, tail=False).value


def test_kappa1_positive_every_truncation():
    assert all(kappa1_discrete(n, tail=False).value > 0 for n in range(2, 81))


def test_value_decomposition_identity():
    res = kappa1_discrete(64, tail=True)
    assert res.value == res.partial + res.tail_estimate
    assert res.partial == kappa1_discrete(64, tail=False).value


@pytest.mark.parametrize("op", [kappa1_discrete, kappa2_discrete, bethe_sum,
                                polarizability_discrete, oscillator_strength_sum])
def test_doubling_error_bound(op):
    lo = op(100, tail=True)
    hi = op(200, tail=True)
    assert abs(lo.value - hi.value) <= lo.error_bound


@pytest.mark.parametrize("op", [kappa1_discrete, kappa2_discrete])
def test_doubling_error_bound_tail_off(op):
    lo = op(100, tail=False)
    hi = op(200, tail=False)
    assert abs(lo.value - hi.value) <= lo.error_bound


def test_repeated_runs_bit_identical():
    a = kappa1_discrete(120, tail=True)
    b = kappa1_discrete(120, tail=True)
    assert a.value == b.value
    assert a.partial == b.partial
    assert a.tail_estimate == b.tail_estimate


def _transition_energy(n: int) -> float:
    """E_n - E_1 = 1/2 - 1/(2 n^2) hartree."""
    return 0.5 - 0.5 / (n * n)


# Each series' term of n from the single-n interface, radial_record(n), and
# the transition energy, in the series' own operand order.
_REFERENCE_TERMS = {
    kappa1_discrete: lambda n: (2.0 / 27.0) * radial_record(n).I1
    * radial_record(n).I3 / _transition_energy(n) ** 2,
    kappa2_discrete: lambda n: (1.0 / 27.0) * radial_record(n).I2
    * radial_record(n).I3 / _transition_energy(n),
    polarizability_discrete: lambda n: (2.0 / 3.0) * radial_record(n).I3
    * radial_record(n).I3 / _transition_energy(n),
    bethe_sum: lambda n: radial_record(n).I2 * radial_record(n).I2,
    oscillator_strength_sum: lambda n: (2.0 / 3.0) * _transition_energy(n)
    * radial_record(n).I3 * radial_record(n).I3,
}


# The name of each series in verify._SERIES.
_NAMES = {kappa1_discrete: "kappa1", kappa2_discrete: "kappa2",
          polarizability_discrete: "polarizability", bethe_sum: "bethe",
          oscillator_strength_sum: "oscillator"}


_closed_feed = functools.cache(verify._closed_feed)


@functools.cache
def _exact_partial(name: str, n_max: int) -> Fraction:
    """verify's integer terms of a series summed over n = 2..n_max."""
    weight = verify._SERIES[name].weight
    return Fraction(sum(verify._exact_term(weight, n, _closed_feed(n))
                        for n in range(2, n_max + 1)), 1 << verify._SCALE)


def _reference_sum(fn, n_max: int, tail: bool) -> SpectralSumResult:
    """fn(n_max, tail) from a full term list, math.fsum of it and the
    expansion's tail sum_k c_k zeta(3 + 2k, n_max + 1). Its float terms have
    no stated bound (single terms reach 7.85 eps of exact, with mixed
    signs), so the partial's charge, sums._ROUNDING (4 eps) of it, is
    checked here: the partial lies within it of the sum of verify's integer
    terms, plus their floors, _TERM_FLOOR each. The worst at the n_max below
    is 0.30 of the charge, for kappa1."""
    partial = math.fsum(_REFERENCE_TERMS[fn](n) for n in range(2, n_max + 1))
    rest, bar = sums.expansion(_NAMES[fn],
                               lambda k: hurwitz_zeta(3.0 + 2 * k, n_max + 1.0))
    gap = abs(Fraction(partial) - _exact_partial(_NAMES[fn], n_max))
    assert gap <= Fraction(sums._ROUNDING * partial) + (n_max - 1) * Fraction(
        verify._TERM_FLOOR)
    bar += sums._ROUNDING * partial
    if not tail:
        return SpectralSumResult(partial, n_max, partial, 0.0, rest + bar)
    return SpectralSumResult(partial + rest, n_max, partial, rest, bar)


@pytest.mark.parametrize("tail", [True, False])
@pytest.mark.parametrize("n_max", [9, 10, 57, 200, 401, 1000, 2100])
@pytest.mark.parametrize("fn", list(_REFERENCE_TERMS))
def test_one_pass_sum_bit_identical_to_term_list(fn, n_max, tail):
    # S_inf - tail(n_max) against a sum of the terms one by one: n_max and
    # the tail exactly, the partial sum and the value within the sum of both
    # bars on the partial sum, which are the bars with the tail on.
    res, ref = fn(n_max, tail), _reference_sum(fn, n_max, tail)
    bars = fn(n_max, True).error_bound + _reference_sum(fn, n_max, True).error_bound
    assert (res.n_max, res.tail_estimate) == (ref.n_max, ref.tail_estimate)
    assert abs(res.partial - ref.partial) <= bars
    assert abs(res.value - ref.value) <= bars


@pytest.mark.parametrize("tail", [True, False])
@pytest.mark.parametrize("n_max", [2, 9, 20, 200, 1000, 20000, 100000])
@pytest.mark.parametrize("fn", list(_NAMES))
def test_sum_within_error_of_sum_to_infinity(sum_to_infinity, fn, n_max, tail):
    # Compared exactly: the error bar must cover the whole gap to the sum to
    # infinity, the tail left off included.
    res = fn(n_max, tail)
    gap = abs(Fraction(res.value) - Fraction(sum_to_infinity[_NAMES[fn]]))
    assert gap <= Fraction(res.error_bound)
    if tail and n_max >= 20:
        assert res.error_bound <= 2e-15 * res.value


def test_series_read_no_per_n_interface(fresh_memos, monkeypatch):
    # The five series at any n_max, from a cold start, call neither the
    # closed forms nor radial_record: S_inf is read from its table.
    def refuse(*args):
        pytest.fail("a per-n interface was called")
    monkeypatch.setattr(hydrogen, "_closed_form", refuse)
    monkeypatch.setattr(hydrogen, "radial_record", refuse)
    for fn in _REFERENCE_TERMS:
        for n_max in (2, 300, 10**5, 10**7):
            fn(n_max, tail=True)
            fn(n_max, tail=False)


def test_warm_sum_memory_bounded():
    # Once S_inf is known, a sum works out one tail at any n_max: the first
    # kappa1_discrete(10**6) peaks below 50 kB, where a column of its terms
    # alone would take 8 MB.
    kappa1_discrete(200)
    tracemalloc.start()
    try:
        kappa1_discrete(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05e6


@pytest.mark.parametrize("steps", [(79, 120, 163), (20, 1000), (1000, 2100)])
@pytest.mark.parametrize("name", list(verify._SERIES))
def test_running_column_grown_in_steps_bit_identical(fresh_memos, name, steps):
    # A sum reached through smaller n_max first is bit-identical to one made
    # on fresh memos: S_inf and the tail weights depend on no earlier n_max.
    for n_max in steps:
        sums._spectral_sum(name, n_max, True)
    stepped = sums._spectral_sum(name, steps[-1], True)
    fresh_memos()
    assert sums._spectral_sum(name, steps[-1], True) == stepped


def test_cold_sums_to_infinity_work_out_each_zeta_weight_once(fresh_memos, monkeypatch):
    # verify's derivation of the five sums to infinity weighs c_k by
    # zeta(3 + 2k, 10) for all of them: one call of hurwitz_zeta per
    # distinct (s, a), and S_inf bit-identical to warm.
    warm = {name: verify._sum_to_infinity(name) for name in verify._SERIES}
    fresh_memos()
    calls = []

    def counted(s, a):
        calls.append((s, a))
        return hurwitz_zeta(s, a)
    monkeypatch.setattr(sums, "hurwitz_zeta", counted)
    cold = {name: verify._sum_to_infinity(name) for name in verify._SERIES}
    assert cold == warm
    assert calls and len(calls) == len(set(calls)), len(calls)


def _reference_coefficients(name: str, k_max: int) -> list[float]:
    """c_0..c_k_max of a series in verify's fixed point, written out directly:
    the recurrence of each x_k, e^-c as a Taylor sum over math.factorial,
    and the double sum over p(v) and (1 - v)^-m."""
    one = verify._ONE
    xs: dict[int, list[int]] = {}
    for c in (2, 4):
        xs[c] = [one]
        for k in range(1, k_max + 1):
            xs[c].append(sum(-c * j * xs[c][k - j] // (2 * j + 1)
                             for j in range(1, k + 1)) // k)
    exp_minus = {c: sum((-c) ** i * one // math.factorial(i) for i in range(100))
                 for c in (2, 4)}
    return [sum(num * exp_minus[c] * sum(
        p * math.comb(m - 1 + i, i) * xs[c][k - d - i]
        for d, p in enumerate(poly) for i in range(k - d + 1)) // den
        for (num, den), c, m, poly in verify._SERIES[name].parts) / one**2
        for k in range(k_max + 1)]


@pytest.mark.parametrize("name", list(verify._SERIES))
def test_coefficients_bit_identical_to_direct_double_sum(name):
    # verify's derivation to k = 120, and the table sums reads, c_0..c_23.
    reference = _reference_coefficients(name, 120)
    assert list(verify._coefficients(name, 121)) == reference
    assert list(sums._COEFFICIENTS[name]) == reference[:24]


def _reference_term(weight, n: int) -> Fraction:
    """w I_a I_b dE^e of n in rational arithmetic, from the Horner S_p: with
    I_p = 4 n^(p-1) S_p/((n+1)^(n+p) sqrt((n-1) n (n+1))), I_a I_b is
    rational, and dE = 1/2 - 1/(2 n^2)."""
    (num, den), a, b, e = weight
    s = hydrogen._horner_sums(n)
    i = [Fraction(4 * n ** (p - 1) * s[p - 1], (n + 1) ** (n + p)) for p in (1, 2, 3)]
    energy = Fraction(1, 2) - Fraction(1, 2 * n * n)
    return Fraction(num, den) * i[a - 1] * i[b - 1] / ((n - 1) * n * (n + 1)) * energy**e


@pytest.mark.parametrize("n", [*range(2, 61), 100, 200, 400])
def test_exact_term_within_its_bound_of_rational_arithmetic(n):
    # verify's one term function, fed by the closed forms of one division,
    # is within _TERM_FLOOR of the rational term from the Horner integers
    # for every series.
    bound = Fraction(verify._TERM_FLOOR) * 2**verify._SCALE
    xs = verify._closed_feed(n)
    for name, series in verify._SERIES.items():
        exact = _reference_term(series.weight, n) * 2**verify._SCALE
        assert abs(verify._exact_term(series.weight, n, xs) - exact) < bound, name


def test_sums_to_infinity_and_expansion_row_read_no_float_route(fresh_memos, monkeypatch):
    # verify's S_inf and its expansion row read the closed forms of the S_p
    # in integers alone: they give the same values while the float closed
    # forms, radial_record and the rounded I_p all refuse.
    def derived():
        return ({name: verify._sum_to_infinity(name) for name in verify._SERIES},
                verify._expansion_oracle(verify._Memo({})))
    expected = derived()
    fresh_memos()

    def refuse(*args):
        pytest.fail("a float radial route was called")
    for name in ("_closed_form", "radial_record", "_integrals_of"):
        monkeypatch.setattr(hydrogen, name, refuse)
    assert derived() == expected


def test_zeta_memo_bounded():
    for n_max in range(2, 302):
        kappa2_discrete(n_max)
    info = sums._zeta_weight.cache_info()
    assert info.maxsize == sums._ZETA_MEMO
    assert info.currsize <= sums._ZETA_MEMO


def test_n_max_validation():
    # A tail from a fractional n_max would give a partial sum of no n.
    for n_max in (1, 2.5, math.nan):
        with pytest.raises(ValueError):
            kappa1_discrete(n_max, tail=False)


# --- normalization coefficient ----------------------------------------------

def _bethe(value: float) -> SpectralSumResult:
    return SpectralSumResult(value=value, n_max=200, partial=value,
                             tail_estimate=0.0, error_bound=0.0)


def test_normalization_constant_published_inputs():
    assert normalization_constant(-8.35, _bethe(0.336)) == pytest.approx(0.8395, abs=0.01)


def test_normalization_constant_zero_cases():
    assert normalization_constant(-0.5, _bethe(0.7)) == 0.0
    assert normalization_constant(-8.35, _bethe(0.0)) == 0.0
