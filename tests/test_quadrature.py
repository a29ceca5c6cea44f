import functools
import math
import re
import sys
from fractions import Fraction

import pytest

from casimir_momentum import quadrature, verify
from casimir_momentum.cli import run
from casimir_momentum.quadrature import (
    DEFAULT_SPEC,
    Y_MIN_MAX,
    ContinuumResult,
    QuadratureError,
    QuadratureSpec,
    integrate_adaptive,
    integrate_to_inf,
    kappa1_continuum,
    kappa1_continuum_integrand,
    kappa2_continuum,
    kappa2_continuum_integrand,
    ymin_sensitivity,
)

BETA_VALUE = 3.0 * math.pi / 512.0  # int_0^inf y^4/(1+y^2)^6 dy
EPS = sys.float_info.epsilon


def _linspace(start, stop, num):
    """num evenly spaced points from start to stop, both included."""
    step = (stop - start) / (num - 1)
    return [*(i * step + start for i in range(num - 1)), stop]


def _geomspace(start, stop, num):
    """num points from start to stop, both included, evenly spaced in log."""
    inner = [10.0 ** y for y in _linspace(math.log10(start), math.log10(stop), num)]
    return [start, *inner[1:-1], stop]


def test_polynomial():
    res = integrate_adaptive(lambda x: x**2, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-12


def test_beta_integral_via_upper_cut():
    # Tail beyond the cut is bounded by int_Y^inf y^-8 = Y^-7/7; the value
    # on the cut is the verify check beta_integral_closed_form.
    assert verify._BETA_CUT**-7 / 7.0 < DEFAULT_SPEC.abs_tol / 10.0


def test_interior_kink_converges_with_subdivisions():
    res = integrate_adaptive(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0)
    assert abs(res.value - 5.0 / 18.0) < 1e-10
    assert res.subdivisions > 0
    assert res.neval >= 15 * (1 + 2 * res.subdivisions) - 30


@pytest.mark.parametrize("f,a,b,true", [
    (lambda x: math.sin(10 * x), 0.0, math.pi,
     (1 - math.cos(10 * math.pi)) / 10.0),
    (lambda x: math.exp(-x), 0.0, 30.0, 1.0 - math.exp(-30.0)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
])
def test_error_estimate_honest(f, a, b, true):
    res = integrate_adaptive(f, a, b)
    # The estimate covers truncation; allow a machine-rounding floor.
    assert abs(res.value - true) <= res.error + 100 * EPS * (1 + abs(true))


def test_max_subdivisions_failure_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16)
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x: abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0, spec)
    match = re.fullmatch(r"max_subdivisions=3 exceeded \(value=(.+), error=(.+)\)",
                         str(info.value))
    assert match is not None
    assert math.isfinite(float(match[1]))
    assert float(match[2]) > 0


def test_gauss_kronrod_rules_exact_on_monomials():
    # K15 integrates x^d exactly for d <= 22 and G7 for d <= 13; cut to 15
    # digits, the K15 weights summed to 2 - 6e-15, 13 ulps short.
    from casimir_momentum.quadrature import _NODES, _WEIGHTS_G, _WEIGHTS_K
    for rule, nodes, degree in ((_WEIGHTS_K, _NODES, 22),
                                (_WEIGHTS_G, _NODES[1::2], 13)):
        for d in range(degree + 1):
            exact = (1 + (-1) ** d) / (d + 1)
            got = math.fsum(w * x**d for w, x in zip(rule, nodes))
            assert abs(got - exact) <= 4 * EPS * 2 / (d + 1), d


def test_segment_estimate_sums_correctly_rounded():
    # math.fsum, not a plain or a compensated running sum (the builtin sum
    # is one or the other by Python version): the same bytes on every version.
    from casimir_momentum.quadrature import _NODES, _WEIGHTS_K, _segment
    fs = [(-1) ** j * 10.0 ** (8 * (j % 3)) * (1 + j / 7) for j in range(15)]
    running = 0.0
    for f, w in zip(fs, _WEIGHTS_K):
        running += f * w
    k15 = math.fsum(f * w for f, w in zip(fs, _WEIGHTS_K))
    assert running != k15
    assert _segment(dict(zip(_NODES, fs)).__getitem__, -1.0, 1.0)[0] == k15


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, math.inf)


def test_nonfinite_integrand_rejected():
    # Subdivision toward 0 reaches subnormal nodes, where 1/x is inf.
    with pytest.raises(ValueError, match="not finite"):
        integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_value_names_first_bad_node(bad):
    # The K15 nodes of [-1, 1] are symmetric, so 0.0 is one of them.
    with pytest.raises(ValueError, match=r"not finite at x=0\.0$"):
        integrate_adaptive(lambda x: bad if x == 0.0 else 1.0, -1.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / x,                  # ZeroDivisionError at 0.0
    lambda x: math.exp(1e3 * x),        # OverflowError for x > 0.71
    lambda x: (1.0 + x) ** 2000.0,      # OverflowError for x > 0.43
])
def test_raising_integrand_reported_as_not_finite(f):
    with pytest.raises(ValueError, match="not finite at x=") as info:
        integrate_adaptive(f, -1.0, 1.0)
    x = float(str(info.value).rsplit("=", 1)[1])
    with pytest.raises((OverflowError, ZeroDivisionError)):
        f(x)


def test_infinite_range_transform():
    res = integrate_to_inf(lambda y: math.exp(-y), 0.0)
    assert abs(res.value - 1.0) < 1e-12
    res = integrate_to_inf(lambda y: y**4 / (1 + y * y)**6, 0.0)
    assert abs(res.value - BETA_VALUE) < 1e-13


# Frozen continuum oracles (30-digit quadrature, independent of this engine):
K1_AT_0 = 0.013928822303688225      # equals 3 pi/64 - 2/15 exactly
K1_AT_1 = 0.0093809208359485096
K2_AT_1 = 0.018346373742702499


def test_kappa1_closed_form_at_zero():
    exact = 3.0 * math.pi / 64.0 - 2.0 / 15.0
    assert exact == pytest.approx(K1_AT_0, abs=1e-17)
    assert kappa1_continuum(0.0).value == exact


def test_kappa1_continuum_endpoints():
    assert kappa1_continuum(1.0).value == pytest.approx(K1_AT_1, rel=1e-10)


def test_kappa1_vanishes_at_large_ymin():
    assert kappa1_continuum(1e3).value < 1e-6


def test_kappa2_continuum_values():
    assert kappa2_continuum(1.0).value == pytest.approx(K2_AT_1, rel=1e-10)
    assert kappa2_continuum(0.0).value == 1.0 / 18.0
    # Prefactor times the beta-function value reproduces the closed form.
    assert 1.0 / 18.0 == pytest.approx(
        256.0 / (27.0 * math.pi) * BETA_VALUE, abs=1e-17)


def test_kappa2_vanishes_at_large_ymin():
    assert kappa2_continuum(1e3).value < 1e-12


def test_negative_ymin_rejected():
    with pytest.raises(ValueError):
        kappa1_continuum(-0.1)
    with pytest.raises(ValueError):
        kappa2_continuum(-2.0)


def test_ymin_ceiling():
    # At the ceiling both integrals are negligible and evaluate without
    # overflow (a RuntimeWarning is an error in this suite); above it, refused.
    assert 0.0 <= kappa1_continuum(Y_MIN_MAX).value < 1e-24
    assert 0.0 <= kappa2_continuum(Y_MIN_MAX).value < 1e-24
    for op in (kappa1_continuum, kappa2_continuum):
        for y in (2.0 * Y_MIN_MAX, 1e300, math.nan):
            with pytest.raises(ValueError):
                op(y)


def test_continuum_error_contract():
    # The engine meets the spec it is given on both continuum integrands.
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-9)
    for f in (kappa1_continuum_integrand, kappa2_continuum_integrand):
        res = integrate_to_inf(f, 0.7, spec)
        assert res.error <= spec.rel_tol * abs(res.value) + spec.abs_tol


def test_integrand_positivity_dense_grid():
    grid = [*_geomspace(1e-8, 1e-3, 2000), *_linspace(1.0000001e-3, 60.0, 30000)]
    assert all(kappa1_continuum_integrand(y) >= 0.0 for y in grid)
    assert all(kappa2_continuum_integrand(y) >= 0.0 for y in grid)


def test_kappa1_series_matches_direct_bracket():
    # Series used below 1e-3 must join smoothly onto the direct expression.
    assert kappa1_continuum_integrand(9.99e-4) == pytest.approx(
        kappa1_continuum_integrand(1.001e-3), rel=1e-8)


def test_tolerance_scaling_never_moves_beyond_reported_error():
    coarse = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-6)
    fine = QuadratureSpec(abs_tol=1e-12, rel_tol=5e-7)
    for f in (kappa1_continuum_integrand, kappa2_continuum_integrand):
        res_c = integrate_to_inf(f, 0.8, coarse)
        res_f = integrate_to_inf(f, 0.8, fine)
        assert abs(res_c.value - res_f.value) <= res_c.error + 1e-15


def test_ymin_sensitivity_monotone():
    rows = ymin_sensitivity("kappa2", [0.0, 0.5, 1.0, 2.0])
    values = [r.value for r in rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ymin_sensitivity_kappa1_endpoints():
    # Each row is the direct call whose value verify bands, bit for bit.
    rows = ymin_sensitivity("kappa1", [0.0, 1.0])
    assert [r.value for r in rows] == [kappa1_continuum(0.0).value,
                                       kappa1_continuum(1.0).value]


def test_ymin_sensitivity_single_point_matches_direct_call():
    row, = ymin_sensitivity("kappa2", [1.0])
    assert row.value == kappa2_continuum(1.0).value


def test_ymin_sensitivity_validation():
    with pytest.raises(ValueError):
        ymin_sensitivity("kappa3", [0.0, 1.0])
    with pytest.raises(ValueError):
        ymin_sensitivity("kappa1", [])
    with pytest.raises(ValueError):
        ymin_sensitivity("kappa1", [1.0, 0.5])


# Frozen closed-form oracles: mpmath 1.3.0 at 160 digits, the elementary
# antiderivatives F1, G1 and F2 (see quadrature._kappa1_direct and
# _kappa2_direct) at the float y_min, each checked against mpmath.quad of
# the integrand in t = 1/y at 60 digits to 1e-52; 30 digits shown.
CONTINUUM_REFERENCES = {
    0.5: ("1.33820073359891623566651883053e-2",
          "4.81768161234417160547331497877e-2"),
    1.0: ("9.38092083594850955754551607159e-3",
          "1.83463737427024986211031843927e-2"),
    1.5: ("5.16126935216326805730441984384e-3",
          "4.63095469625628121390539897715e-3"),
    2.0: ("2.73235434042148025275267579357e-3",
          "1.19777448368690455270414424706e-3"),
    3.15: ("7.48250729053933103313586767891e-4",
           "8.96247282242703989720373921445e-5"),
    10.0: ("1.21165983471379450913159291002e-5",
           "4.11592991471519139418828375409e-8"),
    1e3: ("1.4249888011027748900253862516e-13",
          "4.31147886719199377138404079755e-22"),
    1e6: ("1.42698881698522090453956977846e-25",
          "4.31149898744286442872885399779e-43"),
}


@pytest.mark.parametrize("y_min", CONTINUUM_REFERENCES)
def test_closed_form_error_covers_reference(y_min):
    # Exact rational comparison; at 1e6 the engine's bar did not cover this.
    for op, ref in zip((kappa1_continuum, kappa2_continuum),
                       CONTINUUM_REFERENCES[y_min]):
        res = op(y_min)
        assert isinstance(res, ContinuumResult)
        gap = abs(Fraction(res.value) - Fraction(ref))
        assert gap <= Fraction(res.estimated_error), (op.__name__, float(gap))
        assert res.estimated_error <= 1e-12 * res.value


def _bounded(form, a):
    """(value, bar) of a direct form, its addends summed as _continuum sums
    them, or of a series, from its sum, magnitude and truncation."""
    out = form(a)
    if isinstance(out, list):
        return math.fsum(out), quadrature._ROUNDING * math.fsum(map(abs, out))
    value, size, tail = out
    return value, quadrature._ROUNDING * size + tail


# Each series' table of c_k and its first power p.
_SERIES = [(quadrature._kappa2_coefficients, 3.5),
           (quadrature._kappa1_by_parts_coefficients, 2.5),
           (quadrature._kappa1_binomial_coefficients, 2.0)]


@functools.cache
def _table(coefficients):
    """c_0..c_240 of a series by its own formula, all that the tests below
    read (46 at a = 1.25, below the switch); its cached table is the first
    _TERMS_MAX + 1 of them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_TERMS_MAX", 240)
        table = coefficients.__wrapped__()
    assert table[:quadrature._TERMS_MAX + 1] == coefficients()
    return table


def _read(series, a):
    """The series at a alone, and the count n of terms it sums."""
    return (quadrature._series(a, (_table(series[0]), series[1]))[0],
            quadrature._term_count(1.0 + a * a))


@pytest.mark.parametrize("direct,series", [
    (quadrature._kappa1_direct, quadrature._kappa1_series),
    pytest.param(quadrature._kappa2_direct, quadrature._kappa2_series,
                 id="_kappa2_direct-_KAPPA2"),
])
def test_direct_form_and_series_agree_within_bounds(monkeypatch, direct, series):
    # From 1.25, below the switch, where the series read past _TERMS_MAX.
    for coefficients, _ in _SERIES:
        monkeypatch.setattr(quadrature, coefficients.__name__,
                            lambda table=_table(coefficients): table)
    for a in _linspace(1.25, 2.5, 126):
        (v_d, e_d), (v_s, e_s) = _bounded(direct, a), _bounded(series, a)
        assert abs(v_d - v_s) <= e_d + e_s, a


def _within(value, bar, exact, u, half):
    """|value - exact sqrt(u)^half| <= bar, exactly: for a half-integer
    power (half = 1) sqrt(u) is squared away; exact is then positive."""
    lo, hi = Fraction(value) - Fraction(bar), Fraction(value) + Fraction(bar)
    if not half:
        return lo <= exact <= hi
    assert exact > 0
    return (lo <= 0 or lo**2 <= exact**2 * u) and hi > 0 and exact**2 * u <= hi**2


@pytest.mark.parametrize("series", _SERIES)
def test_series_horner_sum_within_rounding_of_exact(series):
    # The Horner sum and the magnitude sum each lie within _ROUNDING of the
    # magnitude of sum_(k<n) c_k u^(k+p), taken exactly from the series' own
    # c_k and u = 1/(1 + a^2) of the float a, with sqrt(u) squared away
    # where p is a half-integer. Points from 1.25, below the switch, where n
    # is largest, to the ceiling.
    coefficients, p = series
    whole = int(p)
    for a in (*_linspace(1.25, 1.5, 11), 1.5000001, 1.55, 3.15, 10.0, 1e3, 1e6):
        (value, size, _), n = _read(series, a)
        u = 1 / (1 + Fraction(a) ** 2)
        terms = [Fraction(c) * u ** (k + whole) for k, c in enumerate(_table(coefficients)[:n])]
        bar = quadrature._ROUNDING * size
        half = p != whole
        assert _within(value, bar, sum(terms), u, half), a
        assert _within(size, bar, sum(map(abs, terms)), u, half), a


def _exact_coefficient(series, k):
    """c_k as an exact Fraction, kappa2's times pi; the series' own c_k is
    it rounded once (kappa2's then divided by pi)."""
    coefficients, _ = series
    c = Fraction(math.comb(2 * k, k), 4**k)
    if coefficients is quadrature._kappa2_coefficients:
        c = 768 * c / (27 * (2 * k - 1) * (2 * k - 3) * (2 * k + 7))
        assert _table(coefficients)[k] == float(c) / math.pi, k
    else:
        c /= (4 * (2 * k + 5) if coefficients is quadrature._kappa1_by_parts_coefficients
              else 2 * (2 * k - 1) * (k + 2))
        assert _table(coefficients)[k] == float(c), k
    return c


@pytest.mark.parametrize("series", _SERIES)
def test_series_truncation_covers_exact_tail(series):
    # The 200 terms after the last one summed, exactly: c_k u^(k+p) with
    # u = 1/(1 + a^2) of the float a, and sqrt(u) squared away where p is
    # a half-integer. kappa2's c_k carry 1/pi, so its truncation is scaled
    # by Fraction(math.pi), which is below pi.
    coefficients, p = series
    whole = int(p)
    for a in (1.5000001, 1.55, 3.15, 1e6):
        (_, _, truncation), n = _read(series, a)
        u = 1 / (1 + Fraction(a) ** 2)
        tail = sum(_exact_coefficient(series, k) * u ** (k + whole)
                   for k in range(n, n + 200))
        bound = Fraction(truncation)
        if coefficients is quadrature._kappa2_coefficients:
            bound *= Fraction(math.pi)
        assert tail > 0 and bound > 0, a
        if p == whole:
            assert bound >= tail, a
        else:
            assert bound**2 >= u * tail**2, a


def test_series_cost_bounded_by_cutoff():
    # A cutoff above the switch sums a count of coefficients set by u alone,
    # from _TERMS_MAX = 36 just above the switch down to 3; each table holds
    # c_0.._TERMS_MAX, the last for the first term left out.
    grid = [math.nextafter(quadrature._Y_STAR, math.inf), 1.5000001,
            *_geomspace(1.55, Y_MIN_MAX, 200)]
    counts = [quadrature._term_count(1.0 + a * a) for a in grid]
    assert counts[0] == quadrature._TERMS_MAX == 36 and counts[-1] == 3
    assert counts == sorted(counts, reverse=True)
    assert [len(coefficients()) for coefficients, _ in _SERIES] == [37] * 3


def test_bars_above_switch_tight():
    # The series' rounding and truncation, relative, from just above the
    # switch to the ceiling; the direct forms' bars at a = 1.5 are 2.8e-13
    # (kappa1) and 6.3e-14 (kappa2).
    for a in (1.5000001, 1.55, *_geomspace(1.55, Y_MIN_MAX, 60)):
        for op, most in ((kappa1_continuum, 3e-14), (kappa2_continuum, 6e-15)):
            res = op(a)
            assert res.estimated_error <= most * res.value, (op.__name__, a)


def test_scans_decrease_strictly_up_to_ceiling():
    # What the benchmark's sweep gate needs, on a grid far denser than its
    # own, across the switch from the direct form to the series.
    grid = [0.0, *_geomspace(1e-2, Y_MIN_MAX, 4000),
            *_linspace(1.5 - 1e-6, 1.5 + 1e-6, 201)]
    grid = sorted(set(grid))
    for which in ("kappa1", "kappa2"):
        values = [r.value for r in ymin_sensitivity(which, grid)]
        assert values[-1] > 0
        assert all(b < a for a, b in zip(values, values[1:])), which


def test_continuum_runs_without_the_engine(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature engine ran")
    monkeypatch.setattr(quadrature, "integrate_to_inf", refuse)
    monkeypatch.setattr(quadrature, "integrate_adaptive", refuse)
    for y_min in (0.0, 1.0, 2.0, Y_MIN_MAX):
        kappa1_continuum(y_min)
        kappa2_continuum(y_min)
    ymin_sensitivity("kappa1", [0.0, 1.0, 3.0])
    assert run(["continuum", "--ymin-grid", "0,1,2,10,1e6"]) == 0
    assert run(["kappas"]) == 0
