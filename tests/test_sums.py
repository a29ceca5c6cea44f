import math

import pytest

from casimir_momentum import verify
from casimir_momentum.sums import (
    POLARIZABILITY_EXACT_AU,
    PerturbedGroundState,
    bethe_sum,
    first_moment_residual,
    hurwitz_zeta,
    kappa1_discrete,
    kappa2_discrete,
    neumaier_cumsum,
    normalization_constant,
    oscillator_strength_sum,
    polarizability_discrete,
    tail_extrapolate,
)

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


# --- tail extrapolation -----------------------------------------------------

def test_tail_exact_inverse_cube():
    ns = list(range(50, 101))
    est = tail_extrapolate(ns, [1.0 / n**3 for n in ns])
    assert est.value == pytest.approx(ZETA3_TAIL_AT_100, rel=0.01)
    # Looser published reference for the same tail.
    assert est.value == pytest.approx(4.9629e-5, rel=0.01)


def test_tail_zero_terms():
    est = tail_extrapolate(list(range(10, 20)), [0.0] * 10)
    assert est.value == 0.0
    assert est.error_bound == 0.0


def test_tail_alternating_refused():
    ns = list(range(10, 20))
    with pytest.raises(ValueError, match="sign"):
        tail_extrapolate(ns, [(-1.0) ** n / n**3 for n in ns])


def test_tail_needs_eight_points():
    with pytest.raises(ValueError, match="8 fit points"):
        tail_extrapolate([10, 11, 12], [1e-3, 9e-4, 8e-4])


def test_tail_requires_increasing_ns():
    with pytest.raises(ValueError):
        tail_extrapolate([10, 10, 11, 12, 13, 14, 15, 16], [1.0] * 8)


@pytest.mark.parametrize("terms", [[math.inf] * 10, [math.nan] * 10,
                                   [1e-3] * 9 + [math.nan], [1e308] * 10])
def test_tail_refuses_nonfinite_input(terms):
    # nan and inf terms, and finite terms whose fit overflows.
    with pytest.raises(ValueError, match="not finite"):
        tail_extrapolate(range(10, 20), terms)


def test_tail_negative_terms_supported():
    ns = list(range(50, 101))
    est = tail_extrapolate(ns, [-1.0 / n**3 for n in ns])
    assert est.value == pytest.approx(-ZETA3_TAIL_AT_100, rel=0.01)


# --- discrete sums ----------------------------------------------------------

def test_kappa1_first_term():
    res = kappa1_discrete(n_max=2, tail=False)
    expected = (2.0 / 27.0) * I1_2 * I3_2 / 0.375**2
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.value == pytest.approx(0.16441, abs=1e-4)
    assert len(res.partial_sums) == 1


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
    assert all(v < POLARIZABILITY_EXACT_AU for _, v in res.partial_sums)


def test_oscillator_sum_value():
    res = oscillator_strength_sum(400, tail=True)
    assert all(v < 1.0 for _, v in res.partial_sums)


def test_kappa2_monotone_in_n_max():
    assert kappa2_discrete(50, tail=False).value < kappa2_discrete(100, tail=False).value


def test_kappa1_positive_every_truncation():
    res = kappa1_discrete(80, tail=False)
    assert all(v > 0 for _, v in res.partial_sums)


def test_value_decomposition_identity():
    res = kappa1_discrete(64, tail=True)
    assert res.value == res.partial_sums[-1][1] + res.tail_estimate
    assert res.partial == res.partial_sums[-1][1]


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


def test_tail_consistency_across_n_max():
    a = kappa2_discrete(100, tail=True)
    b = kappa2_discrete(200, tail=True)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_repeated_runs_bit_identical():
    a = kappa1_discrete(120, tail=True)
    b = kappa1_discrete(120, tail=True)
    assert a.value == b.value
    assert a.partial_sums == b.partial_sums
    assert a.tail_estimate == b.tail_estimate


def test_small_n_max_with_tail_refused():
    with pytest.raises(ValueError, match="tail"):
        kappa1_discrete(8, tail=True)


def test_n_max_validation():
    with pytest.raises(ValueError):
        kappa1_discrete(1, tail=False)


def test_neumaier_handles_cancellation():
    # 1e16 + many small increments that a naive sum drops entirely.
    terms = [1e16] + [1.0] * 1000 + [-1e16]
    assert neumaier_cumsum(terms)[-1] == pytest.approx(1000.0, abs=1e-6)


# --- normalization coefficient ----------------------------------------------

def test_normalization_constant_published_inputs():
    assert normalization_constant(-8.35, 0.336) == pytest.approx(0.8395, abs=0.01)


def test_normalization_constant_zero_cases():
    assert normalization_constant(-0.5, 0.7) == 0.0
    assert normalization_constant(-8.35, 0.0) == 0.0


# --- finite-basis first moment ----------------------------------------------

def test_first_moment_residual_zero():
    for n_basis in (2, 10, 40):
        state = PerturbedGroundState.build(n_basis)
        assert first_moment_residual(state) <= 1e-14


def test_first_moment_zero_field_exact():
    # A zero field leaves every coefficient zero.
    ns = tuple(range(2, 13))
    state = PerturbedGroundState(ns=ns, coefficients=(0.0,) * len(ns))
    assert first_moment_residual(state) == 0.0


def test_perturbed_state_coefficients_real_and_decaying():
    state = PerturbedGroundState.build(60)
    coeffs = state.coefficients
    assert all(isinstance(c, float) for c in coeffs)
    # c_n ~ n^(-3/2)/dE_n settles toward a constant times n^(-3/2).
    scaled = [c * n**1.5 for n, c in zip(state.ns, coeffs)]
    assert abs(scaled[-1] - scaled[-10]) < abs(scaled[0] - scaled[-1])


def test_perturbed_state_needs_two_shells():
    with pytest.raises(ValueError):
        PerturbedGroundState.build(1)
