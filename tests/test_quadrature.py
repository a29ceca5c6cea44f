import math

import numpy as np
import pytest

from casimir_momentum import verify
from casimir_momentum.quadrature import (
    DEFAULT_SPEC,
    KAPPA1_CONTINUUM_AT_ZERO,
    KAPPA2_CONTINUUM_AT_ZERO,
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
    segment_estimate,
    tail_bound_ok,
    ymin_sensitivity,
)

BETA_VALUE = 3.0 * math.pi / 512.0  # int_0^inf y^4/(1+y^2)^6 dy


def test_polynomial():
    res = integrate_adaptive(lambda xs: [x**2 for x in xs], 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-12


def test_beta_integral_via_upper_cut():
    # Tail beyond the cut is bounded by int_Y^inf y^-8 = Y^-7/7; the value
    # on the cut is the verify check beta_integral_closed_form.
    assert tail_bound_ok(verify._BETA_CUT**-7 / 7.0, DEFAULT_SPEC)


def test_interior_kink_converges_with_subdivisions():
    res = integrate_adaptive(lambda xs: [abs(x - 1.0 / 3.0) for x in xs], 0.0, 1.0)
    assert abs(res.value - 5.0 / 18.0) < 1e-10
    assert res.subdivisions > 0
    assert res.neval >= 15 * (1 + 2 * res.subdivisions) - 30


@pytest.mark.parametrize("f,a,b,true", [
    (lambda xs: [math.sin(10 * x) for x in xs], 0.0, math.pi,
     (1 - math.cos(10 * math.pi)) / 10.0),
    (lambda xs: np.exp(-np.asarray(xs)), 0.0, 30.0, 1.0 - math.exp(-30.0)),
    (lambda xs: [1.0 / (1.0 + x * x) for x in xs], 0.0, 1.0, math.pi / 4.0),
])
def test_error_estimate_honest(f, a, b, true):
    res = integrate_adaptive(f, a, b)
    # The estimate covers truncation; allow a machine-rounding floor.
    assert abs(res.value - true) <= res.error + 100 * np.finfo(float).eps * (1 + abs(true))


def test_max_subdivisions_failure_carries_best_estimate():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16, max_subdivisions=3)
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda xs: [abs(x - 1.0 / 3.0) ** 0.5 for x in xs],
                           0.0, 1.0, spec)
    err = info.value
    assert math.isfinite(err.value)
    assert err.error > 0
    assert err.subdivisions == 3


def test_segment_estimate_sums_correctly_rounded():
    # math.fsum, not a plain or a compensated running sum (the builtin sum
    # is one or the other by Python version): the same bytes on every version.
    from casimir_momentum.quadrature import _WEIGHTS_K
    fs = [(-1) ** j * 10.0 ** (8 * (j % 3)) * (1 + j / 7) for j in range(15)]
    running = 0.0
    for f, w in zip(fs, _WEIGHTS_K):
        running += f * w
    k15 = math.fsum(f * w for f, w in zip(fs, _WEIGHTS_K))
    assert running != k15
    assert segment_estimate(fs, -1.0, 1.0)[0] == k15


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, math.inf)


def test_nonfinite_integrand_rejected():
    # Subdivision toward 0 reaches subnormal nodes, where 1/x is inf.
    with pytest.raises(ValueError, match="not finite"):
        integrate_adaptive(lambda xs: [1.0 / x for x in xs], 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_value_names_first_bad_node(bad):
    # The K15 nodes of [-1, 1] are symmetric, so 0.0 is one of them.
    with pytest.raises(ValueError, match=r"not finite at x=0\.0$"):
        integrate_adaptive(lambda xs: [bad if x == 0.0 else 1.0 for x in xs],
                           -1.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda xs: [1.0 / x for x in xs],                  # ZeroDivisionError at 0.0
    lambda xs: [math.exp(1e3 * x) for x in xs],        # OverflowError for x > 0.71
    lambda xs: [(1.0 + x) ** 2000.0 for x in xs],      # OverflowError for x > 0.43
])
def test_raising_integrand_reported_as_not_finite(f):
    with pytest.raises(ValueError, match="not finite at x=") as info:
        integrate_adaptive(f, -1.0, 1.0)
    x = float(str(info.value).rsplit("=", 1)[1])
    with pytest.raises((OverflowError, ZeroDivisionError)):
        f([x])


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_infinite_range_transform():
    res = integrate_to_inf(lambda ys: [math.exp(-y) for y in ys], 0.0)
    assert abs(res.value - 1.0) < 1e-12
    res = integrate_to_inf(lambda ys: [y**4 / (1 + y * y)**6 for y in ys], 0.0)
    assert abs(res.value - BETA_VALUE) < 1e-13


# Frozen continuum oracles (30-digit quadrature, independent of this engine):
K1_AT_0 = 0.013928822303688225      # equals 3 pi/64 - 2/15 exactly
K1_AT_1 = 0.0093809208359485096
K2_AT_1 = 0.018346373742702499


def test_kappa1_closed_form_at_zero():
    assert KAPPA1_CONTINUUM_AT_ZERO == pytest.approx(K1_AT_0, abs=1e-17)
    res = kappa1_continuum(0.0)
    assert res.value == pytest.approx(KAPPA1_CONTINUUM_AT_ZERO, abs=1e-9)


def test_kappa1_continuum_endpoints():
    assert kappa1_continuum(1.0).value == pytest.approx(K1_AT_1, rel=1e-10)


def test_kappa1_vanishes_at_large_ymin():
    assert kappa1_continuum(1e3).value < 1e-6


def test_kappa2_continuum_values():
    assert kappa2_continuum(1.0).value == pytest.approx(K2_AT_1, rel=1e-10)
    # Prefactor times the beta-function value reproduces the closed form.
    assert KAPPA2_CONTINUUM_AT_ZERO == pytest.approx(
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
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-9)
    for res in (kappa1_continuum(0.7, spec), kappa2_continuum(0.7, spec)):
        assert isinstance(res, ContinuumResult)
        assert res.estimated_error <= spec.rel_tol * abs(res.value) + spec.abs_tol


def test_integrand_positivity_dense_grid():
    grid = np.concatenate([np.geomspace(1e-8, 1e-3, 2000),
                           np.linspace(1.0000001e-3, 60.0, 30000)])
    assert all(v >= 0.0 for v in kappa1_continuum_integrand(grid.tolist()))
    assert all(v >= 0.0 for v in kappa2_continuum_integrand(grid.tolist()))


def test_kappa1_series_matches_direct_bracket():
    # Series used below 1e-3 must join smoothly onto the direct expression.
    vals = kappa1_continuum_integrand([9.99e-4, 1.001e-3])
    assert vals[0] == pytest.approx(vals[1], rel=1e-8)


def test_tolerance_scaling_never_moves_beyond_reported_error():
    coarse = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-6)
    fine = QuadratureSpec(abs_tol=1e-12, rel_tol=5e-7)
    for op in (kappa1_continuum, kappa2_continuum):
        res_c = op(0.8, coarse)
        res_f = op(0.8, fine)
        assert abs(res_c.value - res_f.value) <= res_c.estimated_error + 1e-15


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
