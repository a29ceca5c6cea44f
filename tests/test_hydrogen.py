import math
from fractions import Fraction

import numpy as np
import pytest

import casimir_momentum.hydrogen as hyd
from casimir_momentum.hydrogen import (
    BoundStateLabel,
    RadialIntegralMismatch,
    energy,
    oscillator_strength,
    radial_integral,
    radial_record,
    radial_wavefunction,
    transition_energy,
)
from casimir_momentum.quadrature import (
    QuadratureSpec,
    integrate_adaptive,
    integrate_to_inf,
    tail_bound_ok,
)

SQRT6 = math.sqrt(6.0)

# Analytic values for n = 2: R_21 = r e^(-r/2)/(2 sqrt 6) against 2 e^(-r),
# integrated term by term (gamma-function moments).
I1_2 = 16.0 / (27.0 * SQRT6)
I2_2 = 32.0 / (27.0 * SQRT6)
I3_2 = 768.0 / (243.0 * SQRT6)


def test_energy_values():
    assert energy(1) == -0.5
    assert energy(2) == -0.125
    assert transition_energy(2) == pytest.approx(0.375, abs=1e-15)


def test_energy_monotone_to_zero():
    values = [energy(n) for n in range(1, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.0
    assert energy(10_000) == pytest.approx(0.0, abs=1e-8)


def test_energy_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        energy(0)


def test_ground_state_at_origin():
    assert radial_wavefunction(BoundStateLabel(1, 0), 0.0) == pytest.approx(2.0, abs=1e-14)


def test_r21_closed_form_value():
    # R_21(2) = 2 e^(-1) / (2 sqrt 6)
    assert radial_wavefunction(BoundStateLabel(2, 1), 2.0) == pytest.approx(
        0.15018615295504259, rel=1e-12)
    assert radial_wavefunction(BoundStateLabel(2, 1), 2.0) == pytest.approx(
        0.15019, abs=1e-5)


def test_wavefunction_rejects_negative_r():
    with pytest.raises(ValueError):
        radial_wavefunction(BoundStateLabel(2, 1), -0.5)


def test_unsupported_l_rejected():
    with pytest.raises(ValueError):
        BoundStateLabel(3, 2)
    with pytest.raises(ValueError):
        BoundStateLabel(1, 1)
    with pytest.raises(ValueError):
        BoundStateLabel(0, 0)


_NORM_SPEC = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=4000)


def integration_cutoff(n: int) -> float:
    """Upper limit 2n(n+15), in Bohr radii, for integrals of R_n1 products
    that carry no e^(-r) factor (normalization, orthogonality)."""
    return 2.0 * n * (n + 15.0)


def _radial_overlap(n1: int, n2: int) -> float:
    s1, s2 = BoundStateLabel(n1, 1), BoundStateLabel(n2, 1)
    r_cut = integration_cutoff(max(n1, n2))

    def f(r):
        return radial_wavefunction(s1, r) * radial_wavefunction(s2, r) * r * r

    res = integrate_adaptive(f, 0.0, r_cut, _NORM_SPEC,
                             breakpoints=hyd._geometric_breakpoints(r_cut))
    return res.value


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 35, 50])
def test_np_normalization(n):
    assert abs(_radial_overlap(n, n) - 1.0) < 1e-10


@pytest.mark.parametrize("pair", [(2, 3), (3, 4), (2, 50), (10, 11),
                                  (25, 26), (49, 50), (10, 40)])
def test_np_orthogonality(pair):
    assert abs(_radial_overlap(*pair)) < 1e-10


def test_r31_r21_orthogonality_example():
    assert abs(_radial_overlap(3, 2)) < 1e-10


@pytest.mark.parametrize("p,expected", [(1, I1_2), (2, I2_2), (3, I3_2)])
def test_n2_radial_integrals_analytic(p, expected):
    assert radial_integral(2, p) == pytest.approx(expected, rel=1e-12)


def test_n2_radial_integrals_spec_decimals():
    # Two-sided spot values quoted to ~5 digits.
    assert radial_integral(2, 1) == pytest.approx(0.2419, abs=5e-5)
    assert radial_integral(2, 2) == pytest.approx(0.48385, abs=1e-4)
    assert radial_integral(2, 3) == pytest.approx(1.290266, abs=1e-5)


def test_radial_integral_input_validation():
    with pytest.raises(ValueError):
        radial_integral(1, 3)
    with pytest.raises(ValueError):
        radial_integral(4, 4)


def test_gordon_product_form_cross_check():
    # Independent closed form for the dipole integral, evaluated in log
    # space to stay finite at large n:
    # I_3(n) = 16 n^(7/2) (n-1)^(n-5/2) / (n+1)^(n+5/2)
    for n in (2, 3, 7, 20, 80, 250):
        log_gordon = (math.log(16.0) + 3.5 * math.log(n)
                      + (n - 2.5) * math.log(n - 1.0)
                      - (n + 2.5) * math.log(n + 1.0))
        assert radial_record(n).I3 == pytest.approx(math.exp(log_gordon), rel=1e-11)


def _radial_integral_exact(n: int, p: int) -> float:
    """Exact-arithmetic I_p(n), the reference for the float closed forms.

    I_p(n) = 8 n^(p-1) T / ((n+1)^(n+p) sqrt((n-1) n (n+1))) with the integer

        T = sum_{j=0}^{n-2} (-1)^j C(n+1, n-2-j) (j+1)...(j+p+1) 2^j
            (n+1)^(n-2-j)

    obtained by integrating each power of the Laguerre expansion against
    2 e^(-r) r^(p+1); float rounding happens only on return.
    """
    acc = 0
    for j in range(n - 1):
        poly = math.prod(range(j + 1, j + p + 2))
        term = math.comb(n + 1, n - 2 - j) * poly * (1 << j)
        acc = acc * (n + 1) + (term if j % 2 == 0 else -term)
    exact = Fraction(8 * n ** (p - 1) * acc, (n + 1) ** (n + p))
    return float(exact) / math.sqrt((n - 1) * n * (n + 1))


@pytest.mark.parametrize("n", [*range(2, 61), 100, 250, 400])
def test_closed_form_matches_exact_sum(n):
    record = radial_record(n, "closed_form")
    for p in (1, 2, 3):
        exact = _radial_integral_exact(n, p)
        assert abs(record.integral(p) - exact) <= 1e-13 * abs(exact)


def test_dual_route_agreement_sampled():
    # Up to n = 1000: the two routes are independent at every n.
    for n in (2, 5, 17, 60, 123, 200, 401, 700, 1000):
        for p in (1, 2, 3):
            closed = radial_record(n, "closed_form").integral(p)
            quad = radial_record(n, "quadrature").integral(p)
            assert abs(quad - closed) / abs(closed) < 1e-10


# --- the batched quadrature oracle -------------------------------------------

@pytest.fixture(scope="module")
def table_2_200():
    return hyd.quadrature_table(2, 200)


@pytest.mark.parametrize("n", [2, 3, 57, 200])
def test_quadrature_table_row_independent_of_band(table_2_200, n):
    assert hyd.quadrature_table(n, n)[n] == table_2_200[n]  # bit-identical


def test_quadrature_table_row_is_engine_first_pass(table_2_200):
    # Fed the kernel's integrand, integrate_adaptive converges on the fixed
    # partition and returns the table row bit for bit.
    n = 57

    def f(rs, p):
        r = np.asarray(rs)
        weight = hyd._radial_weights(np.array([float(n)]), r)[0]
        return (weight * (r, r * r, r * r * r)[p - 1]).tolist()

    spec = hyd._RADIAL_QUAD_SPEC
    res = [integrate_adaptive(lambda rs, p=p: f(rs, p), 0.0, hyd._RADIAL_CUT,
                              spec, breakpoints=hyd._RADIAL_BREAKPOINTS)
           for p in (1, 2, 3)]
    assert [q.subdivisions for q in res] == [0, 0, 0]
    assert table_2_200[n] == hyd.RadialQuadrature(
        tuple(q.value for q in res), tuple(q.error for q in res))


def test_quadrature_table_falls_back_per_n(monkeypatch):
    band = hyd.quadrature_table(50, 60)
    worst = {n: max(row.errors) for n, row in band.items()}
    failing = max(worst, key=worst.get)
    second = max(e for n, e in worst.items() if n != failing)
    # Tolerance between the two largest estimates: only `failing` misses it.
    monkeypatch.setattr(hyd, "_RADIAL_QUAD_SPEC", QuadratureSpec(
        abs_tol=0.5 * (second + worst[failing]), rel_tol=1e-300,
        max_subdivisions=4000))
    calls = []

    def counting(*args, **kwargs):
        res = integrate_adaptive(*args, **kwargs)
        calls.append(res.subdivisions)
        return res

    monkeypatch.setattr(hyd, "integrate_adaptive", counting)
    patched = hyd.quadrature_table(50, 60)
    assert len(calls) == 3 and any(calls)   # one run per p, on `failing` alone
    assert patched[failing] != band[failing]
    assert all(patched[n] == band[n] for n in band if n != failing)
    closed = hyd._closed_form(failing)
    for quad, exact in zip(patched[failing].values, closed):
        assert abs(quad - exact) <= 1e-10 * abs(exact)


def test_quadrature_table_never_reads_closed_form(monkeypatch):
    def refuse(n):
        raise AssertionError("the oracle read the closed form")

    monkeypatch.setattr(hyd, "_closed_form", refuse)
    table = hyd.quadrature_table(2, 40)
    assert sorted(table) == list(range(2, 41))


def test_quadrature_table_validation():
    for lo, hi in ((1, 5), (5, 4), (2.5, 4)):
        with pytest.raises(ValueError):
            hyd.quadrature_table(lo, hi)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_radial_tail_bound_at_cut(p):
    spec = hyd._RADIAL_QUAD_SPEC
    bound = hyd._radial_tail_bound(p, hyd._RADIAL_CUT)
    assert tail_bound_ok(bound, spec)
    # The incomplete-gamma closed form against quadrature of the envelope.
    envelope = integrate_to_inf(
        lambda rs: [(4.0 / 3.0) * 2.0**-1.5 * r ** (p + 1) * math.exp(-r) for r in rs],
        hyd._RADIAL_CUT, QuadratureSpec(abs_tol=1e-40, rel_tol=1e-12))
    assert bound == pytest.approx(envelope.value, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 10, 200, 1000])
def test_radial_integrand_envelope(n):
    # |2 e^(-r) R_n1(r) r^p| <= (4/3) 2^-1.5 r^(p+1) e^(-r), the bound that
    # justifies cutting the quadrature route at r = 64.
    r = np.linspace(0.0, 200.0, 4001)
    weight = 2.0 * np.exp(-r) * radial_wavefunction(BoundStateLabel(n, 1), r)
    for p in (1, 2, 3):
        envelope = (4.0 / 3.0) * 2.0**-1.5 * r ** (p + 1) * np.exp(-r)
        assert np.all(np.abs(weight * r**p) <= envelope * (1.0 + 1e-12))


def test_route_mismatch_raises(monkeypatch):
    # radial_integral reads the memoized quadrature record: clear it so the
    # patched route fills it, and again so the bad records do not outlive the test.
    radial_record.cache_clear()
    monkeypatch.setattr(hyd, "_quadrature_integrals",
                        lambda n: [v * 1.001 for v in hyd._closed_form(n)])
    try:
        for n in (5, 450):
            with pytest.raises(RadialIntegralMismatch):
                radial_integral(n, 3)
    finally:
        radial_record.cache_clear()


def test_oscillator_strengths():
    assert oscillator_strength(2) == pytest.approx(0.41620, abs=1e-4)
    assert oscillator_strength(3) == pytest.approx(0.07910, abs=1e-4)
    # Brute-force construction from the radial quadrature route.
    i3 = radial_record(2, "quadrature").I3
    assert oscillator_strength(2) == pytest.approx(
        (2.0 / 3.0) * 0.375 * i3 * i3, rel=1e-10)


def test_oscillator_strengths_positive():
    assert all(oscillator_strength(n) > 0 for n in range(2, 40))


def test_partial_oscillator_sums_below_one():
    total = 0.0
    for n in range(2, 120):
        total += oscillator_strength(n)
        assert total < 1.0


def test_dipole_integral_asymptotic_decay():
    # I_3(n) n^(3/2) settles to a nonzero constant (16/e^2); successive
    # doubling differences must shrink (Cauchy behavior of the ratio).
    ns = [50, 100, 200, 400]
    ratios = [radial_record(n).I3 * n**1.5 for n in ns]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]
    assert ratios[-1] == pytest.approx(16.0 / math.e**2, rel=0.01)
    assert ratios[-1] > 2.0


def test_wavefunction_vectorized_matches_scalar():
    state = BoundStateLabel(12, 1)
    rs = np.array([0.0, 0.3, 2.7, 41.0, 300.0])
    vec = radial_wavefunction(state, rs)
    for r, v in zip(rs, vec):
        assert radial_wavefunction(state, float(r)) == v


def test_large_n_wavefunction_finite_everywhere():
    state = BoundStateLabel(400, 1)
    r = np.geomspace(1e-3, integration_cutoff(400), 500)
    vals = radial_wavefunction(state, r)
    assert np.all(np.isfinite(vals))
