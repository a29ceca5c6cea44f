import math
from fractions import Fraction

import numpy as np
import pytest

import casimir_momentum.hydrogen as hyd
from casimir_momentum.hydrogen import (
    energy,
    oscillator_strength,
    radial_record,
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


ROUTES = ("closed_form", "quadrature")


@pytest.mark.parametrize("p,expected", [(1, I1_2), (2, I2_2), (3, I3_2)])
def test_n2_radial_integrals_analytic(p, expected):
    for route in ROUTES:
        assert radial_record(2, route)[p - 1] == pytest.approx(expected, rel=1e-12)


def test_n2_radial_integrals_spec_decimals():
    # Two-sided spot values quoted to ~5 digits.
    for route in ROUTES:
        i1, i2, i3 = radial_record(2, route)
        assert i1 == pytest.approx(0.2419, abs=5e-5)
        assert i2 == pytest.approx(0.48385, abs=1e-4)
        assert i3 == pytest.approx(1.290266, abs=1e-5)


def test_radial_record_input_validation():
    with pytest.raises(ValueError):
        radial_record(1)
    with pytest.raises(ValueError):
        radial_record(4, "wavefunction")


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
    for p, value in enumerate(radial_record(n, "closed_form"), start=1):
        exact = _radial_integral_exact(n, p)
        assert abs(value - exact) <= 1e-13 * abs(exact)


def test_dual_route_agreement_sampled():
    # Up to n = 1000: the two routes are independent at every n.
    for n in (2, 5, 17, 60, 123, 200, 401, 700, 1000):
        for closed, quad in zip(*(radial_record(n, route) for route in ROUTES)):
            assert abs(quad - closed) / abs(closed) < 1e-10


# --- the batched quadrature oracle -------------------------------------------

@pytest.fixture(scope="module")
def table_2_200():
    return hyd.quadrature_table(2, 200)


@pytest.mark.parametrize("n", [2, 3, 57, 200])
def test_quadrature_table_row_independent_of_band(table_2_200, n):
    assert hyd.quadrature_table(n, n)[n] == table_2_200[n]  # bit-identical


@pytest.fixture
def adaptive_calls(monkeypatch):
    """The subdivisions of each integrate_adaptive run made by hydrogen."""
    calls = []

    def counting(*args, **kwargs):
        res = integrate_adaptive(*args, **kwargs)
        calls.append(res.subdivisions)
        return res

    monkeypatch.setattr(hyd, "integrate_adaptive", counting)
    return calls


def test_quadrature_table_row_is_engine_first_pass(adaptive_calls):
    # The fallback runs integrate_adaptive on the kernel's own integrand: it
    # converges on the fixed partition and returns the table row bit for bit.
    for n in (2, 57, 200, 1000):
        adaptive_calls.clear()
        assert hyd._adaptive_row(n) == hyd.quadrature_table(n, n)[n]
        assert adaptive_calls == [0, 0, 0]


def test_quadrature_table_falls_back_per_n(monkeypatch, adaptive_calls):
    band = hyd.quadrature_table(50, 60)
    worst = {n: max(row.errors) for n, row in band.items()}
    failing = max(worst, key=worst.get)
    second = max(e for n, e in worst.items() if n != failing)
    # Tolerance between the two largest estimates: only `failing` misses it.
    monkeypatch.setattr(hyd, "_RADIAL_QUAD_SPEC", QuadratureSpec(
        abs_tol=0.5 * (second + worst[failing]), rel_tol=1e-300,
        max_subdivisions=4000))
    patched = hyd.quadrature_table(50, 60)
    # One run per p, on `failing` alone.
    assert len(adaptive_calls) == 3 and any(adaptive_calls)
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
    weight = hyd._radial_weights(np.array([float(n)]), r)[0]
    assert np.all(np.isfinite(weight))
    for p in (1, 2, 3):
        envelope = (4.0 / 3.0) * 2.0**-1.5 * r ** (p + 1) * np.exp(-r)
        assert np.all(np.abs(weight * r**p) <= envelope * (1.0 + 1e-12))


def test_oscillator_strengths():
    assert oscillator_strength(2) == pytest.approx(0.41620, abs=1e-4)
    assert oscillator_strength(3) == pytest.approx(0.07910, abs=1e-4)
    # Brute-force construction from the radial quadrature route.
    i3 = radial_record(2, "quadrature").I3
    assert oscillator_strength(2) == pytest.approx(
        (2.0 / 3.0) * 0.375 * i3 * i3, rel=1e-10)


def test_oscillator_strengths_positive():
    assert all(oscillator_strength(n) > 0 for n in range(2, 40))


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
