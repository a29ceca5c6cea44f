import math
import tracemalloc

import pytest

import casimir_momentum.hydrogen as hyd
from casimir_momentum.hydrogen import (
    energy,
    oscillator_strength,
    radial_record,
    transition_energy,
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


ROUTES = ("closed_form", "exact")


@pytest.mark.parametrize("p,expected", [(1, I1_2), (2, I2_2), (3, I3_2)])
def test_n2_radial_integrals_analytic(p, expected):
    assert radial_record(2, "closed_form")[p - 1] == pytest.approx(expected, rel=1e-12)
    assert abs(radial_record(2, "exact")[p - 1] - expected) <= 4 * math.ulp(expected)


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


@pytest.mark.parametrize("n", [*range(2, 61), 100, 250, 400])
def test_closed_form_matches_exact_sum(n):
    for value, exact in zip(radial_record(n, "closed_form"), radial_record(n, "exact")):
        assert abs(value - exact) <= 5e-15 * exact


def test_dual_route_agreement_sampled():
    # Up to n = 1000: the two routes are independent at every n.
    for n in (2, 5, 17, 60, 123, 200, 401, 700, 1000):
        for closed, exact in zip(*(radial_record(n, route) for route in ROUTES)):
            assert abs(closed - exact) <= 5e-15 * exact


def test_exact_route_never_reads_closed_form(monkeypatch):
    expected = [hyd._exact_integrals(n) for n in range(2, 41)]

    def refuse(n):
        raise AssertionError("the exact route read the closed form")

    monkeypatch.setattr(hyd, "_closed_form", refuse)
    monkeypatch.setattr(hyd, "_COLUMNS", [])
    radial_record.cache_clear()
    assert [tuple(radial_record(n, "exact")) for n in range(2, 41)] == expected


# --- "quadrature", the exact route's old name --------------------------------

def test_quadrature_table_never_reads_closed_form(monkeypatch):
    def refuse(n):
        raise AssertionError("the oracle read the closed form")

    monkeypatch.setattr(hyd, "_closed_form", refuse)
    monkeypatch.setattr(hyd, "_COLUMNS", [])
    radial_record.cache_clear()
    table = {n: radial_record(n, "quadrature") for n in range(2, 41)}
    assert sorted(table) == list(range(2, 41))
    # The same memoized record as the exact route's.
    assert all(table[n] is radial_record(n, "exact") for n in table)


def test_quadrature_table_validation():
    for n in (1, 0, -3, 2.5):
        with pytest.raises(ValueError):
            radial_record(n, "quadrature")


@pytest.fixture(scope="module")
def table_2_200():
    radial_record.cache_clear()
    return {n: tuple(radial_record(n, "quadrature")) for n in range(2, 201)}


@pytest.mark.parametrize("n", [2, 3, 57, 200])
def test_quadrature_table_row_independent_of_band(table_2_200, n):
    # A row filled alone equals the row filled in the n = 2..200 sweep that
    # verify makes: no state carries from one n to the next.
    radial_record.cache_clear()
    assert tuple(radial_record(n, "quadrature")) == table_2_200[n]  # bit-identical


def test_exact_route_memory_bounded():
    # The Horner pass keeps three sums and one binomial, no list of terms:
    # about 40 KB at its peak for n = 3000.
    radial_record.cache_clear()
    tracemalloc.start()
    try:
        radial_record(3000, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_oscillator_strengths():
    assert oscillator_strength(2) == pytest.approx(0.41620, abs=1e-4)
    assert oscillator_strength(3) == pytest.approx(0.07910, abs=1e-4)
    # Brute-force construction from the exact route.
    i3 = radial_record(2, "exact").I3
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
