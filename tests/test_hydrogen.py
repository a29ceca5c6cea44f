import math
import tracemalloc

import pytest

import casimir_momentum.hydrogen as hyd
from casimir_momentum import verify
from casimir_momentum.hydrogen import radial_record

SQRT6 = math.sqrt(6.0)

# Analytic values for n = 2: R_21 = r e^(-r/2)/(2 sqrt 6) against 2 e^(-r),
# integrated term by term (gamma-function moments).
I1_2 = 16.0 / (27.0 * SQRT6)
I2_2 = 32.0 / (27.0 * SQRT6)
I3_2 = 768.0 / (243.0 * SQRT6)


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
        assert radial_record(n)[2] == pytest.approx(math.exp(log_gordon), rel=1e-11)


@pytest.mark.parametrize("n", [*range(2, 61), 100, 250, 400])
def test_closed_form_matches_exact_sum(n):
    for value, exact in zip(radial_record(n, "closed_form"), radial_record(n, "exact")):
        assert abs(value - exact) <= 5e-15 * exact


def test_dual_route_agreement_sampled():
    # Up to n = 1000: the two routes are independent at every n.
    for n in (2, 5, 17, 60, 123, 200, 401, 700, 1000):
        for closed, exact in zip(*(radial_record(n, route) for route in ROUTES)):
            assert abs(closed - exact) <= 5e-15 * exact


def test_horner_integers_equal_their_closed_forms():
    # Up to n = 400, the range of verify's exact partial sums, whose terms
    # are built on these closed forms; verify's integer row checks n <= 200.
    for n in range(2, 401):
        s1, s2, s3 = hyd._horner_sums(n)
        assert 2 * s1 == (n + 1) ** (n + 1) - (n - 1) ** (n - 1) * (5 * n * n - 1), n
        assert s2 == 2 * n * (n + 1) * (n - 1) ** (n - 1), n
        assert s3 == 4 * n * n * (n + 1) * (n - 1) ** (n - 2), n
        assert 2 * n * (n + 1) * s2 == (n * n - 1) * s3, n


def test_exact_route_never_reads_closed_form(fresh_memos, monkeypatch):
    expected = [hyd._integrals_of(n, *hyd._horner_sums(n)) for n in range(2, 41)]

    def refuse(n):
        raise AssertionError("the exact route read the closed form")

    monkeypatch.setattr(hyd, "_closed_form", refuse)
    assert [tuple(radial_record(n, "exact")) for n in range(2, 41)] == expected


# --- "quadrature", the exact route's old name --------------------------------

def test_quadrature_table_never_reads_closed_form(fresh_memos, monkeypatch):
    def refuse(n):
        raise AssertionError("the oracle read the closed form")

    monkeypatch.setattr(hyd, "_closed_form", refuse)
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
def test_quadrature_table_row_independent_of_band(table_2_200, fresh_memos, n):
    # A row filled alone equals the row filled in the n = 2..200 sweep that
    # verify makes: no state carries from one n to the next.
    assert tuple(radial_record(n, "quadrature")) == table_2_200[n]  # bit-identical


def test_exact_route_memory_bounded(fresh_memos):
    # The Horner pass keeps three sums and one binomial, no list of terms:
    # about 40 KB at its peak for n = 3000.
    tracemalloc.start()
    try:
        radial_record(3000, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _oscillator_strength(n):
    """f(1s -> np) = (2/3) dE_n I_3(n)^2, verify's oscillator term."""
    return verify._term("oscillator", n)


def test_oscillator_strengths():
    assert _oscillator_strength(2) == pytest.approx(0.41620, abs=1e-4)
    assert _oscillator_strength(3) == pytest.approx(0.07910, abs=1e-4)
    # Brute-force construction from the exact route.
    i3 = radial_record(2, "exact")[2]
    assert _oscillator_strength(2) == pytest.approx(
        (2.0 / 3.0) * 0.375 * i3 * i3, rel=1e-10)


def test_oscillator_strengths_positive():
    assert all(_oscillator_strength(n) > 0 for n in range(2, 40))


def test_closed_form_record_leaves_sums_table_empty(fresh_memos, monkeypatch):
    # A single-n record computes its closed form alone: verify's derivation
    # of the sums to infinity does not run.
    def refuse(name):
        raise AssertionError("a record derived a sum to infinity")
    monkeypatch.setattr(verify, "_sum_to_infinity", refuse)
    assert radial_record(5000, "closed_form") == hyd._closed_form(5000)


def test_record_memo_bounded(fresh_memos):
    # A scan of more distinct n than the memo holds keeps it at its bound.
    for n in range(2, hyd._RECORD_MEMO + 102):
        radial_record(n)
    info = radial_record.cache_info()
    assert info.maxsize == hyd._RECORD_MEMO
    assert info.currsize == hyd._RECORD_MEMO


def test_dipole_integral_asymptotic_decay():
    # I_3(n) n^(3/2) settles to a nonzero constant (16/e^2); successive
    # doubling differences must shrink (Cauchy behavior of the ratio).
    ns = [50, 100, 200, 400]
    ratios = [radial_record(n)[2] * n**1.5 for n in ns]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]
    assert ratios[-1] == pytest.approx(16.0 / math.e**2, rel=0.01)
    assert ratios[-1] > 2.0
