"""Reentrancy and idempotent-fill checks for the documented threading model."""

import sys
from concurrent.futures import ThreadPoolExecutor

import casimir_momentum.hydrogen as hyd
from casimir_momentum import quadrature
from casimir_momentum.quadrature import (
    integrate_to_inf,
    kappa1_continuum,
    kappa2_continuum,
    kappa2_continuum_integrand,
)
from casimir_momentum.sums import (
    bethe_sum,
    kappa1_discrete,
    kappa2_discrete,
    oscillator_strength_sum,
    polarizability_discrete,
)


def test_engine_reentrant_under_threads():
    # The engine, and the closed forms on both sides of their switch to the
    # series, whose coefficients are made on first use.
    grid = [0.1 * k for k in range(1, 17)] + [1.5 + 0.25 * k for k in range(1, 17)]
    calls = [lambda y: integrate_to_inf(kappa2_continuum_integrand, y).value,
             lambda y: kappa1_continuum(y).value,
             lambda y: kappa2_continuum(y).value]
    serial = [f(y) for f in calls for y in grid]
    for coefficient in (quadrature._kappa2_coefficient,
                        quadrature._kappa1_by_parts_coefficient,
                        quadrature._kappa1_binomial_coefficient):
        coefficient.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda c: c[0](c[1]),
                                 [(f, y) for f in calls for y in grid]))
    assert threaded == serial  # bit-identical, not just close


def test_radial_table_concurrent_fill_idempotent():
    ns = list(range(2, 80))
    hyd.radial_record.cache_clear()
    serial = [hyd.radial_record(n) for n in ns]
    hyd.radial_record.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(hyd.radial_record, ns))
    assert records == serial  # bit-identical, not just close


def test_exact_route_concurrent_fill_idempotent():
    ns = list(range(2, 60))
    hyd.radial_record.cache_clear()
    serial = [hyd.radial_record(n, "exact") for n in ns]
    hyd.radial_record.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(lambda n: hyd.radial_record(n, "exact"), ns))
    assert records == serial  # bit-identical, not just close


def test_quadrature_route_concurrent_fill_idempotent():
    # "quadrature", the exact route's old name, fills the memo under both keys.
    ns = list(range(2, 60))
    hyd.radial_record.cache_clear()
    serial = [hyd.radial_record(n, "exact") for n in ns]
    hyd.radial_record.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(lambda n: hyd.radial_record(n, "quadrature"), ns))
    assert records == serial  # bit-identical, not just close


def test_sum_value_independent_of_prior_thread_fill(monkeypatch):
    # The reduction order is fixed by construction, so sums whose threads
    # grow the closed-form columns from empty, while others read them, must
    # reproduce the serial values exactly.
    fns = (kappa1_discrete, kappa2_discrete, bethe_sum,
           polarizability_discrete, oscillator_strength_sum)
    calls = [(fn, n_max, tail) for n_max in (79, 120, 163) for fn in fns
             for tail in (True, False)]
    serial = [fn(n_max, tail) for fn, n_max, tail in calls]
    monkeypatch.setattr(hyd, "_COLUMNS", [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, mid-row included
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda c: c[0](c[1], c[2]), calls))
    finally:
        sys.setswitchinterval(interval)
    assert [len(col) for col in hyd._COLUMNS] == [162] * 4   # n = 2..163, once each
    assert threaded == serial  # bit-identical, not just close
