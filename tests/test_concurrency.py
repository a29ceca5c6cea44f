"""Reentrancy and idempotent-fill checks for the documented threading model."""

from concurrent.futures import ThreadPoolExecutor

import casimir_momentum.hydrogen as hyd
from casimir_momentum.quadrature import kappa2_continuum
from casimir_momentum.sums import kappa2_discrete


def test_engine_reentrant_under_threads():
    grid = [0.1 * k for k in range(1, 17)]
    serial = [kappa2_continuum(y).value for y in grid]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda y: kappa2_continuum(y).value, grid))
    assert threaded == serial  # bit-identical, not just close


def test_radial_table_concurrent_fill_idempotent():
    ns = list(range(2, 80))
    hyd.radial_record.cache_clear()
    serial = [hyd.radial_record(n) for n in ns]
    hyd.radial_record.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(hyd.radial_record, ns))
    assert records == serial  # bit-identical, not just close


def test_sum_value_independent_of_prior_thread_fill():
    # The reduction order is fixed by construction, so a table filled by many
    # threads must reproduce the single-threaded value exactly.
    reference = kappa2_discrete(79, tail=False).value
    hyd.radial_record.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hyd.radial_record, range(2, 80)))
    assert kappa2_discrete(79, tail=False).value == reference
