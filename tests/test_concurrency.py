"""Reentrancy and idempotent-fill checks for the documented threading model."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path

import casimir_momentum.hydrogen as hyd
from casimir_momentum import quadrature
from casimir_momentum.engine import integrate_to_inf, kappa2_continuum_integrand
from casimir_momentum.quadrature import kappa1_continuum, kappa2_continuum
from casimir_momentum.sums import (
    bethe_sum,
    kappa1_discrete,
    kappa2_discrete,
    oscillator_strength_sum,
    polarizability_discrete,
)

SRC = str(Path(hyd.__file__).resolve().parents[1])


def test_engine_reentrant_under_threads(monkeypatch):
    # The engine, and the closed forms on both sides of their switch to the
    # series, whose tables of coefficients are cached on first use. Eight
    # threads run every call behind a barrier, from the cutoffs above the
    # switch up and from empty caches, so all of them make the three tables
    # at once; each table yields the interpreter lock at every coefficient
    # before it is cached.
    grid = [0.1 * k for k in range(1, 17)] + [1.5 + 0.25 * k for k in range(1, 17)]
    calls = [lambda y: integrate_to_inf(kappa2_continuum_integrand, y).value,
             lambda y: kappa1_continuum(y).value,
             lambda y: kappa2_continuum(y).value]
    order = grid[16:] + grid[:16]
    serial = [f(y) for y in order for f in calls]
    for name in ("_kappa2_coefficients", "_kappa1_by_parts_coefficients",
                 "_kappa1_binomial_coefficients"):
        made = getattr(quadrature, name).__wrapped__
        monkeypatch.setattr(quadrature, name, cache(
            lambda made=made: tuple(time.sleep(0) or c for c in made())))
    barrier = threading.Barrier(8)

    def run(_):
        barrier.wait(timeout=60)
        return [f(y) for y in order for f in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(run, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [serial] * 8  # bit-identical, not just close


def test_radial_table_concurrent_fill_idempotent(fresh_memos):
    ns = list(range(2, 80))
    serial = [hyd.radial_record(n) for n in ns]
    fresh_memos()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(hyd.radial_record, ns))
    assert records == serial  # bit-identical, not just close


def test_exact_route_concurrent_fill_idempotent(fresh_memos):
    ns = list(range(2, 60))
    serial = [hyd.radial_record(n, "exact") for n in ns]
    fresh_memos()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(lambda n: hyd.radial_record(n, "exact"), ns))
    assert records == serial  # bit-identical, not just close


def test_quadrature_route_concurrent_fill_idempotent(fresh_memos):
    # "quadrature", the exact route's old name, fills the memo under both keys.
    ns = list(range(2, 60))
    serial = [hyd.radial_record(n, "exact") for n in ns]
    fresh_memos()
    with ThreadPoolExecutor(max_workers=8) as pool:
        records = list(pool.map(lambda n: hyd.radial_record(n, "quadrature"), ns))
    assert records == serial  # bit-identical, not just close


def test_tail_coefficients_first_use_under_threads(fresh_memos):
    # Eight threads start the five sums together on empty memos, each at
    # its own n_max, so they fill the memos of the tail weights
    # zeta(3 + 2k, n_max + 1) and of hurwitz_zeta's start per s side by
    # side (k up to 23 at n_max = 2); the c_k and each S_inf are read from
    # sums' tables.
    fns = (kappa1_discrete, kappa2_discrete, bethe_sum,
           polarizability_discrete, oscillator_strength_sum)
    n_maxes = (2, 3, 5, 9, 20, 57, 200, 1000)
    serial = [[fn(n_max, tail) for fn in fns for tail in (True, False)]
              for n_max in n_maxes]
    fresh_memos()
    barrier = threading.Barrier(len(n_maxes))

    def run(n_max):
        barrier.wait(timeout=60)
        return [fn(n_max, tail) for fn in fns for tail in (True, False)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(n_maxes)) as pool:
            threaded = list(pool.map(run, n_maxes))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial  # bit-identical, not just close


def test_lazy_root_export_first_access_under_threads():
    # Eight threads make the first access to a lazy root export together, in
    # a fresh process, so the submodule is not loaded before they start.
    code = (
        "import sys, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import casimir_momentum as cm\n"
        "assert 'casimir_momentum.renorm' not in sys.modules\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8)\n"
        "def first_access(_):\n"
        "    barrier.wait()\n"
        "    return cm.delta_mass\n"
        "with ThreadPoolExecutor(max_workers=8) as pool:\n"
        "    got = list(pool.map(first_access, range(8)))\n"
        "assert all(f is sys.modules['casimir_momentum.renorm'].delta_mass\n"
        "           for f in got)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
