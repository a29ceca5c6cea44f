"""Acceptance gate: every criterion of verify.CHECKS at its stated target.

The bands live in verify.CHECKS (the benchmark's copy of five of them is
held equal to it here); each test prints one [PASS]/[FAIL] line per
criterion (run with -s to see them). All computations are desk-scale on
one core.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from casimir_momentum import cli, hydrogen, verify


def _check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cost():
    return {}


@pytest.fixture(scope="module")
def results(cost):
    return {res.name: res for res in verify.run_checks(cost)}


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.name)
def test_criterion(results, cost, check):
    res = results[check.name]
    _check(f"{check.name} = {check.target}", res.passed,
           f"value={res.value!r} in {cost[check.name]:.3f} s")


def test_cli_verify_subcommand_green():
    # The self-audit surface must agree with this suite.
    proc = subprocess.run([sys.executable, "-m", "casimir_momentum", "verify",
                           "--format", "json"], capture_output=True)
    payload = json.loads(proc.stdout)
    failed = payload["results"]["checks_failed"]["value"]
    _check("verify subcommand reports all checks green",
           proc.returncode == 0 and failed == 0, f"failed={failed}")


def test_verify_reads_the_reports(monkeypatch):
    # A kappas handler that reports a wrong net coefficient fails that row:
    # verify checks the reported value, not its own recomputation.
    kappas = cli.SUBCOMMANDS["kappas"]

    def wrong_net(params):
        rows = kappas.handler(params)
        entry, provenance = rows["net_coefficient"]
        rows["net_coefficient"] = ({**entry, "value": entry["value"] + 1.0},
                                   provenance)
        return rows

    monkeypatch.setitem(cli.SUBCOMMANDS, "kappas",
                        kappas._replace(handler=wrong_net))
    failed = [res.name for res in verify.run_checks() if not res.passed]
    assert failed == ["net_coefficient"]


def _closed_form_plain_powers(n):
    """hydrogen._closed_form with its powers taken by ** instead of log1p."""
    c = 8.0 / (n**3 * math.sqrt((n - 1) * n * (n + 1)))
    i3 = 2.0 * c * (n - 1) * n * (n + 1) * ((n - 1) / n) ** (n - 3) \
        * ((n + 1) / n) ** -(n + 3)
    i2 = (n * n - 1) / (2.0 * n * n) * i3
    d = 2.0 / (n + 1)
    s = (2.0 - ((n - 1) / (n + 1)) ** (n - 1)
         * ((n - 1) * n * d * d + 2 * (n - 1) * d + 2)) / d**3
    return c * (n / (n + 1)) ** 3 * s, i2, i3


def test_radial_row_sees_powers_without_log1p(monkeypatch, fresh_sums_to_infinity):
    # Plain ** puts I_3 off by 2.1e-14 at n <= 200: inside a 1e-10 band,
    # outside the row's 5e-15. The partials row, whose term-by-term sums
    # read every closed form to n = 400, reads 0.093 with and without it.
    monkeypatch.setattr(hydrogen, "_closed_form", _closed_form_plain_powers)
    hydrogen.radial_record.cache_clear()
    try:
        results = verify.run_checks()
    finally:
        hydrogen.radial_record.cache_clear()
    assert [res.name for res in results if not res.passed] == \
        ["radial_dual_route_nle200"]
    gap = {res.name: res.value for res in results}["radial_dual_route_nle200"]
    assert 1e-14 < gap < 1e-10


def test_bench_bands_match_checks():
    # The benchmark keeps its own copy of five bands (bench/spec.py imports
    # only the standard library); each must equal its verify.CHECKS row.
    path = Path(__file__).resolve().parents[1] / "bench" / "spec.py"
    module_spec = importlib.util.spec_from_file_location("bench_spec", path)
    bench = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(bench)
    checks = {chk.name: chk for chk in verify.CHECKS}
    rows = bench.REQUIRED_BANDS["verify"]
    assert {name.rsplit("_", 1)[0] for name in rows} == set(bench.BANDS)
    for name in rows:
        assert bench.BANDS[name.rsplit("_", 1)[0]] == \
            (checks[name].center, checks[name].tol), name
