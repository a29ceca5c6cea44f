"""Acceptance gate: every criterion of verify.CHECKS at its stated target.

The bands live in verify.CHECKS (the benchmark's copy of five of them is
held equal to it here); each test prints one [PASS]/[FAIL] line per
criterion (run with -s to see them). All computations are desk-scale on
one core.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from casimir_momentum import verify


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
