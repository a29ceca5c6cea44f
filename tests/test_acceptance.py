"""Acceptance gate: every criterion of verify.CHECKS at its stated target.

The bands live in verify.CHECKS alone; each test prints one [PASS]/[FAIL]
line per criterion (run with -s to see them). All computations are
desk-scale on one core.
"""

import json
import subprocess
import sys

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


def _rows(results, *names):
    for name in names:
        res = results[name]
        _check(f"{name} = {res.target}", res.passed, f"value={res.value!r}")


def test_criterion_1_kappa1_discrete(results):
    # 1a the band at n_max=200 with tail, 1b its run time.
    _rows(results, "kappa1_discrete_200", "kappa1_discrete_runtime")


def test_criterion_6_bethe_and_normalization(results):
    # 6a the constant-log sum, 6b the normalization coefficient built on it.
    _rows(results, "bethe_sum_200", "normalization_coefficient")


def test_cli_verify_subcommand_green():
    # The self-audit surface must agree with this suite.
    proc = subprocess.run([sys.executable, "-m", "casimir_momentum", "verify",
                           "--format", "json"], capture_output=True)
    payload = json.loads(proc.stdout)
    failed = payload["results"]["checks_failed"]["value"]
    _check("verify subcommand reports all checks green",
           proc.returncode == 0 and failed == 0, f"failed={failed}")
