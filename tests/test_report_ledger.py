"""Every report holds to the committed ledger, bit for bit.

tests/make_report_ledger.py writes tests/report_ledger.json; this test makes
the same reports in-process and compares. On the platform the ledger was
made on, every byte must match. Elsewhere the test skips, naming both
platforms: a libm may differ in the last bits of exp, log1p or atan, and no
rule for another one is set until a second platform's reports show by how
much.
"""

import json
import runpy
from pathlib import Path

import pytest

GENERATOR = runpy.run_path(str(Path(__file__).resolve().parent / "make_report_ledger.py"))


def test_reports_match_the_ledger():
    recorded = json.loads(GENERATOR["LEDGER"].read_text(encoding="utf-8"))
    here = GENERATOR["this_platform"]()
    if here != recorded["platform"]:
        pytest.skip(f"ledger made on {recorded['platform']}, this is {here}")
    now = GENERATOR["ledger"]()
    assert now["reports"].keys() == recorded["reports"].keys()
    moved = []
    for invocation, old in recorded["reports"].items():
        new = now["reports"][invocation]
        moved += [f"{invocation}: {key} {old['values'].get(key)} -> "
                  f"{new['values'].get(key)}"
                  for key in sorted(old["values"].keys() | new["values"].keys())
                  if old["values"].get(key, ...) != new["values"].get(key, ...)]
        moved += [f"{invocation}: {fmt} bytes moved" for fmt in old["sha256"]
                  if old["sha256"][fmt] != new["sha256"][fmt]]
    assert not moved, "\n".join(moved)
