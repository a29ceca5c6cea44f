"""Quick self-test of the benchmark.

    python3 bench/selftest.py

Checks that BENCHMARK.json names every metric the benchmark reports, each
with its unit, and every end-to-end metric with a bound; runs each workload
once, briefly, untraced, and cli-light once traced, checking the shape of
every result; and checks that the benchmark refuses to run without the
package source. Takes about half a minute; exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_benchmark_json() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        fail("BENCHMARK.json workloads differ from spec.WORKLOADS")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    if list(e2e) != list(spec.END_TO_END):
        fail(f"end_to_end names {list(e2e)} != {list(spec.END_TO_END)}")
    for name, m in e2e.items():
        if m.get("unit") != spec.END_TO_END[name]:
            fail(f"{name}: unit {m.get('unit')!r} != {spec.END_TO_END[name]!r}")
        if not 0 < m.get("bound", 0) <= 0.25 or m.get("better") != "lower":
            fail(f"{name}: needs better=lower and a bound in (0, 0.25]")
    if e2e["setup_s"]["bound"] < max(m["bound"] for m in e2e.values()):
        fail("setup_s must have the largest bound")
    layers = {m["name"]: m for m in bench["per_layer"]}
    if list(layers) != list(spec.LAYERS):
        fail("per_layer names differ from spec.LAYERS")
    for name, m in layers.items():
        unit, better, _ = spec.LAYERS[name]
        if (m.get("unit"), m.get("better")) != (unit, better):
            fail(f"{name}: unit/better {m.get('unit')}/{m.get('better')} "
                 f"!= {unit}/{better}")
    for name in [*e2e, *layers, *spec.WORKLOADS]:
        if not NAME_RE.fullmatch(name):
            fail(f"bad name {name!r}")
    return bench


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def check_result(workload: str, trace: int, bench: dict) -> None:
    p = run(workload, trace)
    if p.returncode != 0:
        fail(f"{workload} trace {trace}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: {result['failed']} of {result['attempted']} failed\n"
             f"{p.stderr}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{workload}: metric {m['name']} missing or with a wrong unit")
        value = got["value"]
        if not trace and not (isinstance(value, float) and math.isfinite(value)
                              and value > 0):
            fail(f"{workload}: {m['name']} = {value!r}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{workload}: unexpected metrics")
    print(f"selftest: {workload} trace {trace} ok", file=sys.stderr)


def check_refuses_without_source() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = run(spec.WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("ran without the package source")
    print("selftest: refuses to run without the package source", file=sys.stderr)


def main() -> None:
    bench = check_benchmark_json()
    print("selftest: BENCHMARK.json names every metric", file=sys.stderr)
    check_refuses_without_source()
    for workload in spec.WORKLOADS:
        check_result(workload, 0, bench)
    check_result(spec.WORKLOADS[0], 1, bench)
    print("selftest: ok", file=sys.stderr)


if __name__ == "__main__":
    main()
