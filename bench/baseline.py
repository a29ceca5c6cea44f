"""Measure the baseline and check that the benchmark is steady.

    python3 bench/baseline.py

For each workload it makes two sets of ten untraced runs of bench/run.py,
each run with its own seed (1 to 20), then one traced run. For every
end-to-end metric it reports the median and the spread of each set, the
spread being the distance between the first and third quartiles as a share
of the median. The benchmark is accepted when every spread stays within its
metric's bound in BENCHMARK.json and the second set's median is not worse
than the first's by more than the bound. setup_s is held only to the second
rule: its spread is not gated, because its bound exists to catch work moved
into import, which shows in the median. A spread below a third of the bound
is the target and is marked as such, but is not required. The result, with
the machine and software it was measured on, is written to
bench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS, SETS = 10, 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def provenance(seeds: list[int]) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import sys, numpy, scipy; print(sys.version.split()[0],"
         " numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": versions[0], "numpy": versions[1], "scipy": versions[2],
        "git_commit": commit,
        "seeds": seeds,
        "load": "closed loop, one client: one driver process starts one child "
                "at a time and waits for it; no threads",
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = list(range(1, RUNS * SETS + 1))

    result = {"provenance": provenance(seeds), "run_seconds": seconds,
              "workloads": {}, "layer_moves": {
                  name: moves for name, (_, _, moves) in spec.LAYERS.items()}}
    steady = True
    for w in spec.WORKLOADS:
        sets = []
        for s in range(SETS):
            runs = [run_once(w, seed, seconds, 0)
                    for seed in seeds[s * RUNS:(s + 1) * RUNS]]
            if not all(r["correct"] for r in runs):
                print(f"{w}: failed runs in set {s}", file=sys.stderr)
                steady = False
            sets.append({name: spread([r["metrics"][name]["value"] for r in runs])
                         for name in spec.END_TO_END})
            sets[-1]["failed_frac"] = (sum(r["failed"] for r in runs)
                                       / sum(r["attempted"] for r in runs))
        traced = run_once(w, seeds[0], seconds, 1)
        for name, bound in bounds.items():
            first = sets[0][name]["median"]
            for i, st in enumerate(sets):
                m = st[name]
                ok = (name == "setup_s" or m["spread"] <= bound) \
                    and m["median"] <= first * (1 + bound)
                steady &= ok
                target = "" if m["spread"] < bound / 3 else " (above bound/3)"
                print(f"{w:13s} {name:12s} set {i} median {m['median']:.4f} "
                      f"spread {m['spread']:.4f} bound {bound} "
                      f"{'ok' if ok else 'NOT STEADY'}{target}", file=sys.stderr)
        result["workloads"][w] = {
            "why": why[w],
            "end_to_end": sets,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(result, indent=2) + "\n")
    print("steady" if steady else "NOT steady", file=sys.stderr)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
