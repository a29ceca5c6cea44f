"""The casimir-momentum benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` beside this directory.
One driver process starts one child at a time and waits for it: a closed
loop with one client and no threads. Each round runs every invocation of the
workload once, in an order drawn from the seed, then times a fresh
`import casimir_momentum` twice; after each of these children it times a
fresh run of a reference that does not use the package (spec.REFERENCE_CODE),
so the reference samples the host's speed all through the run. Rounds repeat
until S seconds have passed.

wall_s is the sum, over the workload's distinct invocations, of each one's
median wall time, which is the wall time of a round (for lib-sweep, the
median time of the sweep); setup_s is the median time of the import;
peak_rss_mb is the largest resident set of a workload or setup child. Both
times are rescaled to a host on which the reference takes spec.REFERENCE_S,
which cancels the drift of a shared host's speed; the measured times go to
stderr, as does the highest percentile of all invocation times with at least
ten samples beyond it.

With --trace 0 it reports the end-to-end metrics. With --trace 1 each round
also replays every invocation in a fresh worker (bench/worker.py) with a
span around each call into a layer, and it reports the per-layer metrics:
self times, exact counts, and how far the replay strays from the real
handler. Every output that is timed is checked; a failed check counts in
`failed`. The last line of stdout is the JSON result; details go to stderr
and the spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = str(Path(__file__).resolve().parent / "worker.py")
RUN_LIMIT_S = 170.0          # every child is stopped before a run reaches this
SETUPS_PER_ROUND = 2         # a run of cli-compute has only three or four rounds
TIMING_RE = re.compile(rb"# timing: ([0-9.]+) s")
IMPORTTIME_RE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


@dataclass
class Child:
    wall: float
    returncode: int | None      # None: stopped at the run's time limit
    stdout: bytes
    stderr: bytes


class _TimeUp(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeUp


class Runner:
    """Starts children one at a time, within the run's time limit.

    Each child writes to files under .bench_out/ and is reaped with wait4, so
    its wall time runs from spawn to exit and its peak resident set is its
    own. peak_rss_kb is the largest over the children spawned with
    measured=True: the workload's and the setup probe's, not the reference's
    or the warm-up's.
    """

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.peak_rss_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        OUT.mkdir(exist_ok=True)
        signal.signal(signal.SIGALRM, _alarm)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, args: list[str], stdin: bytes | None = None,
              measured: bool = False) -> Child:
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        with open(OUT / "child.out", "w+b") as out, \
                open(OUT / "child.err", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env,
                cwd=ROOT, stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE)
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                returncode = os.waitstatus_to_exitcode(status)
            except _TimeUp:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                returncode = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if measured:
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return Child(wall, returncode, out.read(), err.read())


class Gate:
    """Correctness of every timed output; counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[tuple, bytes] = {}

    def record(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason:
            self.failures.append(f"{what}: {reason}")
        return reason is None

    def same_as_first(self, key: tuple, blob: bytes) -> str | None:
        if self._first.setdefault(key, blob) != blob:
            return "output differs from the first one for the same input"
        return None


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token}")


def _exit_reason(child: Child) -> str | None:
    if child.returncode is None:
        return "stopped at the run's time limit"
    if child.returncode != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {child.returncode} {tail}"
    return None


def _band_reason(name: str, value) -> str | None:
    key = re.sub(r"_\d+$", "", name)
    if key not in spec.BANDS:
        return None
    center, tol = spec.BANDS[key]
    if not isinstance(value, (int, float)) or abs(value - center) > tol:
        return f"{name} = {value!r} outside {center} +/- {tol}"
    return None


def check_cli(gate: Gate, argv: list[str], child: Child) -> str | None:
    reason = _exit_reason(child)
    if reason is None:
        try:
            report = json.loads(child.stdout, parse_constant=_reject_constant)
            results = report["results"]
            reason = gate.same_as_first(tuple(argv), child.stdout)
            missing = [k for k in spec.REQUIRED_BANDS.get(argv[0], ())
                       if k not in results]
            if missing:
                reason = reason or f"report lacks {', '.join(missing)}"
            for name, entry in results.items():
                reason = reason or _band_reason(name, entry["value"])
            if argv[0] == "verify" and results["checks_failed"]["value"] != 0:
                reason = reason or (f"checks_failed = "
                                    f"{results['checks_failed']['value']}")
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"bad report: {type(exc).__name__}: {exc}"
    gate.record(" ".join(argv), reason)
    return reason


def check_sweep(gate: Gate, child: Child) -> dict | None:
    reason = _exit_reason(child)
    out = None
    if reason is None:
        try:
            out = json.loads(child.stdout, parse_constant=_reject_constant)
            rows = sorted(map(tuple, out["rows"]))
            reason = gate.same_as_first(("sweep",), repr(rows).encode())
            wanted = {(f, n) for f in spec.SWEEP_FUNCTIONS for n in spec.SWEEP_N_MAX}
            missing = wanted - {(name, n) for name, n, _, _ in rows}
            if missing:
                reason = reason or f"sweep lacks {sorted(missing)[:3]}"
            for name, n, value, error in rows:
                reason = reason or _band_reason(name, value)
                if not (math.isfinite(value) and math.isfinite(error)):
                    reason = reason or f"{name}[{n}] is not finite"
            for which in ("kappa1", "kappa2"):
                scan = [v for name, _, v, _ in rows
                        if name == which + "_continuum"]
                if len(scan) != len(spec.SWEEP_YMIN_GRID) or not all(
                        a > b > 0 for a, b in zip(scan, scan[1:])):
                    reason = reason or f"{which} continuum scan not positive " \
                                       f"and decreasing in y_min"
            k2_zero = next(v for name, y, v, _ in rows
                           if name == "kappa2_continuum" and y == 0.0)
            if abs(k2_zero - 1.0 / 18.0) > 1e-9:
                reason = reason or f"kappa2 continuum at 0 = {k2_zero!r}, not 1/18"
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            reason = f"bad sweep result: {type(exc).__name__}: {exc}"
    return out if gate.record("sweep", reason) else None


def probe(runner: Runner, gate: Gate, code: str, what: str,
          measured: bool = False) -> float:
    child = runner.spawn(["-c", code], measured=measured)
    gate.record(what, _exit_reason(child))
    return child.wall


def tail_value(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank as a percentile; with fewer than eleven samples, the minimum."""
    ordered = sorted(samples)
    idx = len(ordered) - 1 - min(10, len(ordered) - 1)
    pct = 100.0 * idx / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[idx], pct


def _new_round_order(rng: random.Random, workload: str) -> list:
    if workload == spec.SWEEP_WORKLOAD:
        return [rng.randrange(2**32)]
    argvs = spec.CLI_WORKLOADS[workload]
    return rng.sample(argvs, len(argvs))


def _spawn_cli(runner: Runner, argv: list[str]) -> Child:
    return runner.spawn(["-m", "casimir_momentum", *argv], measured=True)


def _spawn_sweep(runner: Runner, seed: int) -> Child:
    return runner.spawn([WORKER], json.dumps({"mode": "sweep", "seed": seed}).encode(),
                        measured=True)


def measure_end_to_end(runner: Runner, gate: Gate, workload: str, seed: int,
                       seconds: float) -> dict:
    rng = random.Random(seed)
    walls: dict[str, list[float]] = defaultdict(list)   # per distinct invocation
    setups, refs = [], []
    while True:
        t0 = runner.elapsed()
        for item in _new_round_order(rng, workload):
            if workload == spec.SWEEP_WORKLOAD:
                out = check_sweep(gate, _spawn_sweep(runner, item))
                if out:
                    walls["sweep"].append(out["sweep_s"])
            else:
                child = _spawn_cli(runner, item)
                check_cli(gate, item, child)
                walls[" ".join(item)].append(child.wall)
            refs.append(probe(runner, gate, spec.REFERENCE_CODE, "reference"))
        for _ in range(SETUPS_PER_ROUND):
            setups.append(probe(runner, gate, "import casimir_momentum", "setup",
                                measured=True))
            refs.append(probe(runner, gate, spec.REFERENCE_CODE, "reference"))
        if _time_is_up(runner, seconds, runner.elapsed() - t0):
            break
    if not walls:
        return {name: (None, unit) for name, unit in spec.END_TO_END.items()}
    samples = [w for ws in walls.values() for w in ws]
    tail, pct = tail_value(samples)
    print(f"# {workload}: {len(samples)} timed invocations, p{pct:.0f} of them "
          f"{tail:.4f} s, setup_s of {len(setups)}", file=sys.stderr)
    for what, ws in walls.items():
        print(f"#   {what}: median {statistics.median(ws):.4f} s of {len(ws)}",
              file=sys.stderr)
    scale = spec.REFERENCE_S / statistics.median(refs)
    wall = sum(statistics.median(ws) for ws in walls.values())
    print(f"# measured wall {wall:.4f} s, setup {statistics.median(setups):.4f} s, "
          f"reference {statistics.median(refs):.4f} s of {len(refs)}; "
          f"reported times are scaled by {scale:.4f}", file=sys.stderr)
    values = {
        # The sum over the distinct invocations of each one's median: the
        # wall time of a round, so each invocation weighs as long as it runs.
        "wall_s": wall * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": runner.peak_rss_kb / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in spec.END_TO_END.items()}


def import_breakdown(stderr: str) -> dict:
    """Layer metrics from `-X importtime`: self times summed per package."""
    per_package: dict[str, int] = defaultdict(int)
    total_us = None
    for line in stderr.splitlines():
        m = IMPORTTIME_RE.match(line)
        if not m:
            continue
        name = m.group(3)
        per_package[name.split(".")[0]] += int(m.group(1))
        if name == "casimir_momentum":
            total_us = int(m.group(2))
    return {
        "import.total_s": None if total_us is None else total_us / 1e6,
        "import.numpy_s": per_package["numpy"] / 1e6,
        "import.scipy_s": per_package["scipy"] / 1e6,
        "import.casimir_momentum_self_s": per_package["casimir_momentum"] / 1e6,
    }


class Round:
    """Per-layer sums over the invocations of one traced round."""

    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        self.values: dict[str, float | None] = {
            name: 0 if unit in ("count", "bytes") else 0.0
            for name, (unit, _, _) in spec.LAYERS.items()}
        self.unavailable: dict[str, str] = {}
        self.hits = self.misses = 0
        self.compute = self.handler = self.covered = 0.0
        self.spans: list[dict] = []

    def absorb(self, result: dict) -> None:
        """Self times of a worker's spans, with its counts."""
        spans = result["spans"]
        dur = [s["end"] - s["start"] for s in spans]
        self_t = list(dur)
        for s, d in zip(spans, dur):
            if s["parent"] is not None:
                self_t[s["parent"]] -= d
        for s, d, t in zip(spans, dur, self_t):
            if s["name"] in self.values:
                self.values[s["name"]] += t
            if s["name"] == "handler":
                self.handler += d
                self.covered += d - t
        for name, key in (("quadrature.neval", "neval"),
                          ("quadrature.subdivisions", "subdivisions")):
            self.values[name] += result.get(key, 0)
        if result.get("cache"):
            self.hits += result["cache"]["hits"]
            self.misses += result["cache"]["misses"]
        self.unavailable.update(result.get("unavailable", {}))
        self.spans.append({"invocation": self.invocation, "spans": spans})
        self.invocation += 1

    def finish(self) -> dict:
        v = self.values
        v["hydrogen.records_filled"] = self.misses
        v["hydrogen.cache_hits"] = self.hits
        reads = self.hits + self.misses
        v["hydrogen.cache_hit_ratio"] = self.hits / reads if reads else 0.0
        v["cli.compute_s"] = self.compute
        if self.compute > 0:
            v["trace.overhead_frac"] = self.handler / self.compute - 1.0
            v["trace.unaccounted_frac"] = 1.0 - self.covered / self.compute
        else:
            v["trace.overhead_frac"] = v["trace.unaccounted_frac"] = None
        for name in self.unavailable:
            v[name] = None
        return v


def _worker(runner: Runner, gate: Gate, job: dict, what: str) -> dict | None:
    child = runner.spawn([WORKER], json.dumps(job).encode())
    reason = _exit_reason(child)
    try:
        out = json.loads(child.stdout) if reason is None else None
    except ValueError as exc:
        reason, out = f"bad worker output: {exc}", None
    gate.record(what, reason)
    return out


def traced_round(runner: Runner, gate: Gate, workload: str, order: list,
                 invocation: int) -> Round:
    rnd = Round(invocation)
    probe = runner.spawn(["-X", "importtime", "-c", "import casimir_momentum"])
    if gate.record("import casimir_momentum -X importtime", _exit_reason(probe)):
        rnd.values.update(import_breakdown(probe.stderr.decode(errors="replace")))
    for item in order:
        if workload == spec.SWEEP_WORKLOAD:
            out = check_sweep(gate, _spawn_sweep(runner, item))
            rnd.compute += out["sweep_s"] if out else 0.0
            job = {"mode": "replay", "sweep_seed": item}
        else:
            child = _spawn_cli(runner, item)
            if check_cli(gate, item, child):
                continue
            m = TIMING_RE.search(child.stderr)
            if m:
                rnd.compute += float(m.group(1))
            else:
                for name in ("cli.compute_s", "trace.overhead_frac",
                             "trace.unaccounted_frac"):
                    rnd.unavailable[name] = "no '# timing:' line on stderr"
            rnd.values["cli.report_bytes"] += len(child.stdout)
            job = {"mode": "replay", "argv": item,
                   "report": child.stdout.decode()}
        result = _worker(runner, gate, job, f"replay {item}")
        if result:
            rnd.absorb(result)
            if result.get("serialize_matches") is False:
                print(f"# note: replayed serialize of {item} differs from "
                      f"the CLI's report", file=sys.stderr)
    if ["verify"] in order:
        result = _worker(runner, gate, {"mode": "verify-cold"}, "verify-cold")
        if result:
            rnd.absorb(result)
    return rnd


def _time_is_up(runner: Runner, seconds: float, round_s: float) -> bool:
    """Stop at the requested length, or before a round could pass the limit."""
    return (runner.elapsed() >= seconds
            or runner.elapsed() + round_s > 0.8 * RUN_LIMIT_S)


def measure_layers(runner: Runner, gate: Gate, workload: str, seed: int,
                   seconds: float) -> dict:
    rng = random.Random(seed)
    rounds, spans, unavailable = [], [], {}
    while True:
        t0 = runner.elapsed()
        rnd = traced_round(runner, gate, workload, _new_round_order(rng, workload),
                           invocation=len(spans))
        rounds.append(rnd.finish())
        spans += rnd.spans
        unavailable.update(rnd.unavailable)
        if _time_is_up(runner, seconds, runner.elapsed() - t0):
            break
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "invocations": spans}) + "\n")
    metrics = {}
    for name, (unit, _, _) in spec.LAYERS.items():
        vals = [r[name] for r in rounds]
        value = None if any(v is None for v in vals) else statistics.median(vals)
        metrics[name] = (value, unit)
    for name, reason in unavailable.items():
        print(f"# {name} is null: {reason}", file=sys.stderr)
    print(f"# {workload}: {len(rounds)} traced rounds; spans in {trace_path}",
          file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "casimir_momentum" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'casimir_momentum'} not found",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    runner, gate = Runner(), Gate()
    # Compile every module once, so no timed child pays for it.
    runner.spawn(["-c", "import casimir_momentum.cli, casimir_momentum.verify"])
    runner.start = time.perf_counter()
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(runner, gate, args.workload, args.seed, args.seconds)
    for failure in gate.failures:
        print(f"# failed: {failure}", file=sys.stderr)
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
