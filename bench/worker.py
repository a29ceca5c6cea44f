"""One fresh benchmark worker: the library sweep, or the traced replay of one
invocation.

Run as `python3 bench/worker.py` with the package on PYTHONPATH. It reads one
JSON job on stdin and prints one JSON object on stdout. Jobs:

* {"mode": "sweep", "seed": n} -- the lib-sweep convergence study, untraced,
  through the package-root exports only.
* {"mode": "replay", "argv": [...], "report": "<the CLI's JSON report>"} --
  replays one CLI invocation through public functions, in the order its
  handler calls them, with a span around every call into a layer.
* {"mode": "replay", "sweep_seed": n} -- the same for the library sweep.
* {"mode": "verify-cold"} -- verify.run_checks twice in one fresh process.

Spans stay in memory and go out with the result. A public name or argument
that has gone from the package makes its layer unavailable, with the reason;
the worker carries on.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager, nullcontext

import spec


class Tracer:
    """Spans of one worker: name, start, end and parent, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.unavailable: dict[str, str] = {}
        self.points: list[tuple[str, float]] = []   # continuum (which, y_min)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append({"name": name,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx].update(start=start, end=time.perf_counter())
            self._stack.pop()

    def step(self, name: str, fn):
        """fn() inside a span; a missing public name or argument is recorded."""
        try:
            with self.span(name):
                return fn()
        except (AttributeError, TypeError) as exc:
            self.unavailable[name] = f"{type(exc).__name__}: {exc}"
            return None


def sweep(cm, seed: int, span=lambda name: nullcontext()) -> list:
    """The lib-sweep study; returns [name, n_max, value, error] rows."""
    pairs = [(f, n) for f in spec.SWEEP_FUNCTIONS for n in spec.SWEEP_N_MAX]
    random.Random(seed).shuffle(pairs)
    rows = []
    for fname, n_max in pairs:
        with span("sums.self_s"):
            res = getattr(cm, fname)(n_max, tail=True)
        rows.append([fname, n_max, res.value, res.error_bound])
    for which in ("kappa1", "kappa2"):
        with span("quadrature.continuum_s"):
            scan = cm.ymin_sensitivity(which, spec.SWEEP_YMIN_GRID)
        rows += [[which + "_continuum", r.y_min, r.value, r.estimated_error]
                 for r in scan]
    return rows


def _fill(tr: Tracer, name: str, ns: range, calls: list) -> None:
    """Read, for every n in ns, each radial record the handler will read."""
    from casimir_momentum import hydrogen
    if not ns:
        return

    def run():
        for n in ns:
            for args in calls:
                hydrogen.radial_record(n, *args)
    tr.step(name, run)


def _fill_bands(tr: Tracer, n_max: int, closed_form_to: int = 0) -> None:
    """The default-route bands up to n_max, plus the closed-form route by
    name for the bands that end at or below closed_form_to."""
    for name, (lo, hi, extra) in spec.FILL_BANDS.items():
        calls = [extra] + ([("closed_form",)] if hi <= closed_form_to else [])
        _fill(tr, name, range(lo, min(hi, n_max) + 1), calls)


def _spec_from(cm, p):
    return cm.QuadratureSpec(abs_tol=p["abs_tol"], rel_tol=p["rel_tol"])


def _replay_kappas(tr, cm, p):
    _fill_bands(tr, p["n_max"])
    tail = p["tail"] == "on"
    tr.step("sums.self_s", lambda: (cm.kappa1_discrete(p["n_max"], tail),
                                    cm.kappa2_discrete(p["n_max"], tail)))
    spec_q = _spec_from(cm, p)
    tr.points += [("kappa1", p["ymin"]), ("kappa2", p["ymin2"])]
    tr.step("quadrature.continuum_s",
            lambda: (cm.kappa1_continuum(p["ymin"], spec_q),
                     cm.kappa2_continuum(p["ymin2"], spec_q)))


def _replay_bethe(tr, cm, p):
    _fill_bands(tr, p["n_max"])

    def run():
        sb = cm.bethe_sum(p["n_max"], p["tail"] == "on")
        return cm.sums.normalization_constant(p["log_value"], sb)
    tr.step("sums.self_s", run)


def _replay_polarizability(tr, cm, p):
    _fill_bands(tr, p["n_max"])
    tail = p["tail"] == "on"
    tr.step("sums.self_s",
            lambda: (cm.polarizability_discrete(p["n_max"], tail),
                     cm.oscillator_strength_sum(p["n_max"], tail)))


def _replay_continuum(tr, cm, p):
    grid = [float(x) for x in str(p["ymin_grid"]).split(",") if x != ""]
    names = ("kappa1", "kappa2") if p["which"] == "both" else (p["which"],)
    spec_q = _spec_from(cm, p)
    tr.points += [(name, y) for name in names for y in grid]
    tr.step("quadrature.continuum_s",
            lambda: [cm.ymin_sensitivity(name, grid, spec_q) for name in names])


def _replay_renorm(tr, cm, p):
    def run():
        const = cm.constants()
        deltas = {}
        for label, mass in (("electron", const.electron_mass),
                            ("proton", const.proton_mass)):
            lam = p["cutoff_ratio"] * mass * const.light_speed_c0 / const.hbar
            deltas[label] = cm.delta_mass(mass, lam)
        big = p["big_ratio"] * const.electron_mass * const.light_speed_c0 / const.hbar
        cm.delta_mass(const.electron_mass, 2 * big)
        cm.delta_mass(const.electron_mass, big)
        cm.reduced_mass_shift(cm.AtomicParams.hydrogen(),
                              deltas["proton"] / const.electron_mass,
                              deltas["electron"] / const.electron_mass)
        return cm.divergence_exponent(
            lambda lam: cm.delta_mass(const.electron_mass, lam),
            [big * 2.0**k for k in range(5)])
    tr.step("renorm.delta_mass_s", run)


def _replay_rho_c(tr, cm, p):
    def run():
        const = cm.constants()
        if p["model"] == "dispersionless":
            model = cm.DispersionModel.dispersionless(p["eps_r"])
        else:
            model = cm.DispersionModel.free_electron(p["n_e"])
        if p["omega_max"] is not None:
            cutoff = cm.CutoffScheme.frequency(p["omega_max"])
        else:
            cutoff = cm.CutoffScheme.length(
                p["l_min"] if p["l_min"] is not None
                else const.classical_electron_radius)
        cm.casimir_mass_density(model, cutoff, const)
        omega = cutoff.omega_max(const)
        if p["fit_exponent"] == "on":
            cm.divergence_exponent(model, [omega * 2.0**k for k in range(4)], const)
    tr.step("renorm.rho_c_s", run)


def _replay_budget(tr, cm, p):
    def triple(text):
        return [float(x) for x in str(text).split(",")]

    tr.step("budget.assemble_s", lambda: cm.assemble_budget(
        cm.FieldConfiguration(E0=triple(p["E0"]), B0=triple(p["B0"]),
                              Q0=triple(p["Q0"])),
        kappa1=p["kappa1"], kappa2=p["kappa2"],
        polarizability_choice=str(p["polarizability"]).replace("-", "_")))


def _replay_verify(tr, cm, p):
    # run_checks reads both routes by name for n <= 200, and the default
    # route through the sums up to n = 400.
    name, (lo, hi, extra) = spec.QUADRATURE_BAND
    _fill_bands(tr, 400, closed_form_to=hi)
    _fill(tr, name, range(lo, hi + 1), [extra])
    tr.points += [("kappa1", 0.0), ("kappa1", 1.0), ("kappa2", 1.0),
                  ("kappa2", 0.0)]

    def run():
        from casimir_momentum import verify
        return verify.run_checks()
    tr.step("verify.run_checks", run)


REPLAYS = {
    "kappas": _replay_kappas,
    "bethe": _replay_bethe,
    "polarizability": _replay_polarizability,
    "continuum": _replay_continuum,
    "renorm": _replay_renorm,
    "rho-c": _replay_rho_c,
    "budget": _replay_budget,
    "verify": _replay_verify,
}


def _cache_info(tr: Tracer, hydrogen) -> dict | None:
    try:
        info = hydrogen.radial_record.cache_info()
    except AttributeError as exc:
        for name in ("hydrogen.records_filled", "hydrogen.cache_hits",
                     "hydrogen.cache_hit_ratio"):
            tr.unavailable[name] = f"AttributeError: {exc}"
        return None
    return {"hits": info.hits, "misses": info.misses}


def _probes(tr: Tracer, cm, table_max: int) -> dict:
    """Counts and warm-table timings taken after the replayed invocation."""
    out = {}
    q = cm.quadrature
    try:
        runs = [q.integrate_to_inf(getattr(q, f"{which}_continuum_integrand"), y)
                for which, y in tr.points]
        out["neval"] = sum(r.neval for r in runs)
        out["subdivisions"] = sum(r.subdivisions for r in runs)
    except (AttributeError, TypeError) as exc:
        for name in ("quadrature.neval", "quadrature.subdivisions"):
            tr.unavailable[name] = f"{type(exc).__name__}: {exc}"
    if table_max >= 400:
        tr.step("sums.warm_s.n400",
                lambda: [getattr(cm, f)(400, tail=True)
                         for f in spec.SWEEP_FUNCTIONS])
    return out


def replay(job: dict) -> dict:
    tr = Tracer()
    out: dict = {}
    with tr.span("invocation"):
        with tr.span("import"):
            import casimir_momentum as cm
            from casimir_momentum import hydrogen
        if "sweep_seed" in job:
            table_max = max(spec.SWEEP_N_MAX)
            with tr.span("handler"):
                _fill_bands(tr, table_max)
                sweep(cm, job["sweep_seed"], tr.span)
            tr.points += [(w, y) for w in ("kappa1", "kappa2")
                          for y in spec.SWEEP_YMIN_GRID]
        else:
            from casimir_momentum import cli
            argv = job["argv"]
            tr.step("cli.parse_s", lambda: cli.build_parser().parse_args(argv))
            report = json.loads(job["report"])
            config = report["config"]
            params = {k: v for k, v in config.items()
                      if k not in ("subcommand", "format", "output")}
            with tr.span("handler"):
                REPLAYS[config["subcommand"]](tr, cm, params)
            table_max = params.get("n_max", 400 if argv[0] == "verify" else 0)
            try:
                env = cli.ReportEnvelope(
                    artifact_version=report["artifact_version"],
                    config=cli.RunConfig(subcommand=config["subcommand"],
                                         params=params,
                                         output_format=config["format"],
                                         output_path=config["output"]),
                    results=report["results"], provenance=report["provenance"],
                    timing_seconds=0.0)
            except (AttributeError, TypeError) as exc:
                for fmt in ("json", "csv", "text"):
                    tr.unavailable[f"cli.serialize_s.{fmt}"] = \
                        f"{type(exc).__name__}: {exc}"
            else:
                blobs = {fmt: tr.step(f"cli.serialize_s.{fmt}",
                                      lambda fmt=fmt: cli.serialize(env, fmt))
                         for fmt in ("json", "csv", "text")}
                out["serialize_matches"] = blobs["json"] == job["report"].encode()
    out["cache"] = _cache_info(tr, hydrogen)
    out.update(_probes(tr, cm, table_max))
    out["spans"] = tr.spans
    out["unavailable"] = tr.unavailable
    return out


def verify_cold() -> dict:
    tr = Tracer()
    from casimir_momentum import verify
    for name in ("verify.run_checks_s.cold", "verify.run_checks_s.warm"):
        tr.step(name, verify.run_checks)
    return {"spans": tr.spans, "unavailable": tr.unavailable}


def sweep_job(seed: int) -> dict:
    import casimir_momentum as cm
    t0 = time.perf_counter()
    rows = sweep(cm, seed)
    return {"sweep_s": time.perf_counter() - t0, "rows": rows}


def main() -> None:
    job = json.loads(sys.stdin.read())
    if job["mode"] == "sweep":
        out = sweep_job(job["seed"])
    elif job["mode"] == "replay":
        out = replay(job)
    elif job["mode"] == "verify-cold":
        out = verify_cold()
    else:
        raise SystemExit(f"unknown mode {job['mode']!r}")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
