"""Command-line front end: every computation as a subcommand.

Reports are deterministic: canonical JSON (sorted keys, shortest round-trip
float repr, newline-terminated), CSV with one row per scalar quantity, or a
plain-text table. Identical invocations produce byte-identical report bytes;
wall-clock timing is diagnostic only and goes to stderr. Exit codes: 0 on
success, 2 on a validation/usage error, 1 on a failed `verify` check or a
QuadratureError from its engine rows. Handlers import the modules only they use.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from typing import Any, Callable, NamedTuple

from . import __version__, quadrature, sums, units
from .quadrature import QuadratureError
from .units import constants


class CliValidationError(ValueError):
    """Bad parameter values detected before any computation runs."""


class RunConfig(NamedTuple):
    """Effective configuration of one invocation, defaults materialized."""

    subcommand: str
    params: dict[str, Any]
    output_format: str
    output_path: str | None

    def as_dict(self) -> dict[str, Any]:
        d = {"subcommand": self.subcommand, "format": self.output_format,
             "output": self.output_path}
        d.update(self.params)
        return d


class ReportEnvelope(NamedTuple):
    artifact_version: str
    config: RunConfig
    results: dict[str, dict[str, Any]]
    provenance: dict[str, str]
    timing_seconds: float  # diagnostic; excluded from canonical bytes


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "_fields"):     # a record is a tuple, not a report value
            raise TypeError(f"a {type(obj).__name__} record is not a report value")
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return float(obj)                   # floats, the one other kind of value


def _flatten_for_rows(results: dict[str, dict[str, Any]]):
    """Scalar rows (quantity, value, error) with vectors split per component."""
    rows = []
    for name, entry in results.items():
        value = entry.get("value")
        error = entry.get("error")
        if isinstance(value, (list, tuple)):
            comps = _jsonable(value)
            for suffix, comp in zip(("x", "y", "z"), comps):
                rows.append((f"{name}_{suffix}", comp, error))
        else:
            rows.append((name, _jsonable(value), error))
    return rows


def serialize(report: ReportEnvelope, output_format: str) -> bytes:
    """Canonical report bytes; identical configs give identical bytes."""
    if output_format == "json":
        payload = {
            "artifact_version": report.artifact_version,
            "config": _jsonable(report.config.as_dict()),
            "results": _jsonable(report.results),
            "provenance": _jsonable(report.provenance),
        }
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if output_format == "csv":
        import csv      # here, as only this format uses it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "value", "error", "provenance"])
        for name, value, error in _flatten_for_rows(report.results):
            prov = report.provenance.get(name, report.provenance.get(
                name.rsplit("_", 1)[0], ""))
            writer.writerow([name, repr(value) if isinstance(value, float) else value,
                             "" if error is None else repr(float(error)), prov])
        return buf.getvalue().encode("utf-8")
    if output_format == "text":
        lines = [f"# casimir-momentum {report.artifact_version}: "
                 f"{report.config.subcommand}"]
        for name, value, error in _flatten_for_rows(report.results):
            entry = report.results.get(name, {})
            flag = ""
            if "pass" in entry:
                flag = "[PASS] " if entry["pass"] else "[FAIL] "
                target = entry.get("target")
                if target:
                    flag = f"{flag}({target}) "
            err = "" if error is None else f"  (err <= {float(error):.3e})"
            lines.append(f"{flag}{name:42s} {value!r}{err}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise CliValidationError(f"unknown output format {output_format!r}")


# --- parameters: each declared once, as a Param in SUBCOMMANDS -------------

# Largest accepted magnitude of a field component, --Q0 component and kappa:
# far above any physical value, it keeps every product in the budget finite.
_BUDGET_MAGNITUDE_MAX = 1e50

# Largest accepted --n-max. A sum costs the same at every n_max (S_inf minus
# the tail), so it bounds no cost: kappas at the ceiling and at 200 both
# take about 88 ms and 15.5 MB peak RSS as a fresh process (2-core x86-64
# host, Python 3.11). It keeps the input contract as it stands.
_N_MAX_CEILING = 100_000


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CliValidationError(message)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    """Comma-separated finite numbers (--E0/--B0/--Q0 and --ymin-grid)."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise CliValidationError(f"{flag}: could not parse {text!r}") from None
    _require(all(map(math.isfinite, values)), f"{flag} values must be finite")
    return values


class Param(NamedTuple):
    """One subcommand parameter: the single source of its flag, default,
    config-echo key and input check.

    `check` pairs a rule on the parsed value with the text that states it;
    `parse` turns a string parameter into the value the handler gets. A
    default of None marks an optional parameter that may stay unset.
    """

    name: str
    type: type
    default: Any
    help: str
    choices: tuple[str, ...] | None = None
    check: tuple[Callable[[Any], bool], str] | None = None
    parse: Callable[[str, str], Any] | None = None

    @property
    def flag(self) -> str:
        return f"--{self.name.replace('_', '-')}"

    def checked(self, value: Any) -> Any:
        """The value the handler gets, or CliValidationError naming the flag.

        Flag values arrive typed by argparse, --config-load values as raw
        JSON, so both pass the same type, finiteness, choice and range checks.
        """
        if value is None and self.default is None:
            return None
        accepted = (int, float) if self.type is float else self.type
        _require(isinstance(value, accepted) and not isinstance(value, bool),
                 f"{self.flag} must be of type {self.type.__name__}, got {value!r}")
        if self.type is float:
            try:
                finite = math.isfinite(value)
            except OverflowError:           # a JSON integer beyond the float range
                finite = False
            _require(finite, f"{self.flag} must be finite, got {value!r}")
        if self.choices is not None:
            _require(value in self.choices, f"{self.flag} must be one of "
                     f"{', '.join(self.choices)}, got {value!r}")
        if self.parse is not None:
            value = self.parse(value, self.flag)
        if self.check is not None:
            rule, text = self.check
            _require(rule(value), f"{self.flag} {text}")
        return value


_POSITIVE = (lambda v: v > 0, "must be positive")
_Y_MIN_RANGE = f"[0, {quadrature.Y_MIN_MAX:g}]"
_Y_MIN = (lambda y: 0 <= y <= quadrature.Y_MIN_MAX, f"must be in {_Y_MIN_RANGE}")
_Y_MIN_GRID = (lambda g: all(map(_Y_MIN[0], g))
               and all(b > a for a, b in zip(g, g[1:])),
               f"must be strictly ascending values in {_Y_MIN_RANGE}")
_KAPPA = (lambda v: abs(v) <= _BUDGET_MAGNITUDE_MAX,
          f"must be at most {_BUDGET_MAGNITUDE_MAX:g} in magnitude")


def _n_max(default: int) -> Param:
    return Param("n_max", int, default, "last n of the partial sum", check=(
        lambda n: 2 <= n <= _N_MAX_CEILING, f"must be in [2, {_N_MAX_CEILING}]"))


def _triple(name: str, default: str, unit: str) -> Param:
    return Param(name, str, default, f"{unit}, comma-separated triple",
                 parse=_parse_floats, check=(
                     lambda v: len(v) == 3 and all(map(_KAPPA[0], v)),
                     f"must be three comma-separated numbers, each at most "
                     f"{_BUDGET_MAGNITUDE_MAX:g} in magnitude"))


def _switch(name: str, help: str) -> Param:
    """An on/off parameter; the handler gets a bool."""
    return Param(name, str, "on", help, choices=("on", "off"),
                 parse=lambda text, flag: text == "on")


_TAIL = _switch("tail", "add the exact 1/n^2-expansion tail beyond n_max")
# The continuum integrals are closed forms, so these two steer no reported
# number. They are still accepted, checked and echoed in the config, because
# the benchmark's replay (bench/worker.py, _spec_from) reads both keys from
# it; a relative tolerance below the float epsilon is refused as before.
_TOLERANCES = (
    Param("rel_tol", float, quadrature.DEFAULT_SPEC.rel_tol,
          "accepted and checked; steers nothing (closed-form integrals)", check=(
              lambda v: v >= sys.float_info.epsilon,
              f"must be >= {sys.float_info.epsilon!r} (the float epsilon)")),
    Param("abs_tol", float, quadrature.DEFAULT_SPEC.abs_tol,
          "accepted and checked; steers nothing (closed-form integrals)",
          check=_POSITIVE))
_FORMAT = Param("format", str, "json", "report format",
                choices=("json", "csv", "text"))


Row = tuple[dict[str, Any], str]   # a report row: its entry and its provenance


def _row(value: Any, provenance: str, error: Any = None) -> Row:
    return {"value": value, "error": error}, provenance


def _sum_row(res: sums.SpectralSumResult, provenance: str) -> Row:
    return {"value": res.value, "error": res.error_bound,
            "tail_estimate": res.tail_estimate, "partial": res.partial,
            "n_max": res.n_max}, (f"{provenance}; tail beyond n_max from the exact "
                                  "1/n^2 expansion of the terms (0 with --tail off)")


def _handle_kappas(p: dict[str, Any]) -> dict[str, Row]:
    k1d = sums.kappa1_discrete(p["n_max"], p["tail"])
    k2d = sums.kappa2_discrete(p["n_max"], p["tail"])
    k1c = quadrature.kappa1_continuum(p["ymin"])
    k2c = quadrature.kappa2_continuum(p["ymin2"])
    k1 = k1d.value + k1c.value
    k2 = k2d.value + k2c.value
    net = -k1 + k2
    alpha = constants().fine_structure_alpha
    return {
        "kappa1_discrete": _sum_row(k1d, "(2/27) sum I1(n) I3(n)/dE_n^2 over np states"),
        "kappa2_discrete": _sum_row(k2d, "(1/27) sum I2(n) I3(n)/dE_n over np states"),
        "kappa1_continuum": _row(k1c.value, "plane-wave continuum integral of "
                                 "y^3/(y^2+1)^3 (arctan y/y^2 - 1/(y sqrt(y^2+1))) "
                                 "from y_min", error=k1c.estimated_error),
        "kappa2_continuum": _row(k2c.value, "(256/27pi) integral of y^4/(y^2+1)^6 "
                                 "from y_min", error=k2c.estimated_error),
        "kappa1_total": _row(k1, "discrete sum plus continuum part"),
        "kappa2_total": _row(k2, "discrete sum plus continuum part"),
        "net_coefficient": _row(net, "-kappa1_total + kappa2_total"),
        "relative_momentum_shift": _row(net * alpha**2, "net coefficient times "
                                        "alpha^2; relative vacuum shift of the "
                                        "field-induced momentum"),
    }


def _handle_polarizability(p: dict[str, Any]) -> dict[str, Row]:
    pol = sums.polarizability_discrete(p["n_max"], p["tail"])
    osc = sums.oscillator_strength_sum(p["n_max"], p["tail"])
    exact = units.POLARIZABILITY_EXACT_AU
    return {
        "polarizability_discrete": _sum_row(pol, "(2/3) sum I3(n)^2/dE_n, atomic "
                                            "units of 4 pi eps0 a0^3; bound "
                                            "states only"),
        "polarizability_exact_total": _row(exact, "exact static polarizability "
                                           "18 pi a0^3 = 4.5 atomic units, bound "
                                           "plus continuum"),
        "continuum_deficit": _row(exact - pol.value, "exact total minus the "
                                  "discrete sum", error=pol.error_bound),
        "oscillator_strength_sum": _sum_row(osc, "(2/3) sum dE_n I3(n)^2; below "
                                            "1 by the one-electron sum rule"),
    }


def _handle_bethe(p: dict[str, Any]) -> dict[str, Row]:
    sb = sums.bethe_sum(p["n_max"], p["tail"])
    return {
        "bethe_sum": _sum_row(sb, "sum of squared unit-vector matrix elements "
                              "|<1s|r_hat|np>|^2 at constant excitation log"),
        "log_value": _row(p["log_value"], "externally supplied excitation-"
                          "spectrum logarithm (input, never computed here)"),
        "normalization_coefficient": _row(
            sums.normalization_constant(p["log_value"], sb),
            "(1/pi)(-log - 1/2) S_B; ground-state normalization deficit per "
            "alpha^3"),
    }


def _handle_continuum(p: dict[str, Any]) -> dict[str, Row]:
    names = ("kappa1", "kappa2") if p["which"] == "both" else (p["which"],)
    return {f"{name}_continuum[ymin={row.y_min:g}]": _row(
        row.value, "plane-wave continuum integral, lower cutoff swept to "
        "expose the q > 1/a0 validity limit", error=row.estimated_error)
        for name in names
        for row in quadrature.ymin_sensitivity(name, p["ymin_grid"])}


def _handle_renorm(p: dict[str, Any]) -> dict[str, Row]:
    from . import renorm
    const = constants()
    rows: dict[str, Row] = {}
    deltas = {}
    for label, mass in (("electron", const.electron_mass),
                        ("proton", const.proton_mass)):
        lam = p["cutoff_ratio"] * mass * const.light_speed_c0 / const.hbar
        _require(math.isfinite(lam), f"--cutoff-ratio overflows the {label} cutoff")
        deltas[label] = renorm.delta_mass(mass, lam)
        rows[f"delta_mass_{label}"] = _row(
            deltas[label], "electromagnetic self-mass (4 alpha hbar^2/3pi) "
            "int k dk/(hbar^2k^2/2m + hbar c0 k) at hbar*Lambda/(m c0) = "
            f"{p['cutoff_ratio']:g}")
    big = p["big_ratio"] * const.electron_mass * const.light_speed_c0 / const.hbar
    grid = [big * 2.0**k for k in range(5)]
    _require(math.isfinite(grid[-1]), "--big-ratio overflows the electron cutoff")
    rows["doubling_increment_electron"] = _row(
        renorm.delta_mass(const.electron_mass, 2 * big)
        - renorm.delta_mass(const.electron_mass, big),
        "delta_m(2 Lambda) - delta_m(Lambda) at hbar*Lambda/(m c0) = "
        f"{p['big_ratio']:g}; tends to (8 alpha m/3pi) ln 2")
    rows["doubling_increment_limit"] = _row(
        (8 * const.fine_structure_alpha * const.electron_mass / (3 * math.pi))
        * math.log(2.0), "(8 alpha m/3pi) ln 2")
    atom = units.AtomicParams.hydrogen()
    dm1, dm2 = (deltas[label] / const.electron_mass for label in ("proton", "electron"))
    _require(dm1 < atom.m1 and dm2 < atom.m2,
             "--cutoff-ratio makes a self-mass reach its mass (above about 2.6e70)")
    rows["reduced_mass_shift"] = _row(
        renorm.reduced_mass_shift(atom, dm1, dm2),
        "-dm1/m1^2 - dm2/m2^2 in electron-mass units; first-order change of "
        "1/mu when both masses absorb their self-energy")
    rows["delta_mass_log_slope"] = _row(renorm.divergence_exponent(
        lambda lam: renorm.delta_mass(const.electron_mass, lam), grid),
        "fitted d log(delta_m)/d log(Lambda) at large cutoff; tends to 0 "
        "(logarithmic divergence)")
    return rows


def _handle_rho_c(p: dict[str, Any]) -> dict[str, Row]:
    from . import renorm
    from .renorm import CutoffScheme, DispersionModel
    const = constants()
    if p["model"] == "dispersionless":
        model, model_flag = DispersionModel.dispersionless(p["eps_r"]), "--eps-r"
    else:
        model, model_flag = DispersionModel.free_electron(p["n_e"]), "--n-e"
    if p["omega_max"] is not None:
        cutoff, cutoff_flag = CutoffScheme.frequency(p["omega_max"]), "--omega-max"
    else:
        l_min = p["l_min"] if p["l_min"] is not None \
            else const.classical_electron_radius
        cutoff, cutoff_flag = CutoffScheme.length(l_min), "--l-min"
    omega = cutoff.omega_max(const)
    try:
        value = renorm.casimir_mass_density(model, cutoff, const)
        if p["fit_exponent"]:
            grid = [omega * 2.0**k for k in range(4)]
            slope = renorm.divergence_exponent(model, grid, const)
    except renorm.MassDensityOverflow as exc:
        raise CliValidationError(
            f"{exc} (set by {cutoff_flag} and {model_flag})") from None
    rows = {
        "rho_c": _row(value, "(2/3)(hbar/pi^3 c0^5) int (eps_r - 1) omega^3 "
                      "d omega up to the cutoff; closed-form antiderivative per "
                      "model"),
        "omega_max": _row(omega, "effective frequency cutoff (length cutoffs "
                          "map as pi c0 / l_min)"),
    }
    if p["model"] == "free-electron":
        reference = p["n_e"] * const.electron_mass / const.fine_structure_alpha
        rows["reference_mass_density"] = _row(reference, "n_e m_e / alpha")
        rows["ratio_to_reference"] = _row(abs(value) / reference, "|rho_c| / "
                                          "(n_e m_e/alpha); order unity at the "
                                          "electron-radius cutoff")
    if p["fit_exponent"]:
        rows["divergence_exponent"] = _row(
            slope, "least-squares slope of log|rho_c| against log omega_max "
            "over a geometric cutoff sweep (4 for dispersionless, 2 for the "
            "free-electron model)")
    return rows


def _handle_budget(p: dict[str, Any]) -> dict[str, Row]:
    from . import budget
    fields = budget.FieldConfiguration(E0=p["E0"], B0=p["B0"], Q0=p["Q0"])
    bud = budget.assemble_budget(
        fields, kappa1=p["kappa1"], kappa2=p["kappa2"],
        polarizability_choice=p["polarizability"].replace("-", "_"))
    values = bud._asdict()
    values.update((f"relativistic_{key}", value)
                  for key, value in bud.relativistic_terms.items())
    return {name: _row(values[name], text) for name, text in bud.provenance.items()}


def _handle_verify(p: dict[str, Any]) -> dict[str, Row]:
    from . import verify
    cost: dict[str, float] = {}
    checks = verify.run_checks(cost)
    rows: dict[str, Row] = {}
    for chk in checks:
        print(f"# check {chk.name}: {cost[chk.name]:.3f} s", file=sys.stderr)
        rows[chk.name] = ({"value": chk.value, "error": None,
                           "pass": bool(chk.passed), "target": chk.target},
                          ("PASS " if chk.passed else "FAIL ") + chk.target)
    rows["checks_failed"] = _row(sum(not c.passed for c in checks),
                                 "number of failed oracle/invariant checks")
    return rows


class Subcommand(NamedTuple):
    help: str
    handler: Callable[[dict[str, Any]], dict[str, Row]]
    params: tuple[Param, ...] = ()


SUBCOMMANDS: dict[str, Subcommand] = {
    "kappas": Subcommand(
        "discrete and continuum coupling coefficients and their adopted totals",
        _handle_kappas, (
            _n_max(sums.DEFAULT_N_MAX_KAPPA), _TAIL,
            Param("ymin", float, 1.0, "kappa1 continuum cutoff", check=_Y_MIN),
            Param("ymin2", float, 1.0, "kappa2 continuum cutoff", check=_Y_MIN),
            *_TOLERANCES)),
    "polarizability": Subcommand(
        "discrete static polarizability and oscillator-strength sums",
        _handle_polarizability,
        (_n_max(sums.DEFAULT_N_MAX_POLARIZABILITY), _TAIL)),
    "bethe": Subcommand(
        "constant-log matrix-element sum and the normalization coefficient",
        _handle_bethe, (
            _n_max(sums.DEFAULT_N_MAX_KAPPA), _TAIL,
            Param("log_value", float, sums.DEFAULT_LAMB_LOG,
                  "excitation-spectrum logarithm, supplied from outside"))),
    "continuum": Subcommand(
        "lower-cutoff sensitivity scan of the continuum integrals",
        _handle_continuum, (
            Param("which", str, "both", "integral to scan",
                  choices=("kappa1", "kappa2", "both")),
            Param("ymin_grid", str, "0,0.5,1,2", "comma-separated cutoffs",
                  parse=_parse_floats, check=_Y_MIN_GRID),
            *_TOLERANCES)),
    "renorm": Subcommand(
        "electromagnetic self-mass, its logarithmic divergence, and the "
        "reduced-mass shift", _handle_renorm, (
            Param("cutoff_ratio", float, 2.0, "self-mass cutoff hbar*Lambda/(m c0)",
                  check=_POSITIVE),
            Param("big_ratio", float, 1e4, "cutoff of the doubling check", check=(
                lambda v: v >= 1e4,
                "must be >= 1e4 for the logarithmic-increment check")))),
    "rho-c": Subcommand(
        "regularized vacuum mass density and its cutoff scaling",
        _handle_rho_c, (
            Param("model", str, "free-electron", "dispersion model",
                  choices=("dispersionless", "free-electron")),
            Param("eps_r", float, 2.0, "dispersionless permittivity",
                  check=(lambda v: v > 1, "must be > 1")),
            Param("n_e", float, 2.5e28, "electron density [m^-3]", check=_POSITIVE),
            Param("l_min", float, None, "length cutoff [m], default the "
                  "classical electron radius", check=_POSITIVE),
            Param("omega_max", float, None, "frequency cutoff [rad/s], "
                  "replaces --l-min", check=_POSITIVE),
            _switch("fit_exponent", "fit the cutoff power"))),
    "budget": Subcommand(
        "itemized momentum budget for given external fields",
        _handle_budget, (
            _triple("E0", "1e5,0,0", "V/m"), _triple("B0", "0,1,0", "T"),
            _triple("Q0", "0,0,0", "kg m/s"),
            Param("kappa1", float, units.ADOPTED_KAPPA1, "first vacuum "
                  "coupling", check=_KAPPA),
            Param("kappa2", float, units.ADOPTED_KAPPA2, "second vacuum "
                  "coupling", check=_KAPPA),
            Param("polarizability", str, "exact", "alpha(0) in the budget",
                  choices=tuple(c.replace("_", "-")
                                for c in units.POLARIZABILITY_CHOICES)))),
    "verify": Subcommand(
        "run the oracle/invariant suite and print a pass/fail table",
        _handle_verify),
}

def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Given `only`, the others are listed
    by name and help but get no arguments, which parses, helps and fails on
    `only` alike at a fraction of the cost."""
    parser = argparse.ArgumentParser(
        prog="casimir-momentum",
        description="Vacuum corrections to the field-induced momentum of "
                    "hydrogen: spectral sums, continuum integrals, cutoff "
                    "regularization, and an itemized momentum budget.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, cmd in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        if only is not None and name != only:
            continue
        for p in (*cmd.params, _FORMAT):
            # default=None, so a config-file value can stand in for the flag.
            default = "" if p.default is None else f" (default {p.default})"
            sp.add_argument(p.flag, dest=p.name, type=p.type, choices=p.choices,
                            default=None, help=p.help + default)
        sp.add_argument("--output", default=None, metavar="PATH")
        sp.add_argument("--config-load", default=None, metavar="FILE")
        sp.add_argument("--config-dump", action="store_true")
    return parser


def _effective_params(args: argparse.Namespace,
                      params: tuple[Param, ...]) -> dict[str, Any]:
    """Materialize parameters as given: explicit flag > config file > default."""
    loaded: dict[str, Any] = {}
    if args.config_load:
        try:
            with open(args.config_load, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliValidationError(f"cannot load config: {exc}") from exc
        _require(isinstance(loaded, dict),
                 f"config file {args.config_load!r} must hold a JSON object")
        if loaded.get("subcommand") not in (None, args.subcommand):
            raise CliValidationError(
                f"config file is for subcommand {loaded.get('subcommand')!r}, "
                f"not {args.subcommand!r}")
        unknown = sorted(set(loaded) - {p.name for p in params}
                         - {"subcommand", "output"})
        _require(not unknown, f"config file {args.config_load!r} has keys "
                 f"{args.subcommand} does not take: {', '.join(unknown)}")
    # A loaded key counts, null too; Param.checked refuses null if the default is set.
    return {p.name: getattr(args, p.name) if getattr(args, p.name) is not None
            else loaded.get(p.name, p.default) for p in params}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top level takes no option with a value, so the first word that is
    # not an option names the subcommand, if any does.
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cmd = SUBCOMMANDS[args.subcommand]
        params = _effective_params(args, (*cmd.params, _FORMAT))
        fmt = _FORMAT.checked(params.pop("format"))
        checked = {p.name: p.checked(params[p.name]) for p in cmd.params}
        out_path = args.output
        config = RunConfig(subcommand=args.subcommand, params=params,
                           output_format=fmt, output_path=out_path)
        if args.config_dump:
            text = json.dumps(_jsonable(config.as_dict()), sort_keys=True,
                              indent=2, allow_nan=False)
            sys.stdout.write(text + "\n")
            return 0

        t0 = time.perf_counter()
        rows = cmd.handler(checked)
        elapsed = time.perf_counter() - t0
        results = {name: entry for name, (entry, _) in rows.items()}
        provenance = {name: text for name, (_, text) in rows.items()}
        report = ReportEnvelope(artifact_version=__version__, config=config,
                                results=results, provenance=provenance,
                                timing_seconds=elapsed)
        blob = serialize(report, fmt)
        if out_path:
            try:
                with open(out_path, "wb") as fh:
                    fh.write(blob)
            except OSError as exc:
                print(f"error: cannot write {out_path!r}: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.buffer.write(blob)
            sys.stdout.flush()
        print(f"# timing: {elapsed:.3f} s", file=sys.stderr)
        if args.subcommand == "verify":
            return 0 if results["checks_failed"]["value"] == 0 else 1
        return 0
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
