"""Command-line front end: every computation as a subcommand.

Reports are deterministic: canonical JSON (sorted keys, shortest round-trip
float repr, newline-terminated), CSV with one row per scalar quantity, or a
plain-text table. Identical invocations produce byte-identical report bytes;
wall-clock timing is diagnostic only and goes to stderr. Exit codes: 0 on
success, 2 on a validation/usage error, 1 on a numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from . import __version__, budget, quadrature, renorm, sums, units
from .hydrogen import RadialIntegralMismatch
from .quadrature import QuadratureError, QuadratureSpec
from .renorm import CutoffScheme, DispersionModel, MassShiftMismatch
from .units import constants


class CliValidationError(ValueError):
    """Bad parameter values detected before any computation runs."""


@dataclass(frozen=True)
class RunConfig:
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


@dataclass(frozen=True)
class ReportEnvelope:
    artifact_version: str
    config: RunConfig
    results: dict[str, dict[str, Any]]
    provenance: dict[str, str]
    timing_seconds: float  # diagnostic; excluded from canonical bytes


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):          # numpy arrays and scalars
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return float(obj)                   # floats, Fractions, np floats


def _flatten_for_rows(results: dict[str, dict[str, Any]]):
    """Scalar rows (quantity, value, error) with vectors split per component."""
    rows = []
    for name, entry in results.items():
        value = entry.get("value")
        error = entry.get("error")
        is_vector = isinstance(value, (list, tuple)) or getattr(value, "ndim", 0)
        if is_vector:
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


# --- per-subcommand defaults (materialized into the config echo) -----------

_DEFAULTS: dict[str, dict[str, Any]] = {
    "kappas": {"n_max": 200, "tail": "on", "ymin": 1.0, "ymin2": 1.0,
               "rel_tol": 1e-10, "abs_tol": 1e-14},
    "polarizability": {"n_max": 400, "tail": "on"},
    "bethe": {"n_max": 200, "tail": "on", "log_value": -8.35},
    "continuum": {"which": "both", "ymin_grid": "0,0.5,1,2",
                  "rel_tol": 1e-10, "abs_tol": 1e-14},
    "renorm": {"cutoff_ratio": 2.0, "big_ratio": 1e4},
    "rho-c": {"model": "free-electron", "eps_r": 2.0, "n_e": 2.5e28,
              "l_min": None, "omega_max": None, "fit_exponent": "on"},
    "budget": {"E0": "1e5,0,0", "B0": "0,1,0", "Q0": "0,0,0",
               "kappa1": budget.ADOPTED_KAPPA1, "kappa2": budget.ADOPTED_KAPPA2,
               "polarizability": "exact"},
    "verify": {},
}


def _parse_triple(text: str, flag: str) -> list[float]:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise CliValidationError(f"{flag} expects three comma-separated numbers")
    try:
        return [float(x) for x in parts]
    except ValueError:
        raise CliValidationError(f"{flag}: could not parse {text!r}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CliValidationError(message)


def _tail_flag(value: str) -> bool:
    _require(value in ("on", "off"), f"tail must be on or off, got {value!r}")
    return value == "on"


def _sum_entry(res: sums.SpectralSumResult) -> dict[str, Any]:
    return {"value": res.value, "error": res.error_bound,
            "tail_estimate": res.tail_estimate, "partial": res.partial,
            "n_max": res.n_max}


def _handle_kappas(p: dict[str, Any]):
    _require(p["n_max"] >= 2, "n-max must be >= 2")
    _require(p["ymin"] >= 0 and p["ymin2"] >= 0, "ymin must be >= 0")
    _require(p["rel_tol"] > 0 and p["abs_tol"] > 0, "tolerances must be positive")
    tail = _tail_flag(p["tail"])
    spec = QuadratureSpec(abs_tol=p["abs_tol"], rel_tol=p["rel_tol"])
    k1d = sums.kappa1_discrete(p["n_max"], tail)
    k2d = sums.kappa2_discrete(p["n_max"], tail)
    k1c = quadrature.kappa1_continuum(p["ymin"], spec)
    k2c = quadrature.kappa2_continuum(p["ymin2"], spec)
    k1 = k1d.value + k1c.value
    k2 = k2d.value + k2c.value
    net = -k1 + k2
    alpha = constants().fine_structure_alpha
    results = {
        "kappa1_discrete": _sum_entry(k1d),
        "kappa2_discrete": _sum_entry(k2d),
        "kappa1_continuum": {"value": k1c.value, "error": k1c.estimated_error},
        "kappa2_continuum": {"value": k2c.value, "error": k2c.estimated_error},
        "kappa1_total": {"value": k1, "error": None},
        "kappa2_total": {"value": k2, "error": None},
        "net_coefficient": {"value": net, "error": None},
        "relative_momentum_shift": {"value": net * alpha**2, "error": None},
    }
    provenance = {
        "kappa1_discrete": "(2/27) sum I1(n) I3(n)/dE_n^2 over np states, "
                           "power-law tail beyond n_max",
        "kappa2_discrete": "(1/27) sum I2(n) I3(n)/dE_n over np states, "
                           "power-law tail beyond n_max",
        "kappa1_continuum": "plane-wave continuum integral of "
                            "y^3/(y^2+1)^3 (arctan y/y^2 - 1/(y sqrt(y^2+1))) "
                            "from y_min",
        "kappa2_continuum": "(256/27pi) integral of y^4/(y^2+1)^6 from y_min",
        "kappa1_total": "discrete sum plus continuum part",
        "kappa2_total": "discrete sum plus continuum part",
        "net_coefficient": "-kappa1_total + kappa2_total",
        "relative_momentum_shift": "net coefficient times alpha^2; relative "
                                   "vacuum shift of the field-induced momentum",
    }
    return results, provenance


def _handle_polarizability(p: dict[str, Any]):
    _require(p["n_max"] >= 2, "n-max must be >= 2")
    tail = _tail_flag(p["tail"])
    pol = sums.polarizability_discrete(p["n_max"], tail)
    osc = sums.oscillator_strength_sum(p["n_max"], tail)
    results = {
        "polarizability_discrete": _sum_entry(pol),
        "polarizability_exact_total": {"value": sums.POLARIZABILITY_EXACT_AU,
                                       "error": None},
        "continuum_deficit": {"value": sums.POLARIZABILITY_EXACT_AU - pol.value,
                              "error": pol.error_bound},
        "oscillator_strength_sum": _sum_entry(osc),
    }
    provenance = {
        "polarizability_discrete": "(2/3) sum I3(n)^2/dE_n, atomic units of "
                                   "4 pi eps0 a0^3; bound states only",
        "polarizability_exact_total": "exact static polarizability 18 pi a0^3 "
                                      "= 4.5 atomic units, bound plus continuum",
        "continuum_deficit": "exact total minus the discrete sum",
        "oscillator_strength_sum": "(2/3) sum dE_n I3(n)^2; below 1 by the "
                                   "one-electron sum rule",
    }
    return results, provenance


def _handle_bethe(p: dict[str, Any]):
    _require(p["n_max"] >= 2, "n-max must be >= 2")
    tail = _tail_flag(p["tail"])
    sb = sums.bethe_sum(p["n_max"], tail)
    coeff = sums.normalization_constant(p["log_value"], sb)
    results = {
        "bethe_sum": _sum_entry(sb),
        "log_value": {"value": p["log_value"], "error": None},
        "normalization_coefficient": {"value": coeff, "error": None},
    }
    provenance = {
        "bethe_sum": "sum of squared unit-vector matrix elements "
                     "|<1s|r_hat|np>|^2 at constant excitation log",
        "log_value": "externally supplied excitation-spectrum logarithm "
                     "(input, never computed here)",
        "normalization_coefficient": "(1/pi)(-log - 1/2) S_B; ground-state "
                                     "normalization deficit per alpha^3",
    }
    return results, provenance


def _handle_continuum(p: dict[str, Any]):
    _require(p["which"] in ("kappa1", "kappa2", "both"),
             "which must be kappa1, kappa2 or both")
    _require(p["rel_tol"] > 0 and p["abs_tol"] > 0, "tolerances must be positive")
    try:
        grid = [float(x) for x in str(p["ymin_grid"]).split(",") if x != ""]
    except ValueError:
        raise CliValidationError(
            f"could not parse ymin-grid {p['ymin_grid']!r}") from None
    _require(len(grid) >= 1, "ymin-grid must contain at least one value")
    _require(all(b > a for a, b in zip(grid, grid[1:])),
             "ymin-grid must be strictly ascending")
    _require(all(y >= 0 for y in grid), "ymin values must be >= 0")
    spec = QuadratureSpec(abs_tol=p["abs_tol"], rel_tol=p["rel_tol"])
    names = ("kappa1", "kappa2") if p["which"] == "both" else (p["which"],)
    results: dict[str, dict[str, Any]] = {}
    provenance: dict[str, str] = {}
    for name in names:
        for row in quadrature.ymin_sensitivity(name, grid, spec):
            key = f"{name}_continuum[ymin={row.y_min:g}]"
            results[key] = {"value": row.value, "error": row.estimated_error}
            provenance[key] = ("plane-wave continuum integral, lower cutoff "
                               "swept to expose the q > 1/a0 validity limit")
    return results, provenance


def _handle_renorm(p: dict[str, Any]):
    _require(p["cutoff_ratio"] > 0, "cutoff-ratio must be positive")
    _require(p["big_ratio"] >= 1e4, "big-ratio must be >= 1e4 for the "
             "logarithmic-increment check")
    const = constants()
    results: dict[str, dict[str, Any]] = {}
    provenance: dict[str, str] = {}
    deltas = {}
    for label, mass in (("electron", const.electron_mass),
                        ("proton", const.proton_mass)):
        lam = p["cutoff_ratio"] * mass * const.light_speed_c0 / const.hbar
        _require(math.isfinite(lam), f"cutoff-ratio overflows the {label} cutoff")
        dm = renorm.delta_mass(mass, lam)
        deltas[label] = dm
        results[f"delta_mass_{label}"] = {"value": dm, "error": None}
        provenance[f"delta_mass_{label}"] = (
            "electromagnetic self-mass (4 alpha hbar^2/3pi) "
            "int k dk/(hbar^2k^2/2m + hbar c0 k) at hbar*Lambda/(m c0) = "
            f"{p['cutoff_ratio']:g}")
    big = p["big_ratio"] * const.electron_mass * const.light_speed_c0 / const.hbar
    grid = [big * 2.0**k for k in range(5)]
    _require(math.isfinite(grid[-1]), "big-ratio overflows the electron cutoff")
    increment = (renorm.delta_mass(const.electron_mass, 2 * big)
                 - renorm.delta_mass(const.electron_mass, big))
    limit = (8 * const.fine_structure_alpha * const.electron_mass
             / (3 * math.pi)) * math.log(2.0)
    results["doubling_increment_electron"] = {"value": increment, "error": None}
    results["doubling_increment_limit"] = {"value": limit, "error": None}
    provenance["doubling_increment_electron"] = (
        "delta_m(2 Lambda) - delta_m(Lambda) at hbar*Lambda/(m c0) = "
        f"{p['big_ratio']:g}; tends to (8 alpha m/3pi) ln 2")
    provenance["doubling_increment_limit"] = "(8 alpha m/3pi) ln 2"

    atom = units.AtomicParams.hydrogen()
    dm1_em = deltas["proton"] / const.electron_mass
    dm2_em = deltas["electron"] / const.electron_mass
    shift = renorm.reduced_mass_shift(atom, dm1_em, dm2_em)
    results["reduced_mass_shift"] = {"value": shift, "error": None}
    provenance["reduced_mass_shift"] = (
        "-dm1/m1^2 - dm2/m2^2 in electron-mass units; first-order change of "
        "1/mu when both masses absorb their self-energy")

    fn = lambda lam: renorm.delta_mass(const.electron_mass, lam)
    slope = renorm.divergence_exponent(fn, grid)
    results["delta_mass_log_slope"] = {"value": slope, "error": None}
    provenance["delta_mass_log_slope"] = (
        "fitted d log(delta_m)/d log(Lambda) at large cutoff; tends to 0 "
        "(logarithmic divergence)")
    return results, provenance


def _handle_rho_c(p: dict[str, Any]):
    _require(p["model"] in ("dispersionless", "free-electron"),
             "model must be dispersionless or free-electron")
    const = constants()
    if p["model"] == "dispersionless":
        _require(p["eps_r"] > 1, "eps-r must be > 1")
        model = DispersionModel.dispersionless(p["eps_r"])
    else:
        _require(p["n_e"] > 0, "n-e must be positive")
        model = DispersionModel.free_electron(p["n_e"])
    if p["omega_max"] is not None:
        _require(p["omega_max"] > 0, "omega-max must be positive")
        cutoff = CutoffScheme.frequency(p["omega_max"])
    else:
        l_min = p["l_min"] if p["l_min"] is not None \
            else const.classical_electron_radius
        _require(l_min > 0, "l-min must be positive")
        cutoff = CutoffScheme.length(l_min)
    value = renorm.casimir_mass_density(model, cutoff, const)
    omega = cutoff.omega_max(const)
    results = {
        "rho_c": {"value": value, "error": None},
        "omega_max": {"value": omega, "error": None},
    }
    provenance = {
        "rho_c": "(2/3)(hbar/pi^3 c0^5) int (eps_r - 1) omega^3 d omega up "
                 "to the cutoff; closed-form antiderivative per model",
        "omega_max": "effective frequency cutoff (length cutoffs map as "
                     "pi c0 / l_min)",
    }
    if p["model"] == "free-electron":
        reference = model.n_e * const.electron_mass / const.fine_structure_alpha
        results["reference_mass_density"] = {"value": reference, "error": None}
        results["ratio_to_reference"] = {"value": abs(value) / reference,
                                         "error": None}
        provenance["reference_mass_density"] = "n_e m_e / alpha"
        provenance["ratio_to_reference"] = ("|rho_c| / (n_e m_e/alpha); order "
                                            "unity at the electron-radius cutoff")
    if _tail_flag(p["fit_exponent"]):
        grid = [omega * 2.0**k for k in range(4)]
        slope = renorm.divergence_exponent(model, grid, const)
        results["divergence_exponent"] = {"value": slope, "error": None}
        provenance["divergence_exponent"] = (
            "least-squares slope of log|rho_c| against log omega_max over a "
            "geometric cutoff sweep (4 for dispersionless, 2 for the "
            "free-electron model)")
    return results, provenance


def _handle_budget(p: dict[str, Any]):
    e0 = _parse_triple(p["E0"], "--E0")
    b0 = _parse_triple(p["B0"], "--B0")
    q0 = _parse_triple(p["Q0"], "--Q0")
    choice = str(p["polarizability"]).replace("-", "_")
    _require(choice in budget.POLARIZABILITY_CHOICES,
             f"polarizability must be one of "
             f"{tuple(c.replace('_', '-') for c in budget.POLARIZABILITY_CHOICES)}")
    fields = budget.FieldConfiguration(E0=e0, B0=b0, Q0=q0)
    bud = budget.assemble_budget(fields, kappa1=p["kappa1"], kappa2=p["kappa2"],
                                 polarizability_choice=choice)
    results = {
        "abraham": {"value": bud.abraham, "error": None},
        "casimir_correction": {"value": bud.casimir_correction, "error": None},
        "casimir_relative_shift": {"value": bud.casimir_relative_shift,
                                   "error": None},
        "kinetic": {"value": bud.kinetic, "error": None},
        "kinetic_mass_factor": {"value": bud.kinetic_mass_factor, "error": None},
        "kinetic_correction": {"value": bud.kinetic_correction, "error": None},
        "total": {"value": bud.total(), "error": None},
        "transverse_bound": {"value": bud.transverse_bound, "error": None},
        "relativistic_field_bound": {"value": bud.relativistic_field_bound,
                                     "error": None},
        "polarizability_vacuum_item": {"value": bud.polarizability_vacuum_item,
                                       "error": None},
        "alpha0_si": {"value": bud.alpha0_si, "error": None},
        "kappa1": {"value": bud.kappa1, "error": None},
        "kappa2": {"value": bud.kappa2, "error": None},
    }
    for key, frac in bud.relativistic_terms.items():
        results[f"relativistic_{key}"] = {"value": float(frac), "error": None}
    provenance = dict(bud.provenance)
    provenance.update({
        "abraham": bud.provenance["abraham"],
        "total": "abraham + casimir_correction + kinetic + kinetic_correction; "
                 "bounds excluded",
        "alpha0_si": f"polarizability volume [m^3], choice = {choice}",
        "casimir_relative_shift": "(-kappa1 + kappa2) alpha^2, sign carried",
        "kinetic_mass_factor": "E_bind/(M c0^2)",
        "relativistic_darwin_coefficient": "Darwin (longitudinal vacuum) part "
                                           "of the binding-energy mass shift",
        "relativistic_p4_coefficient": "p^4 kinetic-energy part",
        "relativistic_net": "sum of the two parts; exactly 1",
        "relativistic_bartlett_power_alpha2_coeff": (
            "relative relativistic polarizability correction per alpha^2"),
    })
    return results, provenance


def _handle_verify(p: dict[str, Any]):
    from . import verify
    checks = verify.run_checks()
    results: dict[str, dict[str, Any]] = {}
    provenance: dict[str, str] = {}
    n_fail = 0
    for chk in checks:
        results[chk.name] = {"value": chk.value, "error": None,
                             "pass": bool(chk.passed), "target": chk.target}
        provenance[chk.name] = ("PASS " if chk.passed else "FAIL ") + chk.target
        if not chk.passed:
            n_fail += 1
    results["checks_failed"] = {"value": n_fail, "error": None}
    provenance["checks_failed"] = "number of failed oracle/invariant checks"
    return results, provenance


_HANDLERS: dict[str, Callable] = {
    "kappas": _handle_kappas,
    "polarizability": _handle_polarizability,
    "bethe": _handle_bethe,
    "continuum": _handle_continuum,
    "renorm": _handle_renorm,
    "rho-c": _handle_rho_c,
    "budget": _handle_budget,
    "verify": _handle_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-momentum",
        description="Vacuum corrections to the field-induced momentum of "
                    "hydrogen: spectral sums, continuum integrals, cutoff "
                    "regularization, and an itemized momentum budget.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"), default=None)
        sp.add_argument("--output", default=None, metavar="PATH")
        sp.add_argument("--config-load", default=None, metavar="FILE")
        sp.add_argument("--config-dump", action="store_true")

    sp = sub.add_parser("kappas", help="discrete and continuum coupling "
                        "coefficients and their adopted totals")
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    sp.add_argument("--tail", choices=("on", "off"), default=None)
    sp.add_argument("--ymin", type=float, default=None)
    sp.add_argument("--ymin2", type=float, default=None)
    sp.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    sp.add_argument("--abs-tol", type=float, default=None, dest="abs_tol")
    add_common(sp)

    sp = sub.add_parser("polarizability", help="discrete static "
                        "polarizability and oscillator-strength sums")
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    sp.add_argument("--tail", choices=("on", "off"), default=None)
    add_common(sp)

    sp = sub.add_parser("bethe", help="constant-log matrix-element sum and "
                        "the normalization coefficient")
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    sp.add_argument("--tail", choices=("on", "off"), default=None)
    sp.add_argument("--log-value", type=float, default=None, dest="log_value")
    add_common(sp)

    sp = sub.add_parser("continuum", help="lower-cutoff sensitivity scan of "
                        "the continuum integrals")
    sp.add_argument("--which", choices=("kappa1", "kappa2", "both"), default=None)
    sp.add_argument("--ymin-grid", default=None, dest="ymin_grid")
    sp.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    sp.add_argument("--abs-tol", type=float, default=None, dest="abs_tol")
    add_common(sp)

    sp = sub.add_parser("renorm", help="electromagnetic self-mass, its "
                        "logarithmic divergence, and the reduced-mass shift")
    sp.add_argument("--cutoff-ratio", type=float, default=None, dest="cutoff_ratio")
    sp.add_argument("--big-ratio", type=float, default=None, dest="big_ratio")
    add_common(sp)

    sp = sub.add_parser("rho-c", help="regularized vacuum mass density and "
                        "its cutoff scaling")
    sp.add_argument("--model", choices=("dispersionless", "free-electron"),
                    default=None)
    sp.add_argument("--eps-r", type=float, default=None, dest="eps_r")
    sp.add_argument("--n-e", type=float, default=None, dest="n_e")
    sp.add_argument("--l-min", type=float, default=None, dest="l_min")
    sp.add_argument("--omega-max", type=float, default=None, dest="omega_max")
    sp.add_argument("--fit-exponent", choices=("on", "off"), default=None,
                    dest="fit_exponent")
    add_common(sp)

    sp = sub.add_parser("budget", help="itemized momentum budget for given "
                        "external fields")
    sp.add_argument("--E0", default=None, help="V/m, comma-separated triple")
    sp.add_argument("--B0", default=None, help="T, comma-separated triple")
    sp.add_argument("--Q0", default=None, help="kg m/s, comma-separated triple")
    sp.add_argument("--kappa1", type=float, default=None)
    sp.add_argument("--kappa2", type=float, default=None)
    sp.add_argument("--polarizability",
                    choices=("exact", "computed-discrete",
                             "relativistic-corrected"),
                    default=None)
    add_common(sp)

    sp = sub.add_parser("verify", help="run the oracle/invariant suite and "
                        "print a pass/fail table")
    add_common(sp)

    return parser


def _effective_params(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """Materialize parameters: explicit flag > config file > default.

    Returns (params, loaded-config-file contents).
    """
    defaults = _DEFAULTS[args.subcommand]
    loaded: dict[str, Any] = {}
    if args.config_load:
        try:
            with open(args.config_load, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliValidationError(f"cannot load config: {exc}") from exc
        if loaded.get("subcommand") not in (None, args.subcommand):
            raise CliValidationError(
                f"config file is for subcommand {loaded.get('subcommand')!r}, "
                f"not {args.subcommand!r}")
    params: dict[str, Any] = {}
    for key, default in defaults.items():
        user = getattr(args, key, None)
        if user is not None:
            params[key] = user
        elif key in loaded and loaded[key] is not None:
            params[key] = loaded[key]
        else:
            params[key] = default
    return params, loaded


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2

    try:
        params, loaded = _effective_params(args)
        fmt = args.format or loaded.get("format") or "json"
        out_path = args.output
        config = RunConfig(subcommand=args.subcommand, params=params,
                           output_format=fmt, output_path=out_path)
        if args.config_dump:
            text = json.dumps(_jsonable(config.as_dict()), sort_keys=True,
                              indent=2, allow_nan=False)
            sys.stdout.write(text + "\n")
            return 0

        t0 = time.perf_counter()
        results, provenance = _HANDLERS[args.subcommand](params)
        elapsed = time.perf_counter() - t0
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
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, RadialIntegralMismatch, MassShiftMismatch) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
