"""Oracle and invariant suite backing the `verify` subcommand.

Every acceptance band and invariant of the reproduced numbers is written
once, as a row of CHECKS: its name, its target and the computation of the
value it bounds. A row whose quantity a subcommand reports reads it from
that subcommand's report at its parameter defaults, made once per run; only
what no subcommand reports is computed here from the library. So a fault in
a handler fails `verify` instead of shipping past it. `run_checks()`
evaluates the rows in order, so a deployed artifact can audit itself from
the command line, and the acceptance gate (tests/test_acceptance.py)
asserts the same rows. The benchmark keeps its own copy of five of these
bands in bench/spec.py, which a test holds equal to these rows.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, NamedTuple

from . import budget, cli, hydrogen, quadrature, renorm, sums, units
from .units import constants


class CheckResult(NamedTuple):
    """One evaluated check; its cost is kept out, so equal runs compare equal."""

    name: str
    value: float | None   # None where a value would break byte-determinism
    target: str
    passed: bool


class _Memo:
    """The intermediates one run_checks() call shares between its checks.

    `memo(fn, *args)` computes fn(*args) on first use and returns the same
    result afterwards; `cost` holds the seconds each finished check took.
    """

    def __init__(self, cost: dict[str, float]) -> None:
        self._values: dict[tuple, Any] = {}
        self.cost = cost

    def __call__(self, fn: Callable, *args: Any) -> Any:
        key = (fn, args)
        if key not in self._values:
            self._values[key] = fn(*args)
        return self._values[key]


class Check(NamedTuple):
    """One criterion: its name, the computation of its value and its target.

    The target is a band around `center`, of half-width `tol` or of the
    fraction `rel` of |center|, or else a `rule` on the value, stated by
    `text` (which also overrides a band's own wording). A value that is not
    `shown` is checked but reported as None: a run time, which would break
    byte-identical reports, or a bare yes/no.
    """

    name: str
    compute: Callable[[_Memo], Any]
    center: float | None = None
    tol: float | None = None
    rel: float | None = None
    rule: Callable[[Any], bool] | None = None
    text: str | None = None
    shown: bool = True

    @property
    def target(self) -> str:
        if self.text is not None:
            return self.text
        if self.rel is not None:
            return f"{self.center:g} +/- {self.rel * 100:g}%"
        return f"{self.center:g} +/- {self.tol:g}"

    def passes(self, value: Any) -> bool:
        if self.rule is not None:
            return bool(self.rule(value))
        bound = self.tol if self.rel is None else self.rel * abs(self.center)
        return abs(value - self.center) <= bound


_C = constants()
_GRID = [1e16 * 2.0**k for k in range(5)]   # cutoffs of the exponent fits
# Lower cutoffs at which the engine checks the closed continuum integrals,
# to a relative tolerance only: under the default abs_tol of 1e-14 its error
# bar at y_min = 1e4 is larger than the value, and would pass any answer.
_ORACLE_YMIN = (0.0, 1e-3, 1.0, 2.0, 10.0, 1e4)
_ORACLE_SPEC = quadrature.QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)
# Upper cut of the beta integral: its tail beyond, at most 1e3^-7/7, is far
# below the integration tolerance.
_BETA_CUT = 1e3


def _value_of(fn: Callable, *args: Any) -> Callable[[_Memo], float]:
    """The `.value` of fn(*args), computed once per run."""
    return lambda m: m(fn, *args).value


def _defaults(subcommand: str) -> dict[str, Any]:
    """The checked default of each parameter of a subcommand."""
    return {p.name: p.checked(p.default) for p in cli.SUBCOMMANDS[subcommand].params}


def _report(subcommand: str) -> dict[str, cli.Row]:
    """The rows a subcommand reports at its defaults."""
    return cli.SUBCOMMANDS[subcommand].handler(_defaults(subcommand))


def _reported(subcommand: str, key: str) -> Callable[[_Memo], Any]:
    """The value a subcommand reports as `key`; each report is made once per run."""
    return lambda m: m(_report, subcommand)[key][0]["value"]


def _reduced_mass_shift_error(m: _Memo) -> float:
    """Relative gap of the reported first-order shift to the two-sided 1/mu
    change for the reported self-masses."""
    dm1, dm2 = (_reported("renorm", f"delta_mass_{label}")(m) / _C.electron_mass
                for label in ("proton", "electron"))
    atom = units.AtomicParams.hydrogen()
    up = units.AtomicParams(m1=atom.m1 + dm1, m2=atom.m2 + dm2)
    down = units.AtomicParams(m1=atom.m1 - dm1, m2=atom.m2 - dm2)
    centered = 0.5 * (1.0 / up.reduced_mass - 1.0 / down.reduced_mass)
    formula = _reported("renorm", "reduced_mass_shift")(m)
    return float(abs(formula - centered) / abs(centered))


def _engine(which: str, y_min: float) -> quadrature.QuadratureResult:
    """The adaptive engine's integral of a continuum integrand from y_min."""
    return quadrature.integrate_to_inf(
        getattr(quadrature, f"{which}_continuum_integrand"), y_min, _ORACLE_SPEC)


def _continuum_oracle(which: str, y_min: float) -> Callable[[_Memo], float]:
    """|engine - closed form| over the sum of their error bars at y_min."""
    def ratio(m: _Memo) -> float:
        engine = m(_engine, which, y_min)
        closed = getattr(quadrature, f"{which}_continuum")(y_min)
        return abs(engine.value - closed.value) / (engine.error
                                                  + closed.estimated_error)
    return ratio


def _radial_route_gap(m: _Memo) -> float:
    """Worst relative gap of the exact route to the closed forms, n <= 200."""
    return max(abs(exact - closed) / closed
               for n in range(2, 201)
               for closed, exact in zip(hydrogen.radial_record(n, "closed_form"),
                                        hydrogen.radial_record(n, "exact")))


def _serialization_repeats(m: _Memo) -> bool:
    cfg = cli.RunConfig(subcommand="budget", params={"probe": 1.0},
                        output_format="json", output_path=None)
    env = cli.ReportEnvelope(artifact_version="probe", config=cfg,
                             results={"q": {"value": [0.1, 0.2, 0.3],
                                            "error": None}},
                             provenance={"q": "determinism probe"},
                             timing_seconds=0.0)
    return cli.serialize(env, "json") == cli.serialize(env, "json")


def _abraham_off_axis(m: _Memo) -> float:
    """|a.c - |a||c|| / (|a||c|) for the reported Abraham item a and
    c = B0 x E0 of the budget defaults."""
    abraham = _reported("budget", "abraham")(m)
    fields = _defaults("budget")
    cross = budget.cross(fields["B0"], fields["E0"])
    scale = budget.norm(abraham) * budget.norm(cross)
    return abs(budget.dot(abraham, cross) - scale) / scale


CHECKS: tuple[Check, ...] = (
    # Constant-set consistency.
    Check("units_hartree_identity", lambda m: _C.hartree_energy / (
        _C.fine_structure_alpha**2 * _C.electron_mass * _C.light_speed_c0**2),
        1.0, rel=1e-9),
    Check("units_bohr_identity", lambda m: _C.bohr_radius_a0 * _C.electron_mass
          * _C.light_speed_c0 * _C.fine_structure_alpha / _C.hbar,
          1.0, rel=1e-9),
    Check("units_coulomb_identity", lambda m: _C.elementary_charge_e**2 / (
        4 * math.pi * _C.vacuum_permittivity_eps0 * _C.bohr_radius_a0
        * _C.hartree_energy), 1.0, rel=1e-9),

    # Discrete sums with tails.
    Check("kappa1_discrete_200", _reported("kappas", "kappa1_discrete"),
          0.21, 0.005),
    Check("kappa1_discrete_runtime", lambda m: m.cost["kappa1_discrete_200"],
          rule=lambda seconds: seconds < 60.0, text="under 60 s", shown=False),
    Check("kappa2_discrete_200", _reported("kappas", "kappa2_discrete"),
          0.0796, 0.0005),

    # Continuum integrals.
    Check("kappa1_continuum_ymin0", _value_of(quadrature.kappa1_continuum, 0.0),
          1.4e-2, rel=0.02),
    Check("kappa1_continuum_ymin1", _reported("kappas", "kappa1_continuum"),
          9.3e-3, rel=0.02),
    Check("kappa2_continuum_ymin1", _reported("kappas", "kappa2_continuum"),
          0.018, rel=0.05),
    Check("kappa2_continuum_closed_form",
          lambda m: m(_engine, "kappa2", 0.0).value,
          quadrature.KAPPA2_CONTINUUM_AT_ZERO, 1e-9, text="1/18 to 1e-9"),
    *(Check(f"{which}_continuum_engine_ymin{y_min:g}",
            _continuum_oracle(which, y_min), rule=lambda r: r <= 1.0,
            text="engine within its error plus the closed form's")
      for which in ("kappa1", "kappa2") for y_min in _ORACLE_YMIN),
    Check("beta_integral_closed_form", lambda m: quadrature.integrate_adaptive(
        lambda ys: [y**4 / (1 + y * y)**6 for y in ys], 0.0, _BETA_CUT).value,
        3 * math.pi / 512, 1e-9, text="3 pi/512 to 1e-9"),

    # Adopted totals and the net relative shift.
    Check("kappa1_total", _reported("kappas", "kappa1_total"), 0.22, 0.01),
    Check("kappa2_total", _reported("kappas", "kappa2_total"), 0.098, 0.005),
    Check("net_coefficient", _reported("kappas", "net_coefficient"), -0.12, 0.01),
    Check("relative_shift_magnitude", lambda m: abs(
        _reported("kappas", "relative_momentum_shift")(m)), 6e-6, rel=0.10),

    # Constant-log sum and the normalization coefficient.
    Check("bethe_sum_200", _reported("bethe", "bethe_sum"), 0.336, 0.002),
    Check("normalization_coefficient",
          _reported("bethe", "normalization_coefficient"), 0.84, 0.01),

    # Polarizability and oscillator strengths.
    Check("polarizability_discrete_400",
          _reported("polarizability", "polarizability_discrete"), 3.663, 0.001),
    Check("polarizability_below_exact",
          _reported("polarizability", "polarizability_discrete"),
          rule=lambda v: v < sums.POLARIZABILITY_EXACT_AU, text="below 4.5"),
    Check("oscillator_strength_sum_400",
          _reported("polarizability", "oscillator_strength_sum"), 0.5650, 0.001),
    Check("oscillator_partials_below_one", lambda m: max(sums.neumaier_cumsum(
        [hydrogen.oscillator_strength(n)
         for n in range(2, sums.DEFAULT_N_MAX_POLARIZABILITY + 1)])),
        rule=lambda v: v < 1.0, text="below 1 for all truncations"),

    # Regularization scaling.
    Check("divergence_exponent_dispersionless",
          lambda m: renorm.divergence_exponent(
              renorm.DispersionModel.dispersionless(_defaults("rho-c")["eps_r"]),
              _GRID), 4.00, 0.01),
    Check("divergence_exponent_free_electron",
          lambda m: renorm.divergence_exponent(
              renorm.DispersionModel.free_electron(_defaults("rho-c")["n_e"]),
              _GRID), 2.00, 0.01),
    Check("delta_mass_doubling_increment",
          lambda m: _reported("renorm", "doubling_increment_electron")(m)
          / _reported("renorm", "doubling_increment_limit")(m), 1.0, rel=1e-3),
    Check("rho_c_order_of_magnitude", _reported("rho-c", "ratio_to_reference"),
          rule=lambda v: 0.1 <= v <= 10.0,
          text="within factor 10 of n_e m_e/alpha"),

    # Identity suite.
    Check("reduced_mass_shift_first_order", _reduced_mass_shift_error,
          rule=lambda v: v <= 1e-3,
          text="matches two-sided perturbed 1/mu to 1e-3"),
    Check("mass_coefficient_itemization",
          lambda m: budget.DARWIN_MASS_COEFF + budget.P4_MASS_COEFF,
          rule=lambda v: v == 1, text="8/3 - 5/3 = 1 exactly"),
    Check("first_moment_residual", lambda m: sums.first_moment_residual(
        sums.PerturbedGroundState.build(40)),
        rule=lambda v: v <= 1e-14, text="0 to 1e-14"),
    Check("radial_dual_route_nle200", _radial_route_gap,
          rule=lambda v: v <= 5e-15, text="agree to 5e-15 relative"),
    Check("serialization_deterministic", _serialization_repeats,
          rule=lambda same: same, text="byte-identical repeated serialization",
          shown=False),
    Check("abraham_parallel_to_BxE", _abraham_off_axis,
          rule=lambda v: v <= 1e-12, text="parallel to B0 x E0"),
)


def run_checks(cost: dict[str, float] | None = None) -> list[CheckResult]:
    """Every row of CHECKS, in order.

    If given, `cost` receives the seconds each check's value took, by name;
    a check's cost includes the whole report, or other shared intermediate,
    it is the first to need.
    """
    memo = _Memo({} if cost is None else cost)
    out = []
    for chk in CHECKS:
        t0 = time.perf_counter()
        value = chk.compute(memo)
        memo.cost[chk.name] = time.perf_counter() - t0
        out.append(CheckResult(chk.name, float(value) if chk.shown else None,
                               chk.target, chk.passes(value)))
    return out
