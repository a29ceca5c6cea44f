"""Oracle and invariant suite backing the `verify` subcommand.

Every acceptance band and invariant of the reproduced numbers is written
once, as a row of CHECKS: its name, its target and the computation of the
value it bounds. A row whose quantity a subcommand reports reads it from
that subcommand's report at its defaults or at the flag values the row
names, made once per run; only what no subcommand reports is computed here
from the library. So a fault in a handler fails `verify` instead of
shipping past it. The Rydberg oracles are exact integer passes: the exact
route's Horner integers against their closed forms, and the five series'
partial sums in fixed point. `run_checks()` evaluates the rows in order,
so a deployed artifact can audit itself from the command line, and the
acceptance gate (tests/test_acceptance.py) asserts the same rows. The
benchmark keeps its own copy of five of these bands in bench/spec.py,
which a test holds equal to these rows.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Callable, NamedTuple

from . import budget, cli, hydrogen, quadrature, sums, units
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
# Lower cutoffs at which the engine checks the closed continuum integrals,
# to a relative tolerance only: under the default abs_tol of 1e-14 its error
# bar at y_min = 1e4 is larger than the value, and would pass any answer.
_ORACLE_YMIN = (0.0, 1e-3, 1.0, 2.0, 10.0, 1e4)
_ORACLE_GRID = (("ymin_grid", ",".join(f"{y:g}" for y in _ORACLE_YMIN)),)
_ORACLE_SPEC = quadrature.QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)
# Rounding bar of the self-mass closed form and the engine's sum, relative:
# with rel_tol 1e-12, the row's bar stays far below a 1e-8 relative gap.
_DELTA_MASS_ROUNDING = 8 * sys.float_info.epsilon
# The n at which the exact route's terms check the 1/n^2 expansion of every
# Rydberg series, and the rounding bar of such a term, relative: each I_p is
# within 2 ulp, dE within 1 and the term's own roundings add 2.5 at most.
_EXPANSION_N = (12, 30, 100)
_EXACT_TERM_ROUNDING = 9 * sys.float_info.epsilon
# Upper cut of the beta integral: its tail beyond, at most 1e3^-7/7, is far
# below the integration tolerance.
_BETA_CUT = 1e3


def _params(subcommand: str, given: tuple = ()) -> dict[str, Any]:
    """Each parameter of a subcommand, checked as on the command line: its
    CLI value in `given`, a tuple of (parameter, value) pairs, else its default."""
    values = dict(given)
    return {p.name: p.checked(values.get(p.name, p.default))
            for p in cli.SUBCOMMANDS[subcommand].params}


def _report(subcommand: str, given: tuple = ()) -> dict[str, cli.Row]:
    """The rows a subcommand reports at its defaults, or at the CLI values `given`."""
    return cli.SUBCOMMANDS[subcommand].handler(_params(subcommand, given))


def _reported(subcommand: str, key: str, given: tuple = ()) -> Callable[[_Memo], Any]:
    """The value a subcommand reports as `key`; each report is made once per run."""
    return lambda m: m(_report, subcommand, given)[key][0]["value"]


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
    """|engine - reported closed form| over the sum of their bars at y_min."""
    def ratio(m: _Memo) -> float:
        engine = m(_engine, which, y_min)
        closed = m(_report, "continuum", _ORACLE_GRID)[
            f"{which}_continuum[ymin={y_min:g}]"][0]
        return abs(engine.value - closed["value"]) / (engine.error + closed["error"])
    return ratio


def _delta_mass_oracle(m: _Memo) -> float:
    """Worst |engine - reported closed form| of both self-masses over the
    sum of their bars, in renorm reports at the default cutoff ratios
    (--cutoff-ratio, --big-ratio and twice it) and at 1e-6, where plain log
    would lose log1p's relative precision. In u = hbar k/(m c0) the integrand
    is (2m/hbar^2)/(2 + u), so one engine run of 1/(2 + u) per ratio serves both."""
    p = _params("renorm")
    worst = 0.0
    for ratio in (p["cutoff_ratio"], p["big_ratio"], 2 * p["big_ratio"], 1e-6):
        engine = quadrature.integrate_adaptive(
            lambda u: 1.0 / (2.0 + u), 0.0, ratio, _ORACLE_SPEC,
            breakpoints=[ratio * 0.5**k for k in range(1, 40)])
        for label, mass in (("electron", _C.electron_mass),
                            ("proton", _C.proton_mass)):
            closed = _reported("renorm", f"delta_mass_{label}",
                               (("cutoff_ratio", ratio),))(m)
            front = 8.0 * _C.fine_structure_alpha * mass / (3.0 * math.pi)
            worst = max(worst, abs(front * engine.value - closed)
                        / (front * engine.error + _DELTA_MASS_ROUNDING * closed))
    return worst


def _horner_pass() -> tuple[int, list[tuple[float, float, float]]]:
    """The exact route for n = 2..200 in one Horner pass, shared by two rows:
    the number of n at which its integers miss their closed forms (see
    hydrogen), and its integrals. The closed forms of S_2 and S_3 make
    2 n (n+1) S_2 = (n^2 - 1) S_3, the velocity-length identity, hold."""
    misses, integrals = 0, []
    for n in range(2, 201):
        s1, s2, s3 = hydrogen._horner_sums(n)
        low = (n - 1) ** (n - 2)
        closed = ((n + 1) ** (n + 1) - (n - 1) * low * (5 * n * n - 1),
                  2 * n * (n + 1) * (n - 1) * low, 4 * n * n * (n + 1) * low)
        misses += (2 * s1, s2, s3) != closed
        integrals.append(hydrogen._integrals_of(n, s1, s2, s3))
    return misses, integrals


def _radial_route_gap(m: _Memo) -> float:
    """Worst relative gap of the exact route to the closed forms, n <= 200."""
    return max(abs(exact - closed) / closed
               for n, record in enumerate(m(_horner_pass)[1], start=2)
               for closed, exact in zip(hydrogen.radial_record(n, "closed_form"), record))


def _expansion_oracle(m: _Memo) -> float:
    """Worst |exact-route term - n^-3 sum_k c_k n^-2k| over the sum of their
    bars, for every Rydberg series at every n of _EXPANSION_N."""
    worst = 0.0
    for name, series in sums.SERIES.items():
        for n in _EXPANSION_N:
            exact = series.term(*hydrogen.radial_record(n, "exact"),
                                hydrogen.transition_energy(n))
            value, bar = sums.expansion(name, lambda k: float(n) ** -(3 + 2 * k))
            worst = max(worst, abs(exact - value)
                        / (bar + _EXACT_TERM_ROUNDING * exact))
    return worst


# Each Rydberg series: the report, and its key, that carries its sum, and its
# term times 2^_SCALE from n, d = n^2 - 1 and q = (n-1)^(n-2)/(n+1)^(n+2)
# times 2^_SCALE, floored. By the closed forms of the S_p (see hydrogen),
# I2 I3 = 128 n^5 q^2, I3^2 = 256 n^7 q^2/d, I2^2 = 64 n^3 d q^2, dE = d/(2 n^2)
# and I1 I3 = 32 n^3 q (1 - d (5 n^2 - 1) q)/d. Each floor is off by less than
# a unit: the sums to n = 400 are within 2^-98 of exact (against 2^600).
_SCALE = 120
_RYDBERG_SUMS = {
    "kappa1": ("kappas", "kappa1_discrete", lambda n, d, q: 256 * n**7 * q
               * ((1 << _SCALE) - d * (5 * n * n - 1) * q) // (27 * d**3 << _SCALE)),
    "kappa2": ("kappas", "kappa2_discrete",
               lambda n, d, q: 256 * n**7 * q * q // (27 * d << _SCALE)),
    "polarizability": ("polarizability", "polarizability_discrete",
                       lambda n, d, q: 1024 * n**9 * q * q // (3 * d * d << _SCALE)),
    "bethe": ("bethe", "bethe_sum", lambda n, d, q: 64 * n**3 * d * q * q >> _SCALE),
    "oscillator": ("polarizability", "oscillator_strength_sum",
                   lambda n, d, q: 256 * n**5 * q * q // (3 << _SCALE)),
}


def _exact_partials() -> dict[str, int]:
    """name -> the sum of each Rydberg series over n = 2..N, N the default
    n_max of its report, times 2^_SCALE; one division per n serves all five."""
    n_maxes = {name: _params(sub)["n_max"] for name, (sub, _, _) in _RYDBERG_SUMS.items()}
    totals = dict.fromkeys(_RYDBERG_SUMS, 0)
    for n in range(2, max(n_maxes.values()) + 1):
        d = n * n - 1
        q = ((n - 1) ** (n - 2) << _SCALE) // (n + 1) ** (n + 2)
        for name, (_, _, term) in _RYDBERG_SUMS.items():
            if n <= n_maxes[name]:
                totals[name] += term(n, d, q)
    return totals


def _partials_oracle(m: _Memo) -> float:
    """Worst |exact sum - reported partial| of the Rydberg series over the
    reported error. A partial times 2^_SCALE is an integer, so the gap is exact."""
    rows = {name: m(_report, sub)[key][0] for name, (sub, key, _) in _RYDBERG_SUMS.items()}
    return max(abs(exact - int(math.ldexp(rows[name]["partial"], _SCALE)))
               / math.ldexp(rows[name]["error"], _SCALE)
               for name, exact in m(_exact_partials).items())


def _serialization_repeats(m: _Memo) -> bool:
    cfg = cli.RunConfig(subcommand="budget", params={"probe": 1.0},
                        output_format="json", output_path=None)
    env = cli.ReportEnvelope(artifact_version="probe", config=cfg,
                             results={"q": {"value": [0.1, 0.2, 0.3],
                                            "error": None}},
                             provenance={"q": "determinism probe"},
                             timing_seconds=0.0)
    return cli.serialize(env, "json") == cli.serialize(env, "json")


def _itemized_net(m: _Memo) -> float:
    """The reported net mass coefficient, or Darwin + p^4 if over 1 eps off it."""
    darwin, p4, net = (_reported("budget", f"relativistic_{key}")(m)
                       for key in ("darwin_coefficient", "p4_coefficient", "net"))
    gap = abs(darwin + p4 - net)
    return net if gap <= sys.float_info.epsilon * abs(net) else darwin + p4


def _abraham_off_axis(m: _Memo) -> float:
    """|a.c - |a||c|| / (|a||c|) for the reported Abraham item a and
    c = B0 x E0 of the budget defaults."""
    abraham = _reported("budget", "abraham")(m)
    fields = _params("budget")
    cross = budget.cross(fields["B0"], fields["E0"])
    scale = budget.norm(abraham) * budget.norm(cross)
    return abs(budget.dot(abraham, cross) - scale) / scale


def _budget_items_gap(m: _Memo) -> float:
    """Worst relative gap of the budget's items, at its defaults, to their
    defining products of the other reported items and the default fields;
    a vector's gap is |difference| / |product|."""
    item = {key: row[0]["value"] for key, row in m(_report, "budget").items()}
    fields = _params("budget")
    alpha2 = _C.fine_structure_alpha**2
    mass = units.AtomicParams.hydrogen().total_mass * _C.electron_mass
    size = budget.norm(item["abraham"])
    shift = (-item["kappa1"] + item["kappa2"]) * alpha2
    products = {
        "abraham": budget.scaled(_C.vacuum_permittivity_eps0 * item["alpha0_si"],
                                 budget.cross(fields["B0"], fields["E0"])),
        "alpha0_si": budget.POLARIZABILITY_VOLUME_AU * _C.bohr_radius_a0**3,
        "casimir_correction": budget.scaled(shift, item["abraham"]),
        "casimir_relative_shift": shift,
        "total": [sum(parts) for parts in zip(*(item[key] for key in (
            "abraham", "casimir_correction", "kinetic", "kinetic_correction")))],
        "transverse_bound": _C.fine_structure_alpha * (
            abs(item["kinetic_mass_factor"]) * budget.norm(fields["Q0"])
            + alpha2 * size),
        "relativistic_field_bound": alpha2 * _C.electron_mass / mass * size,
        # The ground-state binding energy is half a hartree.
        "kinetic_mass_factor": -0.5 * _C.hartree_energy
                               / (mass * _C.light_speed_c0**2),
    }
    worst = 0.0
    for key, product in products.items():
        reported = item[key]
        if not isinstance(product, (list, tuple)):
            reported, product = (reported,), (product,)
        gap = math.hypot(*(r - p for r, p in zip(reported, product)))
        worst = max(worst, gap / math.hypot(*product))
    return worst


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
    Check("rydberg_expansion_exact_route", _expansion_oracle,
          rule=lambda r: r <= 1.0,
          text="exact-route terms within their bar plus the expansion's"),
    Check("rydberg_partials_exact", _partials_oracle, rule=lambda r: r <= 1.0,
          text="exact sums within the reported partial's error"),

    # Continuum integrals.
    Check("kappa1_continuum_ymin0", _reported("continuum", "kappa1_continuum[ymin=0]"),
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
        lambda y: y**4 / (1 + y * y)**6, 0.0, _BETA_CUT).value,
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
    # Every exact term is positive, so the sum to n_max is the largest partial.
    Check("oscillator_partials_below_one",
          lambda m: math.ldexp(m(_exact_partials)["oscillator"], -_SCALE),
          rule=lambda v: v < 1.0, text="below 1 for all truncations"),

    # Regularization scaling.
    Check("divergence_exponent_dispersionless",
          _reported("rho-c", "divergence_exponent", (("model", "dispersionless"),)),
          4.00, 0.01),
    Check("divergence_exponent_free_electron",
          _reported("rho-c", "divergence_exponent"), 2.00, 0.01),
    Check("delta_mass_doubling_increment",
          lambda m: _reported("renorm", "doubling_increment_electron")(m)
          / _reported("renorm", "doubling_increment_limit")(m), 1.0, rel=1e-3),
    Check("delta_mass_engine", _delta_mass_oracle, rule=lambda r: r <= 1.0,
          text="engine within its error plus the closed form's rounding"),
    Check("rho_c_order_of_magnitude", _reported("rho-c", "ratio_to_reference"),
          rule=lambda v: 0.1 <= v <= 10.0,
          text="within factor 10 of n_e m_e/alpha"),

    # Identity suite.
    Check("reduced_mass_shift_first_order", _reduced_mass_shift_error,
          rule=lambda v: v <= 1e-3,
          text="matches two-sided perturbed 1/mu to 1e-3"),
    Check("mass_coefficient_itemization", _itemized_net, rule=lambda v: v == 1,
          text="Darwin + p^4 items give the net within one rounding; net exactly 1"),
    Check("rydberg_integers_closed_form", lambda m: m(_horner_pass)[0],
          rule=lambda misses: misses == 0,
          text="Horner integers equal their closed forms for n <= 200"),
    Check("radial_dual_route_nle200", _radial_route_gap,
          rule=lambda v: v <= 5e-15, text="agree to 5e-15 relative"),
    Check("serialization_deterministic", _serialization_repeats,
          rule=lambda same: same, text="byte-identical on a same-process repeat",
          shown=False),
    Check("abraham_parallel_to_BxE", _abraham_off_axis,
          rule=lambda v: v <= 1e-12, text="parallel to B0 x E0"),
    Check("budget_items_defining_products", _budget_items_gap,
          rule=lambda v: v <= 4 * sys.float_info.epsilon,
          text="items within 4 eps of their defining products"),
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
