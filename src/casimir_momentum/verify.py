"""Oracle and invariant suite backing the `verify` subcommand.

Every acceptance band and invariant of the reproduced numbers is written
once, as a row of CHECKS: its name, its target and the computation of the
value it bounds. A row whose quantity a subcommand reports reads it from
that subcommand's report at its defaults or at the flag values the row
names, made once per run; only what no subcommand reports is computed here
from the library. So a fault in a handler fails `verify` instead of
shipping past it. Each Rydberg series is defined once, in _SERIES: a
weight table entry, from which one exact function makes every term from
the closed forms of the S_p, and its 1/n^2 expansion. Their oracles are
exact integer passes: the Horner integers against those closed forms, and
the partial sums in fixed point.
`sums` reads their c_k and sums to infinity from literal tables; this
module derives every entry and requires it equal in every bit.
`run_checks()` evaluates the rows in order, so a deployed artifact can audit
itself from the command line, and the acceptance gate
(tests/test_acceptance.py) asserts the same rows. The benchmark keeps its
own copy of five of these bands in bench/spec.py, which a test holds equal
to these rows. handle_verify, the subcommand's handler, lives here, and only
this module imports the adaptive engine.
"""

from __future__ import annotations

import math
import sys
import time
from itertools import accumulate
from typing import Any, Callable, NamedTuple

from . import budget, cli, engine, hydrogen, quadrature, sums, units
from .units import constants


class CheckResult(NamedTuple):
    """One evaluated check; its cost is kept out, so equal runs compare equal."""

    name: str
    value: float | None   # None where a value would break byte-determinism
    target: str
    passed: bool


class _Memo:
    """What one run_checks() call shares between its checks: the module's
    only cache, so no run's answer depends on an earlier run.

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
# The n at which the exact terms check each Rydberg expansion.
_EXPANSION_N = (12, 30, 100)
# Upper cut of the beta integral: its tail beyond, at most 1e3^-7/7, is far
# below the integration tolerance.
_BETA_CUT = 1e3
# Hydrogen's static polarizability in atomic units, exactly; and a budget Q0
# at which the kinetic items are not zero.
_POLARIZABILITY_EXACT = 9 / 2
_KINETIC_Q0 = (("Q0", "1e-27,2e-27,-3e-27"),)


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


def _engine(which: str, y_min: float) -> engine.QuadratureResult:
    """The adaptive engine's integral of a continuum integrand from y_min."""
    return engine.integrate_to_inf(
        getattr(engine, f"{which}_continuum_integrand"), y_min, _ORACLE_SPEC)


def _continuum_oracle(which: str, y_min: float) -> Callable[[_Memo], float]:
    """|engine - reported closed form| over the sum of their bars at y_min."""
    def ratio(m: _Memo) -> float:
        run = m(_engine, which, y_min)
        closed = m(_report, "continuum", _ORACLE_GRID)[
            f"{which}_continuum[ymin={y_min:g}]"][0]
        return abs(run.value - closed["value"]) / (run.error + closed["error"])
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
        run = engine.integrate_adaptive(
            lambda u: 1.0 / (2.0 + u), 0.0, ratio, _ORACLE_SPEC,
            breakpoints=[ratio * 0.5**k for k in range(1, 40)])
        for label, mass in (("electron", _C.electron_mass),
                            ("proton", _C.proton_mass)):
            closed = _reported("renorm", f"delta_mass_{label}",
                               (("cutoff_ratio", ratio),))(m)
            front = 8.0 * _C.fine_structure_alpha * mass / (3.0 * math.pi)
            worst = max(worst, abs(front * run.value - closed)
                        / (front * run.error + _DELTA_MASS_ROUNDING * closed))
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
               for closed, exact in zip(hydrogen._closed_form(n), record))


# The fixed point of the Rydberg terms and of the x_p they are made from; a
# term is within _TERM_FLOOR, 2 units of 2^-_SCALE, of exact (see _exact_term).
_SCALE, _FEED = 120, 160
_TERM_FLOOR = 2.0 ** (1 - _SCALE)


class _Series(NamedTuple):
    """One Rydberg series, its sum reported by `report` as `key`. Its term
    is t(n) = w I_a I_b dE^e, and `weight` is ((numerator, denominator) of
    w, a, b, e). `parts` gives n^3 t(n) as a sum of w e^-c X_c(v) p(v)
    (1 - v)^-m, each ((numerator, denominator) of w, c, m, coefficients of
    p in v): the c_k come from them alone, so a wrong weight fails a row."""

    report: str
    key: str
    weight: tuple[tuple[int, int], int, int, int]
    parts: tuple[tuple[tuple[int, int], int, int, tuple[int, ...]], ...]


_SERIES = {
    "kappa1": _Series("kappas", "kappa1_discrete", ((2, 27), 1, 3, -2),
                      (((256, 27), 2, 5, (1,)), ((-128, 27), 4, 6, (10, -2)))),
    "kappa2": _Series("kappas", "kappa2_discrete", ((1, 27), 2, 3, -1),
                      (((256, 27), 4, 5, (1,)),)),
    "polarizability": _Series("polarizability", "polarizability_discrete",
                              ((2, 3), 3, 3, -1), (((1024, 3), 4, 6, (1,)),)),
    "bethe": _Series("bethe", "bethe_sum", ((1, 1), 2, 2, 0), (((64, 1), 4, 3, (1,)),)),
    "oscillator": _Series("polarizability", "oscillator_strength_sum",
                          ((2, 3), 3, 3, 1), (((256, 3), 4, 4, (1,)),)),
}


def _exact_term(weight: tuple, n: int, xs: tuple[int, ...]) -> int:
    """t(n) 2^_SCALE, floored, from a `weight` and xs, the x_p = S_p/(n+1)^(n+p)
    of n times 2^_FEED. As I_p = 4 n^(p-1) x_p/sqrt(n d) and dE = d/(2 n^2),
    d = n^2 - 1, t(n) = 16 w n^(a+b-3-2e) x_a x_b d^(e-1)/2^e. _closed_feed
    gives x_p within 2^-120 relative for n <= 400, under 2^-20 units of the
    term; the floor (shifting first floors the same) adds under one.
    d^(e-1) stands above the line for e >= 1 and below it for e < 1, so
    every factor is an integer."""
    (num, den), a, b, e = weight
    d = n * n - 1
    top = ((num << 4) * n ** (a + b - 3 - 2 * e) * d ** max(e - 1, 0)
           * xs[a - 1] * xs[b - 1])
    return (top >> 2 * _FEED - _SCALE + e) // (den * d ** max(1 - e, 0))


def _closed_feed(n: int) -> tuple[int, int, int]:
    """The x_p of n times 2^_FEED from the S_p's closed forms, by one division:
    with q = (n-1)^(n-2)/(n+1)^(n+2), x_1 = (1 - d (5n^2 - 1) q)/2, x_2 = 2n d q
    and x_3 = 4n^2 q."""
    d = n * n - 1
    q = ((n - 1) ** (n - 2) << _FEED) // (n + 1) ** (n + 2)
    return ((1 << _FEED) - d * (5 * n * n - 1) * q) >> 1, 2 * n * d * q, 4 * n * n * q


def _term(name: str, n: int) -> float:
    """t(n) of a series, rounded once."""
    return _exact_term(_SERIES[name].weight, n, _closed_feed(n)) / (1 << _SCALE)


def _expansion_oracle(m: _Memo) -> float:
    """Worst |exact term - n^-3 sum_k c_k n^-2k| over the sum of their bars (a
    term's is eps/2 of it and _TERM_FLOOR), at every n of _EXPANSION_N."""
    worst = 0.0
    for name in _SERIES:
        for n in _EXPANSION_N:
            exact = _term(name, n)
            value, bar = sums.expansion(name, lambda k: float(n) ** -(3 + 2 * k))
            worst = max(worst, abs(exact - value) / (
                bar + sys.float_info.epsilon / 2 * exact + _TERM_FLOOR))
    return worst


# The expansion's coefficients, which sums reads from its table
# _COEFFICIENTS, derived here in fixed point: a value times _ONE as a Python
# integer. Each floor division is off by less than a unit, so a c_k is within
# 2^-200 relative of its exact value (2^-240 measured to k = 69) before
# int / int rounds it to a float, once.
_ONE = 1 << 256


def _exp_minus(c: int) -> int:
    """e^-c times _ONE: sum_{i<100} (-c)^i/i!, whose rest is below 2^-300
    for c <= 4."""
    total = 0
    power = _ONE                    # (-c)^i _ONE
    factorial = 1                   # i!
    for i in range(100):
        total += power // factorial
        power *= -c
        factorial *= i + 1
    return total


def _coefficients(memo: _Memo, name: str, count: int) -> tuple[float, ...]:
    """c_0..c_(count-1) of a series, each rounded once. For each part, the
    coefficients x_k of X_c(v), times _ONE, follow from the recurrence
    k x_k = sum_{j=1}^k (-c j/(2j+1)) x_{k-j} of X' = (log X)' X; m running
    sums make those of X_c(v) (1 - v)^-m, exactly; and the coefficient of
    v^k in p(v) X_c(v) (1 - v)^-m is sum_d p_d times that of v^(k-d).
    Each e^-c comes from the run's memo, which all five series share."""
    totals = [0] * count
    for (num, den), c, m, poly in _SERIES[name].parts:
        xs = [_ONE]
        for k in range(1, count):
            xs.append(sum(-c * j * xs[k - j] // (2 * j + 1)
                          for j in range(1, k + 1)) // k)
        for _ in range(m):
            xs = list(accumulate(xs))
        scale = num * memo(_exp_minus, c)
        for k in range(count):
            totals[k] += scale * sum(
                p * xs[k - d] for d, p in enumerate(poly[:k + 1])) // den
    return tuple(total / _ONE**2 for total in totals)


# The terms n = 2.._HEAD of a sum to infinity are taken directly, the rest
# from the expansion at a = _HEAD + 1. At a = 10 the five series read 55
# coefficients in all, over 12 weights _zeta_weight(k, _HEAD) that they
# share; at a = 3 (a head of t(2) alone) they would read 113.
_HEAD = 9


def _sum_to_infinity(name: str) -> tuple[float, float]:
    """S_inf, the sum of a series over n = 2..inf, and its bar, as sums
    tabulates them: math.fsum of the terms n = 2.._HEAD and of
    sum_k c_k zeta(3 + 2k, _HEAD + 1). The bar adds to the expansion's
    eps/2 and _TERM_FLOOR of each term, and eps/2 of S_inf for the fsum."""
    head = [_term(name, n) for n in range(2, _HEAD + 1)]
    rest, bar = sums.expansion(name, lambda k: sums._zeta_weight(k, _HEAD))
    total, eps = math.fsum([*head, rest]), sys.float_info.epsilon
    return total, (bar + eps / 2 * math.fsum(head) + (_HEAD - 1) * _TERM_FLOOR
                   + eps / 2 * total)


def _table_mismatches(m: _Memo) -> int:
    """The entries of sums' two literal tables, each c_k and each (S_inf,
    bar), that differ in any bit from their derivations here. S_inf's
    derivation reads the tabulated c_k, so where the count is 0 it is the
    S_inf of the derived c_k."""
    return sum(
        sum(c != d for c, d in zip(table, _coefficients(m, name, len(table))))
        + (sums._SUMS_TO_INFINITY[name] != _sum_to_infinity(name))
        for name, table in sums._COEFFICIENTS.items())


def _exact_partials() -> dict[str, int]:
    """name -> the sum of each Rydberg series over n = 2..N, N the default
    n_max of its report, times 2^_SCALE; one division per n feeds all five."""
    n_maxes = {name: _params(series.report)["n_max"] for name, series in _SERIES.items()}
    totals = dict.fromkeys(_SERIES, 0)
    for n in range(2, max(n_maxes.values()) + 1):
        xs = _closed_feed(n)
        for name, series in _SERIES.items():
            if n <= n_maxes[name]:
                totals[name] += _exact_term(series.weight, n, xs)
    return totals


def _partials_oracle(m: _Memo) -> float:
    """Worst |exact sum - reported partial| of the Rydberg series over the
    reported error. A partial times 2^_SCALE is an integer, so the gap is exact."""
    rows = {name: m(_report, series.report)[series.key][0]
            for name, series in _SERIES.items()}
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


def _polarizability_closure(m: _Memo) -> float:
    """The larger of |exact total - 9/2| and |deficit - (9/2 - discrete sum)|."""
    exact, deficit, discrete = (_reported("polarizability", key)(m) for key in (
        "polarizability_exact_total", "continuum_deficit", "polarizability_discrete"))
    return max(abs(exact - _POLARIZABILITY_EXACT),
               abs(deficit - (_POLARIZABILITY_EXACT - discrete)))


def _budget_items_gap(m: _Memo) -> float:
    """Worst relative gap of the budget's items, at its defaults but a nonzero
    Q0, to their defining products of the other reported items and the
    fields; a vector's gap is |difference| / |product|."""
    item = {key: row[0]["value"]
            for key, row in m(_report, "budget", _KINETIC_Q0).items()}
    fields = _params("budget", _KINETIC_Q0)
    alpha2 = _C.fine_structure_alpha**2
    mass = units.AtomicParams.hydrogen().total_mass * _C.electron_mass
    size = budget.norm(item["abraham"])
    shift = (-item["kappa1"] + item["kappa2"]) * alpha2
    products = {
        "abraham": budget.scaled(_C.vacuum_permittivity_eps0 * item["alpha0_si"],
                                 budget.cross(fields["B0"], fields["E0"])),
        "alpha0_si": 4.0 * math.pi * _POLARIZABILITY_EXACT * _C.bohr_radius_a0**3,
        "casimir_correction": budget.scaled(shift, item["abraham"]),
        "casimir_relative_shift": shift,
        "kinetic": fields["Q0"],
        "kinetic_correction": budget.scaled(item["kinetic_mass_factor"], fields["Q0"]),
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
    Check("rydberg_tables_exact", _table_mismatches,
          rule=lambda mismatches: mismatches == 0,
          text="every tabulated c_k and S_inf equals its exact derivation"),

    # Continuum integrals.
    Check("kappa1_continuum_ymin0", _reported("continuum", "kappa1_continuum[ymin=0]"),
          1.4e-2, rel=0.02),
    Check("kappa1_continuum_ymin1", _reported("kappas", "kappa1_continuum"),
          9.3e-3, rel=0.02),
    Check("kappa2_continuum_ymin1", _reported("kappas", "kappa2_continuum"),
          0.018, rel=0.05),
    Check("kappa2_continuum_closed_form",
          lambda m: m(_engine, "kappa2", 0.0).value,
          1.0 / 18.0, 1e-9, text="1/18 to 1e-9"),
    *(Check(f"{which}_continuum_engine_ymin{y_min:g}",
            _continuum_oracle(which, y_min), rule=lambda r: r <= 1.0,
            text="engine within its error plus the closed form's")
      for which in ("kappa1", "kappa2") for y_min in _ORACLE_YMIN),
    Check("beta_integral_closed_form", lambda m: engine.integrate_adaptive(
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
          rule=lambda v: v < _POLARIZABILITY_EXACT, text="below 4.5"),
    Check("polarizability_exact_and_deficit", _polarizability_closure,
          rule=lambda gap: gap == 0, text="exactly 9/2 and 9/2 minus the discrete sum"),
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
    it is the first to need. A check that raises fails alone, its value
    None, named with the exception in one stderr line. A report whose
    handler raised is not kept: each row that reads it makes it again.
    """
    memo = _Memo({} if cost is None else cost)
    out = []
    for chk in CHECKS:
        t0 = time.perf_counter()
        try:
            value = chk.compute(memo)
            result = CheckResult(chk.name, float(value) if chk.shown else None,
                                 chk.target, chk.passes(value))
        except Exception as exc:
            cli.diagnose(f"error: check {chk.name} raised "
                         f"{type(exc).__name__}: {exc}")
            result = CheckResult(chk.name, None, chk.target, False)
        memo.cost[chk.name] = time.perf_counter() - t0
        out.append(result)
    return out


def handle_verify(p: dict[str, Any]) -> dict[str, cli.Row]:
    """The verify subcommand's rows: one per check, then the failure count.
    Each check's cost goes to stderr, never into the report."""
    cost: dict[str, float] = {}
    checks = run_checks(cost)
    rows: dict[str, cli.Row] = {}
    for chk in checks:
        cli.diagnose(f"# check {chk.name}: {cost[chk.name]:.6f} s")
        rows[chk.name] = ({"value": chk.value, "error": None,
                           "pass": bool(chk.passed), "target": chk.target},
                          ("PASS " if chk.passed else "FAIL ") + chk.target)
    rows["checks_failed"] = ({"value": sum(not c.passed for c in checks),
                              "error": None},
                             "number of failed oracle/invariant checks")
    return rows
