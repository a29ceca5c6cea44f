"""Seeded faults: each plausible fault and the exact `verify` rows it fails.

FAULTS maps a fault id to the patch that seeds it and the rows it fails, in
CHECKS order. RAISES, part of FAULTS, holds the faults under which a row's
computation raises: each such row fails alone, named on stderr, and the
run goes on. MISREPORTS scales each nonzero value of each subcommand's
report at its defaults by 1.5 in the handler; UNREAD names the values whose
misreport fails no row, the open gap of the oracle suite.

Two rows have no fault here. `kappa1_discrete_runtime` bounds the seconds
the kappas report takes, which only a minute-long handler could fail.
`serialization_deterministic` serializes one envelope twice in one process;
identity across processes is held by test_cli's
test_byte_identical_repeated_runs, test_deps'
test_reports_identical_across_python_versions, test_report_ledger's
committed ledger and the benchmark's per-argv byte check.
"""

import math
import re
from typing import Any, Callable, NamedTuple

import pytest

from casimir_momentum import (budget, cli, engine, hydrogen, renorm, sums, units,
                              verify)
from casimir_momentum.units import constants


class Fault(NamedTuple):
    patch: Callable[[pytest.MonkeyPatch], None]
    failed: tuple[str, ...]                        # in CHECKS order
    bounds: dict[str, tuple[float, float]] = {}    # open bounds on row values


def _misreport(subcommand: str, key: str, change: Callable[[dict], Any],
               field: str = "value"):
    """A patch under which the subcommand's handler reports change(entry) as
    the `field` of `key`'s entry, in every report that carries it."""
    def patch(monkeypatch: pytest.MonkeyPatch) -> None:
        cmd = cli.SUBCOMMANDS[subcommand]

        def handler(params):
            rows = cmd.handler(params)
            if key in rows:
                entry, provenance = rows[key]
                rows[key] = ({**entry, field: change(entry)}, provenance)
            return rows
        monkeypatch.setitem(cli.SUBCOMMANDS, subcommand, cmd._replace(handler=handler))
    return patch


def _entry_off(table: dict, name: str, i: int, change: Callable[[float], float]):
    """Entry i of one series in one of sums' literal tables replaced by
    change(entry)."""
    def patch(monkeypatch):
        row = list(table[name])
        row[i] = change(row[i])
        monkeypatch.setitem(table, name, tuple(row))
    return patch


def _coefficient_off(name: str, k: int):
    """c_k of one series, in sums' table, off by one unit in its 10th digit."""
    return _entry_off(sums._COEFFICIENTS, name, k,
                      lambda c: c + 10.0 ** (math.floor(math.log10(c)) - 9))


def _next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _without_kappa1_e2_part(monkeypatch):
    kappa1 = verify._SERIES["kappa1"]
    monkeypatch.setitem(verify._SERIES, "kappa1", kappa1._replace(parts=kappa1.parts[1:]))


def _weight_off(name: str, change: Callable[[tuple], tuple]):
    """One series' weight table entry ((num, den), a, b, e) replaced by
    change(entry)."""
    def patch(monkeypatch):
        series = verify._SERIES[name]
        monkeypatch.setitem(verify._SERIES, name,
                            series._replace(weight=change(series.weight)))
    return patch


def _oscillator_term_scaled(monkeypatch):
    term = verify._term
    monkeypatch.setattr(verify, "_term", lambda name, n: (
        1.8 if name == "oscillator" else 1.0) * term(name, n))


def _tail_one_term_short(monkeypatch):
    # partial = S_inf - tail(n_max + 1) leaves out the term n_max + 1. verify's
    # derivation of S_inf reads the weights at n_max = _HEAD, which stay
    # unshifted: the fault is in the partials alone.
    weight = sums._zeta_weight
    monkeypatch.setattr(sums, "_zeta_weight", lambda k, n_max: weight(
        k, n_max + (n_max != verify._HEAD)))


def _velocity_form_off(monkeypatch):
    exact = hydrogen._integrals_of

    def scaled(n, *horner_sums):
        i1, i2, i3 = exact(n, *horner_sums)
        return i1, i2 * (1 + 1e-13), i3
    monkeypatch.setattr(hydrogen, "_integrals_of", scaled)


def _horner_s2_off_by_one(monkeypatch):
    horner = hydrogen._horner_sums

    def off(n):
        s1, s2, s3 = horner(n)
        return s1, s2 + (n == 57), s3
    monkeypatch.setattr(hydrogen, "_horner_sums", off)


def _closed_form_plain_powers(monkeypatch):
    def closed_form(n):
        c = 8.0 / (n**3 * math.sqrt((n - 1) * n * (n + 1)))
        i3 = 2.0 * c * (n - 1) * n * (n + 1) * ((n - 1) / n) ** (n - 3) \
            * ((n + 1) / n) ** -(n + 3)
        i2 = (n * n - 1) / (2.0 * n * n) * i3
        d = 2.0 / (n + 1)
        s = (2.0 - ((n - 1) / (n + 1)) ** (n - 1)
             * ((n - 1) * n * d * d + 2 * (n - 1) * d + 2)) / d**3
        return c * (n / (n + 1)) ** 3 * s, i2, i3
    monkeypatch.setattr(hydrogen, "_closed_form", closed_form)


def _centre_weight_off(monkeypatch):
    weights = list(engine._WEIGHTS_K)
    weights[7] *= 1 + 1e-13
    monkeypatch.setattr(engine, "_WEIGHTS_K", tuple(weights))


def _faked_engine(monkeypatch):
    class FakeResult:
        value = 123.456
        error = 0.0
    monkeypatch.setattr(engine, "integrate_adaptive", lambda *a, **k: FakeResult())


def _nan_integrand(monkeypatch):
    monkeypatch.setattr(engine, "kappa1_continuum_integrand", lambda y: math.nan)


def _no_bisection(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_SUBDIVISIONS", 0)


def _handler_raises(subcommand: str):
    """A patch under which the subcommand's handler raises."""
    def patch(monkeypatch: pytest.MonkeyPatch) -> None:
        def handler(params):
            raise RuntimeError(f"{subcommand} handler failed")
        monkeypatch.setitem(cli.SUBCOMMANDS, subcommand,
                            cli.SUBCOMMANDS[subcommand]._replace(handler=handler))
    return patch


def _self_mass_plain_log(monkeypatch):
    def plain_log(mass, lambda_cut):
        const = constants()
        u_max = const.hbar * lambda_cut / (mass * const.light_speed_c0)
        return (8.0 * const.fine_structure_alpha * mass / (3.0 * math.pi)) \
            * math.log(1.0 + u_max / 2.0)
    monkeypatch.setattr(renorm, "delta_mass", plain_log)


def _kinetic_correction_doubled(monkeypatch):
    assemble = budget.assemble_budget

    def doubled(*args, **kwargs):
        bud = assemble(*args, **kwargs)
        return {**bud,
                "kinetic_correction": budget.scaled(2.0, bud["kinetic_correction"]),
                "total": tuple(map(sum, zip(bud["total"], bud["kinetic_correction"])))}
    monkeypatch.setattr(budget, "assemble_budget", doubled)


def _polarizability_exact_off(monkeypatch):
    # The library's one alpha(0), in units and as budget imported it.
    off = units.POLARIZABILITY_EXACT_AU * (1 + 1e-9)
    monkeypatch.setattr(units, "POLARIZABILITY_EXACT_AU", off)
    monkeypatch.setattr(budget, "POLARIZABILITY_EXACT_AU", off)


def _constant_off(name: str):
    """One of verify's constants off by 1e-8 relative, outside the 1e-9
    bands of the unit identities."""
    def patch(monkeypatch):
        monkeypatch.setattr(verify, "_C", verify._C._replace(
            **{name: getattr(verify._C, name) * (1 + 1e-8)}))
    return patch


_EXPANSION, _PARTIALS = "rydberg_expansion_exact_route", "rydberg_partials_exact"
_TABLES = "rydberg_tables_exact"

RAISES: dict[str, Fault] = {
    # A nan integrand: the engine's ValueError, in each kappa1 engine row.
    "kappa1_integrand_nan": Fault(_nan_integrand, tuple(
        f"kappa1_continuum_engine_ymin{y_min:g}" for y_min in verify._ORACLE_YMIN)),
    # No bisection allowed: QuadratureError in each engine integral that its
    # first partition leaves short of the tolerance. The 40 seeded segments
    # of delta_mass_engine meet it, as do the engine rows at y_min 1 and 2.
    "engine_without_bisection": Fault(_no_bisection, (
        "kappa2_continuum_closed_form",
        *(f"{which}_continuum_engine_ymin{y_min:g}"
          for which in ("kappa1", "kappa2") for y_min in (0.0, 1e-3, 10.0, 1e4)),
        "beta_integral_closed_form")),
    # The budget report is never made: each row that reads it makes it
    # again, and fails.
    "budget_handler_raises": Fault(_handler_raises("budget"), (
        "mass_coefficient_itemization", "abraham_parallel_to_BxE",
        "budget_items_defining_products")),
}

FAULTS: dict[str, Fault] = {
    **RAISES,
    # A tabulated c_k leaves its derivation, and so does verify's S_inf,
    # which reads it. The tabulated S_inf does not move, so a reported
    # partial reads the fault only in its tail, c_k times
    # zeta(3 + 2k, n_max + 1): above 3e-6 at k = 0, which moves every
    # partial out of its exact sum; 1e-10 and below at k >= 1, which moves
    # none.
    **{f"c{k}_{name}_off_in_10th_digit": Fault(
        _coefficient_off(name, k),
        (_EXPANSION, _PARTIALS, _TABLES) if k == 0 else (_EXPANSION, _TABLES))
       for name in verify._SERIES for k in range(3)},
    # One ulp where no report and no other row reads: polarizability's c_23
    # is read at n_max = 2 alone, and a bar one ulp wider moves no row.
    "polarizability_c23_off_by_one_ulp": Fault(
        _entry_off(sums._COEFFICIENTS, "polarizability", 23, _next_up), (_TABLES,)),
    "kappa2_S_inf_bar_off_by_one_ulp": Fault(
        _entry_off(sums._SUMS_TO_INFINITY, "kappa2", 1, _next_up), (_TABLES,)),
    # The parts of a series are read by verify's derivation of its c_k
    # alone: all 24 of kappa1's leave their table.
    "kappa1_without_e2_part": Fault(_without_kappa1_e2_part, (_TABLES,)),
    # The oscillator's rounded terms 1.8 times too large: they feed the
    # expansion row and verify's S_inf (n <= 9) alone, and those two rows
    # fail. The reported partials read no term, and the exact partials sum
    # the integer terms, so both stay below 1.
    "oscillator_term_x1.8": Fault(_oscillator_term_scaled, (_EXPANSION, _TABLES)),
    # A wrong weight moves every term of its series alike, from either
    # feed: the exact partials and verify's S_inf leave the reports and the
    # tables, and only the expansion row, whose c_k come from the parts,
    # tells which is wrong. The power of dE off, 0 for -1, takes kappa2's
    # terms down by the factor dE.
    "kappa2_dE_power_off": Fault(_weight_off("kappa2", lambda w: (*w[:3], 0)),
                                 (_EXPANSION, _PARTIALS, _TABLES)),
    # The value, S_inf, stays in every band.
    "partial_tail_one_term_short": Fault(_tail_one_term_short, (_PARTIALS,)),
    # The exact route's I2 scaled by 1 + 1e-13 as it is rounded: the two
    # routes disagree. No Rydberg term reads a rounded I_p.
    "exact_route_I2_off_1e-13": Fault(_velocity_form_off, ("radial_dual_route_nle200",)),
    # One unit in an integer of about 1e101 moves no float: only the
    # integer row sees it.
    "horner_S2_off_by_one_at_n57": Fault(
        _horner_s2_off_by_one, ("rydberg_integers_closed_form",)),
    # Each reported partial moved by 1.5 times its own error. The float row
    # the exact one replaced, rydberg_partials_term_by_term, read 0.74 to
    # 0.94 against its pass mark of 1 under these, and no row failed.
    **{f"{series.key}_partial_plus_1.5_error": Fault(_misreport(
        series.report, series.key, lambda e: e["partial"] + 1.5 * e["error"],
        "partial"), (_PARTIALS,)) for series in verify._SERIES.values()},
    # verify's one exact oscillator term 1.8 times too large, by its weight
    # (6/5 for 2/3): its exact sum passes 1 (0.565 * 1.8 = 1.017), and S_inf
    # and the expansion's terms move with it.
    "verify_exact_oscillator_term_x1.8": Fault(
        _weight_off("oscillator", lambda w: ((6, 5), *w[1:])),
        (_EXPANSION, _PARTIALS, _TABLES, "oscillator_partials_below_one")),
    # verify checks the reported value, not its own recomputation.
    "kappas_net_coefficient_plus_1": Fault(
        _misreport("kappas", "net_coefficient", lambda e: e["value"] + 1.0),
        ("net_coefficient",)),
    # Plain ** puts I_3 off by 2.1e-14 at n <= 200: inside a 1e-10 band,
    # outside the row's 5e-15, the one row that reads the closed forms.
    "closed_form_powers_without_log1p": Fault(
        _closed_form_plain_powers, ("radial_dual_route_nle200",),
        {"radial_dual_route_nle200": (1e-14, 1e-10)}),
    # The K15 centre weight scaled by 1 + 1e-13 biases every engine integral
    # past the oracle rows with the tightest bars. The weights cut to 15
    # digits fail no row at these tolerances.
    "k15_centre_weight_off_in_13th_digit": Fault(_centre_weight_off, (
        "kappa2_continuum_engine_ymin0", "kappa2_continuum_engine_ymin0.001",
        "kappa2_continuum_engine_ymin2", "delta_mass_engine")),
    # An engine that answers 123.456 for every integral.
    "faked_engine": Fault(_faked_engine, (
        "kappa2_continuum_closed_form",
        *(f"{which}_continuum_engine_ymin{y_min:g}"
          for which in ("kappa1", "kappa2") for y_min in verify._ORACLE_YMIN),
        "beta_integral_closed_form", "delta_mass_engine")),
    # ln(1 + u/2) by plain log loses its relative precision at small u.
    "self_mass_log_without_log1p": Fault(
        _self_mass_plain_log, ("delta_mass_engine",),
        {"delta_mass_engine": (1e3, math.inf)}),
    # A ratio 1.5 times too large stays within the row's factor of 10.
    "rho_c_ratio_x100": Fault(
        _misreport("rho-c", "ratio_to_reference", lambda e: 100 * e["value"]),
        ("rho_c_order_of_magnitude",)),
    # A misreport by a factor keeps the item parallel to B0 x E0; reversed,
    # it also leaves eps0 alpha(0) B0 x E0 and the Casimir item's product.
    "abraham_reversed": Fault(
        _misreport("budget", "abraham", lambda e: [-c for c in e["value"]]),
        ("abraham_parallel_to_BxE", "budget_items_defining_products")),
    # The budget row reads a report at a nonzero Q0, where the kinetic items
    # are not zero.
    "kinetic_correction_doubled": Fault(
        _kinetic_correction_doubled, ("budget_items_defining_products",)),
    # verify's own constants: alpha also sets the self-mass prefactor, and
    # eps0 enters the Coulomb identity; both enter the budget's products.
    "verify_alpha_off_1e-8": Fault(_constant_off("fine_structure_alpha"), (
        "units_hartree_identity", "units_bohr_identity", "delta_mass_engine",
        "budget_items_defining_products")),
    "verify_eps0_off_1e-8": Fault(_constant_off("vacuum_permittivity_eps0"), (
        "units_coulomb_identity", "budget_items_defining_products")),
    # The library's alpha(0) 1e-9 off: the reported exact total leaves 9/2,
    # and the budget's alpha0_si leaves verify's own 4 pi (9/2) a0^3.
    "polarizability_exact_off_1e-9": Fault(_polarizability_exact_off, (
        "polarizability_exact_and_deficit", "budget_items_defining_products")),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_seeded_fault_fails_exactly_its_rows(fresh_memos, monkeypatch, fault):
    seeded = FAULTS[fault]
    seeded.patch(monkeypatch)
    results = verify.run_checks()
    assert tuple(res.name for res in results if not res.passed) == seeded.failed
    values = {res.name: res.value for res in results}
    for name, (low, high) in seeded.bounds.items():
        assert low < values[name] < high, (name, values[name])


@pytest.mark.parametrize("fault", RAISES)
def test_raising_row_fails_alone_with_one_line(fresh_memos, monkeypatch, capsys, fault):
    # Each raising row gets one stderr line naming it and the exception,
    # and the value None; the run goes on to the next row.
    RAISES[fault].patch(monkeypatch)
    results = verify.run_checks()
    raised = re.findall(r"^error: check (\S+) raised \w+: .+$",
                        capsys.readouterr().err, re.M)
    assert tuple(raised) == RAISES[fault].failed
    assert all(res.value is None for res in results if res.name in raised)
    assert len(results) == len(verify.CHECKS)


def test_a_run_works_out_each_exp_once_and_fills_no_record(fresh_memos, monkeypatch):
    # e^-2 and e^-4 are shared through the run's memo by all five series,
    # and the closed forms are read directly, not through radial_record.
    calls = []
    exp_minus = verify._exp_minus
    monkeypatch.setattr(verify, "_exp_minus", lambda c: calls.append(c) or exp_minus(c))
    verify.run_checks()
    assert sorted(calls) == [2, 4]
    assert hydrogen.radial_record.cache_info().currsize == 0


# Faults in what verify derives itself: the coefficients, the terms and the
# closed forms it holds the exact route to.
_WARM_SEEDED = ("kappa1_without_e2_part", "oscillator_term_x1.8", "kappa2_dE_power_off",
                "verify_exact_oscillator_term_x1.8", "closed_form_powers_without_log1p")


def test_seeded_fault_after_a_run_fails_exactly_its_rows(fresh_memos, monkeypatch):
    # A run leaves nothing behind that a later run reads: after one unseeded
    # run, with no memo cleared, each fault still fails exactly its rows.
    assert all(res.passed for res in verify.run_checks())
    missed = {}
    for fault in _WARM_SEEDED:
        with monkeypatch.context() as patched:
            FAULTS[fault].patch(patched)
            failed = tuple(res.name for res in verify.run_checks() if not res.passed)
        if failed != FAULTS[fault].failed:
            missed[fault] = failed
    assert not missed, missed


class _Refused:
    """A table that refuses every read."""

    def __getitem__(self, key):
        raise AssertionError("an exact row read a table it checks")


def test_exact_rows_read_nothing_they_check(fresh_memos, monkeypatch):
    # With the reports made, the integer and exact-partials rows give the
    # same values while the expansion's coefficients, both of sums' tables,
    # the zeta, the rounded terms and the float closed forms all refuse.
    rows = {chk.name: chk for chk in verify.CHECKS}
    names = ("rydberg_integers_closed_form", "rydberg_partials_exact")
    expected = {name: rows[name].compute(verify._Memo({})) for name in names}
    memo = verify._Memo({})
    for series in verify._SERIES.values():
        memo(verify._report, series.report)

    def refuse(*args):
        raise AssertionError("an exact row read what it checks")
    for module, name in ((verify, "_coefficients"), (sums, "hurwitz_zeta"),
                         (verify, "_term"), (hydrogen, "_closed_form")):
        monkeypatch.setattr(module, name, refuse)
    for name in ("_COEFFICIENTS", "_SUMS_TO_INFINITY"):
        monkeypatch.setattr(sums, name, _Refused())
    fresh_memos()
    assert {name: rows[name].compute(memo) for name in names} == expected


@pytest.mark.parametrize("table", ["_COEFFICIENTS", "_SUMS_TO_INFINITY"])
def test_one_ulp_off_any_table_entry_fails_the_tables_row(fresh_memos, monkeypatch, table):
    # Each entry of each series, one ulp up and one down, leaves its
    # derivation; the derivations are made once, before any change.
    row = next(chk for chk in verify.CHECKS if chk.name == _TABLES)
    assert row.compute(verify._Memo({})) == 0
    rows = getattr(sums, table)
    for name, entries in list(rows.items()):
        for i, entry in enumerate(entries):
            for towards in (math.inf, -math.inf):
                changed = list(entries)
                changed[i] = math.nextafter(entry, towards)
                monkeypatch.setitem(rows, name, tuple(changed))
                assert not row.passes(row.compute(verify._Memo({}))), (name, i)
        monkeypatch.setitem(rows, name, entries)


def _scaled(value):
    return [1.5 * c for c in value] if isinstance(value, (list, tuple)) else 1.5 * value


# The rows that fail when the named value of a subcommand's report at its
# defaults is scaled by 1.5 in its handler, in CHECKS order.
MISREPORTS: dict[tuple[str, str], tuple[str, ...]] = {
    ("kappas", "kappa1_discrete"): ("kappa1_discrete_200",),
    ("kappas", "kappa2_discrete"): ("kappa2_discrete_200",),
    ("kappas", "kappa1_continuum"): ("kappa1_continuum_ymin1",),
    ("kappas", "kappa2_continuum"): ("kappa2_continuum_ymin1",),
    ("kappas", "kappa1_total"): ("kappa1_total",),
    ("kappas", "kappa2_total"): ("kappa2_total",),
    ("kappas", "net_coefficient"): ("net_coefficient",),
    ("kappas", "relative_momentum_shift"): ("relative_shift_magnitude",),
    ("polarizability", "polarizability_discrete"): (
        "polarizability_discrete_400", "polarizability_below_exact",
        "polarizability_exact_and_deficit"),
    ("polarizability", "polarizability_exact_total"): (
        "polarizability_exact_and_deficit",),
    ("polarizability", "continuum_deficit"): ("polarizability_exact_and_deficit",),
    ("polarizability", "oscillator_strength_sum"): ("oscillator_strength_sum_400",),
    ("bethe", "bethe_sum"): ("bethe_sum_200",),
    ("bethe", "normalization_coefficient"): ("normalization_coefficient",),
    ("continuum", "kappa1_continuum[ymin=0]"): (
        "kappa1_continuum_ymin0", "kappa1_continuum_engine_ymin0"),
    ("continuum", "kappa1_continuum[ymin=1]"): ("kappa1_continuum_engine_ymin1",),
    ("continuum", "kappa1_continuum[ymin=2]"): ("kappa1_continuum_engine_ymin2",),
    ("continuum", "kappa2_continuum[ymin=0]"): ("kappa2_continuum_engine_ymin0",),
    ("continuum", "kappa2_continuum[ymin=1]"): ("kappa2_continuum_engine_ymin1",),
    ("continuum", "kappa2_continuum[ymin=2]"): ("kappa2_continuum_engine_ymin2",),
    ("renorm", "delta_mass_electron"): (
        "delta_mass_engine", "reduced_mass_shift_first_order"),
    ("renorm", "delta_mass_proton"): ("delta_mass_engine",),
    ("renorm", "doubling_increment_electron"): ("delta_mass_doubling_increment",),
    ("renorm", "doubling_increment_limit"): ("delta_mass_doubling_increment",),
    ("renorm", "reduced_mass_shift"): ("reduced_mass_shift_first_order",),
    ("rho-c", "divergence_exponent"): (
        "divergence_exponent_dispersionless", "divergence_exponent_free_electron"),
    ("budget", "relativistic_darwin_coefficient"): ("mass_coefficient_itemization",),
    ("budget", "relativistic_p4_coefficient"): ("mass_coefficient_itemization",),
    ("budget", "relativistic_net"): ("mass_coefficient_itemization",),
    **{("budget", key): ("budget_items_defining_products",) for key in (
        "abraham", "casimir_correction", "casimir_relative_shift",
        "kinetic_mass_factor", "total", "transverse_bound",
        "relativistic_field_bound", "alpha0_si", "kappa1", "kappa2")},
}

# The reported values whose misreport by 1.5 fails no row. The budget's
# Bartlett-Power coefficient is an adopted constant that its default report
# (the exact polarizability) does not use.
UNREAD = {
    ("bethe", "log_value"),
    ("continuum", "kappa1_continuum[ymin=0.5]"),
    ("continuum", "kappa2_continuum[ymin=0.5]"),
    ("renorm", "delta_mass_log_slope"),
    *(("rho-c", key) for key in ("rho_c", "omega_max", "reference_mass_density",
                                 "ratio_to_reference")),
    ("budget", "relativistic_bartlett_power_alpha2_coeff"),
}


@pytest.mark.parametrize("subcommand, key", [*MISREPORTS, *sorted(UNREAD)],
                         ids=lambda arg: arg)
def test_misreport_fails_exactly_its_rows(monkeypatch, subcommand, key):
    _misreport(subcommand, key, lambda e: _scaled(e["value"]))(monkeypatch)
    failed = tuple(res.name for res in verify.run_checks() if not res.passed)
    assert failed == MISREPORTS.get((subcommand, key), ())


def test_misreports_name_every_nonzero_reported_value():
    def nonzero(value):
        return any(value) if isinstance(value, (list, tuple)) else value != 0
    reported = {(sub, key) for sub in cli.SUBCOMMANDS if sub != "verify"
                for key, (entry, _) in verify._report(sub).items()
                if nonzero(entry["value"])}
    assert not set(MISREPORTS) & UNREAD
    assert set(MISREPORTS) | UNREAD == reported
