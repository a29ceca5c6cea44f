import math

import pytest

from casimir_momentum.budget import (
    ADOPTED_KAPPA1,
    ADOPTED_KAPPA2,
    HYDROGEN_BINDING_ENERGY_J,
    _PROVENANCE,
    FieldConfiguration,
    assemble_budget,
    handle_budget,
    cross,
    dot,
    norm,
    scaled,
)
from casimir_momentum.cli import SUBCOMMANDS
from casimir_momentum.sums import polarizability_discrete
from casimir_momentum.units import constants

CONST = constants()
ALPHA = CONST.fine_structure_alpha

CROSSED = FieldConfiguration(E0=(1e5, 0.0, 0.0), B0=(0.0, 1.0, 0.0),
                             Q0=(0.0, 0.0, 0.0))
ALPHA0_SI = 18.0 * math.pi * CONST.bohr_radius_a0**3   # exact alpha(0), SI volume
GENERAL = FieldConfiguration(E0=(3e4, -1e4, 2e4), B0=(0.3, 1.1, -0.4),
                             Q0=(1e-27, -2e-28, 5e-29))
ZERO = FieldConfiguration(E0=(0.0, 0.0, 0.0), B0=(0.0, 0.0, 0.0),
                          Q0=(0.0, 0.0, 0.0))
EV = 1.602176634e-19
# The budget handler's checked parameters at their defaults.
DEFAULTS = {p.name: p.checked(p.default) for p in SUBCOMMANDS["budget"].params}


def _rotation(axis, angle):
    """Rodrigues' rotation by angle about axis, as a function of a vector."""
    k = scaled(1.0 / norm(axis), axis)
    cos, sin = math.cos(angle), math.sin(angle)

    def rotate(v):
        kxv, kv = cross(k, v), dot(k, v) * (1.0 - cos)
        return tuple(c * cos + s * sin + kc * kv for c, s, kc in zip(v, kxv, k))
    return rotate


def _close(a, b, rel):
    """a equals b within rel times |b|, component by component."""
    return all(math.isclose(x, y, rel_tol=rel, abs_tol=rel * norm(b))
               for x, y in zip(a, b))


def test_parallel_fields_give_zero():
    fields = FieldConfiguration(E0=(2e4, 0.0, 0.0), B0=(5.0, 0.0, 0.0),
                                Q0=(0.0, 0.0, 0.0))
    assert assemble_budget(fields)["abraham"] == (0.0, 0.0, 0.0)


def test_crossed_fields_magnitude_and_direction():
    p_a = assemble_budget(CROSSED)["abraham"]
    # eps0 * 18 pi a0^3 * |E| with B0 x E0 along -z for this configuration.
    expected = CONST.vacuum_permittivity_eps0 * ALPHA0_SI * 1e5
    assert p_a[2] == pytest.approx(-expected, rel=1e-14)
    assert p_a[0] == 0.0 and p_a[1] == 0.0
    assert expected == pytest.approx(7.4195e-36, rel=1e-4)


def test_abraham_linearity_exact():
    doubled = CROSSED._replace(E0=scaled(2.0, CROSSED.E0))
    assert assemble_budget(doubled)["abraham"] == scaled(
        2.0, assemble_budget(CROSSED)["abraham"])


def test_casimir_correction_adopted_values():
    bud = assemble_budget(CROSSED, kappa1=0.22, kappa2=0.0976)
    ratio = norm(bud["casimir_correction"]) / norm(bud["abraham"])
    assert ratio == pytest.approx(0.1224 * ALPHA**2, rel=1e-10)
    assert ratio == pytest.approx(6.5e-6, rel=0.01)
    assert dot(bud["casimir_correction"], bud["abraham"]) < 0.0  # lowers the classical value


def test_casimir_correction_cancellation_and_zero():
    cancelled = assemble_budget(CROSSED, kappa1=0.17, kappa2=0.17)
    assert cancelled["casimir_correction"] == (0.0, 0.0, 0.0)
    assert cancelled["casimir_relative_shift"] == 0.0
    zero = assemble_budget(ZERO, kappa1=0.22, kappa2=0.0976)
    assert zero["casimir_correction"] == (0.0, 0.0, 0.0)
    assert zero["casimir_relative_shift"] == 0.0


def test_effective_mass_factor_hydrogen():
    factor = assemble_budget(CROSSED)["kinetic_mass_factor"]
    assert factor == pytest.approx(-1.449e-8, abs=2e-11)
    m_total = CONST.proton_mass + CONST.electron_mass
    assert factor == pytest.approx(-13.605693 * EV / (m_total * CONST.light_speed_c0**2),
                                   rel=1e-6)


def test_mass_coefficient_itemization_exact():
    # Each coefficient is its ratio rounded once, and the net is exactly 1.
    bud = assemble_budget(CROSSED)
    assert [bud[f"relativistic_{key}"] for key in (
        "darwin_coefficient", "p4_coefficient", "net", "bartlett_power_alpha2_coeff",
    )] == [8 / 3, -5 / 3, 1.0, -28 / 27]


def test_transverse_bound_zero_case():
    assert assemble_budget(ZERO)["transverse_bound"] == 0.0


def test_transverse_bound_kinetic_part():
    fields = ZERO._replace(Q0=(1e-27, 0.0, 0.0))
    bound = assemble_budget(fields)["transverse_bound"]
    assert bound == pytest.approx(ALPHA * 1.449e-8 * 1e-27, rel=1e-3)
    assert bound == pytest.approx(1.06e-37, rel=1e-2)


def test_transverse_bound_scales_one_alpha_below_field_terms():
    bud = assemble_budget(CROSSED)
    field_part = bud["transverse_bound"]  # Q0 = 0 here
    assert field_part == pytest.approx(ALPHA**3 * norm(bud["abraham"]), rel=1e-12)
    assert field_part / norm(bud["casimir_correction"]) == pytest.approx(
        ALPHA / 0.1224, rel=1e-3)


def test_budget_zero_fields_all_zero():
    bud = assemble_budget(ZERO)
    for name in ("abraham", "casimir_correction", "kinetic",
                 "kinetic_correction", "total"):
        assert bud[name] == (0.0, 0.0, 0.0), name
    assert bud["transverse_bound"] == 0.0
    assert bud["relativistic_field_bound"] == 0.0


def test_budget_polarizability_choices():
    exact = assemble_budget(CROSSED, polarizability_choice="exact")
    rel = assemble_budget(CROSSED, polarizability_choice="relativistic_corrected")
    factor = norm(rel["abraham"]) / norm(exact["abraham"])
    assert factor == pytest.approx(1.0 - (28.0 / 27.0) * ALPHA**2, rel=1e-12)
    assert 1.0 - factor == pytest.approx(5.52e-5, rel=1e-2)
    disc = assemble_budget(CROSSED, polarizability_choice="computed_discrete")
    assert disc["alpha0_si"] == pytest.approx(
        4 * math.pi * polarizability_discrete().value * CONST.bohr_radius_a0**3,
        rel=1e-12)
    assert norm(disc["abraham"]) < norm(exact["abraham"])


def test_budget_unknown_choice_rejected():
    with pytest.raises(ValueError):
        assemble_budget(CROSSED, polarizability_choice="guessed")


def test_budget_relative_shift_with_adopted_kappas():
    bud = assemble_budget(CROSSED, kappa1=ADOPTED_KAPPA1, kappa2=ADOPTED_KAPPA2)
    shift = bud["casimir_relative_shift"]
    assert shift == pytest.approx(-0.1224 * ALPHA**2, rel=1e-12)
    assert abs(shift) == pytest.approx(6e-6, rel=0.10)
    assert -0.13 * ALPHA**2 < shift < -0.11 * ALPHA**2


def test_budget_invariants_componentwise():
    bud = assemble_budget(GENERAL)
    b_x_e = cross(GENERAL.B0, GENERAL.E0)
    # abraham parallel to B0 x E0
    assert dot(bud["abraham"], b_x_e) == pytest.approx(
        norm(bud["abraham"]) * norm(b_x_e), rel=1e-12)
    # casimir correction proportional componentwise
    expected = scaled((-bud["kappa1"] + bud["kappa2"]) * ALPHA**2, bud["abraham"])
    assert _close(bud["casimir_correction"], expected, 1e-14)
    # kinetic correction collinear with Q0
    assert _close(bud["kinetic_correction"],
                  scaled(bud["kinetic_mass_factor"], GENERAL.Q0), 1e-14)


def test_budget_scaling_degrees():
    base = assemble_budget(GENERAL)
    bigger = assemble_budget(FieldConfiguration(E0=scaled(2, GENERAL.E0),
                                                B0=scaled(3, GENERAL.B0),
                                                Q0=scaled(5, GENERAL.Q0)))
    # abraham and its correction have degree (1, 1, 0) in (E0, B0, Q0).
    assert _close(bigger["abraham"], scaled(6, base["abraham"]), 1e-14)
    assert _close(bigger["casimir_correction"], scaled(6, base["casimir_correction"]), 1e-14)
    # kinetic terms have degree (0, 0, 1).
    assert _close(bigger["kinetic"], scaled(5, base["kinetic"]), 1e-14)
    assert _close(bigger["kinetic_correction"], scaled(5, base["kinetic_correction"]), 1e-14)


def test_budget_rotation_equivariance():
    rot = _rotation((1.0, 2.0, 3.0), 0.7)
    base = assemble_budget(GENERAL)
    rotated = assemble_budget(FieldConfiguration(
        E0=rot(GENERAL.E0), B0=rot(GENERAL.B0), Q0=rot(GENERAL.Q0)))
    for name in ("abraham", "casimir_correction", "kinetic", "kinetic_correction",
                 "total"):
        assert _close(rotated[name], rot(base[name]), 1e-12), name
    assert rotated["transverse_bound"] == pytest.approx(base["transverse_bound"], rel=1e-12)


def test_budget_shift_independent_of_field_magnitude():
    weak = assemble_budget(CROSSED)
    strong = assemble_budget(CROSSED._replace(E0=scaled(1e3, CROSSED.E0),
                                              B0=scaled(7.0, CROSSED.B0)))
    assert weak["casimir_relative_shift"] == pytest.approx(
        strong["casimir_relative_shift"], rel=1e-14)


def test_budget_bounds_not_in_totals():
    fields = FieldConfiguration(E0=(1e5, 0.0, 0.0), B0=(0.0, 1.0, 0.0),
                                Q0=(1e-27, 0.0, 0.0))
    bud = assemble_budget(fields)
    assert bud["total"] == tuple(a + c + k + kc for a, c, k, kc in zip(
        bud["abraham"], bud["casimir_correction"], bud["kinetic"], bud["kinetic_correction"]))
    assert bud["transverse_bound"] > 0.0  # present, flagged, but excluded


def test_budget_provenance_present():
    # Each item has its provenance, and the report's rows are the items in
    # their order; alpha0_si's text names the polarizability choice.
    rows = handle_budget(DEFAULTS)
    assert list(rows) == list(assemble_budget(CROSSED)) == list(_PROVENANCE)
    assert all(text for _, text in rows.values())
    assert rows["alpha0_si"][1].endswith("choice = exact")


def test_budget_footnote_and_field_bound_items():
    bud = assemble_budget(CROSSED)
    # No alpha^2 vacuum part to the polarizability: the item is exactly zero.
    assert bud["polarizability_vacuum_item"] == 0.0
    # The field-dependent relativistic term is a bound, m_e/M below the
    # vacuum correction itself.
    expected = ALPHA**2 * (CONST.electron_mass
                           / (CONST.proton_mass + CONST.electron_mass)) \
        * norm(bud["abraham"])
    assert bud["relativistic_field_bound"] == pytest.approx(expected, rel=1e-9)
    assert bud["relativistic_field_bound"] < norm(bud["casimir_correction"])


def test_binding_energy_constant_is_half_hartree():
    assert HYDROGEN_BINDING_ENERGY_J == pytest.approx(-2.1798723611e-18, rel=1e-9)
