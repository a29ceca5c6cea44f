import math

import numpy as np
import pytest

from casimir_momentum.budget import (
    ADOPTED_KAPPA1,
    ADOPTED_KAPPA2,
    HYDROGEN_BINDING_ENERGY_J,
    POLARIZABILITY_VOLUME_AU,
    FieldConfiguration,
    abraham_momentum,
    assemble_budget,
    casimir_correction,
    effective_mass_factor,
    transverse_bound,
)
from casimir_momentum.sums import polarizability_discrete
from casimir_momentum.units import constants

CONST = constants()
ALPHA = CONST.fine_structure_alpha

CROSSED = FieldConfiguration(E0=[1e5, 0.0, 0.0], B0=[0.0, 1.0, 0.0],
                             Q0=[0.0, 0.0, 0.0])
ALPHA0_SI = POLARIZABILITY_VOLUME_AU * CONST.bohr_radius_a0**3


def _rotation(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def test_parallel_fields_give_zero():
    fields = FieldConfiguration(E0=[2e4, 0, 0], B0=[5.0, 0, 0], Q0=[0, 0, 0])
    assert np.all(np.asarray(abraham_momentum(fields, ALPHA0_SI)) == 0.0)


def test_crossed_fields_magnitude_and_direction():
    p_a = abraham_momentum(CROSSED, ALPHA0_SI)
    # eps0 * 18 pi a0^3 * |E| with B0 x E0 along -z for this configuration.
    expected = CONST.vacuum_permittivity_eps0 * ALPHA0_SI * 1e5
    assert p_a[2] == pytest.approx(-expected, rel=1e-14)
    assert p_a[0] == 0.0 and p_a[1] == 0.0
    assert expected == pytest.approx(7.4195e-36, rel=1e-4)


def test_abraham_linearity_exact():
    doubled = FieldConfiguration(E0=2 * np.asarray(CROSSED.E0), B0=CROSSED.B0,
                                 Q0=CROSSED.Q0)
    assert np.array_equal(abraham_momentum(doubled, ALPHA0_SI),
                          2.0 * np.asarray(abraham_momentum(CROSSED, ALPHA0_SI)))


def test_abraham_rejects_bad_polarizability():
    with pytest.raises(ValueError):
        abraham_momentum(CROSSED, -1.0)


def test_casimir_correction_adopted_values():
    p_a = abraham_momentum(CROSSED, ALPHA0_SI)
    corr = casimir_correction(0.22, 0.0976, p_a)
    ratio = np.linalg.norm(corr) / np.linalg.norm(p_a)
    assert ratio == pytest.approx(0.1224 * ALPHA**2, rel=1e-10)
    assert ratio == pytest.approx(6.5e-6, rel=0.01)
    assert float(np.dot(corr, p_a)) < 0.0  # lowers the classical value


def test_casimir_correction_cancellation_and_zero():
    p_a = abraham_momentum(CROSSED, ALPHA0_SI)
    assert np.all(np.asarray(casimir_correction(0.17, 0.17, p_a)) == 0.0)
    assert np.all(np.asarray(casimir_correction(0.22, 0.0976, np.zeros(3))) == 0.0)


def test_effective_mass_factor_hydrogen():
    m_total = CONST.proton_mass + CONST.electron_mass
    ev = 1.602176634e-19
    factor = effective_mass_factor(-13.605693 * ev, m_total)
    assert factor == pytest.approx(-1.449e-8, abs=2e-11)


def test_effective_mass_factor_zero_energy():
    assert effective_mass_factor(0.0, 1.0) == 0.0


def test_effective_mass_factor_rejects_positive_binding():
    with pytest.raises(ValueError):
        effective_mass_factor(+1e-18, 1.0)
    with pytest.raises(ValueError):
        effective_mass_factor(-1e-18, 0.0)


def test_mass_coefficient_itemization_exact():
    # Each coefficient is its ratio rounded once, and the net is exactly 1.
    assert assemble_budget(CROSSED).relativistic_terms == {
        "darwin_coefficient": 8 / 3, "p4_coefficient": -5 / 3, "net": 1.0,
        "bartlett_power_alpha2_coeff": -28 / 27}


def test_transverse_bound_zero_case():
    fields = FieldConfiguration(E0=[0, 0, 0], B0=[0, 0, 0], Q0=[0, 0, 0])
    assert transverse_bound(fields, effective_mass_factor(-1e-18, 1e-27),
                            abraham_momentum(fields, ALPHA0_SI)) == 0.0


def test_transverse_bound_kinetic_part():
    fields = FieldConfiguration(E0=[0, 0, 0], B0=[0, 0, 0], Q0=[1e-27, 0, 0])
    m_total = CONST.proton_mass + CONST.electron_mass
    ev = 1.602176634e-19
    bound = transverse_bound(fields, effective_mass_factor(-13.605693 * ev, m_total),
                             abraham_momentum(fields, ALPHA0_SI))
    assert bound == pytest.approx(ALPHA * 1.449e-8 * 1e-27, rel=1e-3)
    assert bound == pytest.approx(1.06e-37, rel=1e-2)


def test_transverse_bound_scales_one_alpha_below_field_terms():
    bud = assemble_budget(CROSSED)
    field_part = bud.transverse_bound  # Q0 = 0 here
    assert field_part == pytest.approx(
        ALPHA**3 * np.linalg.norm(bud.abraham), rel=1e-12)
    assert field_part / abs(np.linalg.norm(bud.casimir_correction)) == pytest.approx(
        ALPHA / 0.1224, rel=1e-3)


def test_budget_zero_fields_all_zero():
    fields = FieldConfiguration(E0=[0, 0, 0], B0=[0, 0, 0], Q0=[0, 0, 0])
    bud = assemble_budget(fields)
    assert np.all(np.asarray(bud.abraham) == 0.0)
    assert np.all(np.asarray(bud.casimir_correction) == 0.0)
    assert np.all(np.asarray(bud.kinetic) == 0.0)
    assert np.all(np.asarray(bud.kinetic_correction) == 0.0)
    assert np.all(np.asarray(bud.total()) == 0.0)
    assert bud.transverse_bound == 0.0
    assert bud.relativistic_field_bound == 0.0


def test_budget_polarizability_choices():
    exact = assemble_budget(CROSSED, polarizability_choice="exact")
    rel = assemble_budget(CROSSED, polarizability_choice="relativistic_corrected")
    factor = np.linalg.norm(rel.abraham) / np.linalg.norm(exact.abraham)
    assert factor == pytest.approx(1.0 - (28.0 / 27.0) * ALPHA**2, rel=1e-12)
    assert 1.0 - factor == pytest.approx(5.52e-5, rel=1e-2)
    disc = assemble_budget(CROSSED, polarizability_choice="computed_discrete")
    assert disc.alpha0_si == pytest.approx(
        4 * math.pi * polarizability_discrete().value * CONST.bohr_radius_a0**3,
        rel=1e-12)
    assert np.linalg.norm(disc.abraham) < np.linalg.norm(exact.abraham)


def test_budget_unknown_choice_rejected():
    with pytest.raises(ValueError):
        assemble_budget(CROSSED, polarizability_choice="guessed")


def test_budget_relative_shift_with_adopted_kappas():
    bud = assemble_budget(CROSSED, kappa1=ADOPTED_KAPPA1, kappa2=ADOPTED_KAPPA2)
    shift = bud.casimir_relative_shift
    assert shift == pytest.approx(-0.1224 * ALPHA**2, rel=1e-12)
    assert abs(shift) == pytest.approx(6e-6, rel=0.10)
    assert -0.13 * ALPHA**2 < shift < -0.11 * ALPHA**2


def test_budget_invariants_componentwise():
    fields = FieldConfiguration(E0=[3e4, -1e4, 2e4], B0=[0.3, 1.1, -0.4],
                                Q0=[1e-27, -2e-28, 5e-29])
    bud = assemble_budget(fields)
    cross = np.cross(fields.B0, fields.E0)
    # abraham parallel to B0 x E0
    assert float(bud.abraham @ cross) == pytest.approx(
        np.linalg.norm(bud.abraham) * np.linalg.norm(cross), rel=1e-12)
    # casimir correction proportional componentwise
    expected = (-bud.kappa1 + bud.kappa2) * ALPHA**2 * np.asarray(bud.abraham)
    assert np.allclose(bud.casimir_correction, expected, rtol=1e-14, atol=0.0)
    # kinetic correction collinear with Q0
    assert np.allclose(bud.kinetic_correction,
                       bud.kinetic_mass_factor * np.asarray(fields.Q0),
                       rtol=1e-14, atol=0.0)


def test_budget_scaling_degrees():
    fields = FieldConfiguration(E0=[3e4, -1e4, 2e4], B0=[0.3, 1.1, -0.4],
                                Q0=[1e-27, -2e-28, 5e-29])
    base = assemble_budget(fields)
    scaled = assemble_budget(FieldConfiguration(E0=2 * np.asarray(fields.E0),
                                                B0=3 * np.asarray(fields.B0),
                                                Q0=5 * np.asarray(fields.Q0)))
    # abraham and its correction have degree (1, 1, 0) in (E0, B0, Q0).
    assert np.allclose(scaled.abraham, 6 * np.asarray(base.abraham), rtol=1e-14)
    assert np.allclose(scaled.casimir_correction,
                       6 * np.asarray(base.casimir_correction), rtol=1e-14)
    # kinetic terms have degree (0, 0, 1).
    assert np.allclose(scaled.kinetic, 5 * np.asarray(base.kinetic), rtol=1e-14)
    assert np.allclose(scaled.kinetic_correction,
                       5 * np.asarray(base.kinetic_correction), rtol=1e-14)


def test_budget_rotation_equivariance():
    rot = _rotation([1.0, 2.0, 3.0], 0.7)
    fields = FieldConfiguration(E0=[3e4, -1e4, 2e4], B0=[0.3, 1.1, -0.4],
                                Q0=[1e-27, -2e-28, 5e-29])
    base = assemble_budget(fields)
    rotated = assemble_budget(FieldConfiguration(E0=rot @ fields.E0,
                                                 B0=rot @ fields.B0,
                                                 Q0=rot @ fields.Q0))
    for name in ("abraham", "casimir_correction", "kinetic", "kinetic_correction"):
        assert np.allclose(getattr(rotated, name), rot @ getattr(base, name),
                           rtol=1e-12, atol=1e-300)
    assert rotated.transverse_bound == pytest.approx(base.transverse_bound, rel=1e-12)


def test_budget_shift_independent_of_field_magnitude():
    weak = assemble_budget(CROSSED)
    strong = assemble_budget(FieldConfiguration(E0=1e3 * np.asarray(CROSSED.E0),
                                                B0=7.0 * np.asarray(CROSSED.B0),
                                                Q0=CROSSED.Q0))
    assert weak.casimir_relative_shift == pytest.approx(
        strong.casimir_relative_shift, rel=1e-14)


def test_budget_bounds_not_in_totals():
    fields = FieldConfiguration(E0=[1e5, 0, 0], B0=[0, 1, 0], Q0=[1e-27, 0, 0])
    bud = assemble_budget(fields)
    expected_total = (np.asarray(bud.abraham) + bud.casimir_correction
                      + bud.kinetic + bud.kinetic_correction)
    assert np.array_equal(bud.total(), expected_total)
    assert bud.transverse_bound > 0.0  # present, flagged, but excluded


def test_budget_provenance_present():
    bud = assemble_budget(CROSSED)
    for key in ("abraham", "casimir_correction", "kinetic_correction",
                "transverse_bound", "relativistic_field_bound",
                "polarizability_vacuum_item"):
        assert key in bud.provenance
        assert bud.provenance[key]


def test_budget_footnote_and_field_bound_items():
    bud = assemble_budget(CROSSED)
    # No alpha^2 vacuum part to the polarizability: the item is exactly zero.
    assert bud.polarizability_vacuum_item == 0.0
    # The field-dependent relativistic term is a bound, m_e/M below the
    # vacuum correction itself.
    expected = ALPHA**2 * (CONST.electron_mass
                           / (CONST.proton_mass + CONST.electron_mass)) \
        * np.linalg.norm(bud.abraham)
    assert bud.relativistic_field_bound == pytest.approx(expected, rel=1e-9)
    assert bud.relativistic_field_bound < np.linalg.norm(bud.casimir_correction)


def test_binding_energy_constant_is_half_hartree():
    assert HYDROGEN_BINDING_ENERGY_J == pytest.approx(-2.1798723611e-18, rel=1e-9)


def test_field_configuration_validates_shape():
    with pytest.raises(ValueError):
        FieldConfiguration(E0=[1.0, 2.0], B0=[0, 0, 1], Q0=[0, 0, 0])
