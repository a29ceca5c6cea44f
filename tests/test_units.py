import math

import pytest

from casimir_momentum import verify
from casimir_momentum.units import (
    AtomicParams,
    constants,
    from_atomic,
    to_atomic,
)

CONST = constants()


def test_constants_identical_across_calls():
    assert constants() is constants()


def test_alpha_codata_value():
    # CODATA 2018 published table is the oracle for the stored constants.
    assert CONST.fine_structure_alpha == pytest.approx(7.2973525693e-3, rel=1e-12)


def test_classical_electron_radius_ratio():
    ratio = CONST.classical_electron_radius / CONST.bohr_radius_a0
    assert ratio == pytest.approx(CONST.fine_structure_alpha**2, rel=1e-12)
    assert ratio == pytest.approx(5.3251e-5, rel=1e-4)


# The bands are the rows of verify.CHECKS, applied to each identity's ratio.
_BAND = {chk.name: chk for chk in verify.CHECKS}


def test_hartree_is_alpha2_me_c2():
    expected = (CONST.fine_structure_alpha**2 * CONST.electron_mass
                * CONST.light_speed_c0**2)
    assert _BAND["units_hartree_identity"].passes(CONST.hartree_energy / expected)


def test_bohr_radius_identity():
    expected = CONST.hbar / (CONST.electron_mass * CONST.light_speed_c0
                             * CONST.fine_structure_alpha)
    assert _BAND["units_bohr_identity"].passes(CONST.bohr_radius_a0 / expected)


def test_hartree_coulomb_consistency_chain():
    coulomb = CONST.elementary_charge_e**2 / (
        4 * math.pi * CONST.vacuum_permittivity_eps0 * CONST.bohr_radius_a0)
    assert _BAND["units_coulomb_identity"].passes(coulomb / CONST.hartree_energy)


def test_to_atomic_unit_definitions():
    assert to_atomic(CONST.hartree_energy, "energy") == pytest.approx(1.0, rel=1e-14)
    assert to_atomic(CONST.bohr_radius_a0, "length") == pytest.approx(1.0, rel=1e-14)
    assert to_atomic(CONST.electron_mass, "mass") == pytest.approx(1.0, rel=1e-14)


def test_rydberg_in_ev_converts_to_half_hartree():
    ev = 1.602176634e-19
    assert to_atomic(13.605693 * ev, "energy") == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("kind", ["length", "energy", "mass", "momentum"])
@pytest.mark.parametrize("value", [1e-30, 2.5e-7, 1.0, 3.7e4, 9.9e20])
def test_round_trip(kind, value):
    assert from_atomic(to_atomic(value, kind), kind) == pytest.approx(value, rel=1e-12)
    assert to_atomic(from_atomic(value, kind), kind) == pytest.approx(value, rel=1e-12)


def test_unsupported_kind_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        to_atomic(1.0, "charge")
    with pytest.raises(ValueError, match="unsupported"):
        from_atomic(1.0, "time")


def test_hydrogen_params():
    atom = AtomicParams.hydrogen()
    assert atom.m1 == pytest.approx(1836.15267343, rel=1e-9)
    assert atom.m2 == 1.0
    assert atom.mass_difference > 0
    assert atom.total_mass == atom.m1 + atom.m2
    mu = atom.m1 * atom.m2 / (atom.m1 + atom.m2)
    assert atom.reduced_mass == pytest.approx(mu, rel=1e-15)


def test_params_ordering_enforced():
    with pytest.raises(ValueError):
        AtomicParams(m1=1.0, m2=1.0)
    with pytest.raises(ValueError):
        AtomicParams(m1=0.5, m2=1.0)
    with pytest.raises(ValueError):
        AtomicParams(m1=2.0, m2=-1.0)
