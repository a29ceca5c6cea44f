import math

import pytest

from casimir_momentum import verify
from casimir_momentum.units import HARTREE_ENERGY, AtomicParams, constants

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


def test_rydberg_in_ev_converts_to_half_hartree():
    ev = 1.602176634e-19
    assert 13.605693 * ev / HARTREE_ENERGY == pytest.approx(0.5, rel=1e-6)


def test_hydrogen_params():
    atom = AtomicParams.hydrogen()
    assert atom.m1 == pytest.approx(1836.15267343, rel=1e-9)
    assert atom.m2 == 1.0
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
