import json
import math
import sys
from fractions import Fraction

import pytest

from casimir_momentum import quadrature, renorm, verify
from casimir_momentum.cli import run
from casimir_momentum.renorm import (
    CutoffScheme,
    DispersionModel,
    MassDensityOverflow,
    PlasmaCutoffWarning,
    casimir_mass_density,
    delta_mass,
    divergence_exponent,
    reduced_mass_shift,
)
from casimir_momentum.units import AtomicParams, PhysicalConstants, constants

CONST = constants()
EPS = sys.float_info.epsilon


# --- vacuum mass density ----------------------------------------------------

def test_dispersionless_quartic_scaling():
    model = DispersionModel.dispersionless(2.5)
    v1 = casimir_mass_density(model, CutoffScheme.frequency(1e18))
    v2 = casimir_mass_density(model, CutoffScheme.frequency(2e18))
    assert v2 / v1 == pytest.approx(16.0, rel=1e-12)
    assert v1 > 0


def test_free_electron_quadratic_scaling():
    model = DispersionModel.free_electron(1e28)
    v1 = casimir_mass_density(model, CutoffScheme.frequency(1e20))
    v2 = casimir_mass_density(model, CutoffScheme.frequency(2e20))
    assert v2 / v1 == pytest.approx(4.0, rel=1e-12)
    assert v1 < 0  # eps_r < 1 above the plasma frequency


def test_free_electron_magnitude_at_electron_radius_cutoff():
    n_e = 2.5e28
    model = DispersionModel.free_electron(n_e)
    cutoff = CutoffScheme.length(CONST.classical_electron_radius)
    value = casimir_mass_density(model, cutoff)
    reference = n_e * CONST.electron_mass / CONST.fine_structure_alpha
    ratio = abs(value) / reference
    # The closed form gives exactly 4/3 up to CODATA self-consistency, well
    # inside verify's rho_c_order_of_magnitude factor of 10.
    assert ratio == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_length_cutoff_mapping_exact():
    cut = CutoffScheme.length(1e-12)
    assert cut.omega_max(CONST) == math.pi * CONST.light_speed_c0 / 1e-12


def test_plasma_warning():
    n_e = 2.5e28
    model = DispersionModel.free_electron(n_e)
    omega_p = math.sqrt(n_e * CONST.elementary_charge_e**2
                        / (CONST.vacuum_permittivity_eps0 * CONST.electron_mass))
    with pytest.warns(PlasmaCutoffWarning):
        casimir_mass_density(model, CutoffScheme.frequency(omega_p / 10.0))


@pytest.mark.parametrize("model", [DispersionModel.dispersionless(2.0),
                                   DispersionModel.free_electron(2.5e28)])
def test_mass_density_overflow_raises(model):
    # omega_max**power overflows (OverflowError) or the product reaches inf.
    for omega in (1e300, 1e160, math.inf):
        with pytest.raises(MassDensityOverflow):
            casimir_mass_density(model, CutoffScheme.frequency(omega))
    with pytest.raises(MassDensityOverflow):
        divergence_exponent(model, [1e300 * 2.0**k for k in range(4)])


_N_E = 2.5e28   # the rho-c --n-e default


@pytest.mark.parametrize("model_args, weight, power", [
    ((), -_N_E * CONST.elementary_charge_e**2
     / (CONST.vacuum_permittivity_eps0 * CONST.electron_mass), 2),
    (("--model", "dispersionless"), 2.0 - 1.0, 4),
    (("--model", "dispersionless", "--eps-r", "3"), 3.0 - 1.0, 4),
], ids=("free-electron", "eps_r-2", "eps_r-3"))
@pytest.mark.parametrize("cutoff_args, omega", [
    ((), math.pi * CONST.light_speed_c0 / CONST.classical_electron_radius),
    (("--l-min", "1e-12"), math.pi * CONST.light_speed_c0 / 1e-12),
    (("--omega-max", "1e20"), 1e20),
], ids=("r_e", "l_min-1e-12", "omega_max-1e20"))
def test_rho_c_closed_forms_absolute(capsys, model_args, weight, power,
                                     cutoff_args, omega):
    # The rho-c report against (2/3) hbar/(pi^3 c0^5) w Omega^p/p, with
    # eps_r - 1 = w omega^(p - 4), taken exactly from the float inputs.
    assert run(["rho-c", *model_args, *cutoff_args, "--format", "json"]) == 0
    rows = {key: row["value"]
            for key, row in json.loads(capsys.readouterr().out)["results"].items()}
    exact = (Fraction(2, 3) * Fraction(CONST.hbar)
             / (Fraction(math.pi)**3 * Fraction(CONST.light_speed_c0)**5)
             * Fraction(weight) * Fraction(omega)**power / power)
    assert abs(Fraction(rows["rho_c"]) - exact) <= 8 * Fraction(EPS) * abs(exact)
    assert abs(rows["omega_max"] - omega) <= EPS * omega
    if weight < 0:
        reference = _N_E * CONST.electron_mass / CONST.fine_structure_alpha
        assert abs(rows["reference_mass_density"] - reference) <= EPS * reference
        assert rows["ratio_to_reference"] == abs(rows["rho_c"]) / rows["reference_mass_density"]
    else:
        assert "reference_mass_density" not in rows
        assert "ratio_to_reference" not in rows


def test_rho_c_linear_in_hbar():
    model = DispersionModel.dispersionless(3.0)
    cut = CutoffScheme.frequency(1e18)
    base = casimir_mass_density(model, cut, CONST)
    scaled_const = PhysicalConstants(hbar=2.0 * CONST.hbar)
    scaled = casimir_mass_density(model, cut, scaled_const)
    assert scaled / base == pytest.approx(2.0, rel=1e-12)


# --- electromagnetic self-mass ----------------------------------------------

def test_delta_mass_ln2_point():
    # hbar Lambda = 2 m c0 makes the log argument 2 exactly.
    m = CONST.electron_mass
    lam = 2.0 * m * CONST.light_speed_c0 / CONST.hbar
    front = 8.0 * CONST.fine_structure_alpha * m / (3.0 * math.pi)
    assert delta_mass(m, lam) == pytest.approx(front * math.log(2.0), rel=1e-12)


def test_delta_mass_zero_cutoff():
    assert delta_mass(CONST.electron_mass, 0.0) == 0.0


def test_delta_mass_doubling_tends_to_log2():
    m = CONST.electron_mass
    limit = (8.0 * CONST.fine_structure_alpha * m / (3.0 * math.pi)) * math.log(2.0)
    for ratio in (1e4, 3e4, 1e5):
        lam = ratio * m * CONST.light_speed_c0 / CONST.hbar
        increment = delta_mass(m, 2 * lam) - delta_mass(m, lam)
        assert increment == pytest.approx(limit, rel=1e-3)


def test_delta_mass_linear_in_alpha_and_mass(monkeypatch):
    m = CONST.electron_mass
    lam = 5.0 * m * CONST.light_speed_c0 / CONST.hbar
    base = delta_mass(m, lam)
    doubled_alpha = PhysicalConstants(fine_structure_alpha=2 * CONST.fine_structure_alpha)
    with monkeypatch.context() as patch:
        patch.setattr(renorm, "constants", lambda: doubled_alpha)
        assert delta_mass(m, lam) / base == pytest.approx(2.0, rel=1e-12)
    # Scaling m at fixed dimensionless cutoff hbar*Lambda/(m c0) is linear too.
    assert delta_mass(2 * m, 2 * lam) / base == pytest.approx(2.0, rel=1e-10)


def test_delta_mass_validation():
    with pytest.raises(ValueError):
        delta_mass(-1.0, 1.0)
    with pytest.raises(ValueError):
        delta_mass(CONST.electron_mass, -1.0)
    for mass, cut in ((math.nan, 1.0), (math.inf, 1.0),
                      (CONST.electron_mass, math.inf),
                      (CONST.electron_mass, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            delta_mass(mass, cut)


# --- the engine oracle of the self-mass: verify's delta_mass_engine row ------

def test_delta_mass_engine_row_passes_and_runs_the_engine(monkeypatch):
    # The row runs the engine once per cutoff ratio, for both masses, and
    # it never runs inside delta_mass.
    runs, integrate = [], quadrature.integrate_adaptive

    def capture(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(quadrature, "integrate_adaptive", capture)
    delta_mass(CONST.electron_mass, 1e4 * CONST.electron_mass
               * CONST.light_speed_c0 / CONST.hbar)
    assert runs == []
    chk, = (c for c in verify.CHECKS if c.name == "delta_mass_engine")
    value = chk.compute(verify._Memo({}))
    assert chk.passes(value) and 0.0 <= value <= 1.0
    assert len(runs) == 4


def test_divergence_exponent_refuses_nonfinite_values():
    # Python's ** raises OverflowError at 1e300**2; nan and inf are returned.
    with pytest.raises(ValueError, match="not finite"):
        divergence_exponent(lambda w: w**2, [1e300 * 2.0**k for k in range(4)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            divergence_exponent(lambda w: bad, [1e17 * 2.0**k for k in range(4)])


# --- reduced-mass shift -----------------------------------------------------

def test_reduced_mass_shift_zero():
    atom = AtomicParams.hydrogen()
    assert reduced_mass_shift(atom, 0.0, 0.0) == 0.0


def test_reduced_mass_shift_symmetric_case():
    atom = AtomicParams(m1=2.0, m2=2.0 - 1e-12)  # nearly equal masses
    delta = 1e-6
    expected = -delta / 2.0**2 - delta / (2.0 - 1e-12)**2
    assert reduced_mass_shift(atom, delta, delta) == pytest.approx(expected, rel=1e-9)
    assert reduced_mass_shift(atom, delta, delta) == pytest.approx(-2 * delta / 4.0,
                                                                   rel=1e-6)


def test_reduced_mass_shift_first_order_against_perturbed_mu():
    atom = AtomicParams.hydrogen()
    dm1 = delta_mass(CONST.proton_mass,
                     2 * CONST.proton_mass * CONST.light_speed_c0 / CONST.hbar
                     ) / CONST.electron_mass
    dm2 = delta_mass(CONST.electron_mass,
                     2 * CONST.electron_mass * CONST.light_speed_c0 / CONST.hbar
                     ) / CONST.electron_mass
    formula = reduced_mass_shift(atom, dm1, dm2)
    up = AtomicParams(m1=atom.m1 + dm1, m2=atom.m2 + dm2)
    down = AtomicParams(m1=atom.m1 - dm1, m2=atom.m2 - dm2)
    centered = 0.5 * (1.0 / up.reduced_mass - 1.0 / down.reduced_mass)
    assert formula == pytest.approx(centered, rel=1e-3)
    # One-sided difference agrees to first order, i.e. within max(dm_i/m_i).
    one_sided = 1.0 / up.reduced_mass - 1.0 / atom.reduced_mass
    rel_dev = abs(formula - one_sided) / abs(formula)
    assert rel_dev <= max(dm1 / atom.m1, dm2 / atom.m2)


def test_reduced_mass_shift_rejects_large_shifts():
    atom = AtomicParams.hydrogen()
    with pytest.raises(ValueError):
        reduced_mass_shift(atom, 0.0, 1.5)


def test_mass_renormalization_single_source():
    # The shift entering delta(1/mu) and the total-mass shift delta_M must be
    # assembled from the same self-mass outputs.
    dm1 = delta_mass(CONST.proton_mass,
                     2 * CONST.proton_mass * CONST.light_speed_c0 / CONST.hbar)
    dm2 = delta_mass(CONST.electron_mass,
                     2 * CONST.electron_mass * CONST.light_speed_c0 / CONST.hbar)
    atom = AtomicParams.hydrogen()
    dm1_em, dm2_em = dm1 / CONST.electron_mass, dm2 / CONST.electron_mass
    shift = reduced_mass_shift(atom, dm1_em, dm2_em)
    delta_m_total = dm1_em + dm2_em
    assert shift == -dm1_em / atom.m1**2 - dm2_em / atom.m2**2
    assert delta_m_total > 0


# --- divergence exponents ---------------------------------------------------

GRID = [1e17 * 2.0**k for k in range(5)]


def test_divergence_exponent_dispersionless():
    model = DispersionModel.dispersionless(2.0)
    assert divergence_exponent(model, GRID) == pytest.approx(4.00, abs=0.01)


def test_divergence_exponent_free_electron():
    model = DispersionModel.free_electron(1e28)
    assert divergence_exponent(model, GRID) == pytest.approx(2.00, abs=0.01)


def test_divergence_exponent_logarithmic_case():
    m = CONST.electron_mass
    big = 1e4 * m * CONST.light_speed_c0 / CONST.hbar
    slope = divergence_exponent(lambda lam: delta_mass(m, lam),
                                [big * 2.0**k for k in range(5)])
    assert 0.0 < slope < 0.15
    bigger = divergence_exponent(lambda lam: delta_mass(m, lam),
                                 [100 * big * 2.0**k for k in range(5)])
    assert bigger < slope  # drifts toward zero as the cutoff grows


def test_divergence_exponent_validation():
    model = DispersionModel.dispersionless(2.0)
    with pytest.raises(ValueError, match="at least 4"):
        divergence_exponent(model, [1e17, 2e17, 4e17])
    with pytest.raises(ValueError, match="ascending"):
        divergence_exponent(model, [2e17, 1e17, 4e17, 8e17])
    with pytest.raises(ValueError, match="geometric"):
        divergence_exponent(model, [1e17, 2e17, 3e17, 1e19])
    with pytest.raises(ValueError, match="monotone"):
        divergence_exponent(lambda w: math.sin(w / 1e17) + 2.0,
                            [1e17 * 2.0**k for k in range(4)])
