"""Itemized pseudo-momentum budget for a hydrogen atom in crossed fields.

assemble_budget works out every item of the conserved-momentum
decomposition at once: the classical field-induced (Abraham) momentum, its
quantum-vacuum (Casimir) correction and their signed ratio, the
binding-energy correction to the kinetic momentum with its Darwin and p^4
parts itemized, their total, and order-of-magnitude bounds that are
reported but never added into the total. It returns a plain dict, keyed and
ordered as the report; _PROVENANCE states the formula of each item. All
vectors are SI (kg m/s) 3-tuples of floats (Vec3), inputs SI field vectors;
cross, dot, norm and scaled are the four helpers below. handle_budget, the
budget subcommand's handler, pairs each item with its provenance; it lives
here, so a process compiles it only when it runs that subcommand.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .units import (ADOPTED_KAPPA1, ADOPTED_KAPPA2, POLARIZABILITY_CHOICES,
                    POLARIZABILITY_EXACT_AU, AtomicParams, constants)

# Relative relativistic correction to the static polarizability, in units
# of alpha^2 (Bartlett-Power coefficient).
RELATIVISTIC_POLARIZABILITY_COEFF = -28 / 27

# Itemized binding-energy mass coefficients in thirds: the Darwin (vacuum
# longitudinal) part and the p^4 part. Their sum, 3 thirds, is exactly 1.
_DARWIN_MASS_THIRDS = 8
_P4_MASS_THIRDS = -5

HYDROGEN_BINDING_ENERGY_J = -0.5 * constants().hartree_energy  # ground state


Vec3 = tuple[float, float, float]


def cross(a: Vec3, b: Vec3) -> Vec3:
    """a x b."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm(a: Vec3) -> float:
    return math.hypot(*a)


def scaled(s: float, a: Vec3) -> Vec3:
    return (s * a[0], s * a[1], s * a[2])


class FieldConfiguration(NamedTuple):
    """External fields and the atom's pseudo-momentum, SI units. Precondition:
    each is a Vec3, as the --E0, --B0 and --Q0 parser makes it."""

    E0: Vec3  # V/m
    B0: Vec3  # T
    Q0: Vec3  # kg m/s


# The provenance of every item the budget report carries, in report order.
_PROVENANCE = {
    "abraham": "eps0 * alpha(0) * B0 x E0; alpha(0) = 18 pi a0^3 exact for "
               "ground-state hydrogen",
    "casimir_correction": "(-kappa1 + kappa2) alpha^2 * abraham; kappa1 from "
                          "the (2/27) sum I1 I3/dE^2 plus its continuum part, "
                          "kappa2 from the (1/27) sum I2 I3/dE plus its "
                          "continuum part",
    "casimir_relative_shift": "(-kappa1 + kappa2) alpha^2, sign carried",
    "kinetic": "pseudo-momentum Q0 as given: the centre-of-mass kinetic "
               "momentum before its binding-energy correction",
    "kinetic_mass_factor": "E_bind/(M c0^2)",
    "kinetic_correction": "binding-energy mass shift E_bind/(M c0^2) applied "
                          "to Q0; itemized as Darwin +8/3 and p^4 -5/3, net 1",
    "total": "abraham + casimir_correction + kinetic + kinetic_correction; "
             "bounds excluded",
    "transverse_bound": "alpha |E_bind/(M c0^2)| |Q0| + alpha^3 |P_A|; "
                        "order-of-magnitude estimate, excluded from totals",
    "relativistic_field_bound": "field-dependent relativistic term carries "
                                "no computed coefficient; bounded by "
                                "alpha^2 (m_e/M) |P_A| and excluded from totals",
    "polarizability_vacuum_item": "no vacuum contribution of order alpha^2 "
                                  "exists to the static polarizability; the "
                                  "first correction is order alpha^2 m_e/M, "
                                  "so this item is identically zero",
    "alpha0_si": "polarizability volume [m^3], choice = {choice}",
    "kappa1": "first vacuum coupling in casimir_correction; input, by default "
              "the adopted discrete sum plus continuum part",
    "kappa2": "second vacuum coupling in casimir_correction; input, by "
              "default the adopted discrete sum plus continuum part",
    "relativistic_darwin_coefficient": "Darwin (longitudinal vacuum) part "
                                       "of the binding-energy mass shift",
    "relativistic_p4_coefficient": "p^4 kinetic-energy part",
    "relativistic_net": "sum of the two parts; exactly 1",
    "relativistic_bartlett_power_alpha2_coeff": (
        "relative relativistic polarizability correction per alpha^2"),
}


def assemble_budget(
    fields: FieldConfiguration,
    kappa1: float = ADOPTED_KAPPA1,
    kappa2: float = ADOPTED_KAPPA2,
    polarizability_choice: str = "exact",
) -> dict[str, Any]:
    """Full itemized budget of ground-state hydrogen in one field configuration:
    every item of the report, keyed and ordered as _PROVENANCE.

    polarizability_choice selects alpha(0): the exact value 18 pi a0^3
    (default), the computed discrete sum (bound states only), or the exact
    value with the relativistic factor (1 - (28/27) alpha^2).
    """
    const = constants()
    # The --polarizability rule, for the benchmark's replay.
    if polarizability_choice not in POLARIZABILITY_CHOICES:
        raise ValueError(
            f"unknown polarizability choice {polarizability_choice!r}; "
            f"expected one of {POLARIZABILITY_CHOICES}"
        )
    alpha = const.fine_structure_alpha
    a0_cubed = const.bohr_radius_a0**3

    # The volume convention (P = eps0 alpha(0) E): alpha(0) = 4 pi (9/2) a0^3.
    exact = 4.0 * math.pi * POLARIZABILITY_EXACT_AU * a0_cubed
    if polarizability_choice == "exact":
        alpha0_si = exact
    elif polarizability_choice == "relativistic_corrected":
        alpha0_si = exact * (1.0 + RELATIVISTIC_POLARIZABILITY_COEFF * alpha**2)
    else:
        from .sums import polarizability_discrete
        alpha0_si = 4.0 * math.pi * polarizability_discrete().value * a0_cubed

    total_mass_kg = AtomicParams.hydrogen().total_mass * const.electron_mass
    p_a = scaled(const.vacuum_permittivity_eps0 * alpha0_si,
                 cross(fields.B0, fields.E0))
    dp_vac = scaled((-kappa1 + kappa2) * alpha**2, p_a)
    size = norm(p_a)
    shift = 0.0 if size == 0.0 else math.copysign(
        1.0, dot(dp_vac, p_a)) * norm(dp_vac) / size
    factor = HYDROGEN_BINDING_ENERGY_J / (total_mass_kg * const.light_speed_c0**2)
    dp_kin = scaled(factor, fields.Q0)
    return {
        "abraham": p_a,
        "casimir_correction": dp_vac,
        "casimir_relative_shift": shift,
        "kinetic": fields.Q0,
        "kinetic_mass_factor": factor,
        "kinetic_correction": dp_kin,
        "total": tuple(a + c + k + kc for a, c, k, kc in zip(
            p_a, dp_vac, fields.Q0, dp_kin)),
        "transverse_bound": alpha * abs(factor) * norm(fields.Q0) + alpha**3 * size,
        "relativistic_field_bound": alpha**2 * (const.electron_mass
                                                / total_mass_kg) * size,
        "polarizability_vacuum_item": 0.0,
        "alpha0_si": alpha0_si,
        "kappa1": kappa1,
        "kappa2": kappa2,
        "relativistic_darwin_coefficient": _DARWIN_MASS_THIRDS / 3,
        "relativistic_p4_coefficient": _P4_MASS_THIRDS / 3,
        "relativistic_net": (_DARWIN_MASS_THIRDS + _P4_MASS_THIRDS) / 3,
        "relativistic_bartlett_power_alpha2_coeff": RELATIVISTIC_POLARIZABILITY_COEFF,
    }


def handle_budget(p: dict[str, Any]) -> dict[str, tuple[dict[str, Any], str]]:
    """The budget subcommand's report rows, name -> (entry, provenance), for
    its checked parameters; every item in _PROVENANCE order."""
    choice = p["polarizability"].replace("-", "_")
    items = assemble_budget(FieldConfiguration(E0=p["E0"], B0=p["B0"], Q0=p["Q0"]),
                            kappa1=p["kappa1"], kappa2=p["kappa2"],
                            polarizability_choice=choice)
    provenance = {**_PROVENANCE,
                  "alpha0_si": _PROVENANCE["alpha0_si"].format(choice=choice)}
    return {name: ({"value": value, "error": None}, provenance[name])
            for name, value in items.items()}
