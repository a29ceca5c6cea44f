"""Itemized pseudo-momentum budget for a hydrogen atom in crossed fields.

Assembles the conserved-momentum decomposition: classical field-induced
(Abraham) momentum, its quantum-vacuum (Casimir) correction, the
binding-energy correction to the kinetic momentum with its Darwin and p^4
parts itemized, and order-of-magnitude bounds that are reported but never
added into totals. All vectors are SI (kg m/s); inputs are SI field vectors.
Vectors are 3-tuples of floats (Vec3); cross, dot, norm and scaling are the
four helpers below.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .units import (ADOPTED_KAPPA1, ADOPTED_KAPPA2, HARTREE_ENERGY,
                    POLARIZABILITY_CHOICES, AtomicParams, constants)

# Exact static polarizability of ground-state hydrogen in the volume
# convention (P = eps0 alpha(0) E): alpha(0) = 18 pi a0^3.
POLARIZABILITY_VOLUME_AU = 18.0 * math.pi

# Relative relativistic correction to the static polarizability, in units
# of alpha^2 (Bartlett-Power coefficient).
RELATIVISTIC_POLARIZABILITY_COEFF = -28 / 27

# Itemized binding-energy mass coefficients in thirds: the Darwin (vacuum
# longitudinal) part and the p^4 part. Their sum, 3 thirds, is exactly 1.
_DARWIN_MASS_THIRDS = 8
_P4_MASS_THIRDS = -5

HYDROGEN_BINDING_ENERGY_J = -0.5 * HARTREE_ENERGY  # ground-state binding energy


Vec3 = tuple[float, float, float]


def _vec(v) -> Vec3:
    try:
        vec = tuple(float(c) for c in v)
    except TypeError:
        raise ValueError(f"expected a 3-vector, got {v!r}") from None
    if len(vec) != 3:
        raise ValueError(f"expected a 3-vector, got {len(vec)} components")
    return vec


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


class _FieldConfiguration(NamedTuple):
    E0: Vec3  # V/m
    B0: Vec3  # T
    Q0: Vec3  # kg m/s


class FieldConfiguration(_FieldConfiguration):
    """External fields and the atom's pseudo-momentum, SI units; each is
    stored as a 3-tuple of floats."""

    __slots__ = ()

    def __new__(cls, E0, B0, Q0) -> "FieldConfiguration":
        return super().__new__(cls, _vec(E0), _vec(B0), _vec(Q0))

    @classmethod
    def _make(cls, iterable) -> "FieldConfiguration":   # so _replace coerces too
        return cls(*iterable)


class MomentumBudget(NamedTuple):
    """Itemized momentum contributions; bounds are never part of totals."""

    abraham: Vec3                       # kg m/s
    casimir_correction: Vec3            # kg m/s
    kinetic: Vec3                       # Q0, kg m/s
    kinetic_mass_factor: float          # E_bind / (M c0^2), dimensionless
    kinetic_correction: Vec3            # kinetic_mass_factor * Q0
    relativistic_terms: Mapping[str, float]
    transverse_bound: float             # magnitude estimate, kg m/s
    relativistic_field_bound: float     # order alpha^2 (m_e/M) |abraham|
    polarizability_vacuum_item: float   # zero: no alpha^2 vacuum part exists
    kappa1: float
    kappa2: float
    alpha0_si: float                    # polarizability volume, m^3
    provenance: Mapping[str, str]

    @property
    def casimir_relative_shift(self) -> float:
        """casimir_correction / |abraham|: the pure number (-k1 + k2) a^2."""
        size = norm(self.abraham)
        if size == 0.0:
            return 0.0
        sign = math.copysign(1.0, dot(self.casimir_correction, self.abraham))
        return sign * norm(self.casimir_correction) / size

    def total(self) -> Vec3:
        """Sum of the itemized contributions, bounds excluded."""
        return tuple(a + c + k + kc for a, c, k, kc in zip(
            self.abraham, self.casimir_correction, self.kinetic,
            self.kinetic_correction))


def abraham_momentum(fields: FieldConfiguration, alpha0_si: float) -> Vec3:
    """Classical field-induced momentum eps0 alpha(0) B0 x E0 [kg m/s].

    alpha0_si is the polarizability volume in m^3 (P = eps0 alpha0 E).
    """
    if alpha0_si <= 0:
        raise ValueError("polarizability must be positive")
    return scaled(constants().vacuum_permittivity_eps0 * alpha0_si,
                  cross(fields.B0, fields.E0))


def casimir_correction(kappa1: float, kappa2: float, abraham: Vec3) -> Vec3:
    """Quantum-vacuum correction (-kappa1 + kappa2) alpha^2 * abraham."""
    return scaled((-kappa1 + kappa2) * constants().fine_structure_alpha**2,
                  _vec(abraham))


def effective_mass_factor(binding_energy: float, total_mass: float) -> float:
    """Relative inertial-mass shift E_bind / (M c0^2) from the binding energy.

    binding_energy in J (negative for a bound state), total_mass in kg. The
    budget itemizes this factor into the Darwin part (8/3) and the p^4 part
    (-5/3), which sum to 1 exactly.
    """
    if binding_energy > 0:
        raise ValueError("binding energy must be <= 0 for a bound state")
    if total_mass <= 0:
        raise ValueError("total mass must be positive")
    return binding_energy / (total_mass * constants().light_speed_c0**2)


def transverse_bound(fields: FieldConfiguration, factor: float,
                     abraham: Vec3) -> float:
    """Order-of-magnitude bound on the transverse-photon momentum [kg m/s].

    alpha |factor| |Q0| + alpha^3 |P_A|, with factor = E_bind/(M c0^2) (see
    effective_mass_factor) and P_A = abraham; an estimate only, one power of
    alpha below the longitudinal terms, and never added into totals.
    """
    alpha = constants().fine_structure_alpha
    q_part = alpha * abs(factor) * norm(fields.Q0)
    field_part = alpha**3 * norm(abraham)
    return q_part + field_part


# The provenance of every item the budget report carries, in report order;
# "relativistic_<key>" is the item of relativistic_terms[key].
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
) -> MomentumBudget:
    """Full itemized budget of ground-state hydrogen in one field configuration.

    polarizability_choice selects alpha(0): the exact value 18 pi a0^3
    (default), the computed discrete sum (bound states only), or the exact
    value with the relativistic factor (1 - (28/27) alpha^2).
    """
    const = constants()
    if polarizability_choice not in POLARIZABILITY_CHOICES:
        raise ValueError(
            f"unknown polarizability choice {polarizability_choice!r}; "
            f"expected one of {POLARIZABILITY_CHOICES}"
        )
    alpha = const.fine_structure_alpha
    a0_cubed = const.bohr_radius_a0**3

    if polarizability_choice == "exact":
        alpha0_si = POLARIZABILITY_VOLUME_AU * a0_cubed
    elif polarizability_choice == "relativistic_corrected":
        alpha0_si = (POLARIZABILITY_VOLUME_AU * a0_cubed
                     * (1.0 + RELATIVISTIC_POLARIZABILITY_COEFF * alpha**2))
    else:
        from .sums import polarizability_discrete
        alpha0_si = 4.0 * math.pi * polarizability_discrete().value * a0_cubed

    total_mass_kg = AtomicParams.hydrogen().total_mass * const.electron_mass
    p_a = abraham_momentum(fields, alpha0_si)
    dp_vac = casimir_correction(kappa1, kappa2, p_a)
    factor = effective_mass_factor(HYDROGEN_BINDING_ENERGY_J, total_mass_kg)
    rel_terms = {
        "darwin_coefficient": _DARWIN_MASS_THIRDS / 3,
        "p4_coefficient": _P4_MASS_THIRDS / 3,
        "net": (_DARWIN_MASS_THIRDS + _P4_MASS_THIRDS) / 3,
        "bartlett_power_alpha2_coeff": RELATIVISTIC_POLARIZABILITY_COEFF,
    }
    t_bound = transverse_bound(fields, factor, p_a)
    field_bound = alpha**2 * (const.electron_mass / total_mass_kg) * norm(p_a)
    return MomentumBudget(
        abraham=p_a,
        casimir_correction=dp_vac,
        kinetic=fields.Q0,
        kinetic_mass_factor=factor,
        kinetic_correction=scaled(factor, fields.Q0),
        relativistic_terms=rel_terms,
        transverse_bound=t_bound,
        relativistic_field_bound=field_bound,
        polarizability_vacuum_item=0.0,
        kappa1=kappa1,
        kappa2=kappa2,
        alpha0_si=alpha0_si,
        provenance={**_PROVENANCE, "alpha0_si": _PROVENANCE["alpha0_si"].format(
            choice=polarizability_choice)},
    )
