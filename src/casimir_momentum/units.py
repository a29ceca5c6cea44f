"""Physical constants and the masses of a two-particle atom.

The spectral modules compute in Hartree atomic units
(hbar = e = m_e = 4*pi*eps0 = 1, c0 = 1/alpha); the SI modules (budget,
renorm) take their constants from the set held here.

Constant values are CODATA 2018 recommended values, hard-coded for
reproducibility.
"""

from __future__ import annotations

from typing import NamedTuple

# CODATA 2018 recommended values (SI).
FINE_STRUCTURE_ALPHA = 7.2973525693e-3   # dimensionless
ELECTRON_MASS = 9.1093837015e-31         # kg
PROTON_MASS = 1.67262192369e-27          # kg
BOHR_RADIUS = 5.29177210903e-11          # m
HARTREE_ENERGY = 4.3597447222071e-18     # J
LIGHT_SPEED = 299792458.0                # m/s (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12   # F/m
HBAR = 1.054571817e-34                   # J s
ELEMENTARY_CHARGE = 1.602176634e-19      # C (exact)

PROTON_ELECTRON_MASS_RATIO = PROTON_MASS / ELECTRON_MASS


class PhysicalConstants(NamedTuple):
    """Fixed CODATA 2018 constant set. Immutable; safe to share across threads."""

    fine_structure_alpha: float = FINE_STRUCTURE_ALPHA
    electron_mass: float = ELECTRON_MASS
    proton_mass: float = PROTON_MASS
    bohr_radius_a0: float = BOHR_RADIUS
    hartree_energy: float = HARTREE_ENERGY
    light_speed_c0: float = LIGHT_SPEED
    vacuum_permittivity_eps0: float = VACUUM_PERMITTIVITY
    hbar: float = HBAR
    elementary_charge_e: float = ELEMENTARY_CHARGE

    @property
    def classical_electron_radius(self) -> float:
        """r_e = alpha^2 * a0 [m]."""
        return self.fine_structure_alpha**2 * self.bohr_radius_a0


_CONSTANTS = PhysicalConstants()


def constants() -> PhysicalConstants:
    """Return the fixed constant set (identical object on every call)."""
    return _CONSTANTS


class _AtomicParams(NamedTuple):
    m1: float
    m2: float = 1.0


class AtomicParams(_AtomicParams):
    """Two-particle atom parameters in electron-mass units.

    m1 is the heavy particle (proton or heavier isotope nucleus), m2 the
    light one (electron, m2 = 1 for ordinary hydrogen). Derived masses are
    exposed as properties so the invariants cannot drift.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AtomicParams":
        self = super().__new__(cls, *args, **kwargs)
        if not self.m1 > self.m2 > 0:
            raise ValueError(f"require m1 > m2 > 0, got m1={self.m1}, m2={self.m2}")
        return self

    @classmethod
    def _make(cls, iterable) -> "AtomicParams":   # so _replace checks too
        return cls(*iterable)

    @property
    def total_mass(self) -> float:
        return self.m1 + self.m2

    @property
    def reduced_mass(self) -> float:
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @classmethod
    def hydrogen(cls) -> "AtomicParams":
        return cls(m1=PROTON_ELECTRON_MASS_RATIO, m2=1.0)
