"""Physical constants and the masses of a two-particle atom.

The spectral modules compute in Hartree atomic units
(hbar = e = m_e = 4*pi*eps0 = 1, c0 = 1/alpha); the SI modules (budget,
renorm) take their constants from the set held here.

Constant values are CODATA 2018 recommended values, each hard-coded once,
as a field default of PhysicalConstants, and read through constants().
"""

from __future__ import annotations

from typing import NamedTuple

# The budget's adopted vacuum couplings, discrete sums plus plane-wave
# continuum parts (0.21 + 0.01, 0.0796 + 0.018), hydrogen's exact static
# polarizability alpha(0) = 9/2 atomic units of 4 pi eps0 a0^3 (bound states
# plus continuum), and the budget's choices of alpha(0): held here so that
# the CLI declares them without loading the budget.
ADOPTED_KAPPA1 = 0.22
ADOPTED_KAPPA2 = 0.0976
POLARIZABILITY_EXACT_AU = 4.5
POLARIZABILITY_CHOICES = ("exact", "computed_discrete",
                          "relativistic_corrected")


class PhysicalConstants(NamedTuple):
    """Fixed CODATA 2018 constant set. Immutable; safe to share across threads."""

    fine_structure_alpha: float = 7.2973525693e-3   # dimensionless
    electron_mass: float = 9.1093837015e-31         # kg
    proton_mass: float = 1.67262192369e-27          # kg
    bohr_radius_a0: float = 5.29177210903e-11       # m
    hartree_energy: float = 4.3597447222071e-18     # J
    light_speed_c0: float = 299792458.0             # m/s (exact)
    vacuum_permittivity_eps0: float = 8.8541878128e-12  # F/m
    hbar: float = 1.054571817e-34                   # J s
    elementary_charge_e: float = 1.602176634e-19    # C (exact)

    @property
    def classical_electron_radius(self) -> float:
        """r_e = alpha^2 * a0 [m]."""
        return self.fine_structure_alpha**2 * self.bohr_radius_a0


_CONSTANTS = PhysicalConstants()


def constants() -> PhysicalConstants:
    """Return the fixed constant set (identical object on every call)."""
    return _CONSTANTS


class AtomicParams(NamedTuple):
    """Two-particle atom parameters in electron-mass units.

    m1 is the heavy particle (proton or heavier isotope nucleus), m2 the
    light one (electron, m2 = 1 for ordinary hydrogen). Derived masses are
    exposed as properties so the invariants cannot drift.

    Precondition m1 > m2 > 0; no flag sets a mass, and hydrogen() meets it.
    """

    m1: float
    m2: float = 1.0

    @property
    def total_mass(self) -> float:
        return self.m1 + self.m2

    @property
    def reduced_mass(self) -> float:
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @classmethod
    def hydrogen(cls) -> "AtomicParams":
        return cls(m1=_CONSTANTS.proton_mass / _CONSTANTS.electron_mass)
