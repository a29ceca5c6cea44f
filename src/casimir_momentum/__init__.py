"""Vacuum corrections to the field-induced (Abraham) momentum of hydrogen.

A numerical laboratory: hydrogen radial matrix elements with dual-route
oracles, Rydberg sums with tail extrapolation, plane-wave continuum
quadrature, cutoff-regularized divergent integrals with mass
renormalization identities, and an itemized pseudo-momentum budget.
"""

__version__ = "0.1.0"

from .budget import (
    ADOPTED_KAPPA1,
    ADOPTED_KAPPA2,
    FieldConfiguration,
    MomentumBudget,
    abraham_momentum,
    assemble_budget,
    casimir_correction,
    effective_mass_factor,
    transverse_bound,
)
from .hydrogen import (
    BoundStateLabel,
    RadialIntegralRecord,
    energy,
    oscillator_strength,
    radial_integral,
    radial_record,
    radial_wavefunction,
)
from .quadrature import (
    ContinuumResult,
    QuadratureError,
    QuadratureSpec,
    integrate_adaptive,
    integrate_to_inf,
    kappa1_continuum,
    kappa2_continuum,
    ymin_sensitivity,
)
from .renorm import (
    CutoffScheme,
    DispersionModel,
    casimir_mass_density,
    delta_mass,
    divergence_exponent,
    reduced_mass_shift,
)
from .sums import (
    PerturbedGroundState,
    SpectralSumResult,
    bethe_sum,
    first_moment_residual,
    kappa1_discrete,
    kappa2_discrete,
    normalization_constant,
    oscillator_strength_sum,
    polarizability_discrete,
    tail_extrapolate,
)
from .units import AtomicParams, PhysicalConstants, constants
