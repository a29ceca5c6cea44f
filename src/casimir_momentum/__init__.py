"""Vacuum corrections to the field-induced (Abraham) momentum of hydrogen.

A numerical laboratory: hydrogen radial matrix elements with dual-route
oracles, Rydberg sums with tails in closed form, plane-wave continuum
integrals in closed form with an adaptive quadrature engine as their
oracle, cutoff-regularized divergent integrals with mass renormalization
identities, and an itemized pseudo-momentum budget.

`import casimir_momentum` loads the sums and quadrature modules only, whose
exports a library sweep calls. The exports of budget, renorm and units load
on first access. The radial integrals of `hydrogen` and the adaptive
engine of `engine`, which only `verify` reads, are reached through their
submodules.
"""

__version__ = "0.1.0"

from .quadrature import (ContinuumResult, QuadratureSpec, kappa1_continuum,
                         kappa2_continuum, ymin_sensitivity)
from .sums import (SpectralSumResult, bethe_sum, kappa1_discrete,
                   kappa2_discrete, normalization_constant,
                   oscillator_strength_sum, polarizability_discrete)

# Each lazy export and the submodule it comes from (PEP 562).
_LAZY = {name: module for module, names in (
    ("budget", ("ADOPTED_KAPPA1", "ADOPTED_KAPPA2", "FieldConfiguration",
                "assemble_budget")),
    ("renorm", ("CutoffScheme", "DispersionModel", "casimir_mass_density",
                "delta_mass", "divergence_exponent", "reduced_mass_shift")),
    ("units", ("AtomicParams", "PhysicalConstants", "constants")),
) for name in names}

__all__ = [
    "ContinuumResult", "QuadratureSpec", "kappa1_continuum",
    "kappa2_continuum", "ymin_sensitivity",
    "SpectralSumResult", "bethe_sum", "kappa1_discrete", "kappa2_discrete",
    "normalization_constant", "oscillator_strength_sum",
    "polarizability_discrete",
    *_LAZY,
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
