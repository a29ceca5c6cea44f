"""Cutoff-regularized divergent integrals: vacuum mass density and mass shift.

Everything here is SI. Each regularized integral has a closed-form
antiderivative and, where stated, an independent quadrature route; the two
must agree to 1e-10 relative (disagreement beyond 1e-8 is a hard failure,
the module's standing oracle).
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Sequence

from .quadrature import QuadratureSpec, integrate_adaptive
from .units import AtomicParams, PhysicalConstants, constants


class _DispersionModel(NamedTuple):
    kind: str
    eps_r: float | None = None   # dispersionless only
    n_e: float | None = None     # free_electron only, electrons per m^3


class DispersionModel(_DispersionModel):
    """High-frequency susceptibility model eps_r(omega) - 1.

    dispersionless: constant eps_r > 1.
    free_electron:  eps_r(omega) = 1 - n_e e^2 / (eps0 m_e omega^2), the
    plasma form valid above the plasma frequency.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DispersionModel":
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == "dispersionless":
            if self.eps_r is None or self.eps_r <= 1.0:
                raise ValueError("dispersionless model requires eps_r > 1")
        elif self.kind == "free_electron":
            if self.n_e is None or self.n_e <= 0.0:
                raise ValueError("free_electron model requires n_e > 0")
        else:
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "DispersionModel":   # so _replace checks too
        return cls(*iterable)

    @classmethod
    def dispersionless(cls, eps_r: float) -> "DispersionModel":
        return cls(kind="dispersionless", eps_r=eps_r)

    @classmethod
    def free_electron(cls, n_e: float) -> "DispersionModel":
        return cls(kind="free_electron", n_e=n_e)

    def plasma_frequency(self, const: PhysicalConstants) -> float:
        """omega_p = sqrt(n_e e^2 / (eps0 m_e)) [rad/s]; free_electron only."""
        if self.kind != "free_electron":
            raise ValueError("plasma frequency defined for free_electron only")
        return math.sqrt(
            self.n_e * const.elementary_charge_e**2
            / (const.vacuum_permittivity_eps0 * const.electron_mass)
        )


class _CutoffScheme(NamedTuple):
    kind: str
    omega_max_value: float | None = None  # rad/s
    l_min: float | None = None            # m


class CutoffScheme(_CutoffScheme):
    """UV cutoff, either a frequency or a minimum length l_min.

    The length form maps exactly to omega_max = pi c0 / l_min.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CutoffScheme":
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == "frequency":
            if self.omega_max_value is None or self.omega_max_value <= 0:
                raise ValueError("frequency cutoff must be positive")
        elif self.kind == "length":
            if self.l_min is None or self.l_min <= 0:
                raise ValueError("length cutoff must be positive")
        else:
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "CutoffScheme":   # so _replace checks too
        return cls(*iterable)

    @classmethod
    def frequency(cls, omega_max: float) -> "CutoffScheme":
        return cls(kind="frequency", omega_max_value=omega_max)

    @classmethod
    def length(cls, l_min: float) -> "CutoffScheme":
        return cls(kind="length", l_min=l_min)

    def omega_max(self, const: PhysicalConstants | None = None) -> float:
        if self.kind == "frequency":
            return self.omega_max_value
        c0 = (const or constants()).light_speed_c0
        return math.pi * c0 / self.l_min


class MassDensityOverflow(ValueError):
    """The regularized mass density is not representable at this cutoff."""


class PlasmaCutoffWarning(UserWarning):
    """Cutoff below the plasma frequency: the eps_r - 1 model is invalid there."""


def casimir_mass_density(model: DispersionModel, cutoff: CutoffScheme,
                         const: PhysicalConstants | None = None) -> float:
    """Regularized vacuum inertial-mass density [kg/m^3].

    (2/3) (hbar / (pi^3 c0^5)) int_0^omega_max (eps_r(omega) - 1) omega^3
    d omega, by the closed-form antiderivative of each model:
    dispersionless integrands give omega_max^4/4 scaling, the free-electron
    model omega_max^2/2 with a negative sign (eps_r < 1 above the plasma
    frequency). The prefactor is taken as given and not re-derived. Raises
    MassDensityOverflow if the density is not representable: it overflows
    the float range, or underflows to 0 (its true value is never 0).
    Otherwise warns PlasmaCutoffWarning for a free-electron cutoff below the
    plasma frequency.
    """
    const = const or constants()
    omega_max = cutoff.omega_max(const)
    value = _mass_density(model, omega_max, const)
    if model.kind == "free_electron":
        omega_p = model.plasma_frequency(const)
        if omega_max < omega_p:
            warnings.warn(
                f"cutoff {omega_max:.3e} rad/s is below the plasma frequency "
                f"{omega_p:.3e} rad/s; the free-electron eps_r - 1 is not a "
                "valid model there",
                PlasmaCutoffWarning,
                stacklevel=2,
            )
    return value


def _mass_density(model: DispersionModel, omega_max: float,
                  const: PhysicalConstants) -> float:
    """The closed form of casimir_mass_density, without the model warning."""
    front = (2.0 / 3.0) * const.hbar / (math.pi**3 * const.light_speed_c0**5)
    if model.kind == "dispersionless":
        weight, power = model.eps_r - 1.0, 4
    else:
        weight = -model.n_e * const.elementary_charge_e**2 / (
            const.vacuum_permittivity_eps0 * const.electron_mass
        )
        power = 2
    try:
        value = front * weight * omega_max**power / power
    except OverflowError:
        value = math.inf
    if value == 0 or not math.isfinite(value):
        raise MassDensityOverflow(
            f"the mass density {'underflows to 0' if value == 0 else 'overflows'}"
            f" at omega_max = {omega_max:.3e} rad/s")
    return value


class MassShiftMismatch(RuntimeError):
    """Closed-form and quadrature mass shifts disagree beyond 1e-8."""


_DELTA_MASS_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12,
                                  max_subdivisions=4000)


def delta_mass(mass: float, lambda_cut: float,
               const: PhysicalConstants | None = None) -> float:
    """Nonrelativistic electromagnetic self-mass at wavenumber cutoff [kg].

    (4/(3 pi)) alpha hbar^2 int_0^Lambda k dk / (hbar^2 k^2 / 2m + hbar c0 k),
    whose antiderivative gives (8 alpha m / (3 pi)) ln(1 + hbar Lambda /
    (2 m c0)): logarithmically divergent. Both routes are always computed
    and must agree to 1e-10 relative; the closed form is returned.
    """
    if not 0 < mass < math.inf:
        raise ValueError("mass must be positive and finite")
    if not 0 <= lambda_cut < math.inf:
        raise ValueError("cutoff must be finite and >= 0")
    const = const or constants()
    alpha = const.fine_structure_alpha
    hbar = const.hbar
    c0 = const.light_speed_c0

    u_max = hbar * lambda_cut / (mass * c0)   # dimensionless cutoff
    closed = (8.0 * alpha * mass / (3.0 * math.pi)) * math.log1p(u_max / 2.0)
    if lambda_cut == 0.0:
        return 0.0

    # Quadrature in u = hbar k / (m c0): the integrand reduces to
    # (2m/hbar^2) / (2 + u) du, restoring the same prefactor.
    def f(us: list[float]) -> list[float]:
        return [1.0 / (2.0 + u) for u in us]

    breaks = []
    b = u_max
    while b > 1e-6:
        b /= 2.0
        breaks.append(b)
    res = integrate_adaptive(f, 0.0, u_max, _DELTA_MASS_SPEC, breakpoints=breaks)
    quad = (8.0 * alpha * mass / (3.0 * math.pi)) * res.value
    rel = abs(quad - closed) / abs(closed)
    if rel > 1e-8:
        raise MassShiftMismatch(
            f"delta_mass(m={mass!r}, Lambda={lambda_cut!r}): closed={closed!r} "
            f"quadrature={quad!r} (relative {rel:.3e})"
        )
    return closed


def reduced_mass_shift(params: AtomicParams, delta_m1: float,
                       delta_m2: float) -> float:
    """First-order shift of 1/mu when the masses absorb delta_m1, delta_m2.

    Returns -delta_m1/m1^2 - delta_m2/m2^2, in inverse units of the masses
    carried by params. Matches 1/mu(m1 + dm1, m2 + dm2) - 1/mu(m1, m2) to
    first order in dm_i/m_i.
    """
    if not (abs(delta_m1) < params.m1 and abs(delta_m2) < params.m2):
        raise ValueError("mass shifts must be small compared to the masses")
    return -delta_m1 / params.m1**2 - delta_m2 / params.m2**2


def divergence_exponent(model_or_fn: DispersionModel | Callable[[float], float],
                        omega_grid: Sequence[float],
                        const: PhysicalConstants | None = None) -> float:
    """Power of the cutoff in a regularized value: slope of log|v| vs log w.

    Accepts a dispersion model or any callable mapping a cutoff to a value.
    A model is swept through the closed form of casimir_mass_density
    without its PlasmaCutoffWarning, which the caller gets once for the
    cutoff of interest, not once per fit point. Needs at least 4 geometrically
    spaced cutoffs and finite values; |values| must be monotone in the
    cutoff, otherwise a power law is not present and the fit refuses. The
    slope is the closed-form least-squares one, fsum-accumulated.
    """
    grid = [float(w) for w in omega_grid]
    if len(grid) < 4:
        raise ValueError("need at least 4 cutoff points")
    if not all(0.0 < w < math.inf for w in grid):
        raise ValueError("cutoffs must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("cutoff grid must be strictly ascending")
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    if max(ratios) / min(ratios) > 1.5:
        raise ValueError("cutoff grid must be (approximately) geometric")

    if isinstance(model_or_fn, DispersionModel):
        model = model_or_fn
        const = const or constants()
        fn = lambda w: _mass_density(model, w, const)
    else:
        fn = model_or_fn
    not_finite = ValueError("a value in the sweep is not finite; "
                            "cannot fit a power law")
    try:
        values = [abs(float(fn(w))) for w in grid]
    except OverflowError:
        raise not_finite from None
    if not all(map(math.isfinite, values)):
        raise not_finite
    if any(v == 0.0 for v in values):
        raise ValueError("zero value in the sweep; cannot fit a power law")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValueError("|values| are not monotone over the cutoff grid")
    xs = [math.log(w) for w in grid]
    ys = [math.log(v) for v in values]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    return (math.fsum(d * (y - y_mean) for d, y in zip(dx, ys))
            / math.fsum(d * d for d in dx))
