"""Cutoff-regularized divergent integrals: vacuum mass density and mass shift.

Everything here is SI. Each regularized integral is evaluated by its
closed-form antiderivative. The adaptive engine checks the self-mass
against its integral in `verify` (the delta_mass_engine row), never here.
The handlers of the renorm and rho-c subcommands live here too, so a
process compiles them only when it runs one of them.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Callable, NamedTuple, Sequence

from .units import AtomicParams, PhysicalConstants, constants


class DispersionModel(NamedTuple):
    """High-frequency susceptibility eps_r(omega) - 1 = weight omega^(power-4).

    dispersionless: constant eps_r, weight eps_r - 1 and power 4.
    free_electron:  eps_r(omega) = 1 - n_e e^2 / (eps0 m_e omega^2), the
    plasma form valid above the plasma frequency sqrt(-weight): weight
    -n_e e^2 / (eps0 m_e) and power 2.

    Preconditions eps_r > 1 and n_e > 0, as the rho-c --eps-r and --n-e
    checks enforce.
    """

    weight: float
    power: int

    @classmethod
    def dispersionless(cls, eps_r: float) -> "DispersionModel":
        return cls(eps_r - 1.0, 4)

    @classmethod
    def free_electron(cls, n_e: float) -> "DispersionModel":
        """n_e in electrons per m^3."""
        const = constants()
        return cls(-n_e * const.elementary_charge_e**2 / (
            const.vacuum_permittivity_eps0 * const.electron_mass), 2)


class CutoffScheme(NamedTuple):
    """UV frequency cutoff omega [rad/s]; a minimum length l_min maps
    exactly to omega = pi c0 / l_min.

    Precondition: a positive cutoff, as the rho-c --omega-max and --l-min
    checks enforce (the default l_min is r_e).
    """

    omega: float

    @classmethod
    def frequency(cls, omega_max: float) -> "CutoffScheme":
        return cls(omega_max)

    @classmethod
    def length(cls, l_min: float) -> "CutoffScheme":
        return cls(math.pi * constants().light_speed_c0 / l_min)

    def omega_max(self, const: PhysicalConstants | None = None) -> float:
        """The cutoff frequency. `const` steers nothing: it is accepted
        because the benchmark's replay (bench/worker.py) passes one."""
        return self.omega


class MassDensityOverflow(ValueError):
    """The regularized mass density is not representable at this cutoff."""


class PlasmaCutoffWarning(UserWarning):
    """Cutoff below the plasma frequency: the eps_r - 1 model is invalid there."""


def casimir_mass_density(model: DispersionModel, cutoff: CutoffScheme,
                         const: PhysicalConstants | None = None) -> float:
    """Regularized vacuum inertial-mass density [kg/m^3].

    (2/3) (hbar / (pi^3 c0^5)) int_0^omega_max (eps_r(omega) - 1) omega^3
    d omega, by its closed-form antiderivative weight omega_max^power / power:
    omega_max^4/4 scaling for dispersionless integrands, omega_max^2/2 with a
    negative sign for the free-electron model (eps_r < 1 above the plasma
    frequency). The prefactor is taken as given and not re-derived. Raises
    MassDensityOverflow if the density is not representable: it overflows
    the float range, or underflows to 0 (its true value is never 0).
    Otherwise warns PlasmaCutoffWarning for a free-electron cutoff below the
    plasma frequency.
    """
    const = const or constants()
    omega_max = cutoff.omega_max(const)
    value = _mass_density(model, omega_max, const)
    omega_p = math.sqrt(-model.weight) if model.weight < 0 else 0.0
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
    try:
        value = front * model.weight * omega_max**model.power / model.power
    except OverflowError:
        value = math.inf
    if value == 0 or not math.isfinite(value):
        raise MassDensityOverflow(
            f"the mass density {'underflows to 0' if value == 0 else 'overflows'}"
            f" at omega_max = {omega_max:.3e} rad/s")
    return value


def delta_mass(mass: float, lambda_cut: float) -> float:
    """Nonrelativistic electromagnetic self-mass at wavenumber cutoff [kg].

    (4/(3 pi)) alpha hbar^2 int_0^Lambda k dk / (hbar^2 k^2 / 2m + hbar c0 k),
    whose antiderivative gives (8 alpha m / (3 pi)) ln(1 + hbar Lambda /
    (2 m c0)): logarithmically divergent. Returns this closed form, with
    log1p so that small cutoffs keep their relative precision. Its oracle is
    verify's delta_mass_engine row, which integrates the same integrand with
    the adaptive engine.
    """
    # The renorm handler's --cutoff-ratio checks, for the benchmark's replay.
    if not 0 < mass < math.inf:
        raise ValueError("mass must be positive and finite")
    if not 0 <= lambda_cut < math.inf:
        raise ValueError("cutoff must be finite and >= 0")
    const = constants()
    u_max = const.hbar * lambda_cut / (mass * const.light_speed_c0)
    return (8.0 * const.fine_structure_alpha * mass / (3.0 * math.pi)) \
        * math.log1p(u_max / 2.0)


def reduced_mass_shift(params: AtomicParams, delta_m1: float,
                       delta_m2: float) -> float:
    """First-order shift of 1/mu when the masses absorb delta_m1, delta_m2.

    Returns -delta_m1/m1^2 - delta_m2/m2^2, in inverse units of the masses
    carried by params. Matches 1/mu(m1 + dm1, m2 + dm2) - 1/mu(m1, m2) to
    first order in dm_i/m_i.
    """
    # The renorm handler's self-mass bound, for the benchmark's replay.
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
    # The handlers build valid grids; these guard the benchmark's replay.
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


# --- the renorm and rho-c subcommands ----------------------------------------
# Each handler takes its subcommand's checked parameters and returns its
# report rows, name -> (entry, provenance). A refusal is a ValueError that
# names the flag; the command line turns it into exit 2.

_Row = tuple[dict[str, Any], str]


def _row(value: float, provenance: str) -> _Row:
    return {"value": value, "error": None}, provenance


def handle_renorm(p: dict[str, Any]) -> dict[str, _Row]:
    const = constants()
    rows: dict[str, _Row] = {}
    deltas = {}
    for label, mass in (("electron", const.electron_mass),
                        ("proton", const.proton_mass)):
        lam = p["cutoff_ratio"] * mass * const.light_speed_c0 / const.hbar
        if not math.isfinite(lam):
            raise ValueError(f"--cutoff-ratio overflows the {label} cutoff")
        deltas[label] = delta_mass(mass, lam)
        rows[f"delta_mass_{label}"] = _row(
            deltas[label], "electromagnetic self-mass (4 alpha hbar^2/3pi) "
            "int k dk/(hbar^2k^2/2m + hbar c0 k) at hbar*Lambda/(m c0) = "
            f"{p['cutoff_ratio']:g}")
    big = p["big_ratio"] * const.electron_mass * const.light_speed_c0 / const.hbar
    grid = [big * 2.0**k for k in range(5)]
    if not math.isfinite(grid[-1]):
        raise ValueError("--big-ratio overflows the electron cutoff")
    rows["doubling_increment_electron"] = _row(
        delta_mass(const.electron_mass, 2 * big)
        - delta_mass(const.electron_mass, big),
        "delta_m(2 Lambda) - delta_m(Lambda) at hbar*Lambda/(m c0) = "
        f"{p['big_ratio']:g}; tends to (8 alpha m/3pi) ln 2")
    rows["doubling_increment_limit"] = _row(
        (8 * const.fine_structure_alpha * const.electron_mass / (3 * math.pi))
        * math.log(2.0), "(8 alpha m/3pi) ln 2")
    atom = AtomicParams.hydrogen()
    dm1, dm2 = (deltas[label] / const.electron_mass for label in ("proton", "electron"))
    if not (dm1 < atom.m1 and dm2 < atom.m2):
        raise ValueError("--cutoff-ratio makes a self-mass reach its mass "
                         "(above about 2.6e70)")
    rows["reduced_mass_shift"] = _row(
        reduced_mass_shift(atom, dm1, dm2),
        "-dm1/m1^2 - dm2/m2^2 in electron-mass units; first-order change of "
        "1/mu when both masses absorb their self-energy")
    rows["delta_mass_log_slope"] = _row(divergence_exponent(
        lambda lam: delta_mass(const.electron_mass, lam), grid),
        "fitted d log(delta_m)/d log(Lambda) at large cutoff; tends to 0 "
        "(logarithmic divergence)")
    return rows


def handle_rho_c(p: dict[str, Any]) -> dict[str, _Row]:
    const = constants()
    if p["model"] == "dispersionless":
        model, model_flag = DispersionModel.dispersionless(p["eps_r"]), "--eps-r"
    else:
        model, model_flag = DispersionModel.free_electron(p["n_e"]), "--n-e"
    if p["omega_max"] is not None:
        cutoff, cutoff_flag = CutoffScheme.frequency(p["omega_max"]), "--omega-max"
    else:
        l_min = p["l_min"] if p["l_min"] is not None \
            else const.classical_electron_radius
        cutoff, cutoff_flag = CutoffScheme.length(l_min), "--l-min"
    omega = cutoff.omega_max(const)
    try:
        value = casimir_mass_density(model, cutoff, const)
        if p["fit_exponent"]:
            grid = [omega * 2.0**k for k in range(4)]
            slope = divergence_exponent(model, grid, const)
    except MassDensityOverflow as exc:
        raise ValueError(f"{exc} (set by {cutoff_flag} and {model_flag})") from None
    rows = {
        "rho_c": _row(value, "(2/3)(hbar/pi^3 c0^5) int (eps_r - 1) omega^3 "
                      "d omega up to the cutoff; closed-form antiderivative per "
                      "model"),
        "omega_max": _row(omega, "effective frequency cutoff (length cutoffs "
                          "map as pi c0 / l_min)"),
    }
    if p["model"] == "free-electron":
        reference = p["n_e"] * const.electron_mass / const.fine_structure_alpha
        rows["reference_mass_density"] = _row(reference, "n_e m_e / alpha")
        rows["ratio_to_reference"] = _row(abs(value) / reference, "|rho_c| / "
                                          "(n_e m_e/alpha); order unity at the "
                                          "electron-radius cutoff")
    if p["fit_exponent"]:
        rows["divergence_exponent"] = _row(
            slope, "least-squares slope of log|rho_c| against log omega_max "
            "over a geometric cutoff sweep (4 for dispersionless, 2 for the "
            "free-electron model)")
    return rows
