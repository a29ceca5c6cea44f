"""The handlers of the kappas, polarizability, bethe and continuum
subcommands: the spectral sums of `sums` and the continuum integrals of
`quadrature` as report rows.

They live apart from `cli`, which imports this module only when one of
these subcommands runs, so the other subcommands compile none of them.
They are not in `sums` or `quadrature` either: the package root loads both
for the library sweep, so every process would compile them there.
"""

from __future__ import annotations

from typing import Any

from . import quadrature, sums, units

# Each handler takes its subcommand's checked parameters and returns its
# report rows, name -> (entry, provenance).

_Row = tuple[dict[str, Any], str]


def _row(value: Any, provenance: str, error: Any = None) -> _Row:
    return {"value": value, "error": error}, provenance


def _sum_row(res: sums.SpectralSumResult, provenance: str) -> _Row:
    return {"value": res.value, "error": res.error_bound,
            "tail_estimate": res.tail_estimate, "partial": res.partial,
            "n_max": res.n_max}, (f"{provenance}; tail beyond n_max from the exact "
                                  "1/n^2 expansion of the terms (0 with --tail off)")


def handle_kappas(p: dict[str, Any]) -> dict[str, _Row]:
    k1d = sums.kappa1_discrete(p["n_max"], p["tail"])
    k2d = sums.kappa2_discrete(p["n_max"], p["tail"])
    k1c = quadrature.kappa1_continuum(p["ymin"])
    k2c = quadrature.kappa2_continuum(p["ymin2"])
    k1 = k1d.value + k1c.value
    k2 = k2d.value + k2c.value
    net = -k1 + k2
    alpha = units.constants().fine_structure_alpha
    return {
        "kappa1_discrete": _sum_row(k1d, "(2/27) sum I1(n) I3(n)/dE_n^2 over np states"),
        "kappa2_discrete": _sum_row(k2d, "(1/27) sum I2(n) I3(n)/dE_n over np states"),
        "kappa1_continuum": _row(k1c.value, "plane-wave continuum integral of "
                                 "y^3/(y^2+1)^3 (arctan y/y^2 - 1/(y sqrt(y^2+1))) "
                                 "from y_min", error=k1c.estimated_error),
        "kappa2_continuum": _row(k2c.value, "(256/27pi) integral of y^4/(y^2+1)^6 "
                                 "from y_min", error=k2c.estimated_error),
        "kappa1_total": _row(k1, "discrete sum plus continuum part"),
        "kappa2_total": _row(k2, "discrete sum plus continuum part"),
        "net_coefficient": _row(net, "-kappa1_total + kappa2_total"),
        "relative_momentum_shift": _row(net * alpha**2, "net coefficient times "
                                        "alpha^2; relative vacuum shift of the "
                                        "field-induced momentum"),
    }


def handle_polarizability(p: dict[str, Any]) -> dict[str, _Row]:
    pol = sums.polarizability_discrete(p["n_max"], p["tail"])
    osc = sums.oscillator_strength_sum(p["n_max"], p["tail"])
    exact = units.POLARIZABILITY_EXACT_AU
    return {
        "polarizability_discrete": _sum_row(pol, "(2/3) sum I3(n)^2/dE_n, atomic "
                                            "units of 4 pi eps0 a0^3; bound "
                                            "states only"),
        "polarizability_exact_total": _row(exact, "exact static polarizability "
                                           "18 pi a0^3 = 4.5 atomic units, bound "
                                           "plus continuum"),
        "continuum_deficit": _row(exact - pol.value, "exact total minus the "
                                  "discrete sum", error=pol.error_bound),
        "oscillator_strength_sum": _sum_row(osc, "(2/3) sum dE_n I3(n)^2; below "
                                            "1 by the one-electron sum rule"),
    }


def handle_bethe(p: dict[str, Any]) -> dict[str, _Row]:
    sb = sums.bethe_sum(p["n_max"], p["tail"])
    return {
        "bethe_sum": _sum_row(sb, "sum of squared unit-vector matrix elements "
                              "|<1s|r_hat|np>|^2 at constant excitation log"),
        "log_value": _row(p["log_value"], "externally supplied excitation-"
                          "spectrum logarithm (input, never computed here)"),
        "normalization_coefficient": _row(
            sums.normalization_constant(p["log_value"], sb),
            "(1/pi)(-log - 1/2) S_B; ground-state normalization deficit per "
            "alpha^3"),
    }


def handle_continuum(p: dict[str, Any]) -> dict[str, _Row]:
    names = ("kappa1", "kappa2") if p["which"] == "both" else (p["which"],)
    return {f"{name}_continuum[ymin={row.y_min:g}]": _row(
        row.value, "plane-wave continuum integral, lower cutoff swept to "
        "expose the q > 1/a0 validity limit", error=row.estimated_error)
        for name in names
        for row in quadrature.ymin_sensitivity(name, p["ymin_grid"])}
