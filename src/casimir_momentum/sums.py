"""Discrete Rydberg sums with compensated accumulation and power-law tails.

All sums run over the 1s -> np series in a fixed ascending index order and
accumulate with Neumaier compensation, so results are bit-identical from run
to run regardless of how the term values were produced. Truncation beyond
n_max is handled by fitting the term sequence to a/n^3 + b/n^4 on the upper
half of the window and summing the model analytically with the Hurwitz zeta,
computed in-house by `hurwitz_zeta` (direct terms, then an Euler-Maclaurin
tail).
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .hydrogen import oscillator_strength, radial_record, transition_energy

DEFAULT_N_MAX_KAPPA = 200
DEFAULT_N_MAX_POLARIZABILITY = 400
DEFAULT_LAMB_LOG = -8.35     # standard excitation-log value, supplied, never computed

_MIN_TAIL_POINTS = 8

_ZETA_EM_START = 25.0
# B_2k / (2k)! for k = 1..5, the Euler-Maclaurin coefficients used by hurwitz_zeta.
_ZETA_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
                   1.0 / 47900160.0)


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (a + k)^-s for finite s > 1 and a > 0.

    Sums (a + k)^-s directly while a + k < 25, then adds the Euler-Maclaurin
    tail from x = a + k: x^(1-s)/(s-1) + x^-s/2 + sum_k B_2k/(2k)!
    s(s+1)...(s+2k-2) x^(-s-2k+1), k = 1..5. The first term left out (B_12)
    is below 4e-16 relative at x >= 25 for s <= 4; starting the tail at 10
    instead would leave it at 2e-11.
    """
    if not (math.isfinite(s) and math.isfinite(a) and s > 1.0 and a > 0.0):
        raise ValueError(f"hurwitz_zeta needs finite s > 1 and a > 0, got s={s!r}, a={a!r}")
    n_direct = max(0, math.ceil(_ZETA_EM_START - a))
    x = a + n_direct
    x_s = x**-s
    power = x_s / x                 # x^(-s-2k+1) for k = 1
    rising = s                      # s(s+1)...(s+2k-2) for k = 1
    em_terms = []
    for k, coeff in enumerate(_ZETA_EM_COEFFS, start=1):
        em_terms.append(coeff * rising * power)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= x * x
    total = 0.0
    for t in reversed(em_terms):    # smallest first
        total += t
    total += x * x_s / (s - 1.0) + 0.5 * x_s
    for k in reversed(range(n_direct)):
        total += (a + k) ** -s
    return total


def neumaier_cumsum(terms: Sequence[float]) -> list[float]:
    """Running compensated sums of terms, in the given order."""
    total = 0.0
    comp = 0.0
    out = []
    for t in terms:
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        out.append(total + comp)
    return out


class TailEstimate(NamedTuple):
    value: float
    error_bound: float


def tail_extrapolate(ns: Sequence[int], terms: Sequence[float]) -> TailEstimate:
    """Tail sum_{n > ns[-1]} of terms fitted to a/n^3 + b/n^4.

    Needs at least 8 finite fit points of one sign at positive, increasing
    n (all-zero input returns a zero tail); sign-alternating terms are
    refused because the power-law model is then invalid. The fit solves the
    2x2 normal equations with math.fsum. The error bound combines the
    sensitivity to dropping the n^-4 term with the worst relative fit
    residual.
    """
    ns = [float(n) for n in ns]
    terms = [float(t) for t in terms]
    if len(ns) != len(terms):
        raise ValueError("ns and terms must be 1-D sequences of equal length")
    if len(ns) < _MIN_TAIL_POINTS:
        raise ValueError(f"need at least {_MIN_TAIL_POINTS} fit points, got {len(ns)}")
    if not all(map(math.isfinite, ns + terms)):
        raise ValueError("the tail fit input is not finite")
    if ns[0] <= 0 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be positive and strictly increasing")
    if not any(terms):
        return TailEstimate(value=0.0, error_bound=0.0)
    if min(terms) < 0.0 < max(terms):
        raise ValueError("terms change sign; the a/n^3 + b/n^4 tail model is invalid")

    # The columns are n^-3 and n^-4 scaled by n_last^3 and n_last^4: O(1) on
    # the fit window (at most 8 and 16 there), where they are nearly
    # collinear, instead of n^-6..n^-8 entries in the normal matrix.
    n_last = ns[-1]
    try:
        u = [(n_last / n) ** 3 for n in ns]
        v = [(n_last / n) ** 4 for n in ns]
        suu, suv, svv, sut, svt = (math.fsum(map(mul, x, y)) for x, y in (
            (u, u), (u, v), (v, v), (u, terms), (v, terms)))
        det = math.fsum([suu * svv, -suv * suv])
        c3 = math.fsum([svv * sut, -suv * svt]) / det
        c4 = math.fsum([suu * svt, -suv * sut]) / det
        z3 = n_last**3 * hurwitz_zeta(3.0, n_last + 1.0)
        z4 = n_last**4 * hurwitz_zeta(4.0, n_last + 1.0)
        tail = c3 * z3 + c4 * z4
        fitted = [c3 * a + c4 * b for a, b in zip(u, v)]
        rel_resid = max((abs(t - f) / abs(f) for t, f in zip(terms, fitted)
                         if f != 0.0), default=0.0)
        error = abs(tail - sut / suu * z3) + rel_resid * abs(tail)
    except (ArithmeticError, ValueError):   # overflow, det = 0, inf - inf in fsum
        tail = error = math.nan
    if not (math.isfinite(tail) and math.isfinite(error)):
        raise ValueError("the tail fit is not finite: degenerate or overflowing input")
    return TailEstimate(value=tail, error_bound=error)


class SpectralSumResult(NamedTuple):
    """A discrete sum with its truncation trace and tail accounting."""

    value: float
    n_max: int
    partial_sums: tuple[tuple[int, float], ...]
    tail_estimate: float
    error_bound: float

    @property
    def partial(self) -> float:
        """Compensated sum of the explicitly computed terms."""
        return self.partial_sums[-1][1]


def _crude_tail_bound(n_max: int, last_term: float) -> float:
    # Upper bound on the dropped tail assuming t_n * n^3 is nonincreasing,
    # which holds for every series in this module; factor 2 of slack.
    return 2.0 * abs(last_term) * n_max**3 * hurwitz_zeta(3.0, n_max + 1.0)


def _spectral_sum(term: Callable[[int], float], n_max: int,
                  tail: bool) -> SpectralSumResult:
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = range(2, n_max + 1)
    terms = [term(n) for n in ns]
    cum = neumaier_cumsum(terms)
    partial_sums = tuple(zip(ns, cum))
    partial = cum[-1]

    if tail:
        fit_lo = max(2, n_max // 2)
        if n_max - fit_lo + 1 < _MIN_TAIL_POINTS:
            fit_lo = max(2, n_max - _MIN_TAIL_POINTS + 1)
        window = list(range(fit_lo, n_max + 1))
        if len(window) < _MIN_TAIL_POINTS:
            raise ValueError(
                f"n_max={n_max} leaves fewer than {_MIN_TAIL_POINTS} terms "
                "for the tail fit; raise n_max or disable the tail"
            )
        est = tail_extrapolate(window, [terms[n - 2] for n in window])
        return SpectralSumResult(
            value=partial + est.value, n_max=n_max, partial_sums=partial_sums,
            tail_estimate=est.value, error_bound=est.error_bound,
        )
    return SpectralSumResult(
        value=partial, n_max=n_max, partial_sums=partial_sums,
        tail_estimate=0.0, error_bound=_crude_tail_bound(n_max, terms[-1]),
    )


def kappa1_discrete(n_max: int = DEFAULT_N_MAX_KAPPA, tail: bool = True) -> SpectralSumResult:
    """(2/27) sum_n I1(n) I3(n) / dE_n^2 over the np series; positive.

    This is the second-order magnetic-coupling coefficient that lowers the
    field-induced momentum; the n = 2 term alone is 0.1644.
    """
    def term(n: int) -> float:
        rec = radial_record(n)
        return (2.0 / 27.0) * rec.I1 * rec.I3 / transition_energy(n) ** 2

    return _spectral_sum(term, n_max, tail)


def kappa2_discrete(n_max: int = DEFAULT_N_MAX_KAPPA, tail: bool = True) -> SpectralSumResult:
    """(1/27) sum_n I2(n) I3(n) / dE_n over the np series; positive."""
    def term(n: int) -> float:
        rec = radial_record(n)
        return (1.0 / 27.0) * rec.I2 * rec.I3 / transition_energy(n)

    return _spectral_sum(term, n_max, tail)


def polarizability_discrete(n_max: int = DEFAULT_N_MAX_POLARIZABILITY,
                            tail: bool = True) -> SpectralSumResult:
    """Bound-state part of the static dipole polarizability, atomic units.

    (2/3) sum_n I3(n)^2 / dE_n, in units of 4 pi eps0 a0^3. The exact value
    including the continuum is 9/2; the bound states alone give 3.663.
    """
    def term(n: int) -> float:
        i3 = radial_record(n).I3
        return (2.0 / 3.0) * i3 * i3 / transition_energy(n)

    return _spectral_sum(term, n_max, tail)


POLARIZABILITY_EXACT_AU = 4.5   # bound states plus continuum, = 18 pi a0^3 / (4 pi a0^3)


def bethe_sum(n_max: int = DEFAULT_N_MAX_KAPPA, tail: bool = True) -> SpectralSumResult:
    """sum_n I2(n)^2: squared unit-vector matrix elements at constant log."""
    def term(n: int) -> float:
        i2 = radial_record(n).I2
        return i2 * i2

    return _spectral_sum(term, n_max, tail)


def oscillator_strength_sum(n_max: int = DEFAULT_N_MAX_POLARIZABILITY,
                            tail: bool = True) -> SpectralSumResult:
    """Discrete 1s -> np oscillator-strength sum; < 1 by the TRK rule."""
    return _spectral_sum(oscillator_strength, n_max, tail)


def normalization_constant(log_value: float,
                           bethe: SpectralSumResult | float) -> float:
    """Ground-state normalization deficit as the coefficient of alpha^3.

    (1/pi) (-log_value - 1/2) S_B, where S_B is the constant-log sum above
    and log_value is supplied externally (DEFAULT_LAMB_LOG = -8.35 is the
    standard value used in excitation-spectrum averages). With S_B = 0.336
    the coefficient is 0.84.
    """
    s_b = bethe.value if isinstance(bethe, SpectralSumResult) else float(bethe)
    return (-log_value - 0.5) * s_b / math.pi


class PerturbedGroundState(NamedTuple):
    """Ground state polarized by a unit static field, truncated to n <= N.

    Coefficients follow first-order perturbation theory for a z-polarized
    unit field: c_n = <np0|z|1s> / dE_n = I3(n) / (sqrt(3) dE_n), real by
    construction.
    """

    ns: tuple[int, ...]
    coefficients: tuple[float, ...]

    @classmethod
    def build(cls, n_basis: int) -> "PerturbedGroundState":
        if n_basis < 2:
            raise ValueError("basis must contain at least the n = 2 shell")
        ns = tuple(range(2, n_basis + 1))
        coeff = tuple(radial_record(n).I3
                      / (math.sqrt(3.0) * transition_energy(n)) for n in ns)
        return cls(ns=ns, coefficients=coeff)


def first_moment_residual(state: PerturbedGroundState) -> float:
    """|<psi| p_z |psi>| to first order in the field; zero identically.

    Momentum matrix elements between real bound states are purely imaginary
    (<0|p|n> = i (E_0 - E_n) <0|z|n> in atomic units), so with real
    first-order coefficients the bra and ket contributions cancel exactly.
    The cancellation is carried out numerically rather than assumed.
    """
    acc = 0.0 + 0.0j
    for n, c_n in zip(state.ns, state.coefficients):
        d_n = radial_record(n).I3 / math.sqrt(3.0)
        bra_side = 1j * (-transition_energy(n)) * d_n      # <0|p_z|n>
        ket_side = 1j * (+transition_energy(n)) * d_n      # <n|p_z|0>
        acc += c_n * (bra_side + ket_side)
    return abs(acc)
