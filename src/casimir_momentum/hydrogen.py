"""Hydrogen bound states and the 1s<->np radial integrals (atomic units).

Every radial integral I_p(n) = int_0^inf R_10(r) R_n1(r) r^p dr, p in
{1, 2, 3}, is available for every n >= 2 through two independent routes:

* closed_form -- float closed forms. With C = 8/(n^3 sqrt((n-1) n (n+1))),
  lambda = (n+1)/n and q = (n-1)/(n+1):
      I_3 = 2 C (n-1) n (n+1) ((n-1)/n)^(n-3) lambda^-(n+3)
      I_2 = (n^2 - 1)/(2 n^2) I_3
      I_1 = C lambda^-3 sum_{j=0}^{n-2} (j+1)(j+2) q^j
  I_3 is Gordon's dipole integral (Ann. Phys. 2, 1031, 1929; Bethe &
  Salpeter 1957); all three follow from integrating the Laguerre expansion
  of R_n1 against 2 e^(-r) r^(p+1) term by term;
* quadrature  -- adaptive Gauss-Kronrod integration of the numerically
  evaluated wavefunctions on [0, r_cut(n)], r_cut(n) = 2n(n+15).

The two routes form the module's built-in oracle and must agree to 1e-10
in relative terms; a disagreement beyond 1e-8 raises hard.

The angular sums over m and Cartesian components that accompany these
integrals in second-order coefficients reduce to a unit factor for
s <-> p transitions and are never enumerated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .quadrature import QuadratureSpec, integrate_adaptive


@dataclass(frozen=True)
class BoundStateLabel:
    """Principal and orbital quantum numbers of a bound state, l <= 1."""

    n: int
    l: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0 <= self.l <= min(1, self.n - 1):
            raise ValueError(f"require 0 <= l <= min(1, n-1), got n={self.n}, l={self.l}")


@dataclass(frozen=True)
class RadialIntegralRecord:
    """The triple I_1(n), I_2(n), I_3(n) with the route that produced it."""

    n: int
    I1: float
    I2: float
    I3: float
    method: str  # "closed_form" or "quadrature"

    def integral(self, p: int) -> float:
        return (self.I1, self.I2, self.I3)[p - 1]


def energy(n: int) -> float:
    """Bound-state energy -1/(2 n^2) hartree."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return -0.5 / (n * n)


def transition_energy(n: int) -> float:
    """Excitation energy E_n - E_1 in hartree."""
    return energy(n) - energy(1)


def _laguerre_scaled(k: int, alpha: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Laguerre L_k^alpha(x) as (mantissa, exp2), elementwise.

    Upward three-term recurrence in the degree with power-of-two rescaling,
    so intermediate values never overflow even far outside the oscillatory
    region (x >> 4k), where the polynomial grows like x^k/k!.

    The rescale test runs every `every` steps and after the last one. As
    (i+1) |L_{i+1}| <= (3i + 1 + 2 alpha + |x|) max(|L_i|, |L_{i-1}|), a step
    grows that max by at most g = 3k + 2 alpha + 1 + max|x|; g^every <= 2^400
    keeps values, and products before the division, below 2^900 between tests.
    """
    x = np.asarray(x, dtype=float)
    exp2 = np.zeros_like(x)
    prev = np.ones_like(x)
    if k == 0:
        return prev, exp2
    cur = 1.0 + alpha - x
    g = 3 * k + 2 * alpha + 1 + float(np.max(np.abs(x), initial=0.0))
    every = max(1, int(400 // math.log2(g)))
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1 + alpha - x) * cur - (i + alpha) * prev) / (i + 1)
        if i % every == 0 or i == k - 1:
            big = np.maximum(np.abs(cur), np.abs(prev)) > 2.0**500
            if np.any(big):
                cur[big] *= 2.0**-512
                prev[big] *= 2.0**-512
                exp2[big] += 512.0
    return cur, exp2


def radial_wavefunction(state: BoundStateLabel, r: np.ndarray | float) -> np.ndarray | float:
    """Normalized radial function R_{nl}(r), r in Bohr radii, R in a0^(-3/2).

    R_{nl}(r) = (2/n^2) sqrt((n-l-1)!/(n+l)!) (2r/n)^l e^(-r/n)
                L_{n-l-1}^{2l+1}(2r/n)

    The factorial ratio collapses to 1/sqrt(prod_{k=n-l}^{n+l} k), so the
    normalization needs no large factorials; the Laguerre factor is evaluated
    with the rescaled recurrence above.
    """
    n, l = state.n, state.l
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(r >= 0):
        raise ValueError("r must be >= 0")
    norm = 2.0 / n**2 / math.sqrt(math.prod(range(n - l, n + l + 1)))
    x = 2.0 * r / n
    mant, exp2 = _laguerre_scaled(n - l - 1, 2 * l + 1, x)
    out = norm * x**l * mant * np.exp(exp2 * math.log(2.0) - r / n)
    return float(out[0]) if scalar else out


def _closed_form(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by the closed forms above, powers through log1p; with
    d = 1 - q, the sum in I_1 is (2 - q^(n-1) ((n-1) n d^2 + 2 (n-1) d + 2)) / d^3."""
    c = 8.0 / (n**3 * math.sqrt((n - 1) * n * (n + 1)))
    i3 = 2.0 * c * (n - 1) * n * (n + 1) * math.exp(
        (n - 3) * math.log1p(-1.0 / n) - (n + 3) * math.log1p(1.0 / n))
    i2 = (n * n - 1) / (2.0 * n * n) * i3
    d = 2.0 / (n + 1)
    q_pow = math.exp((n - 1) * math.log1p(-d))
    s = (2.0 - q_pow * ((n - 1) * n * d * d + 2 * (n - 1) * d + 2)) / d**3
    return c * (n / (n + 1)) ** 3 * s, i2, i3


def integration_cutoff(n: int) -> float:
    """Upper limit 2n(n+15) for the quadrature route, in Bohr radii."""
    return 2.0 * n * (n + 15.0)


def _geometric_breakpoints(r_max: float, first: float = 0.5) -> list[float]:
    pts = []
    r = first
    while r < r_max:
        pts.append(r)
        r *= 2.0
    return pts


_RADIAL_QUAD_SPEC = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12,
                                   max_subdivisions=4000)


def _quadrature_integrals(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by adaptive quadrature in one pass: the engine places its
    nodes by segment alone and the integrands differ only by r^p, so
    2 e^(-r) R_n1(r) is evaluated once per node array."""
    state = BoundStateLabel(n, 1)
    r_cut = integration_cutoff(n)
    weights: dict[bytes, np.ndarray] = {}

    def f(r: np.ndarray, p: int) -> np.ndarray:
        key = r.tobytes()
        if key not in weights:
            weights[key] = 2.0 * np.exp(-r) * radial_wavefunction(state, r)
        return weights[key] * r**p

    return tuple(integrate_adaptive(partial(f, p=p), 0.0, r_cut, _RADIAL_QUAD_SPEC,
                                    breakpoints=_geometric_breakpoints(r_cut)).value
                 for p in (1, 2, 3))


class RadialIntegralMismatch(RuntimeError):
    """Closed-form and quadrature values of I_p(n) disagree beyond 1e-8."""


def radial_integral(n: int, p: int) -> float:
    """I_p(n) for n >= 2, p in {1, 2, 3}, by closed form checked by quadrature.

    The two routes must agree to 1e-8 relative or the call fails hard (a
    numerics bug, not a data condition).
    """
    if p not in (1, 2, 3):
        raise ValueError("p must be 1, 2 or 3")
    closed = radial_record(n).integral(p)
    quad = _quadrature_integrals(n)[p - 1]
    rel = abs(quad - closed) / abs(closed)
    if rel > 1e-8:
        raise RadialIntegralMismatch(
            f"I_{p}({n}): closed_form={closed!r} quadrature={quad!r} "
            f"(relative {rel:.3e})"
        )
    return closed


@lru_cache(maxsize=None)
def radial_record(n: int, method: str = "closed_form") -> RadialIntegralRecord:
    """The full (I1, I2, I3) record by one named route, memoized.

    Bulk consumers (spectral sums) read closed-form records; the
    route-agreement oracle is exercised by radial_integral and the test
    suite rather than on every table fill.
    """
    if not (n >= 2 and n % 1 == 0):
        raise ValueError("n must be an integer >= 2 (1s -> np integrals)")
    routes = {"closed_form": _closed_form, "quadrature": _quadrature_integrals}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}")
    i1, i2, i3 = routes[method](n)
    return RadialIntegralRecord(n=n, I1=i1, I2=i2, I3=i3, method=method)


def oscillator_strength(n: int) -> float:
    """Absorption oscillator strength f(1s -> np) = (2/3) dE_n I_3(n)^2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    i3 = radial_record(n).I3
    return (2.0 / 3.0) * transition_energy(n) * i3 * i3
