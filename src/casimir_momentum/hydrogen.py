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
* quadrature  -- Gauss-Kronrod integration of the numerically evaluated
  wavefunctions on [0, 64] for every n. The cut rests on a proven bound:
  |L_k^a(x)| <= C(k+a, k) e^(x/2) for x, a >= 0 (DLMF 18.14.8) gives
  |R_n1(r)| <= 2r/(3 n^1.5), so |2 e^(-r) R_n1(r) r^p| <= (4/3) 2^-1.5
  r^(p+1) e^(-r) for n >= 2, and the part beyond r = 64 is at most
  (4/3) 2^-1.5 Gamma(p+2, 64), 1.4e-21 for p = 3. `quadrature_table` is
  this route for a whole band of n at once: one upward Laguerre recurrence
  over an (n x 195 node) numpy array gives the integrand on the fixed
  13-segment partition of [0, 64], and each n takes the engine's own
  segment_estimate (K15 value, sharpened |K15 - G7| error) of every
  segment. An n whose estimate
  misses the tolerance is integrated adaptively on its own; the route never
  reads the closed forms.

The two routes form the module's built-in oracle and must agree to 1e-10
in relative terms; a disagreement beyond 1e-8 raises hard. numpy is
imported only inside the quadrature route (quadrature_table,
_radial_weights, _adaptive_row, _laguerre_scaled, radial_wavefunction),
so the closed-form route and every module that reads it run without it.

The angular sums over m and Cartesian components that accompany these
integrals in second-order coefficients reduce to a unit factor for
s <-> p transitions and are never enumerated here.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import TYPE_CHECKING, NamedTuple

from .quadrature import (
    QuadratureSpec,
    integrate_adaptive,
    segment_estimate,
    segment_nodes,
    tail_bound_ok,
)

if TYPE_CHECKING:
    import numpy as np


class _BoundStateLabel(NamedTuple):
    n: int
    l: int


class BoundStateLabel(_BoundStateLabel):
    """Principal and orbital quantum numbers of a bound state, l <= 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BoundStateLabel":
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0 <= self.l <= min(1, self.n - 1):
            raise ValueError(f"require 0 <= l <= min(1, n-1), got n={self.n}, l={self.l}")
        return self

    @classmethod
    def _make(cls, iterable) -> "BoundStateLabel":   # so _replace checks too
        return cls(*iterable)


class RadialIntegralRecord(NamedTuple):
    """The triple I_1(n), I_2(n), I_3(n) of one n, by one route."""

    I1: float
    I2: float
    I3: float

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
    import numpy as np
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
    import numpy as np
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


def _geometric_breakpoints(r_max: float, first: float = 0.5,
                           ratio: float = 2.0) -> list[float]:
    pts = []
    r = first
    while r < r_max:
        pts.append(r)
        r *= ratio
    return pts


def _radial_tail_bound(p: int, r_cut: float) -> float:
    """Bound on |int_{r_cut}^inf 2 e^(-r) R_n1(r) r^p dr| valid for every n >= 2.

    With k = n-2 and a = 3, DLMF 18.14.8 bounds |L_k^3(x)| by
    C(n+1, 3) e^(x/2); inserted into R_n1 at x = 2r/n this cancels e^(-r/n)
    and leaves |R_n1(r)| <= (2r/(3n^3)) sqrt((n-1) n (n+1)) <= 2r/(3 n^1.5).
    The integrand is then at most (4/3) 2^-1.5 r^(p+1) e^(-r), whose tail is
    the upper incomplete gamma Gamma(p+2, r_cut) = (p+1)! e^(-r_cut)
    sum_{j<=p+1} r_cut^j/j! (integer order).
    """
    gamma_upper = math.factorial(p + 1) * math.exp(-r_cut) * math.fsum(
        r_cut**j / math.factorial(j) for j in range(p + 2))
    return (4.0 / 3.0) * 2.0**-1.5 * gamma_upper


_RADIAL_CUT = 64.0   # the quadrature route integrates R_10 R_n1 r^p on [0, 64]
_RADIAL_QUAD_SPEC = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12,
                                   max_subdivisions=4000)
if not all(tail_bound_ok(_radial_tail_bound(p, _RADIAL_CUT), _RADIAL_QUAD_SPEC)
           for p in (1, 2, 3)):
    raise RuntimeError("the radial quadrature cut leaves a tail above abs_tol/10")
# Seed partition 1, sqrt 2, 2, ..., 45.25 (13 segments on [0, 64]): fine
# enough that every n converges without subdividing.
_RADIAL_BREAKPOINTS = _geometric_breakpoints(_RADIAL_CUT, first=1.0,
                                             ratio=math.sqrt(2.0))


class RadialQuadrature(NamedTuple):
    """The quadrature route's (I1, I2, I3) for one n, with the engine's
    error estimate of each."""

    values: tuple[float, float, float]
    errors: tuple[float, float, float]


# Rows per kernel batch: bounds its arrays at 256 x 195 floats for any band.
_TABLE_ROWS = 256


def _radial_weights(ns: np.ndarray, r: np.ndarray) -> np.ndarray:
    """2 e^(-r) R_n1(r) for consecutive ascending ns (rows) at nodes r <= 64.

    One upward three-term recurrence in the degree k of L_k^3(2r/n) runs over
    all rows; row n is complete at k = n - 2 and leaves the batch. Every
    element sees the same operations whatever the batch, so a row does not
    depend on its neighbours. No rescaling is needed: on r <= 64,
    |L_k^3(x)| <= C(k+3, 3) e^(x/2) <= C(n+1, 3) e^32 (DLMF 18.14.8).
    """
    import numpy as np
    x = (2.0 * r) / ns[:, None]
    lag = np.empty_like(x)
    prev, cur, xa = np.zeros_like(x), np.ones_like(x), x
    first = int(ns[0]) - 2
    for k in range(int(ns[-1]) - 1):
        if k >= first:
            lag[k - first] = cur[0]
            prev, cur, xa = prev[1:], cur[1:], xa[1:]
            if not len(xa):
                break
        prev, cur = cur, ((2 * k + 4 - xa) * cur - (k + 3) * prev) / (k + 1)
    norm = 2.0 / ns**2 / np.sqrt((ns - 1.0) * ns * (ns + 1.0))
    return 2.0 * norm[:, None] * x * lag * np.exp(-r - r / ns[:, None])


def _adaptive_row(n: int) -> RadialQuadrature:
    """The quadrature route for one n by integrate_adaptive, which subdivides
    where the fixed partition is not enough."""
    import numpy as np
    state = BoundStateLabel(n, 1)

    def f(rs: list[float], p: int) -> list[float]:
        r = np.asarray(rs)
        return (2.0 * np.exp(-r) * radial_wavefunction(state, r) * r**p).tolist()

    res = [integrate_adaptive(partial(f, p=p), 0.0, _RADIAL_CUT,
                              _RADIAL_QUAD_SPEC, breakpoints=_RADIAL_BREAKPOINTS)
           for p in (1, 2, 3)]
    return RadialQuadrature(tuple(q.value for q in res), tuple(q.error for q in res))


def quadrature_table(n_lo: int, n_hi: int) -> dict[int, RadialQuadrature]:
    """(I1, I2, I3) by the quadrature route for every n in [n_lo, n_hi].

    Each row is what integrate_adaptive returns on its first pass over the
    fixed partition of [0, 64] (13 segments, 195 nodes): segment_estimate of
    every segment, then the fsum of the K15 values and of the error
    estimates. A row whose estimate misses _RADIAL_QUAD_SPEC is replaced by
    _adaptive_row(n). Every step is elementwise or per row, so a row is
    bit-identical whatever band it is computed in.
    """
    if not (n_lo % 1 == 0 and n_hi % 1 == 0 and 2 <= n_lo <= n_hi):
        raise ValueError("need integers 2 <= n_lo <= n_hi")
    import numpy as np
    n_lo, n_hi = int(n_lo), int(n_hi)
    spec = _RADIAL_QUAD_SPEC
    edges = [0.0, *_RADIAL_BREAKPOINTS, _RADIAL_CUT]
    segs = list(zip(edges, edges[1:]))
    r = np.array([x for lo, hi in segs for x in segment_nodes(lo, hi)])
    r_powers = np.stack([r, r * r, r * r * r]).reshape(3, len(segs), 15)
    table = {}
    for start in range(n_lo, n_hi + 1, _TABLE_ROWS):
        ns = np.arange(start, min(start + _TABLE_ROWS, n_hi + 1), dtype=float)
        weights = _radial_weights(ns, r).reshape(len(ns), 1, len(segs), 15)
        for n, fs in zip(range(start, start + len(ns)), weights * r_powers):
            est = [[segment_estimate(f, lo, hi) for f, (lo, hi) in zip(fp, segs)]
                   for fp in fs.tolist()]
            row = RadialQuadrature(
                tuple(math.fsum(v for v, _ in ep) for ep in est),
                tuple(math.fsum(e for _, e in ep) for ep in est))
            if any(err > max(spec.abs_tol, spec.rel_tol * abs(val))
                   for val, err in zip(*row)):
                row = _adaptive_row(n)
            table[n] = row
    return table


def _quadrature_integrals(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by the quadrature route: one row of quadrature_table."""
    return quadrature_table(n, n)[n].values


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
    quad = radial_record(n, "quadrature").integral(p)
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
    return RadialIntegralRecord(I1=i1, I2=i2, I3=i3)


def oscillator_strength(n: int) -> float:
    """Absorption oscillator strength f(1s -> np) = (2/3) dE_n I_3(n)^2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    i3 = radial_record(n).I3
    return (2.0 / 3.0) * transition_energy(n) * i3 * i3
