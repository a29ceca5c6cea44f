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
* quadrature  -- Gauss-Kronrod integration of R_n1 from its Laguerre
  recurrence on [0, 64] for every n. The cut rests on a proven bound:
  |L_k^a(x)| <= C(k+a, k) e^(x/2) for x, a >= 0 (DLMF 18.14.8) gives
  |R_n1(r)| <= 2r/(3 n^1.5), so |2 e^(-r) R_n1(r) r^p| <= (4/3) 2^-1.5
  r^(p+1) e^(-r) for n >= 2, and the part beyond r = 64 is at most
  (4/3) 2^-1.5 Gamma(p+2, 64), 1.4e-21 for p = 3. `quadrature_table` is
  this route for a whole band of n at once: one upward Laguerre recurrence
  over an (n x 195 node) numpy array gives the integrand on the fixed
  13-segment partition of [0, 64], and each n takes the engine's own
  segment_estimate (K15 value, sharpened |K15 - G7| error) of every
  segment. An n whose estimate misses the tolerance is integrated
  adaptively on its own, on the same integrand; the route never reads the
  closed forms.

The two routes form the module's built-in oracle and must agree to 1e-10
in relative terms (verify's radial_dual_route_nle200 row and the test
suite check it). numpy is imported only inside the quadrature route
(quadrature_table, _radial_weights, _adaptive_row), so the closed-form
route and every module that reads it run without it.

The closed forms are computed once per n, into `closed_form_columns(n_max)`:
four flat array('d') columns, I1, I2, I3 and dE = transition_energy(n), row
n - 2 for n = 2, 3, ..., which the bulk spectral sums read in one pass.
The columns grow on demand under a lock, one _closed_form(n) per row. They
take 32 bytes per n; `radial_record(n, method)` gives one n by a named
route, memoized per n (a record with its cache entry takes about 205
bytes), and its closed-form route reads row n - 2.

The angular sums over m and Cartesian components that accompany these
integrals in second-order coefficients reduce to a unit factor for
s <-> p transitions and are never enumerated here.
"""

from __future__ import annotations

import math
import threading
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


class RadialIntegralRecord(NamedTuple):
    """The triple I_1(n), I_2(n), I_3(n) of one n, by one route."""

    I1: float
    I2: float
    I3: float


def energy(n: int) -> float:
    """Bound-state energy -1/(2 n^2) hartree."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return -0.5 / (n * n)


def transition_energy(n: int) -> float:
    """Excitation energy E_n - E_1 in hartree."""
    return energy(n) - energy(1)


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
    """The quadrature route for one n by integrate_adaptive on the kernel's
    own integrand: its first pass is the table row, and it subdivides where
    the fixed partition is not enough."""
    import numpy as np
    ns = np.array([float(n)])

    def f(rs: list[float], p: int) -> list[float]:
        r = np.asarray(rs)
        return (_radial_weights(ns, r)[0] * (r, r * r, r * r * r)[p - 1]).tolist()

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


def _column_row(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by the closed forms: row n - 2 of closed_form_columns."""
    n = int(n)
    i1, i2, i3, _ = closed_form_columns(n)
    return i1[n - 2], i2[n - 2], i3[n - 2]


def _quadrature_integrals(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by the quadrature route: one row of quadrature_table."""
    return quadrature_table(n, n)[n].values


@lru_cache(maxsize=None)
def radial_record(n: int, method: str = "closed_form") -> RadialIntegralRecord:
    """The full (I1, I2, I3) record by one named route, memoized.

    The single-n interface: bulk consumers (the spectral sums) read
    closed_form_columns instead. The route-agreement oracle is exercised by
    verify and the test suite rather than on every table fill.
    """
    if not (n >= 2 and n % 1 == 0):
        raise ValueError("n must be an integer >= 2 (1s -> np integrals)")
    routes = {"closed_form": _column_row, "quadrature": _quadrature_integrals}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}")
    i1, i2, i3 = routes[method](n)
    return RadialIntegralRecord(I1=i1, I2=i2, I3=i3)


_COLUMNS_LOCK = threading.Lock()
_COLUMNS: list = []   # the array('d') columns I1, I2, I3, dE once first filled


def closed_form_columns(n_max: int) -> tuple:
    """The closed-form columns (I1, I2, I3, dE), row n - 2 for n = 2, 3, ...

    Grows them to at least n = n_max and returns the columns themselves,
    which may already run past n_max. Rows are only ever appended, under
    the lock, so a reader that stops at row n_max - 2 sees every value it
    reads complete.
    """
    with _COLUMNS_LOCK:
        if not _COLUMNS:
            from array import array   # only the bulk sums need the extension
            _COLUMNS.extend(array("d") for _ in range(4))
        i1, i2, i3, de = _COLUMNS
        for n in range(len(de) + 2, n_max + 1):
            a, b, c = _closed_form(n)
            i1.append(a)
            i2.append(b)
            i3.append(c)
            de.append(transition_energy(n))
        return tuple(_COLUMNS)


def _oscillator(de: float, i3: float) -> float:
    """f = (2/3) dE I_3^2, for one n and for the bulk oscillator sum alike."""
    return (2.0 / 3.0) * de * i3 * i3


def oscillator_strength(n: int) -> float:
    """Absorption oscillator strength f(1s -> np) = (2/3) dE_n I_3(n)^2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _oscillator(transition_energy(n), radial_record(n).I3)
