"""Hydrogen bound states and the 1s<->np radial integrals (atomic units).

Every radial integral I_p(n) = int_0^inf R_10(r) R_n1(r) r^p dr, p in
{1, 2, 3}, is available for every n >= 2 through two independent routes.
Both integrate the Laguerre expansion of R_n1 against 2 e^(-r) r^(p+1)
term by term; they share none of the float algebra after that.

* exact -- the resulting sum in Python integers:
      I_p = 4 n^(p-1) S_p / ((n+1)^(n+p) sqrt((n-1) n (n+1))),
      S_p = sum_{j=0}^{n-2} (-1)^j C(n+1, n-2-j) 2^(j+1)
                            (j+1)(j+2)...(j+p+1) (n+1)^(n-2-j).
  One Horner pass in n + 1 gives S_1, S_2 and S_3 exactly. The only
  roundings are the final int / int, which Python rounds correctly, and
  the division by the correctly rounded square root, so each I_p is within
  2 ulp of the truth. The pass is n - 1 steps on integers of up to about
  n log2(n) bits, so its cost grows as n^2: about 1 ms at n = 400, 4 ms at
  1000 and 15 ms at 2000 on a 2-core x86-64 host (Python 3.11).
* closed_form -- float closed forms. With C = 8/(n^3 sqrt((n-1) n (n+1))),
  lambda = (n+1)/n and q = (n-1)/(n+1):
      I_3 = 2 C (n-1) n (n+1) ((n-1)/n)^(n-3) lambda^-(n+3)
      I_2 = (n^2 - 1)/(2 n^2) I_3
      I_1 = C lambda^-3 sum_{j=0}^{n-2} (j+1)(j+2) q^j
  I_3 is Gordon's dipole integral (Ann. Phys. 2, 1031, 1929; Bethe &
  Salpeter 1957). The powers go through log1p: with plain ** the rounding
  of (n-1)/n and (n+1)/n is raised to the power n, and I_3 is off by up to
  2e-14 relative at n <= 200.

The exact route is the module's built-in oracle and never reads the closed
forms; the two must agree to 5e-15 relative (verify's
radial_dual_route_nle200 row for n <= 200; the test suite up to n = 1000).

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
from functools import lru_cache
from typing import NamedTuple


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


def _exact_integrals(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by the exact route: S_1, S_2, S_3 in one Horner pass in
    n + 1, each I_p then rounded once by int / int and once by the square root.

    The j-th term of S_p is b_j (j+1)(j+2) times 1, j + 3 and (j+3)(j+4) for
    p = 1, 2, 3, with b_j = (-1)^j C(n+1, n-2-j) 2^(j+1). b_j starts at
    2 C(n+1, 3) and steps by C(n+1, k-1) = C(n+1, k) k / (n+2-k), an exact
    division, so no list of terms is built.
    """
    n = int(n)
    m = n + 1
    b = 2 * math.comb(m, 3)
    s1 = s2 = s3 = 0
    for j in range(n - 1):
        k = n - 2 - j
        t = b * (j + 1) * (j + 2)
        s1 = s1 * m + t
        t *= j + 3
        s2 = s2 * m + t
        s3 = s3 * m + t * (j + 4)
        b = -2 * b * k // (m + 1 - k)
    root = math.sqrt((n - 1) * n * m)
    den = m ** (n + 1)
    return (4 * s1 / den / root, 4 * n * s2 / (den * m) / root,
            4 * n * n * s3 / (den * m * m) / root)


def _column_row(n: int) -> tuple[float, float, float]:
    """(I1, I2, I3) by the closed forms: row n - 2 of closed_form_columns."""
    n = int(n)
    i1, i2, i3, _ = closed_form_columns(n)
    return i1[n - 2], i2[n - 2], i3[n - 2]


@lru_cache(maxsize=None)
def radial_record(n: int, method: str = "closed_form") -> RadialIntegralRecord:
    """The full (I1, I2, I3) record by one named route, "closed_form" or
    "exact", memoized.

    The single-n interface: bulk consumers (the spectral sums) read
    closed_form_columns instead. The route-agreement oracle is exercised by
    verify and the test suite rather than on every table fill.
    """
    if not (n >= 2 and n % 1 == 0):
        raise ValueError("n must be an integer >= 2 (1s -> np integrals)")
    if method == "quadrature":
        # The exact route's old name, which the benchmark's traced replay
        # still passes; it goes with that replay's rewrite (ROADMAP item 5).
        return radial_record(n, "exact")
    routes = {"closed_form": _column_row, "exact": _exact_integrals}
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
