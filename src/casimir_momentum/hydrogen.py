"""Hydrogen bound states and the 1s<->np radial integrals (atomic units).

Every radial integral I_p(n) = int_0^inf R_10(r) R_n1(r) r^p dr, p in
{1, 2, 3}, is available for every n >= 2 through two independent routes.
Both integrate the Laguerre expansion of R_n1 against 2 e^(-r) r^(p+1)
term by term; they share none of the float algebra after that.

* exact -- the resulting sum in Python integers:
      I_p = 4 n^(p-1) S_p / ((n+1)^(n+p) sqrt((n-1) n (n+1))),
      S_p = sum_{j=0}^{n-2} (-1)^j C(n+1, n-2-j) 2^(j+1)
                            (j+1)(j+2)...(j+p+1) (n+1)^(n-2-j).
  One Horner pass in n + 1 gives S_1, S_2 and S_3 exactly (`_horner_sums`);
  they equal S_1 = ((n+1)^(n+1) - (n-1)^(n-1) (5n^2 - 1))/2,
  S_2 = 2n(n+1)(n-1)^(n-1) and S_3 = 4n^2(n+1)(n-1)^(n-2), and I_2 = dE_n I_3
  is 2n(n+1) S_2 = (n^2 - 1) S_3 (verify's rydberg_integers_closed_form for
  n <= 200, the test suite to 400). The only roundings are the final
  int / int, which Python rounds correctly, and the division by the
  correctly rounded square root, so each I_p is within 2 ulp of the truth.
  The pass is n - 1 steps on integers of up to about n log2(n) bits, so its
  cost grows as n^2: about 1 ms at n = 400, 4 ms at 1000 and 15 ms at 2000
  on a 2-core x86-64 host (Python 3.11).
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

`radial_record(n, method)` gives the plain (I1, I2, I3) tuple of one n by a
named route, memoized for the last _RECORD_MEMO keys (about 260 bytes each
with its key under tracemalloc, 1.1 MB at most); the benchmark's replay and
the tests call it. Of the package, only `verify` imports this module. It
reads both routes directly, never `radial_record` and its memo: its Rydberg
terms read the closed forms of the S_p, and the Horner integers are only
their oracle.

The angular sums over m and Cartesian components that accompany these
integrals in second-order coefficients reduce to a unit factor for
s <-> p transitions and are never enumerated here.
"""

from __future__ import annotations

import math
from functools import lru_cache


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


def _horner_sums(n: int) -> tuple[int, int, int]:
    """The integers S_1, S_2, S_3 of the exact route, in one Horner pass in n + 1.

    The j-th term of S_p is b_j (j+1)(j+2) times 1, j + 3 and (j+3)(j+4) for
    p = 1, 2, 3, with b_j = (-1)^j C(n+1, n-2-j) 2^(j+1). b_j starts at
    2 C(n+1, 3) and steps by C(n+1, k-1) = C(n+1, k) k / (n+2-k), an exact
    division, so no list of terms is built. The small factors are multiplied
    together first, so each step makes fewer products of big integers.
    """
    m = n + 1
    b = 2 * math.comb(m, 3)
    s1 = s2 = s3 = 0
    for j in range(n - 1):
        k = n - 2 - j
        t = b * ((j + 1) * (j + 2))
        s1 = s1 * m + t
        t *= j + 3
        s2 = s2 * m + t
        s3 = s3 * m + t * (j + 4)
        b = b * (-2 * k) // (m + 1 - k)
    return s1, s2, s3


def _integrals_of(n: int, s1: int, s2: int, s3: int) -> tuple[float, float, float]:
    """(I1, I2, I3) of n from its S_p, each rounded by int / int and the root."""
    m = n + 1
    root = math.sqrt((n - 1) * n * m)
    den = m ** (n + 1)
    return (4 * s1 / den / root, 4 * n * s2 / (den * m) / root,
            4 * n * n * s3 / (den * m * m) / root)


# Bound of radial_record's memo, above the distinct keys of any one run: 996
# in the benchmark's replay of verify, which itself reads no record.
_RECORD_MEMO = 4096


@lru_cache(maxsize=_RECORD_MEMO)
def radial_record(n: int, method: str = "closed_form") -> tuple[float, float, float]:
    """The plain (I1, I2, I3) of n by one named route, "closed_form" or
    "exact", memoized for the last _RECORD_MEMO keys."""
    # For its callers, verify and the benchmark's replay; no flag sets n.
    if not (n >= 2 and n % 1 == 0):
        raise ValueError("n must be an integer >= 2 (1s -> np integrals)")
    if method == "quadrature":
        # The exact route's old name, which the benchmark's traced replay
        # still passes; it goes with that replay's rewrite (ROADMAP item 5).
        return radial_record(n, "exact")
    routes = {"closed_form": _closed_form,
              "exact": lambda n: _integrals_of(n, *_horner_sums(n))}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}")
    return routes[method](int(n))
