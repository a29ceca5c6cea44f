"""Adaptive one-dimensional quadrature and the plane-wave continuum integrals.

The engine is a globally adaptive Gauss-Kronrod (G7, K15) bisection scheme
with a QUADPACK-style error estimate. Integrands are called with a 1-D numpy
array of nodes and must return an array of the same shape, which keeps the
per-call overhead low for expensive integrands (large-n radial functions).

Semi-infinite integrals are mapped onto [0, 1) with the rational substitution
y = a + t/(1 - t), so the reported error estimate covers the whole tail
instead of relying on a raw large cutoff.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Gauss-Kronrod (G7, K15) nodes and weights on [-1, 1]; Kronrod nodes are
# symmetric, listed here for x >= 0. Standard QUADPACK dqk15 constants.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# All 15 Kronrod nodes, ascending; Gauss points are the odd-index entries.
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration.

    upper_cut is the finite surrogate for infinity when an integrand is
    truncated instead of transformed; callers using it are responsible for
    checking that the analytic tail bound beyond the cut stays below
    abs_tol/10 (see tail_bound_ok).
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    upper_cut: float = 1e3

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.upper_cut <= 0:
            raise ValueError("upper_cut must be positive")


DEFAULT_SPEC = QuadratureSpec()


def tail_bound_ok(tail_bound: float, spec: QuadratureSpec) -> bool:
    """True if a truncated tail is negligible at the spec's tolerance."""
    return abs(tail_bound) < spec.abs_tol / 10.0


class QuadratureResult(NamedTuple):
    value: float
    error: float
    neval: int
    subdivisions: int


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate so far."""

    def __init__(self, message: str, value: float, error: float, subdivisions: int):
        super().__init__(message)
        self.value = value
        self.error = error
        self.subdivisions = subdivisions


def _eval_segments(f, segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod estimates for a batch of segments, one f call in total.

    segments has shape (m, 2); returns (values, errors), each of shape (m,).
    """
    lo = segments[:, 0][:, None]
    hi = segments[:, 1][:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid + half * _NODES[None, :]
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(fx)):
        bad = nodes.ravel()[~np.isfinite(fx.ravel())][0]
        raise ValueError(f"integrand is not finite at x={bad!r}")
    resk = (fx * _WEIGHTS_K).sum(axis=1) * half[:, 0]
    resg = (fx * _WEIGHTS_G).sum(axis=1) * half[:, 0]
    # QUADPACK-style sharpened error estimate.
    reskh = resk / (2.0 * half[:, 0])
    resasc = (np.abs(fx - reskh[:, None]) * _WEIGHTS_K).sum(axis=1) * np.abs(half[:, 0])
    err = np.abs(resk - resg)
    mask = (resasc != 0.0) & (err != 0.0)
    err[mask] = resasc[mask] * np.minimum(
        1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5
    )
    return resk, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints: Sequence[float] | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] to the spec's tolerances.

    Optional breakpoints seed the initial partition, which matters when the
    integrand's support is a small fraction of [a, b]; the engine never
    samples outside [a, b]. Raises QuadratureError (best estimate attached)
    if max_subdivisions is exceeded.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_adaptive needs finite limits; "
                         "use integrate_to_inf for semi-infinite ranges")
    if b <= a:
        raise ValueError(f"require b > a, got [{a}, {b}]")

    edges = [a, b]
    if breakpoints:
        edges += [float(x) for x in breakpoints if a < float(x) < b]
    edges = sorted(set(edges))
    segs = np.array([[edges[i], edges[i + 1]] for i in range(len(edges) - 1)])

    values, errors = _eval_segments(f, segs)
    neval = 15 * len(segs)
    # Heap of (-error, insertion index, lo, hi, value); index breaks ties
    # deterministically.
    heap = []
    counter = 0
    for (lo, hi), v, e in zip(segs, values, errors):
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1

    subdivisions = 0
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(-item[0] for item in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            break
        if subdivisions >= spec.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={spec.max_subdivisions} exceeded "
                f"(value={total!r}, error={total_err!r})",
                value=total, error=total_err, subdivisions=subdivisions,
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating-point resolution: keep its value, stop
            # charging its error against the budget.
            heapq.heappush(heap, (0.0, counter, lo, hi, val))
            counter += 1
            subdivisions += 1
            continue
        children = np.array([[lo, mid], [mid, hi]])
        cv, ce = _eval_segments(f, children)
        neval += 30
        for (clo, chi), v, e in zip(children, cv, ce):
            heapq.heappush(heap, (-e, counter, clo, chi, v))
            counter += 1
        subdivisions += 1

    # Deterministic final reduction: sum in left-to-right interval order.
    items = sorted(heap, key=lambda it: it[2])
    value = math.fsum(it[4] for it in items)
    error = math.fsum(-it[0] for it in items)
    return QuadratureResult(value=value, error=error, neval=neval,
                            subdivisions=subdivisions)


def integrate_to_inf(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Integrate f over [a, inf) via the substitution y = a + t/(1-t).

    The integrand must decay fast enough that f(y)/(1-t)^2 -> 0 as t -> 1
    (any decay faster than y^-2). Gauss-Kronrod nodes are interior, so f is
    never evaluated at t = 1.
    """

    def g(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        omt = 1.0 - t
        y = a + t / omt
        return np.asarray(f(y), dtype=float) / omt**2

    # Seed points cluster resolution near t=1 where the tail lives.
    return integrate_adaptive(g, 0.0, 1.0, spec,
                              breakpoints=[0.25, 0.5, 0.75, 0.9, 0.99])


@dataclass(frozen=True)
class ContinuumResult:
    """One continuum integral value at a given lower cutoff y_min = q*a0."""

    value: float
    y_min: float
    estimated_error: float


def kappa1_continuum_integrand(y: np.ndarray) -> np.ndarray:
    """Integrand y^3/(y^2+1)^3 * (arctan(y)/y^2 - 1/(y*sqrt(y^2+1))).

    The bracket is a difference of two terms that both diverge as 1/y at
    small y; below y = 1e-3 it is replaced by its series
    y/6 - 7y^3/40 + 19y^5/112 to avoid cancellation. It is positive for all
    y > 0, since arctan(y) > y/sqrt(1+y^2).
    """
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < 1e-3
    ys = y[small]
    out[small] = ys / 6.0 - 7.0 * ys**3 / 40.0 + 19.0 * ys**5 / 112.0
    yl = y[~small]
    out[~small] = np.arctan(yl) / yl**2 - 1.0 / (yl * np.sqrt(yl * yl + 1.0))
    return y**3 / (y * y + 1.0) ** 3 * out


def kappa2_continuum_integrand(y: np.ndarray) -> np.ndarray:
    """Integrand (256/27pi) * y^4/(y^2+1)^6."""
    y = np.asarray(y, dtype=float)
    return 256.0 / (27.0 * math.pi) * y**4 / (y * y + 1.0) ** 6


# Largest accepted lower cutoff. Beyond it both continuum integrals are below
# 1e-24, under any tolerance; below it the nodes of the rational map stay
# under about 1e16, where every power in the two integrands is finite.
Y_MIN_MAX = 1e6


def _check_y_min(y_min: float) -> None:
    if not 0 <= y_min <= Y_MIN_MAX:
        raise ValueError(f"y_min must be in [0, {Y_MIN_MAX:g}], got {y_min!r}")


def kappa1_continuum(y_min: float = 1.0,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ContinuumResult:
    """Continuum (plane-wave) part of the first vacuum-coupling coefficient.

    Normalization note: the value is the bare integral of
    kappa1_continuum_integrand; that is the quantity the adopted coefficient
    totals are built from (0.0139 at y_min = 0, 0.0094 at y_min = 1).
    """
    _check_y_min(y_min)
    res = integrate_to_inf(kappa1_continuum_integrand, y_min, spec)
    return ContinuumResult(value=res.value, y_min=y_min,
                           estimated_error=res.error)


def kappa2_continuum(y_min: float = 1.0,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ContinuumResult:
    """Continuum (plane-wave) part of the second vacuum-coupling coefficient.

    At y_min = 0 the value has the closed form
    (256/27pi) * (3pi/512) = 1/18; the quadrature is held to it at 1e-9.
    """
    _check_y_min(y_min)
    res = integrate_to_inf(kappa2_continuum_integrand, y_min, spec)
    return ContinuumResult(value=res.value, y_min=y_min,
                           estimated_error=res.error)


KAPPA2_CONTINUUM_AT_ZERO = 1.0 / 18.0          # (256/27pi)*(3pi/512)
KAPPA1_CONTINUUM_AT_ZERO = 3.0 * math.pi / 64.0 - 2.0 / 15.0


def ymin_sensitivity(
    which: str,
    y_min_grid: Sequence[float],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[ContinuumResult]:
    """Scan a continuum integral over an ascending grid of lower cutoffs."""
    if which not in ("kappa1", "kappa2"):
        raise ValueError(f"unknown integral {which!r}; expected kappa1 or kappa2")
    grid = [float(y) for y in y_min_grid]
    if not grid:
        raise ValueError("y_min grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("y_min grid must be strictly ascending")
    op = kappa1_continuum if which == "kappa1" else kappa2_continuum
    return [op(y, spec) for y in grid]
