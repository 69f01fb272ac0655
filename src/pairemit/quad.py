"""Deterministic adaptive quadrature (1D, semi-infinite, oscillatory, nested).

The driver is a Gauss-Kronrod 7/15 rule with global worst-first refinement.
All intervals pending refinement in a sweep are bisected together and their
nodes evaluated in a single vectorized call, so integrands backed by compiled
kernels amortize their call overhead.  Interval bookkeeping, refinement
selection, and the final summation are all in left-to-right position order,
which makes results bitwise reproducible for a fixed spec regardless of how
many worker threads the caller uses elsewhere.

Infinite endpoints are handled by the rational maps

    [a, inf)    x = a + t/(1-t),        t in [0, 1)
    (-inf, inf) x = t/(1-t^2),          t in (-1, 1)

applied before adaptation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadSpec", "QuadResult", "integrate_1d", "integrate_nested"]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], ascending order.
_XGK = np.array([
    -0.9914553711208126392068546975263285,
    -0.9491079123427585245261896840478513,
    -0.8648644233597690727897127886409262,
    -0.7415311855993944398638647732807884,
    -0.5860872354676911302941448382587296,
    -0.4058451513773971669066064120769615,
    -0.2077849550078984676006894037732449,
    0.0,
    0.2077849550078984676006894037732449,
    0.4058451513773971669066064120769615,
    0.5860872354676911302941448382587296,
    0.7415311855993944398638647732807884,
    0.8648644233597690727897127886409262,
    0.9491079123427585245261896840478513,
    0.9914553711208126392068546975263285,
])
_WGK = np.array([
    0.0229353220105292249637320080589695,
    0.0630920926299785532907006631892042,
    0.1047900103222501838398763225415180,
    0.1406532597155259187451895905102379,
    0.1690047266392679028265834265985503,
    0.1903505780647854099132564024210137,
    0.2044329400752988924141619992346491,
    0.2094821410847278280129991748917143,
    0.2044329400752988924141619992346491,
    0.1903505780647854099132564024210137,
    0.1690047266392679028265834265985503,
    0.1406532597155259187451895905102379,
    0.1047900103222501838398763225415180,
    0.0630920926299785532907006631892042,
    0.0229353220105292249637320080589695,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array([
    0.1294849661688696932706114326790820,
    0.2797053914892766679014677714237796,
    0.3818300505051189449503697754889751,
    0.4179591836734693877551020408163265,
    0.3818300505051189449503697754889751,
    0.2797053914892766679014677714237796,
    0.1294849661688696932706114326790820,
])


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for one adaptive integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_depth: int = 48
    max_intervals: int = 20000

    def __post_init__(self):
        if self.rel_tol < 1e-12:
            raise ValueError("rel_tol below 1e-12 is not supported")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")

    def tightened(self, factor: float = 0.1) -> "QuadSpec":
        """Spec for one nesting level inward (tolerances scaled by factor)."""
        return QuadSpec(
            rel_tol=max(self.rel_tol * factor, 1e-12),
            abs_tol=self.abs_tol * factor,
            max_depth=self.max_depth,
            max_intervals=self.max_intervals,
        )


@dataclass
class QuadResult:
    """Integral value, error estimate, and convergence status."""

    value: complex
    err_est: float
    evaluations: int
    converged: bool
    fail_dim: int = -1

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.err_est + other.err_est,
            self.evaluations + other.evaluations,
            self.converged and other.converged,
            max(self.fail_dim, other.fail_dim),
        )


def _wrap_infinite(f, a: float, b: float):
    """Map infinite endpoints to a finite parameter interval."""
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if not a_inf and not b_inf:
        return f, a, b
    if a_inf and b_inf:
        def g(t):
            om = 1.0 - t * t
            x = t / om
            return f(x) * (1.0 + t * t) / (om * om)
        return g, -1.0, 1.0
    if b_inf:
        def g(t):
            om = 1.0 - t
            return f(a + t / om) / (om * om)
        return g, 0.0, 1.0
    # (-inf, b]: mirror of the semi-infinite map
    def g(t):
        om = 1.0 - t
        return f(b - t / om) / (om * om)
    return g, 0.0, 1.0


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Adaptive integral of a vectorized integrand over [a, b].

    ``f`` receives a 1D float64 array of abscissae and must return an array
    of the same length (real or complex).  Endpoints may be infinite; the
    documented rational transforms are applied first.  Non-convergence is
    reported through ``converged=False`` with the best available estimate,
    never silently.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    f, a, b = _wrap_infinite(f, a, b)

    lefts = [a]
    rights = [b]
    depths = [0]

    def eval_panels(ls, rs):
        ls = np.asarray(ls)
        rs = np.asarray(rs)
        c = 0.5 * (ls + rs)
        h = 0.5 * (rs - ls)
        xs = c[:, None] + h[:, None] * _XGK[None, :]
        fv = np.asarray(f(xs.ravel()), dtype=np.complex128).reshape(xs.shape)
        k15 = h * (fv @ _WGK)
        g7 = h * (fv[:, _GAUSS_IDX] @ _WG)
        return k15, np.abs(k15 - g7)

    vals, errs = eval_panels(lefts, rights)
    vals = list(vals)
    errs = list(errs)
    evals = 15 * len(lefts)

    while True:
        total = complex(sum(vals))          # position order: deterministic
        tot_err = float(sum(errs))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if tot_err <= tol:
            return QuadResult(total, tot_err, evals, True)
        max_err = max(errs)
        cut = max(0.25 * max_err, tol / (2.0 * len(errs)))
        refine = [i for i, e in enumerate(errs)
                  if e > cut and depths[i] < spec.max_depth]
        if not refine or len(lefts) + len(refine) > spec.max_intervals:
            return QuadResult(total, tot_err, evals, False)
        new_l, new_r = [], []
        for i in refine:
            m = 0.5 * (lefts[i] + rights[i])
            new_l += [lefts[i], m]
            new_r += [m, rights[i]]
        nv, ne = eval_panels(new_l, new_r)
        evals += 15 * len(new_l)
        # splice children back in position order
        for j, i in enumerate(reversed(refine)):
            k = len(refine) - 1 - j
            m = 0.5 * (lefts[i] + rights[i])
            d = depths[i] + 1
            lefts[i:i + 1] = [lefts[i], m]
            rights[i:i + 1] = [m, rights[i]]
            depths[i:i + 1] = [d, d]
            vals[i:i + 1] = [nv[2 * k], nv[2 * k + 1]]
            errs[i:i + 1] = [ne[2 * k], ne[2 * k + 1]]


def integrate_nested(f: Callable, domains: Sequence[tuple[float, float]],
                     spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Nested adaptive integration over up to five dimensions.

    ``domains`` is ordered outermost to innermost.  The integrand is called
    as ``f(x0, ..., x_{d-2}, xs)`` where the leading arguments are scalars
    of the enclosing levels and ``xs`` is an array over the innermost
    variable; it must return an array of matching length.  Each level inward
    runs with tolerances tightened by one order of magnitude.  Inner
    non-convergence is propagated through ``fail_dim`` (the dimension index,
    innermost = d-1).
    """
    d = len(domains)
    if d < 1 or d > 5:
        raise ValueError("integrate_nested supports 1..5 dimensions")

    specs = [spec]
    for _ in range(d - 1):
        specs.append(specs[-1].tightened())

    evals = [0]
    failed_dim = [-1]

    def level(idx: int, outer: tuple) -> complex:
        lo, hi = domains[idx]
        if idx == d - 1:
            res = integrate_1d(lambda xs: f(*outer, xs), lo, hi, specs[idx])
        else:
            def g(xs: np.ndarray) -> np.ndarray:
                return np.array([level(idx + 1, outer + (float(x),))
                                 for x in xs], dtype=np.complex128)
            res = integrate_1d(g, lo, hi, specs[idx])
        evals[0] += res.evaluations
        if not res.converged:
            failed_dim[0] = max(failed_dim[0], idx if res.fail_dim < 0
                                else res.fail_dim)
        return res.value

    # top level re-run through integrate_1d to get its error estimate
    lo, hi = domains[0]
    if d == 1:
        top = integrate_1d(lambda xs: f(xs), lo, hi, specs[0])
        return top
    def g0(xs: np.ndarray) -> np.ndarray:
        return np.array([level(1, (float(x),)) for x in xs],
                        dtype=np.complex128)
    top = integrate_1d(g0, lo, hi, specs[0])
    converged = top.converged and failed_dim[0] < 0
    fail = failed_dim[0] if failed_dim[0] >= 0 else (-1 if top.converged else 0)
    return QuadResult(top.value, top.err_est, top.evaluations + evals[0],
                      converged, fail)
