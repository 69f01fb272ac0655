"""Deterministic adaptive quadrature on finite intervals (1D and nested).

The driver is a Gauss-Kronrod 7/15 rule with global worst-first refinement.
All intervals pending refinement in a sweep are bisected together and their
nodes evaluated in a single vectorized call, so integrands backed by compiled
kernels amortize their call overhead.  Interval bookkeeping, refinement
selection, and the final summation are all in left-to-right position order,
which makes results bitwise reproducible for a fixed spec regardless of how
many worker threads the caller uses elsewhere.  Endpoints must be finite:
callers truncate infinite ranges where their integrand is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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

# interval budget of one integrate_1d call, and the tolerance factor of each
# nesting level inward
_MAX_INTERVALS = 20000
_TIGHTEN = 0.1


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for one adaptive integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_depth: int = 48

    def __post_init__(self):
        if self.rel_tol < 1e-12:
            raise ValueError("rel_tol below 1e-12 is not supported")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")

    def tightened(self) -> "QuadSpec":
        """Spec for one nesting level inward (tolerances scaled by _TIGHTEN)."""
        return QuadSpec(
            rel_tol=max(self.rel_tol * _TIGHTEN, 1e-12),
            abs_tol=self.abs_tol * _TIGHTEN,
            max_depth=self.max_depth,
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


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Adaptive integral of a vectorized integrand over the finite [a, b].

    ``f`` receives a 1D float64 array of abscissae and must return an array
    of the same length (real or complex).  Non-convergence is reported
    through ``converged=False`` with the best available estimate, never
    silently.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")

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
        if not refine or len(lefts) + len(refine) > _MAX_INTERVALS:
            return QuadResult(total, tot_err, evals, False)
        mids = [0.5 * (lefts[i] + rights[i]) for i in refine]
        nv, ne = eval_panels(
            [x for i, m in zip(refine, mids) for x in (lefts[i], m)],
            [x for i, m in zip(refine, mids) for x in (m, rights[i])])
        evals += 30 * len(refine)
        # splice children back in position order, right to left so that
        # the indices still to splice stay valid
        for k in reversed(range(len(refine))):
            i, m = refine[k], mids[k]
            d = depths[i] + 1
            lefts[i:i + 1] = [lefts[i], m]
            rights[i:i + 1] = [m, rights[i]]
            depths[i:i + 1] = [d, d]
            vals[i:i + 1] = [nv[2 * k], nv[2 * k + 1]]
            errs[i:i + 1] = [ne[2 * k], ne[2 * k + 1]]


def integrate_nested(f: Callable, domains: Sequence[tuple[float, float]],
                     spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Nested adaptive integration over one to five finite dimensions.

    ``domains`` is ordered outermost to innermost.  The integrand is called
    as ``f(x0, ..., x_{d-2}, xs)`` where the leading arguments are scalars
    of the enclosing levels and ``xs`` is an array over the innermost
    variable; it must return an array of matching length.  Each level inward
    runs with tolerances tightened by one order of magnitude.  The result
    counts the evaluations of every level; if a level did not converge,
    ``fail_dim`` is the innermost such dimension index (innermost = d-1).
    """
    d = len(domains)
    if d < 1 or d > 5:
        raise ValueError("integrate_nested supports 1..5 dimensions")
    specs = [spec]
    for _ in range(d - 1):
        specs.append(specs[-1].tightened())
    evals = 0
    fail = -1

    def level(idx: int, fx: Callable) -> QuadResult:
        """Integrate fx, its outer variables bound, over domains[idx:]."""
        nonlocal evals, fail
        if idx == d - 1:
            g = fx
        else:
            def g(xs: np.ndarray) -> np.ndarray:
                return np.array([level(idx + 1, partial(fx, float(x))).value
                                 for x in xs], dtype=np.complex128)
        res = integrate_1d(g, *domains[idx], specs[idx])
        evals += res.evaluations
        if not res.converged:
            fail = max(fail, idx)
        return res

    top = level(0, f)
    return QuadResult(top.value, top.err_est, evals, fail < 0, fail)
