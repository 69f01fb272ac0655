"""Deterministic adaptive quadrature on finite intervals (1D and nested).

The driver is a Gauss-Kronrod 7/15 rule with global worst-first refinement.
All intervals pending refinement in a sweep are bisected together and their
nodes evaluated in a single vectorized call, so a NumPy integrand pays its
per-call overhead once a sweep.  Interval bookkeeping, refinement
selection, and the final summation are all in left-to-right position order,
which makes results bitwise reproducible for a fixed spec regardless of how
many worker threads the caller uses elsewhere.  Endpoints must be finite:
callers truncate infinite ranges where their integrand is negligible.

``integrate_batch`` advances many independent integrals of one integrand in
lockstep: each sweep evaluates the new panels of every unconverged line in
one call, while each line keeps its own panels, tolerance test and budget,
so its result is bitwise the one it gets alone.  ``integrate_1d`` is the
batch of one, and ``integrate_nested`` recurses through it.

First-panel rule: most integrals (the inner levels of a nested one) end on
their first panel, so the first sweep's values are tested before any
per-line panel list is built.  A line that converges there costs its share
of one integrand call, one product and one ``QuadResult``; a line that
does not is bisected from those values and never evaluated again.

Panel reduction: K15 and G7 come from one product of a panel's 15 node
values with a (15, 2) weight matrix, K15 in one column and G7 (0 at the
Kronrod-only nodes) in the other, as QUADPACK's qk15 forms both sums from
one pass over the values.  Every first panel, alone or in a batch, is
reduced by the same 1-D product (``_first_panel``), and every later sweep
by one product per line's block of panels, never as rows of a larger
product, whose rounding of a row can depend on the rows around it; so a
lone line stays bitwise its batch self.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadSpec", "QuadResult", "integrate_1d", "integrate_batch",
           "integrate_nested"]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], ascending order; the
# G7 nodes are the odd-indexed K15 ones.
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
_WG = np.array([
    0.1294849661688696932706114326790820,
    0.2797053914892766679014677714237796,
    0.3818300505051189449503697754889751,
    0.4179591836734693877551020408163265,
    0.3818300505051189449503697754889751,
    0.2797053914892766679014677714237796,
    0.1294849661688696932706114326790820,
])
# both rules as the columns of one weight matrix, so that one product
# reduces a panel: K15 at every node, G7 at the Gauss nodes and 0 at the
# Kronrod-only ones.  It is stored complex, the dtype of the node values it
# reduces, so that no product casts it per call (the cast is exact).
_W = np.zeros((15, 2), dtype=np.complex128)
_W[:, 0] = _WGK
_W[1::2, 1] = _WG
_W.flags.writeable = False

# the line index of a lone line's first panel, shared read-only, so that
# path allocates no index array
_OWNER0 = np.zeros(15, dtype=np.intp)
_OWNER0.flags.writeable = False

# interval budget of one integral (each line of a batch has its own), and
# the tolerance factor of each nesting level inward
_MAX_INTERVALS = 20000
_TIGHTEN = 0.1


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for one adaptive integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_depth: int = 48

    def __post_init__(self):
        # plain comparisons, false for NaN: tightened() builds one per level
        if not 1e-12 <= self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and at least 1e-12, "
                             f"got {self.rel_tol}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError("abs_tol must be non-negative and finite, "
                             f"got {self.abs_tol}")
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
    """Integral value, error estimate, convergence status and the work done.

    ``intervals`` is the number of panels in the final partition and
    ``max_depth`` the deepest bisection level among them; a sum of results
    adds the intervals and keeps the deeper depth.
    """

    value: complex
    err_est: float
    evaluations: int
    converged: bool
    fail_dim: int = -1
    intervals: int = 0
    max_depth: int = 0

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.err_est + other.err_est,
            self.evaluations + other.evaluations,
            self.converged and other.converged,
            max(self.fail_dim, other.fail_dim),
            self.intervals + other.intervals,
            max(self.max_depth, other.max_depth),
        )


def _nodes(ls, rs) -> tuple[np.ndarray, np.ndarray]:
    """K15 abscissae (m x 15) of the panels [ls, rs], and their half-widths."""
    m = len(ls)
    ends = np.array([*ls, *rs])
    c = 0.5 * (ends[:m] + ends[m:])
    h = 0.5 * (ends[m:] - ends[:m])
    return c[:, None] + h[:, None] * _XGK, h


def _first_panel(fv: np.ndarray, h: float) -> tuple[complex, float]:
    """K15 value and |K15 - G7| error estimate of one panel of half-width
    ``h`` from its 15 node values (a 1-D array): one product with both
    weight columns, scaled on Python scalars.  Every line's first panel is
    reduced here, alone or in a batch, so a lone line is bitwise its batch
    self by construction.  The error keeps ``np.abs``: Python's ``abs`` can
    round it differently.
    """
    k15, g7 = (fv @ _W).tolist()
    k15 = h * k15
    return k15, float(np.abs(k15 - h * g7))


def _panels(f: Callable, ls: list, rs: list, owner: np.ndarray,
            stops: list[int]) -> tuple[list, list]:
    """K15 values and |K15 - G7| error estimates of the panels [ls, rs].

    ``owner`` goes to ``f`` with the nodes; ``stops`` ends each line's block
    of panels.  Each block is reduced by one product with both weight
    columns, the product its line makes in a batch of its own, never as
    rows of a larger product: OpenBLAS can round a row differently
    depending on the rows around it.
    """
    xs, h = _nodes(ls, rs)
    fv = np.asarray(f(xs.ravel(), owner), dtype=np.complex128)
    fv = fv.reshape(xs.shape)
    kg = np.empty((len(ls), 2), np.complex128)
    start = 0
    for stop in stops:
        kg[start:stop] = fv[start:stop] @ _W
        start = stop
    kg *= h[:, None]
    k15 = kg[:, 0]
    return k15.tolist(), np.abs(k15 - kg[:, 1]).tolist()


def integrate_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    a: Sequence[float], b: Sequence[float],
                    spec: QuadSpec = QuadSpec()) -> list[QuadResult]:
    """Adaptive integrals of one vectorized integrand over the lines [a, b].

    Line ``j`` runs over the finite ``[a[j], b[j]]``.  Each sweep evaluates
    the new panels of every unconverged line in one call ``f(xs, owner)``:
    ``xs`` is a 1D float64 array of abscissae and ``owner[i]`` the index of
    the line node ``xs[i]`` belongs to (all 0 for a lone line), which ``f``
    must not modify.
    ``f`` must return an array of the same length (real or complex).  Each
    line keeps its own panels, depths, tolerance test, worst-first
    selection and interval budget, so its result is bitwise what it gets in
    a batch of its own, whatever lines share its sweeps.  Non-convergence is
    reported per line through ``converged=False`` with the best available
    estimate, never silently.

    First-panel rule: the first sweep's values are tested before any panel
    list is built.  A line that converges there costs its share of one
    integrand call, one product and one ``QuadResult``; a line that does
    not is bisected from those values, never evaluated again.  Its
    first panel goes through the same 1-D reduction (``_first_panel``)
    whether the line runs alone or in a batch, which keeps it bitwise.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError(f"{n} lower but {len(b)} upper endpoints")
    for lo, hi in zip(a, b):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"need finite a < b, got [{lo}, {hi}]")
    if n == 0:
        return []
    if n == 1:
        h = float(0.5 * (b[0] - a[0]))
        fv = f(0.5 * (a[0] + b[0]) + h * _XGK, _OWNER0)
        firsts = [_first_panel(np.asarray(fv, dtype=np.complex128), h)]
    else:
        xs, h = _nodes(a, b)
        fv = f(xs.ravel(), np.repeat(np.arange(n), 15))
        fv = np.asarray(fv, dtype=np.complex128).reshape(n, 15)
        firsts = [_first_panel(row, hj) for row, hj in zip(fv, h.tolist())]

    results: list[QuadResult] = [None] * n
    over = []           # lines whose first panel is over its tolerance
    for j, (v, e) in enumerate(firsts):
        tol = max(spec.abs_tol, spec.rel_tol * abs(v))
        if tol < e < math.inf:
            over.append(j)
        else:
            # converged, or an error no bisection is chosen for (NaN, inf)
            # 0 + v is the one-panel sum as sum() forms it below
            results[j] = QuadResult(0 + v, e, 15, e <= tol, -1, 1, 0)
    if not over:
        return results

    # per-line panel lists, built only once some line needs refinement; a
    # lone panel over its tolerance is always bisected (the rule below)
    lefts, rights, depths, vals, errs, evals = {}, {}, {}, {}, {}, {}
    plans = []          # (line, panels to bisect, their midpoints)
    for j in over:
        v, e = firsts[j]
        lefts[j], rights[j], depths[j] = [a[j]], [b[j]], [0]
        vals[j], errs[j], evals[j] = [v], [e], 15
        plans.append((j, [0], [0.5 * (a[j] + b[j])]))

    while plans:
        ls: list = []
        rs: list = []
        for j, refine, mids in plans:
            lj, rj = lefts[j], rights[j]
            for i, m in zip(refine, mids):
                ls += (lj[i], m)
                rs += (m, rj[i])
        sizes = [2 * len(refine) for _, refine, _ in plans]
        stops = np.cumsum(sizes).tolist()
        owner = np.repeat([j for j, _, _ in plans], [15 * s for s in sizes])
        nv, ne = _panels(f, ls, rs, owner, stops)
        start = 0
        for j, refine, mids in plans:
            evals[j] += 30 * len(refine)
            lj, rj, dj = lefts[j], rights[j], depths[j]
            vj, ej = vals[j], errs[j]
            # splice children back in position order, right to left so
            # that the indices still to splice stay valid
            for k in reversed(range(len(refine))):
                i, m = refine[k], mids[k]
                d = dj[i] + 1
                c = start + 2 * k
                lj[i:i + 1] = [lj[i], m]
                rj[i:i + 1] = [m, rj[i]]
                dj[i:i + 1] = [d, d]
                vj[i:i + 1] = nv[c:c + 2]
                ej[i:i + 1] = ne[c:c + 2]
            start += 2 * len(refine)

        swept, plans = plans, []
        for j, _, _ in swept:
            vj, ej, dj = vals[j], errs[j], depths[j]
            total = complex(sum(vj))        # position order: deterministic
            tot_err = float(sum(ej))
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            refine = []
            if tot_err > tol:
                cut = max(0.25 * max(ej), tol / (2.0 * len(ej)))
                refine = [i for i, e in enumerate(ej)
                          if e > cut and dj[i] < spec.max_depth]
            if not refine or len(ej) + len(refine) > _MAX_INTERVALS:
                results[j] = QuadResult(total, tot_err, evals[j],
                                        tot_err <= tol, -1, len(ej), max(dj))
                continue
            lj, rj = lefts[j], rights[j]
            plans.append((j, refine, [0.5 * (lj[i] + rj[i]) for i in refine]))
    return results


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Adaptive integral of a vectorized integrand over the finite [a, b].

    The batch-of-one case of ``integrate_batch``: ``f`` receives a 1D
    float64 array of abscissae and must return an array of the same length
    (real or complex).  Non-convergence is reported through
    ``converged=False`` with the best available estimate, never silently.
    """
    return integrate_batch(lambda xs, owner: f(xs), (a,), (b,), spec)[0]


def integrate_nested(f: Callable, domains: Sequence[tuple[float, float]],
                     spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Nested adaptive integration over one to five finite dimensions.

    ``domains`` is ordered outermost to innermost.  The integrand is called
    as ``f(x0, ..., x_{d-2}, xs)`` where the leading arguments are scalars
    of the enclosing levels and ``xs`` is an array over the innermost
    variable; it must return an array of matching length.  Each level inward
    runs with tolerances tightened by one order of magnitude.  The result
    counts the evaluations and intervals of every level and the deepest
    bisection of any; if a level did not converge, ``fail_dim`` is the
    innermost such dimension index (innermost = d-1).
    """
    d = len(domains)
    if d < 1 or d > 5:
        raise ValueError("integrate_nested supports 1..5 dimensions")
    specs = [spec]
    for _ in range(d - 1):
        specs.append(specs[-1].tightened())
    evals = intervals = depth = 0
    fail = -1

    def level(idx: int, fx: Callable) -> QuadResult:
        """Integrate fx, its outer variables bound, over domains[idx:]."""
        nonlocal evals, intervals, depth, fail
        if idx == d - 1:
            g = fx
        else:
            def g(xs: np.ndarray) -> np.ndarray:
                return np.array([level(idx + 1, partial(fx, x)).value
                                 for x in xs.tolist()], dtype=np.complex128)
        res = integrate_1d(g, *domains[idx], specs[idx])
        evals += res.evaluations
        intervals += res.intervals
        depth = max(depth, res.max_depth)
        if not res.converged:
            fail = max(fail, idx)
        return res

    top = level(0, f)
    return QuadResult(top.value, top.err_est, evals, fail < 0, fail,
                      intervals, depth)
