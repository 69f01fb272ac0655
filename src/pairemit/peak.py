"""Closed-form bunching peak, angular envelope, and threshold maps.

The height dQ = Q(r, pi) - 1 of the back-to-back bunching peak, valid for
k_F r >> 1, mu >> E_C, r/(k_F w^2) >> 1, is

    dQ = pi^2 / (32 K1(|D|/E_C)^2)
         * | H0^(2)( i w^2/(pi^2 xi^2) - r/(2 pi^2 k_F xi^2) )
             - 4 L e^{i r/(2 pi^2 k_F xi^2)} / (pi sqrt(i r / (k_F w^2))) |^2

with xi the Pippard length and L a smooth bounded function of w taken as 1
for w >= lambda_F; below that L is not modelled.  The validity conditions
carry documented numeric cutoffs, surfaced as regime flags: kfr_large
(k_F r >= 50), ec_small (mu/E_C >= 20), spread_large (r/(k_F w^2) >= 10)
and w_large (w >= lambda_F), by model.regime_flags.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .entanglement import Q_BELL_THRESHOLD, Q_ENTANGLEMENT_THRESHOLD
from .model import (LAMBDA_F, MU, SWEEPABLE, EmitterParams, pippard_length,
                    regime_flags)
from .specfun import bessel_k1, hankel2_0

__all__ = [
    "PeakResult", "SweepSpec", "SweepResult", "FIG3_PANELS",
    "delta_q_peak", "delta_q_grid", "angular_profile", "threshold_maps",
    "DQ_ENTANGLEMENT", "DQ_BELL",
]

# dQ thresholds equivalent to Q = 3/2 and Q = 2 + sqrt(2): 0.5 and
# 1 + sqrt(2), each exact as its Q threshold minus 1
DQ_ENTANGLEMENT = Q_ENTANGLEMENT_THRESHOLD - 1.0
DQ_BELL = Q_BELL_THRESHOLD - 1.0

# |H0^(2)(z)|^2 grows as e^{2 Im z}: past Im z = log(max double)/2 the
# squared Hankel factor of dQ has no double-precision value
_HANKEL_IM_MAX = 0.5 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class PeakResult:
    """Closed-form peak height with regime flags."""

    delta_q: float
    regime_ok: dict
    meta: dict = field(default_factory=dict)


def _columns(abs_delta, ec, w, r) -> list[np.ndarray]:
    """|Delta|/mu, E_C/mu, w/lambda_F and r/lambda_F as 1-D float arrays
    (length 1 or n).  The first point that is no valid EmitterParams with
    a finite r > 0, or has |Delta| < 0, raises ValueError naming it as that
    point alone would."""
    cols = [np.asarray(x, float).reshape(-1) for x in (abs_delta, ec, w, r)]
    ad, ec, w, r = cols
    ok = (ad >= 0.0) & (ad < MU) & (ec > 0.0) & (ec < math.inf) \
        & (w > 0.0) & (w < math.inf) & (r > 0.0) & (r < math.inf)
    if not ok.all():                # the first bad point raises as if alone
        i = int(np.argmin(ok))
        ad, ec, w, r = (np.broadcast_to(c, ok.shape)[i] for c in cols)
        if ad < 0.0:
            raise ValueError(
                f"|Delta| must be non-negative, got |Delta|/mu = {ad:g} at "
                f"point {i} (E_C/mu = {ec:g}, w/lambda_F = {w:g}, "
                f"r/lambda_F = {r:g})")
        EmitterParams(ad, ec, w)
        raise ValueError(
            f"detector distance must be positive and finite, got r = {r}")
    return cols


def _k1_terms(ad, ec) -> tuple[np.ndarray, np.ndarray]:
    """The prefactor pi^2/(32 K1(|Delta|/E_C)^2) of dQ and K1's error bound,
    |Delta| > 0; the prefactor is inf where K1^2 underflows (|Delta|/E_C
    above ~354)."""
    k1 = bessel_k1(ad / ec)
    denom = 32.0 * k1.value * k1.value      # 0 where K1^2 underflows
    prefactor = np.divide(math.pi ** 2, denom,
                          out=np.full(denom.shape, np.inf), where=denom > 0.0)
    return prefactor, k1.est_error


def _hankel_terms(xi2, w, r) -> tuple[np.ndarray, np.ndarray]:
    """z and s of dQ = prefactor |H0^(2)(z) - s|^2, xi^2 in (k_F^-1
    units)^2."""
    w2 = (w * LAMBDA_F) ** 2
    r_kf = r * LAMBDA_F
    u = r_kf / (2.0 * math.pi ** 2 * xi2)
    arg = 1j * (w2 / (math.pi ** 2 * xi2)) - u
    # s = 4 e^{iu} / (pi sqrt(i r / (k_F w^2))), principal square root
    second = 4.0 * np.exp(1j * u) / (math.pi * np.sqrt(1j * (r_kf / w2)))
    return arg, second


def _evaluate(ad, ec, w, r) -> tuple[np.ndarray, np.ndarray]:
    """dQ and its error bound over checked columns with |Delta| > 0.  The
    first element where the Hankel factor overflows raises ValueError
    naming it."""
    arg, second = _hankel_terms(pippard_length(ad) ** 2, w, r)
    prefactor, k1_err = _k1_terms(ad, ec)
    if np.count_nonzero(over := arg.imag > _HANKEL_IM_MAX):
        ad, ec, w, r = np.broadcast_arrays(ad, ec, w, r)
        i = int(np.argmax(over))
        raise ValueError(
            f"dQ overflows at |Delta|/mu = {ad[i]:g}, "
            f"E_C/mu = {ec[i]:g}, w/lambda_F = {w[i]:g}, "
            f"r/lambda_F = {r[i]:g}: the Hankel argument has Im z = "
            f"w^2/(pi^2 xi^2) = {arg[i].imag:.4g} > {_HANKEL_IM_MAX:.4g}")
    h2 = hankel2_0(arg)
    diff = np.abs(h2.value - second)
    dq = prefactor * diff ** 2
    # propagated bound: the Hankel factor's error and twice K1's (K1^-2)
    rel = 2.0 * h2.est_error * np.abs(h2.value) \
        / np.maximum(diff, 1e-300) + 2.0 * k1_err
    return dq, dq * rel


def _paired(f, cols) -> tuple[np.ndarray, np.ndarray]:
    """f(*cols), dQ and its bound, on the elements with |Delta| > 0; both
    are 0 where Delta = 0 (no pairs)."""
    if np.count_nonzero(cols[0]) == cols[0].size:
        return f(*cols)
    cols = np.broadcast_arrays(*cols)
    pair = cols[0] != 0.0
    out = np.zeros(pair.shape), np.zeros(pair.shape)
    for o, v in zip(out, f(*(c[pair] for c in cols))):
        o[pair] = v
    return out


def delta_q_grid(abs_delta, ec, w, r) -> tuple[np.ndarray, np.ndarray]:
    """dQ and its error bound, elementwise over |Delta|/mu, E_C/mu,
    w/lambda_F and r/lambda_F (scalars or 1-D arrays of one length n).
    dQ = 0 where Delta = 0 and inf where K1(|Delta|/E_C)^2 underflows.  The
    first element that is no valid EmitterParams with a finite r > 0, has
    |Delta| < 0, or where the Hankel factor overflows, raises ValueError
    naming it as that point alone would."""
    return _paired(_evaluate, _columns(abs_delta, ec, w, r))


def delta_q_peak(params: EmitterParams, r: float) -> PeakResult:
    """Bunching-peak height dQ at detector distance r (units of lambda_F).

    Evaluates the closed form with Lambda = 1; the normal state Delta = 0
    gives dQ = 0 by definition (no pair correlation).  Regime violations
    downgrade to flags, never errors.  dQ is inf where K1(|Delta|/E_C)^2
    underflows.  Raises ValueError for an r that is not finite and > 0,
    and where the Hankel factor would overflow (w^2/(pi^2 xi^2) >
    _HANKEL_IM_MAX, e.g. w >~ 2000 lambda_F at the figure gap).  The
    length-1 case of the grid evaluation.
    """
    dq = delta_q_grid(params.abs_delta, params.ec, params.w, r)[0]
    return peak_result(params, r, dq)


def peak_result(params: EmitterParams, r: float, dq) -> PeakResult:
    """The PeakResult of delta_q_peak(params, r) from a delta_q_grid dQ
    column whose first element is at params and r.  Lets a caller that
    evaluates more points with the same K1 (e.g. robustness.averaged_peak)
    build the unperturbed result from that one evaluation."""
    flags = regime_flags(params.ec, params.w, r)
    return PeakResult(delta_q=float(dq[0]),
                      regime_ok={k: bool(v) for k, v in flags.items()})


def peak_envelope(params: EmitterParams, r) -> np.ndarray | float:
    """Smooth upper envelope of the oscillating dQ(r) at fixed parameters,
    elementwise over r (a scalar r gives a float), checked as delta_q_grid.

    At its second-quadrant argument z the Hankel function carries both
    asymptotic phases (H0^(2)(z) = 2 J0(-z) + H0^(2)(-z)), so |H0^(2)(z)|
    itself oscillates with r between |H0^(2)(-z)| and 3 |H0^(2)(-z)|, where
    -z sits in the fourth quadrant and its modulus sqrt(J0^2 + Y0^2) is the
    familiar smooth one.  The envelope of dQ is therefore the prefactor
    times (3 |H0^(2)(-z)| + |s|)^2 with s the subtracted term.  Used by the
    decay-law diagnostics.
    """
    cols = _columns(params.abs_delta, params.ec, params.w, r)
    if params.abs_delta == 0.0:
        env = np.zeros(cols[3].shape)
    else:
        arg, second = _hankel_terms(pippard_length(cols[0]) ** 2, *cols[2:])
        prefactor = _k1_terms(*cols[:2])[0]
        habs = np.abs(hankel2_0(-arg).value)    # fourth quadrant: smooth
        env = prefactor * (3.0 * habs + np.abs(second)) ** 2
    return env if np.ndim(r) else float(env[0])


def angular_profile(theta, params: EmitterParams):
    """Angular envelope of the bunching peak, 1 at theta = pi, elementwise.

    exp(-8 k_F^2 w^2 sin^2((pi - theta)/4)); the full off-peak Q(theta)
    lives in the correlations module.
    """
    if not np.all((0.0 <= theta) & (theta < 2.0 * math.pi)):
        raise ValueError("theta must lie in [0, 2 pi)")
    w = params.w_kf
    s = np.sin((math.pi - theta) / 4.0)
    return np.exp(-8.0 * w * w * s * s)


def misalignment_tolerance(params: EmitterParams) -> float:
    """Angle deviation at which the small-angle envelope drops to e^{-1/2}.

    In the small-angle expansion the envelope is exp(-k_F^2 w^2 dtheta^2/2),
    so the e^{-1/2} point sits at dtheta = 1/(k_F w).
    """
    return 1.0 / params.w_kf


# ---------------------------------------------------------------------------
# parameter sweeps / threshold maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid over one parameter with the others held at the base values."""

    base: EmitterParams
    r: float                      # lambda_F units
    param: str                    # one of delta | ec | w | r
    grid: tuple[float, ...]

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ValueError(f"sweep parameter must be one of {SWEEPABLE}")
        if len(self.grid) == 0:
            raise ValueError("empty sweep grid")
        g = np.asarray(self.grid, dtype=float)
        if not (np.all(np.diff(g) > 0) or np.all(np.diff(g) < 0)):
            raise ValueError("sweep grid must be strictly monotone")


# the four panels of `pairemit fig3`: each swept parameter's 60-value grid
FIG3_PANELS = {
    "delta": tuple(np.geomspace(1e-4, 1e-2, 60)),
    "ec": tuple(np.geomspace(3e-4, 3e-2, 60)),
    "w": tuple(np.linspace(0.5, 4.0, 60)),
    "r": tuple(np.geomspace(10.0, 3.0e6, 60)),
}


@dataclass
class SweepResult:
    """Tabulated peak heights plus the located threshold crossings."""

    param: str
    values: np.ndarray
    delta_q: np.ndarray
    regime_ok: dict               # flag name -> bool array over values
    crossings: dict               # threshold name -> list of crossing values
    delta_q_err: np.ndarray


def _sweep_columns(spec: SweepSpec, values) -> list:
    """|Delta|, E_C, w and r at the swept values, the others at the base."""
    cols = {"delta": spec.base.abs_delta, "ec": spec.base.ec,
            "w": spec.base.w, "r": spec.r}
    cols[spec.param] = np.abs(values) if spec.param == "delta" else values
    return [cols[k] for k in ("delta", "ec", "w", "r")]


def _illinois(f, x0: list, x1: list, f0: list, f1: list,
              rel_tol: float = 1e-6) -> list[float]:
    """Roots of f in the brackets [x0[j], x1[j]] (f0[j], f1[j] of opposite
    signs) by Illinois regula falsi: a step that keeps the older end again
    halves its f.  Open brackets advance in lockstep, one call f(xs, owner)
    per step (owner[i] the bracket of xs[i]), so each root is what its
    bracket gives alone; a bracket closes at |x1 - x0| <= rel_tol |mid|."""
    for _ in range(200):
        todo = [j for j, (a, b) in enumerate(zip(x0, x1))
                if abs(b - a) > rel_tol * abs(0.5 * (a + b))]
        if not todo:
            break
        xs = [x1[j] - f1[j] * (x1[j] - x0[j]) / (f1[j] - f0[j]) for j in todo]
        # an inf end or roundoff puts the secant point off the bracket: bisect
        xs = [c if min(x0[j], x1[j]) < c < max(x0[j], x1[j])
              else 0.5 * (x0[j] + x1[j]) for j, c in zip(todo, xs)]
        for j, c, fc in zip(todo, xs, f(np.array(xs), todo)):
            if fc == 0.0:
                x0[j] = c
            elif (fc > 0.0) != (f1[j] > 0.0):
                x0[j], f0[j] = x1[j], f1[j]
            else:
                f0[j] *= 0.5
            x1[j], f1[j] = c, fc
    return [0.5 * (a + b) for a, b in zip(x0, x1)]      # the midpoints


def threshold_maps(specs) -> list[SweepResult]:
    """Peak heights over the grids of several sweeps, with their
    entanglement/Bell crossings located; one SweepResult per spec, each
    bitwise the map of that spec alone.

    The grids are checked in spec order (the first bad point raises as it
    would alone), then evaluated together as one array.  A grid value
    exactly on a threshold (dQ = 1/2, i.e. Q = 3/2, or dQ = sqrt(2)+1,
    Bell) is that crossing; the others, bracketed by neighbours of one
    grid, are refined together by Illinois regula falsi to a bracket of
    1e-6 relative in the swept parameter.
    """
    if not specs:
        return []
    values = [np.asarray(s.grid, dtype=float) for s in specs]
    sizes = [v.size for v in values]
    ends = np.cumsum(sizes)
    grid = np.empty((4, ends[-1]))      # |Delta|, E_C, w, r of each element
    for spec, v, lo, hi in zip(specs, values, ends - sizes, ends):
        for row, c in zip(grid, _columns(*_sweep_columns(spec, v))):
            row[lo:hi] = c
    kind = np.repeat([SWEEPABLE.index(s.param) for s in specs], sizes)
    dq, dq_err = _paired(_evaluate, list(grid))

    x = np.concatenate(values)
    # crossings (threshold k, element i): a grid value exactly on its target
    # is one, a bracket [i, i]; a sign change within a grid brackets [i, i+1]
    t = np.array([[DQ_ENTANGLEMENT], [DQ_BELL]])
    s = np.sign(dq - t)
    hit = s == 0.0
    step = s[:, :-1] * s[:, 1:] < 0.0
    step[:, ends[:-1] - 1] = False          # no bracket spans two grids
    hit[:, :-1] |= step
    k, i = np.nonzero(hit)
    j = np.where(s[k, i] == 0.0, i, i + 1)
    # each bracket's grid columns, swept row and target
    at_i, kind_i, target = grid[:, i], kind[i], t[k, 0]

    def excess(xs, owner):
        # dQ - target at brackets owner, their swept parameter moved to xs
        owner = np.array(owner)
        at = at_i[:, owner]
        swept = kind_i[owner]
        at[swept, np.arange(owner.size)] = np.where(swept == 0, np.abs(xs),
                                                    xs)
        return (_paired(_evaluate, list(at))[0] - target[owner]).tolist()

    roots = _illinois(excess, x[i].tolist(), x[j].tolist(),
                      (dq[i] - target).tolist(), (dq[j] - target).tolist())
    owner = np.searchsorted(ends, i, side="right")
    flags = regime_flags(*grid[1:])
    out = []
    for n, (spec, lo, hi) in enumerate(zip(specs, ends - sizes, ends)):
        mine = [(kx, root) for kx, root, o in zip(k, roots, owner) if o == n]
        out.append(SweepResult(
            param=spec.param,
            values=values[n],
            delta_q=dq[lo:hi],
            regime_ok={name: f[lo:hi] for name, f in flags.items()},
            crossings={name: [root for kx, root in mine if kx == m]
                       for m, name in enumerate(("entangled", "bell"))},
            delta_q_err=dq_err[lo:hi],
        ))
    return out
