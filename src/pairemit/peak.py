"""Closed-form bunching peak, angular envelope, and threshold maps.

The height dQ = Q(r, pi) - 1 of the back-to-back bunching peak, valid for
k_F r >> 1, mu >> E_C, r/(k_F w^2) >> 1, is

    dQ = pi^2 / (32 K1(|D|/E_C)^2)
         * | H0^(2)( i w^2/(pi^2 xi^2) - r/(2 pi^2 k_F xi^2) )
             - 4 L e^{i r/(2 pi^2 k_F xi^2)} / (pi sqrt(i r / (k_F w^2))) |^2

with xi the Pippard length and L a smooth bounded function of w taken as 1
for w >= lambda_F (below that a validity flag is raised rather than
modelling it).  The regime conditions carry documented numeric cutoffs
(k_F r >= 50, mu/E_C >= 20, r/(k_F w^2) >= 10), surfaced as flags.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .model import (LAMBDA_F, REGIME_KFR, REGIME_SPREAD, EmitterParams,
                    derive_params)
from .specfun import bessel_k1, hankel2_0, principal_sqrt

__all__ = [
    "PeakResult", "SweepSpec", "SweepResult",
    "delta_q_peak", "angular_profile", "threshold_map",
    "DQ_ENTANGLEMENT", "DQ_BELL",
    "REGIME_MU_OVER_EC",
]

# dQ thresholds equivalent to Q = 3/2 and Q = sqrt(2)/(sqrt(2)-1)
DQ_ENTANGLEMENT = 0.5
DQ_BELL = math.sqrt(2.0) + 1.0

REGIME_MU_OVER_EC = 20.0

# |H0^(2)(z)|^2 grows as e^{2 Im z}: past Im z = log(max double)/2 the
# squared Hankel factor of dQ has no double-precision value
_HANKEL_IM_MAX = 0.5 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class PeakResult:
    """Closed-form peak height with regime flags."""

    delta_q: float
    hankel_arg: complex
    regime_ok: dict
    lambda_warning: bool = False
    meta: dict = field(default_factory=dict)


def _regime_flags(params: EmitterParams, r_kf: float) -> dict:
    return {
        "kfr_large": r_kf >= REGIME_KFR,
        "ec_small": 1.0 / params.ec >= REGIME_MU_OVER_EC,
        "spread_large": r_kf / params.w_kf ** 2 >= REGIME_SPREAD,
    }


def _peak_terms(params: EmitterParams,
                r_kf: float) -> tuple[complex, complex, float]:
    """Hankel argument z, subtracted term s and prefactor pi^2/(32 K1^2) of
    dQ = prefactor * |H0^(2)(z) - s|^2 (|Delta| > 0).  The prefactor is inf
    where K1(|Delta|/E_C)^2 underflows (|Delta|/E_C above about 354)."""
    xi = derive_params(params).xi          # k_F^-1 units
    w = params.w_kf
    arg = 1j * w * w / (math.pi ** 2 * xi ** 2) \
        - r_kf / (2.0 * math.pi ** 2 * xi ** 2)
    phase = cmath.exp(1j * r_kf / (2.0 * math.pi ** 2 * xi ** 2))
    second = 4.0 * phase / (math.pi * principal_sqrt(1j * r_kf / (w * w)))
    k1 = bessel_k1(params.abs_delta / params.ec)
    denom = 32.0 * k1 * k1
    prefactor = math.pi ** 2 / denom if denom > 0.0 else math.inf
    return arg, second, prefactor


def delta_q_peak(params: EmitterParams, r: float) -> PeakResult:
    """Bunching-peak height dQ at detector distance r (units of lambda_F).

    Evaluates the closed form with Lambda = 1; the normal state Delta = 0
    gives dQ = 0 by definition (no pair correlation).  Regime violations
    downgrade to flags, never errors.  dQ is inf where K1(|Delta|/E_C)^2
    underflows.  Raises ValueError where the Hankel factor would overflow
    (w^2/(pi^2 xi^2) > _HANKEL_IM_MAX, e.g. w >~ 2000 lambda_F at the
    figure gap).
    """
    if r <= 0.0:
        raise ValueError("detector distance must be positive")
    r_kf = r * LAMBDA_F
    flags = _regime_flags(params, r_kf)
    lam_warn = params.w < 1.0
    if params.abs_delta == 0.0:
        return PeakResult(
            delta_q=0.0, hankel_arg=0.0 + 0.0j, regime_ok=flags,
            lambda_warning=lam_warn,
        )
    arg, second, prefactor = _peak_terms(params, r_kf)
    if arg.imag > _HANKEL_IM_MAX:
        raise ValueError(
            f"dQ overflows at |Delta|/mu = {params.abs_delta:g}, "
            f"E_C/mu = {params.ec:g}, w/lambda_F = {params.w:g}, "
            f"r/lambda_F = {r:g}: the Hankel argument has Im z = "
            f"w^2/(pi^2 xi^2) = {arg.imag:.4g} > {_HANKEL_IM_MAX:.4g}")
    h2 = hankel2_0(arg)
    diff = h2.value - second
    dq = prefactor * abs(diff) ** 2
    # propagated bound: Hankel route error plus K1/assembly roundoff
    rel = 2.0 * h2.est_error * abs(h2.value) / max(abs(diff), 1e-300) \
        + 5e-13
    dq_err = dq * rel
    return PeakResult(
        delta_q=dq,
        hankel_arg=arg,
        regime_ok=flags,
        lambda_warning=lam_warn,
        meta={"hankel_est_error": h2.est_error, "delta_q_err": dq_err},
    )


def peak_envelope(params: EmitterParams, r: float) -> float:
    """Smooth upper envelope of the oscillating dQ(r) at fixed parameters.

    At its second-quadrant argument z the Hankel function carries both
    asymptotic phases (H0^(2)(z) = 2 J0(-z) + H0^(2)(-z)), so |H0^(2)(z)|
    itself oscillates with r between |H0^(2)(-z)| and 3 |H0^(2)(-z)|, where
    -z sits in the fourth quadrant and its modulus sqrt(J0^2 + Y0^2) is the
    familiar smooth one.  The envelope of dQ is therefore the prefactor
    times (3 |H0^(2)(-z)| + |s|)^2 with s the subtracted term.  Used by the
    decay-law diagnostics.
    """
    if params.abs_delta == 0.0:
        return 0.0
    arg, second, prefactor = _peak_terms(params, r * LAMBDA_F)
    habs = abs(hankel2_0(-arg).value)       # fourth quadrant: smooth modulus
    return prefactor * (3.0 * habs + abs(second)) ** 2


def angular_profile(theta: float, params: EmitterParams) -> float:
    """Angular envelope of the bunching peak, normalized to 1 at theta = pi.

    exp(-8 k_F^2 w^2 sin^2((pi - theta)/4)); the full off-peak Q(theta)
    lives in the correlations module.
    """
    if not 0.0 <= theta < 2.0 * math.pi:
        raise ValueError("theta must lie in [0, 2 pi)")
    w = params.w_kf
    s = math.sin((math.pi - theta) / 4.0)
    return math.exp(-8.0 * w * w * s * s)


def misalignment_tolerance(params: EmitterParams) -> float:
    """Angle deviation at which the small-angle envelope drops to e^{-1/2}.

    In the small-angle expansion the envelope is exp(-k_F^2 w^2 dtheta^2/2),
    so the e^{-1/2} point sits at dtheta = 1/(k_F w).
    """
    return 1.0 / params.w_kf


# ---------------------------------------------------------------------------
# parameter sweeps / threshold maps
# ---------------------------------------------------------------------------

_SWEEPABLE = ("delta", "ec", "w", "r")


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one parameter with the others held at the base values."""

    base: EmitterParams
    r: float                      # lambda_F units
    param: str                    # one of delta | ec | w | r
    grid: tuple[float, ...]

    def __post_init__(self):
        if self.param not in _SWEEPABLE:
            raise ValueError(f"sweep parameter must be one of {_SWEEPABLE}")
        if len(self.grid) == 0:
            raise ValueError("empty sweep grid")
        g = np.asarray(self.grid, dtype=float)
        if not (np.all(np.diff(g) > 0) or np.all(np.diff(g) < 0)):
            raise ValueError("sweep grid must be strictly monotone")


@dataclass
class SweepResult:
    """Tabulated peak heights plus bisected threshold crossings."""

    param: str
    values: np.ndarray
    delta_q: np.ndarray
    regime_ok: list
    crossings: dict               # threshold name -> list of crossing values
    delta_q_err: np.ndarray | None = None


def _peak_at(spec: SweepSpec, value: float) -> PeakResult:
    base = spec.base
    kw = dict(delta=base.delta, ec=base.ec, w=base.w)
    r = spec.r
    if spec.param == "r":
        r = value
    elif spec.param == "delta":
        # sweeps are over |Delta|; keep the base phase
        phase = base.delta / abs(base.delta) if abs(base.delta) else 1.0
        kw["delta"] = value * phase
    else:
        kw[spec.param] = value
    return delta_q_peak(EmitterParams(**kw), r)


def _bisect_crossing(spec: SweepSpec, lo: float, hi: float, target: float,
                     rel_tol: float = 1e-6) -> float:
    flo = _peak_at(spec, lo).delta_q - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= rel_tol * abs(mid):
            return mid
        fm = _peak_at(spec, mid).delta_q - target
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_map(spec: SweepSpec) -> SweepResult:
    """Peak height over the grid with entanglement/Bell crossings located.

    Crossings of dQ = 1/2 (Q = 3/2) and dQ = sqrt(2)+1 (Bell) are refined by
    bisection between bracketing grid points to 1e-6 relative in the swept
    parameter.
    """
    values = np.asarray(spec.grid, dtype=float)
    results = [_peak_at(spec, v) for v in values]
    dq = np.array([p.delta_q for p in results])
    dq_err = np.array([p.meta.get("delta_q_err", 0.0) for p in results])
    crossings: dict[str, list[float]] = {}
    for name, target in (("entangled", DQ_ENTANGLEMENT), ("bell", DQ_BELL)):
        found = []
        s = dq - target
        for i in range(len(values) - 1):
            if s[i] == 0.0 or (s[i] > 0) != (s[i + 1] > 0):
                found.append(_bisect_crossing(spec, values[i], values[i + 1],
                                              target))
        crossings[name] = found
    return SweepResult(
        param=spec.param,
        values=values,
        delta_q=dq,
        regime_ok=[p.regime_ok for p in results],
        crossings=crossings,
        delta_q_err=dq_err,
    )
