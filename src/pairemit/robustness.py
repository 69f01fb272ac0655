"""Static-fluctuation averaging of the bunching peak.

Tip imperfections enter as Gaussian static fluctuations of the emitting
region size w and of the tip position r0.  Averages are deterministic
Gauss-Hermite sums (no randomness): the w average acts on the peak formula
directly, the transverse tip displacement acts through the misalignment
channel dtheta ~ |r0_perp| / r folded into the angular envelope, and the
longitudinal component simply shifts r (negligible against r itself, so it
is folded into r as an identity here).  The displacement-to-dtheta mapping
is an interpretation of a two-sentence analysis, and is flagged as such in
the result metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EmitterParams
from .peak import PeakResult, angular_profile, delta_q_peak

__all__ = ["FluctuationSpec", "averaged_peak"]


@dataclass(frozen=True)
class FluctuationSpec:
    """Standard deviations (units of lambda_F) and quadrature order."""

    sigma_w: float = 0.0
    sigma_r0: float = 0.0
    samples: int = 21

    def __post_init__(self):
        if self.sigma_w < 0.0 or self.sigma_r0 < 0.0:
            raise ValueError("fluctuation sigmas must be non-negative")
        if self.samples < 1:
            raise ValueError("quadrature order must be positive")


def averaged_peak(params: EmitterParams, r: float,
                  fluct: FluctuationSpec) -> PeakResult:
    """Gauss-Hermite average of the peak height over static fluctuations.

    Returns a PeakResult whose delta_q is the averaged value; meta carries
    the unperturbed value and the fractional degradation.  Rejects sigma_w
    large enough to push w non-positive at a quadrature node.
    """
    base = delta_q_peak(params, r)
    nodes, weights = np.polynomial.hermite.hermgauss(fluct.samples)
    norm = math.sqrt(math.pi)

    # size-fluctuation average over w: quadrature nodes that land at
    # non-physical w <= 0 are dropped and the rule renormalized, provided
    # they carry negligible Gaussian mass; if the distribution itself puts
    # real weight there, the Gaussian fluctuation model is invalid
    if fluct.sigma_w > 0.0:
        ws = params.w + math.sqrt(2.0) * fluct.sigma_w * nodes
        keep = ws > 0.0
        dropped = float(np.sum(weights[~keep])) / norm
        if dropped > 1e-2:
            raise ValueError(
                f"sigma_w = {fluct.sigma_w} puts {dropped:.1%} of the "
                "Gaussian mass at w <= 0; fluctuation model invalid"
            )
        vals = np.array([
            delta_q_peak(EmitterParams(params.delta, params.ec, wi), r).delta_q
            for wi in ws[keep]
        ])
        dq_w = float(np.sum(weights[keep] * vals) / np.sum(weights[keep]))
    else:
        dq_w = base.delta_q

    # transverse tip displacement -> misalignment dtheta = |r0_perp| / r,
    # averaged over the two transverse components
    if fluct.sigma_r0 > 0.0:
        scale = math.sqrt(2.0) * fluct.sigma_r0 / r
        xx = scale * nodes
        env = np.empty((fluct.samples, fluct.samples))
        for i, xi in enumerate(xx):
            for j, yj in enumerate(xx):
                dtheta = math.hypot(xi, yj)
                env[i, j] = angular_profile(math.pi - dtheta, params)
        env_factor = float(weights @ env @ weights / (norm * norm))
    else:
        env_factor = 1.0

    dq_avg = dq_w * env_factor
    frac = 0.0 if base.delta_q == 0.0 else 1.0 - dq_avg / base.delta_q
    return PeakResult(
        delta_q=dq_avg,
        hankel_arg=base.hankel_arg,
        regime_ok=base.regime_ok,
        lambda_warning=base.lambda_warning,
        meta={
            "unperturbed_delta_q": base.delta_q,
            "fractional_degradation": frac,
            "envelope_factor": env_factor,
            "displacement_mapping": "transverse-only, dtheta = |r0_perp|/r "
                                    "(interpretation)",
        },
    )
