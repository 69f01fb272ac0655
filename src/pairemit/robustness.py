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
from .peak import PeakResult, angular_profile, delta_q_grid, peak_result

__all__ = ["FluctuationSpec", "averaged_peak"]


@dataclass(frozen=True)
class FluctuationSpec:
    """Standard deviations of w and r0, in units of lambda_F."""

    sigma_w: float = 0.0
    sigma_r0: float = 0.0

    def __post_init__(self):
        for name in ("sigma_w", "sigma_r0"):
            sigma = getattr(self, name)
            if not 0.0 <= sigma < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {sigma}")


# the Gauss-Hermite rule of every average, 21 nodes, shared read-only
_NODES, _WEIGHTS = np.polynomial.hermite.hermgauss(21)
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


def averaged_peak(params: EmitterParams, r: float,
                  fluct: FluctuationSpec) -> PeakResult:
    """Gauss-Hermite average of the peak height over static fluctuations.

    Returns a PeakResult whose delta_q is the averaged value; meta carries
    the unperturbed value and the fractional degradation.  Rejects sigma_w
    that puts real weight at w <= 0, sigma_r0 that tilts a node past pi.
    """
    if not 0.0 < r < math.inf:              # before dividing by it
        raise ValueError(
            f"detector distance must be positive and finite, got r = {r}")
    nodes, weights = _NODES, _WEIGHTS
    norm = math.sqrt(math.pi)
    # transverse tip displacement -> misalignment dtheta = |r0_perp| / r,
    # from the two transverse components at the nodes
    dtheta = math.sqrt(2.0) * fluct.sigma_r0 \
        * np.hypot(nodes[:, None], nodes) / r
    if dtheta.max() > math.pi:
        raise ValueError(
            f"sigma_r0 = {fluct.sigma_r0} at r = {r} puts a node at |r0_perp|"
            f" = {dtheta.max() * r:.4g} lambda_F, beyond pi r; invalid")
    # size-fluctuation average over w: quadrature nodes that land at
    # non-physical w <= 0 are dropped and the rule renormalized, provided
    # they carry negligible Gaussian mass; if the distribution itself puts
    # real weight there, the Gaussian fluctuation model is invalid
    ws = np.array([params.w])
    if fluct.sigma_w > 0.0:
        w_nodes = params.w + math.sqrt(2.0) * fluct.sigma_w * nodes
        keep = w_nodes > 0.0
        dropped = float(np.sum(weights[~keep])) / norm
        if dropped > 1e-2:
            raise ValueError(
                f"sigma_w = {fluct.sigma_w} puts {dropped:.1%} of the "
                "Gaussian mass at w <= 0; fluctuation model invalid"
            )
        ws = np.concatenate((ws, w_nodes[keep]))
    # the unperturbed peak and the w nodes in one evaluation, one K1
    dq = delta_q_grid(params.abs_delta, params.ec, ws, r)[0]
    base = peak_result(params, r, dq)
    if fluct.sigma_w > 0.0:
        dq_w = float(np.sum(weights[keep] * dq[1:]) / np.sum(weights[keep]))
    else:
        dq_w = base.delta_q

    if fluct.sigma_r0 > 0.0:
        env = angular_profile(math.pi - dtheta, params)
        env_factor = float(weights @ env @ weights / (norm * norm))
    else:
        env_factor = 1.0

    dq_avg = dq_w * env_factor
    frac = 0.0 if base.delta_q == 0.0 else 1.0 - dq_avg / base.delta_q
    return PeakResult(
        delta_q=dq_avg,
        regime_ok=base.regime_ok,
        meta={
            "unperturbed_delta_q": base.delta_q,
            "fractional_degradation": frac,
            "envelope_factor": env_factor,
            "displacement_mapping": "transverse-only, dtheta = |r0_perp|/r "
                                    "(interpretation)",
        },
    )
