"""Physical parameters, derived scales, tunneling form factors, emission pole,
and the package's error types.

Unit convention (fixed throughout the package): hbar = 1, k_F = 1, mu = 1,
hence m = 1/2, lambda_F = 2 pi, and the normal-state dispersion is
eps_p = p^2 - 1.  All user-facing inputs are the dimensionless ratios
|Delta|/mu, E_C/mu, w/lambda_F, r/lambda_F; lengths are converted to k_F^-1
units internally (w_kf = 2 pi w, etc.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .quad import QuadResult

__all__ = [
    "KF", "MU", "MASS", "LAMBDA_F", "REGIME_KFR", "REGIME_SPREAD", "SWEEPABLE",
    "REGIME_MU_OVER_EC", "EmitterParams", "PARAMS_FIG", "R_FIG",
    "DerivedParams", "OutOfBandError", "NonConvergenceError",
    "UndefinedQError", "regime_flags", "derive_params", "pippard_length",
    "form_factors", "pole_momentum",
]

KF = 1.0
MU = 1.0
MASS = 0.5           # from k_F = sqrt(2 m mu) = 1 with mu = 1
LAMBDA_F = 2.0 * math.pi

# Numeric cutoffs of the paper's validity conditions k_F r >> 1,
# r / (k_F w^2) >> 1 and mu >> E_C, shared by both routes (regime_flags).
REGIME_KFR = 50.0
REGIME_SPREAD = 10.0
REGIME_MU_OVER_EC = 20.0

# the inputs a parameter sweep can vary: |Delta|, E_C, w and r
SWEEPABLE = ("delta", "ec", "w", "r")


class OutOfBandError(ValueError):
    """Quasiparticle energy at or above mu: no propagating emission pole."""


class NonConvergenceError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance contract."""

    def __init__(self, msg: str, result: QuadResult | None = None):
        super().__init__(msg)
        self.result = result


class UndefinedQError(ZeroDivisionError):
    """One-particle density vanished; the normalized coincidence is undefined."""


@dataclass(frozen=True)
class EmitterParams:
    """Physical inputs of the emitter, in dimensionless Fermi units.

    Parameters
    ----------
    delta
        Superconducting gap Delta, complex, in units of mu.  The phase is
        carried; every observable must be independent of it.
    ec
        Tunneling-filter energy scale E_C in units of mu.
    w
        Size of the emitting region in units of lambda_F.
    """

    delta: complex
    ec: float
    w: float

    def __post_init__(self):
        if not 0.0 < self.ec < math.inf:
            raise ValueError(f"E_C must be positive and finite, got {self.ec}")
        if not 0.0 < self.w < math.inf:
            raise ValueError(f"w must be positive and finite, got {self.w}")
        if not abs(self.delta) < MU:            # NaN fails here too
            raise ValueError("weak-coupling guard requires a finite "
                             f"|Delta| < mu, got {abs(self.delta)}")

    @property
    def abs_delta(self) -> float:
        return abs(self.delta)

    @property
    def w_kf(self) -> float:
        """Emitting-region size in k_F^-1 units."""
        return self.w * LAMBDA_F


# the figure point: |Delta| = E_C = 2.997e-3 mu (xi = 33.8 lambda_F),
# w = lambda_F, detectors at r = 100 lambda_F; the CLI's defaults
PARAMS_FIG = EmitterParams(delta=2.997e-3, ec=2.997e-3, w=1.0)
R_FIG = 100.0


@dataclass(frozen=True)
class DerivedParams:
    """Derived scales.  xi is in k_F^-1 units; math.inf when Delta = 0."""

    xi: float
    lambda_f: float
    w_over_xi: float
    delta_over_ec: float

    @property
    def xi_over_lambda_f(self) -> float:
        return self.xi / self.lambda_f


def pippard_length(abs_delta):
    """xi = k_F / (pi m |Delta|) in k_F^-1 units, elementwise, |Delta| > 0."""
    return KF / (math.pi * MASS * abs_delta)


def derive_params(p: EmitterParams) -> DerivedParams:
    """Pippard length and convenience ratios.

    xi = k_F / (pi m |Delta|); Delta = 0 yields the infinite-xi sentinel.
    The identity xi/lambda_F = mu/(pi^2 |Delta|) holds by construction.
    """
    ad = p.abs_delta
    if ad == 0.0:
        xi = math.inf
        w_over_xi = 0.0
    else:
        xi = pippard_length(ad)
        w_over_xi = p.w_kf / xi
    return DerivedParams(
        xi=xi,
        lambda_f=LAMBDA_F,
        w_over_xi=w_over_xi,
        delta_over_ec=ad / p.ec,
    )


def form_factors(p_vec: np.ndarray, k_vec: np.ndarray,
                 params: EmitterParams) -> tuple[float, float, float]:
    """Tunneling form factors g(p - k), h(p), and T = h(p) g(p - k).

    g(q) = (2 pi)^-3 exp(-q^2 w^2 / 2) with w in k_F^-1 units;
    h(p) = (|p|/m)^(1/2) exp(eps_p / 2 E_C).  Underflow to zero for large
    arguments is permitted.
    """
    p_vec = np.asarray(p_vec, dtype=float)
    k_vec = np.asarray(k_vec, dtype=float)
    pmag = float(np.linalg.norm(p_vec))
    if pmag <= 0.0:
        raise ValueError("h(p) requires |p| > 0")
    w = params.w_kf
    q2 = float(np.dot(p_vec - k_vec, p_vec - k_vec))
    g = (2.0 * math.pi) ** -3 * math.exp(-0.5 * q2 * w * w)
    eps_p = pmag * pmag - MU
    h = math.sqrt(pmag / MASS) * math.exp(0.5 * eps_p / params.ec)
    return g, h, h * g


def regime_flags(ec, w, r) -> dict:
    """The paper's four validity conditions, elementwise over E_C/mu,
    w/lambda_F and r/lambda_F (scalars or arrays), against the REGIME_
    cutoffs; w_large is w >= lambda_F, from where the closed form's L = 1
    holds."""
    r_kf = r * LAMBDA_F
    return {
        "kfr_large": r_kf >= REGIME_KFR,
        "ec_small": 1.0 / ec >= REGIME_MU_OVER_EC,
        "spread_large": r_kf / (w * LAMBDA_F) ** 2 >= REGIME_SPREAD,
        "w_large": w >= 1.0,
    }


def pole_momentum(omega_k: float) -> float:
    """Emission momentum p_k = sqrt(2 m (mu - omega_k)) of the outgoing wave.

    Monotone decreasing in omega_k; raises OutOfBandError at or above mu
    where there is no propagating pole.
    """
    if omega_k < 0.0:
        raise ValueError("omega_k must be non-negative")
    if omega_k >= MU:
        raise OutOfBandError(
            f"omega_k = {omega_k} >= mu: no propagating emission pole"
        )
    return math.sqrt(2.0 * MASS * (MU - omega_k))
