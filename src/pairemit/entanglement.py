"""Werner decomposition of the emitted pair's spin state and thresholds.

The two-electron spin state extracted from the coincidence correlators is

    rho_spin  propto  a * Identity + b * |Psi-><Psi-|,

with a = g22 g11 - |g21|^2 and b = 2 (|g21|^2 + |chi21|^2); the trace
4a + b equals the two-particle distribution rho2.  Normalized, this is a
Werner state with singlet weight p = b / (4a + b): entangled for p > 1/3
(concurrence (3p-1)/2), CHSH-violating for p > 1/sqrt(2) (optimal CHSH
value 2 sqrt(2) p).  When g21 = 0 the identity p = (Q-1)/Q maps the
thresholds to Q = 3/2 and Q = sqrt(2)/(sqrt(2)-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationResult

__all__ = [
    "WernerReport",
    "classify",
    "werner_decompose",
    "werner_density_matrix",
    "concurrence_from_density_matrix",
    "Q_ENTANGLEMENT_THRESHOLD",
    "Q_BELL_THRESHOLD",
]

Q_ENTANGLEMENT_THRESHOLD = 1.5
Q_BELL_THRESHOLD = math.sqrt(2.0) / (math.sqrt(2.0) - 1.0)   # ~3.414

_P_ENTANGLED = 1.0 / 3.0
_P_BELL = 1.0 / math.sqrt(2.0)

# singlet |Psi-> = (|ud> - |du>)/sqrt(2) in the basis {uu, ud, du, dd}
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class WernerReport:
    """Werner-state parameters and threshold classification of one pair."""

    a: float
    b: float
    p: float
    concurrence: float
    chsh: float
    classification: str        # separable | entangled | bell_violating


def classify(value: float, entangled: float, bell: float) -> str:
    """separable, entangled or bell_violating: value against the
    entanglement and Bell thresholds of its quantity.  A value exactly on a
    threshold falls to the lower class: conservative claims."""
    if value > bell:
        return "bell_violating"
    if value > entangled:
        return "entangled"
    return "separable"


def werner_decompose(corr: CorrelationResult) -> WernerReport:
    """Decompose the measured correlators into the Werner form, classified
    on p (separable at exactly p = 1/3, entangled at exactly
    p = 1/sqrt(2))."""
    a = corr.gamma22 * corr.gamma11 - abs(corr.gamma21) ** 2
    b = 2.0 * (abs(corr.gamma21) ** 2 + abs(corr.chi21) ** 2)
    norm = 4.0 * a + b
    if norm <= 0.0:
        raise ValueError("rho2 = 4a + b must be positive for the Werner "
                         f"decomposition, got {norm}")
    p = b / norm
    concurrence = max(0.0, (3.0 * p - 1.0) / 2.0)
    chsh = 2.0 * math.sqrt(2.0) * p
    return WernerReport(a=a, b=b, p=p, concurrence=concurrence, chsh=chsh,
                        classification=classify(p, _P_ENTANGLED, _P_BELL))


def werner_density_matrix(a: float, b: float) -> np.ndarray:
    """Explicit 4x4 spin density matrix (a 1 + b |Psi-><Psi-|) / (4a + b)."""
    if a < 0.0 or b < 0.0 or 4.0 * a + b <= 0.0:
        raise ValueError("need a, b >= 0 with 4a + b > 0")
    rho = a * np.eye(4) + b * np.outer(_SINGLET, _SINGLET)
    return rho / (4.0 * a + b)


def concurrence_from_density_matrix(rho: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 density matrix")
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sy, sy)
    m = rho @ yy @ rho.conj() @ yy
    ev = np.linalg.eigvals(m).real
    ev = np.sqrt(np.clip(ev, 0.0, None))
    ev.sort()
    return float(max(0.0, ev[-1] - ev[-2] - ev[-3] - ev[-4]))
