"""Coincidence statistics, entanglement content, and Bell thresholds of
electron pairs field-emitted from a superconducting tip."""

__version__ = "0.3.0"

from .correlations import (CorrelationResult, DetectorGeometry,
                           farfield_amplitude, chi, rho2_and_Q)
from .entanglement import WernerReport, werner_decompose
from .model import (DerivedParams, EmitterParams, derive_params,
                    form_factors, pole_momentum)
from .peak import (PeakResult, SweepResult, SweepSpec, angular_profile,
                   delta_q_peak)
from .quad import QuadResult, QuadSpec, integrate_1d, integrate_nested
from .robustness import FluctuationSpec, averaged_peak

__all__ = [
    "__version__",
    "EmitterParams", "DerivedParams",
    "derive_params", "form_factors", "pole_momentum",
    "DetectorGeometry", "CorrelationResult",
    "farfield_amplitude", "chi", "rho2_and_Q",
    "WernerReport", "werner_decompose",
    "PeakResult", "SweepSpec", "SweepResult",
    "delta_q_peak", "angular_profile",
    "FluctuationSpec", "averaged_peak",
    "QuadSpec", "QuadResult", "integrate_1d", "integrate_nested",
]
