import math

import numpy as np
import pytest

from pairemit.model import EmitterParams, derive_params
from pairemit.peak import delta_q_peak
from pairemit.robustness import FluctuationSpec, averaged_peak

PARAMS = EmitterParams(delta=2.997e-3, ec=2.997e-3, w=1.0)
R = 100.0


def test_zero_sigma_reduces_to_peak():
    res = averaged_peak(PARAMS, R, FluctuationSpec(0.0, 0.0))
    assert res.delta_q == delta_q_peak(PARAMS, R).delta_q


def test_small_size_fluctuation_below_one_percent():
    # sigma_w = xi/100: fractional change in dQ below 1%
    xi_lf = derive_params(PARAMS).xi / (2 * math.pi)
    res = averaged_peak(PARAMS, R, FluctuationSpec(sigma_w=xi_lf / 100))
    assert abs(res.meta["fractional_degradation"]) < 0.01


def test_displacement_degrades_peak():
    res = averaged_peak(PARAMS, R, FluctuationSpec(sigma_r0=R / (2 * PARAMS.w_kf)))
    assert 0.0 < res.delta_q < delta_q_peak(PARAMS, R).delta_q
    assert res.meta["fractional_degradation"] > 0.0


def test_convexity_bound():
    # averaging never exceeds the max over the averaged window
    sig = 0.2
    res = averaged_peak(PARAMS, R, FluctuationSpec(sigma_w=sig))
    nodes, _ = np.polynomial.hermite.hermgauss(21)
    ws = PARAMS.w + math.sqrt(2.0) * sig * nodes
    window_max = max(delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, w), R)
                     .delta_q for w in ws if w > 0)
    assert res.delta_q <= window_max + 1e-12


def test_gauss_hermite_order_convergence():
    # doubling the order changes the averaged result by < 0.1%
    base = averaged_peak(PARAMS, R, FluctuationSpec(0.1, R / (4 * PARAMS.w_kf),
                                                    samples=21))
    fine = averaged_peak(PARAMS, R, FluctuationSpec(0.1, R / (4 * PARAMS.w_kf),
                                                    samples=42))
    assert abs(fine.delta_q - base.delta_q) / base.delta_q < 1e-3


def test_oversized_sigma_rejected():
    with pytest.raises(ValueError):
        averaged_peak(PARAMS, R, FluctuationSpec(sigma_w=PARAMS.w))


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        FluctuationSpec(sigma_w=-0.1)
    with pytest.raises(ValueError):
        FluctuationSpec(samples=0)
