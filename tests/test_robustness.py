import math

import numpy as np
import pytest

from pairemit import peak, robustness
from pairemit.model import PARAMS_FIG, R_FIG, EmitterParams, derive_params
from pairemit.peak import delta_q_grid, delta_q_peak
from pairemit.robustness import FluctuationSpec, averaged_peak
from pairemit.specfun import bessel_k1

PARAMS, R = PARAMS_FIG, R_FIG


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


def test_gauss_hermite_order_convergence(monkeypatch):
    # doubling the order of the rule changes the averaged result by < 0.1%
    fluct = FluctuationSpec(0.1, R / (4 * PARAMS.w_kf))
    base = averaged_peak(PARAMS, R, fluct)
    nodes, weights = np.polynomial.hermite.hermgauss(42)
    monkeypatch.setattr(robustness, "_NODES", nodes)
    monkeypatch.setattr(robustness, "_WEIGHTS", weights)
    fine = averaged_peak(PARAMS, R, fluct)
    assert abs(fine.delta_q - base.delta_q) / base.delta_q < 1e-3


def test_oversized_sigma_rejected():
    with pytest.raises(ValueError):
        averaged_peak(PARAMS, R, FluctuationSpec(sigma_w=PARAMS.w))


@pytest.mark.parametrize("sigma_r0", [60.0, 100.0])
def test_oversized_displacement_rejected_before_evaluating(monkeypatch,
                                                           sigma_r0):
    # at r = 100 these put quadrature nodes at misalignments beyond pi
    def evaluated(*args):
        raise AssertionError("evaluated before the check")

    monkeypatch.setattr(robustness, "delta_q_grid", evaluated)
    with pytest.raises(ValueError, match=rf"sigma_r0 = {sigma_r0} at "
                       rf"r = {R} .* \|r0_perp\| = [0-9.]+ lambda_F"):
        averaged_peak(PARAMS, R, FluctuationSpec(sigma_w=0.1,
                                                 sigma_r0=sigma_r0))


@pytest.mark.parametrize("r", [0.0, -5.0, math.nan, math.inf])
@pytest.mark.parametrize("sigma_r0", [0.0, 1.0])
def test_bad_distance_rejected_before_dividing(r, sigma_r0):
    # r is checked before the misalignment divides by it: a division at
    # r = 0 warns, and the suite's error::RuntimeWarning filter would turn
    # that warning into the wrong error
    with pytest.raises(ValueError, match=f"positive and finite, got r = {r}"):
        averaged_peak(PARAMS, r, FluctuationSpec(sigma_r0=sigma_r0))


def test_displacement_just_inside_pi_accepted():
    # the outermost node pair sits at dtheta = 2 max|node| sigma_r0 / r
    top = np.max(np.polynomial.hermite.hermgauss(21)[0])
    sigma = 0.999 * math.pi * R / (2.0 * top)
    res = averaged_peak(PARAMS, R, FluctuationSpec(sigma_r0=sigma))
    assert 0.0 < res.delta_q < delta_q_peak(PARAMS, R).delta_q
    with pytest.raises(ValueError, match="sigma_r0"):
        averaged_peak(PARAMS, R, FluctuationSpec(sigma_r0=1.002 * sigma))


def test_size_average_against_pointwise_peaks():
    sig = 0.2
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    ws = PARAMS.w + math.sqrt(2.0) * sig * nodes
    keep = ws > 0.0                 # the rule drops the nodes at w <= 0
    vals = [delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, w), R).delta_q
            for w in ws[keep]]
    want = float(np.dot(weights[keep], vals) / np.sum(weights[keep]))
    res = averaged_peak(PARAMS, R, FluctuationSpec(sigma_w=sig))
    assert res.delta_q == pytest.approx(want, rel=1e-14)


def test_envelope_factor_against_a_direct_double_sum():
    sig = R / (4 * PARAMS.w_kf)
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    xx = math.sqrt(2.0) * sig / R * nodes
    want = sum(wi * wj * math.exp(-8.0 * PARAMS.w_kf ** 2
                                  * math.sin(math.hypot(xi, xj) / 4.0) ** 2)
               for xi, wi in zip(xx, weights)
               for xj, wj in zip(xx, weights)) / math.pi
    res = averaged_peak(PARAMS, R, FluctuationSpec(sigma_r0=sig))
    assert res.meta["envelope_factor"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fluct", [
    FluctuationSpec(), FluctuationSpec(sigma_w=0.2),
    FluctuationSpec(sigma_w=0.3),           # drops the nodes at w <= 0
    FluctuationSpec(0.1, R / (4 * PARAMS.w_kf))])
def test_one_k1_call_bitwise_the_two_evaluations_it_replaces(monkeypatch,
                                                             fluct):
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return bessel_k1(x)

    monkeypatch.setattr(peak, "bessel_k1", counted)
    res = averaged_peak(PARAMS, R, fluct)
    monkeypatch.undo()
    assert calls == [1]
    # the lone peak, then the w nodes, each with a K1 of its own
    base = delta_q_peak(PARAMS, R)
    dq_w = base.delta_q
    if fluct.sigma_w > 0.0:
        nodes, weights = np.polynomial.hermite.hermgauss(21)
        ws = PARAMS.w + math.sqrt(2.0) * fluct.sigma_w * nodes
        keep = ws > 0.0
        vals = delta_q_grid(PARAMS.abs_delta, PARAMS.ec, ws[keep], R)[0]
        dq_w = float(np.sum(weights[keep] * vals) / np.sum(weights[keep]))
    dq_avg = dq_w * res.meta["envelope_factor"]
    assert res.delta_q.hex() == dq_avg.hex()
    assert res.meta["unperturbed_delta_q"].hex() == base.delta_q.hex()
    assert res.meta["fractional_degradation"].hex() \
        == (1.0 - dq_avg / base.delta_q).hex()
    assert res.regime_ok == base.regime_ok


def test_bad_spec_rejected():
    # a NaN sigma used to return the unperturbed peak, an inf one to fail
    # further down with a misleading message: each names its field
    for field in ("sigma_w", "sigma_r0"):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                FluctuationSpec(**{field: bad})


def test_gauss_hermite_rule_built_once_read_only():
    # one module-level rule of order 21 serves every average
    nodes, weights = robustness._NODES, robustness._WEIGHTS
    assert not (nodes.flags.writeable or weights.flags.writeable)
    want = np.polynomial.hermite.hermgauss(21)
    assert (nodes.tobytes(), weights.tobytes()) \
        == (want[0].tobytes(), want[1].tobytes())
