import math

import numpy as np
import pytest

from pairemit.model import EmitterParams, derive_params
from pairemit.peak import (DQ_BELL, DQ_ENTANGLEMENT, SweepSpec,
                           angular_profile, delta_q_peak, peak_envelope,
                           threshold_map)
from pairemit.specfun import bessel_k1

PARAMS = EmitterParams(delta=2.997e-3, ec=2.997e-3, w=1.0)
R = 100.0

# frozen from the arbitrary-precision oracle evaluation of the closed form
# at |Delta|/mu = 2.997e-3, E_C = |Delta|, w = lambda_F, r = 100 lambda_F
GOLDEN_DELTA_Q = 26.73893311600365


def _mp_delta_q(params, r):
    """The closed form of dQ at 30 digits (mpmath), rounded to a double."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        pi = mp.pi
        r_kf = 2 * pi * mp.mpf(r)
        w_kf = 2 * pi * mp.mpf(params.w)
        xi = 2 / (pi * mp.mpf(params.abs_delta))
        s = 2 * pi ** 2 * xi ** 2
        z = 2j * w_kf ** 2 / s - r_kf / s
        second = 4 * mp.exp(1j * r_kf / s) \
            / (pi * mp.sqrt(1j * r_kf / w_kf ** 2))
        k1 = mp.besselk(1, mp.mpf(params.abs_delta) / mp.mpf(params.ec))
        return float(pi ** 2 / (32 * k1 ** 2)
                     * abs(mp.hankel2(0, z) - second) ** 2)


class TestDeltaQPeak:
    def test_golden_point(self):
        res = delta_q_peak(PARAMS, R)
        assert res.delta_q == pytest.approx(GOLDEN_DELTA_Q, rel=1e-9)

    def test_hankel_argument(self):
        res = delta_q_peak(PARAMS, R)
        xi = derive_params(PARAMS).xi
        w = PARAMS.w_kf
        r_kf = R * 2 * math.pi
        want = 1j * w * w / (math.pi**2 * xi**2) \
            - r_kf / (2 * math.pi**2 * xi**2)
        assert res.hankel_arg == pytest.approx(want, rel=1e-14)
        assert res.hankel_arg.real < 0 and res.hankel_arg.imag > 0

    def test_normal_state_is_zero(self):
        res = delta_q_peak(EmitterParams(0.0, PARAMS.ec, PARAMS.w), R)
        assert res.delta_q == 0.0

    def test_hankel_overflow_rejected_naming_parameters(self):
        # at the figure gap |H0^(2)|^2 leaves the double range past
        # w ~ 2000 lambda_F; the default sweep grid reaches 3e6
        with pytest.raises(ValueError, match=r"w/lambda_F = 3e\+06"):
            delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, 3.0e6), R)

    @pytest.mark.filterwarnings("error")
    def test_large_w_below_overflow_is_finite(self):
        dq = delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, 1690.0),
                          R).delta_q
        assert math.isfinite(dq) and dq > 0.0

    @pytest.mark.parametrize("ratio, finite", [(345.0, True), (385.0, False),
                                               (500.0, False)])
    def test_k1_underflow_against_mpmath(self, ratio, finite):
        # dQ ~ 1e302 at |Delta|/E_C = 345; past about 354 K1 is still
        # positive but K1^2 underflows, and dQ (mpmath's too) is inf
        p = EmitterParams(0.5, 0.5 / ratio, 1.0)
        assert bessel_k1(ratio) > 0.0
        want = _mp_delta_q(p, R)
        assert math.isfinite(want) == finite
        got = delta_q_peak(p, R).delta_q
        if finite:
            assert got == pytest.approx(want, rel=1e-9)
        else:
            assert got == math.inf

    def test_small_ratio_prefactor_limit(self):
        # |Delta|/E_C -> 0: prefactor ~ pi^2 x^2 / 32 since K1(x) ~ 1/x
        dq = []
        for ec in (0.3, 0.6):
            p = EmitterParams(PARAMS.delta, ec, PARAMS.w)
            dq.append(delta_q_peak(p, R).delta_q)
        x = abs(PARAMS.delta)
        ratio = dq[1] / dq[0]
        want = ((x / 0.6) / (x / 0.3)) ** 2     # prefactor scaling x^2
        assert ratio == pytest.approx(want, rel=1e-3)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            p = EmitterParams(delta=rng.uniform(1e-5, 0.2),
                              ec=rng.uniform(1e-4, 0.5),
                              w=rng.uniform(0.3, 5.0))
            dq = delta_q_peak(p, rng.uniform(10, 1e5)).delta_q
            assert dq >= 0.0

    def test_regime_flags(self):
        res = delta_q_peak(PARAMS, R)
        assert res.regime_ok == {"kfr_large": True, "ec_small": True,
                                 "spread_large": True}
        near = delta_q_peak(PARAMS, 5.0)        # k_F r = 31 < 50
        assert not near.regime_ok["kfr_large"]
        assert not near.regime_ok["spread_large"]
        wide_ec = delta_q_peak(EmitterParams(PARAMS.delta, 0.2, PARAMS.w), R)
        assert not wide_ec.regime_ok["ec_small"]

    def test_lambda_warning_below_lambda_f(self):
        assert delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, 0.5),
                            R).lambda_warning
        assert not delta_q_peak(PARAMS, R).lambda_warning

    def test_oscillation_spacing_matches_hankel_phase(self):
        # maxima spacing of dQ(r) at large r follows the asymptotic phase
        # r / (2 pi^2 k_F xi^2): spacing = pi * 2 pi^2 k_F xi^2
        xi = derive_params(PARAMS).xi
        scale_lf = 2 * math.pi**2 * xi * xi / (2 * math.pi)
        rs = np.geomspace(10 * scale_lf, 40 * scale_lf, 4000)
        dq = np.array([delta_q_peak(PARAMS, float(r)).delta_q for r in rs])
        peaks = [rs[i] for i in range(1, len(dq) - 1)
                 if dq[i] > dq[i - 1] and dq[i] > dq[i + 1]]
        spacings = np.diff(peaks) / (math.pi * scale_lf)
        assert len(spacings) >= 5
        assert np.all(np.abs(spacings - 1.0) < 0.12)

    def test_large_r_scaled_envelope_bounded(self):
        # r * dQ envelope bounded and non-vanishing over a decade
        xi = derive_params(PARAMS).xi
        kxi2_lf = xi * xi / (2 * math.pi)
        rs = np.geomspace(100 * kxi2_lf, 1000 * kxi2_lf, 50)
        scaled = np.array([r * peak_envelope(PARAMS, float(r)) for r in rs])
        assert scaled.max() / scaled.min() < 3.0
        assert scaled.min() > 0.0


class TestAngularProfile:
    def test_peak_normalization(self):
        assert angular_profile(math.pi, PARAMS) == 1.0

    def test_direct_substitution_kfw5(self):
        # k_F w = 5, theta = pi - 0.2
        p = EmitterParams(PARAMS.delta, PARAMS.ec, 5.0 / (2 * math.pi))
        assert angular_profile(math.pi - 0.2, p) == pytest.approx(
            0.6067833492179677, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            angular_profile(-0.1, PARAMS)
        with pytest.raises(ValueError):
            angular_profile(2 * math.pi, PARAMS)

    def test_range(self):
        for t in np.linspace(0, 2 * math.pi, 40, endpoint=False):
            v = angular_profile(float(t), PARAMS)
            assert 0.0 < v <= 1.0


class TestThresholdMap:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=PARAMS, r=R, param="delta", grid=())

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=PARAMS, r=R, param="delta", grid=(1e-3, 3e-3, 2e-3))

    def test_bad_param_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=PARAMS, r=R, param="bogus", grid=(1.0, 2.0))

    def test_delta_sweep_monotone_and_crossings(self):
        spec = SweepSpec(base=PARAMS, r=R, param="delta",
                         grid=tuple(np.geomspace(1e-4, 1e-2, 30)))
        res = threshold_map(spec)
        assert np.all(np.diff(res.delta_q) >= -1e-12)
        assert len(res.crossings["entangled"]) == 1
        assert len(res.crossings["bell"]) == 1
        # bisected crossing hits the threshold to 1e-6 relative in the param
        for name, target in (("entangled", DQ_ENTANGLEMENT), ("bell", DQ_BELL)):
            c = res.crossings[name][0]
            lo = delta_q_peak(EmitterParams(c * (1 - 3e-6), PARAMS.ec,
                                            PARAMS.w), R).delta_q
            hi = delta_q_peak(EmitterParams(c * (1 + 3e-6), PARAMS.ec,
                                            PARAMS.w), R).delta_q
            assert lo <= target <= hi

    def test_threshold_constants(self):
        assert DQ_ENTANGLEMENT == 0.5
        assert DQ_BELL == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-15)
        # dQ thresholds equivalent to Q = 3/2 and Q = sqrt2/(sqrt2-1)
        assert 1.0 + DQ_BELL == pytest.approx(
            math.sqrt(2.0) / (math.sqrt(2.0) - 1.0), rel=1e-12)
