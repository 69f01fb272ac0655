import math

import numpy as np
import pytest

from pairemit.model import (LAMBDA_F, MASS, PARAMS_FIG, R_FIG, REGIME_KFR,
                            REGIME_MU_OVER_EC, REGIME_SPREAD, EmitterParams,
                            OutOfBandError, derive_params, form_factors,
                            pole_momentum, regime_flags)


def test_pippard_length_identity():
    # xi/lambda_F * pi^2 |Delta|/mu = 1 identically
    for d in (1e-5, 2.997e-3, 0.05, 0.3):
        p = EmitterParams(delta=d, ec=1e-3, w=1.0)
        dp = derive_params(p)
        assert dp.xi_over_lambda_f * math.pi**2 * d == pytest.approx(1.0, rel=1e-12)


def test_fig3_xi_value():
    # the figure point: |Delta| = E_C = 2.997e-3 mu, w = lambda_F, r = 100
    # lambda_F, where xi = 33.8 lambda_F
    assert (PARAMS_FIG, R_FIG) == (
        EmitterParams(delta=2.997e-3, ec=2.997e-3, w=1.0), 100.0)
    assert derive_params(PARAMS_FIG).xi_over_lambda_f == pytest.approx(
        33.8, abs=0.05)


def test_zero_gap_sentinel():
    dp = derive_params(EmitterParams(delta=0.0, ec=1e-3, w=1.0))
    assert math.isinf(dp.xi)
    assert dp.w_over_xi == 0.0


def test_ratio_example():
    p = EmitterParams(delta=1e-2, ec=1e-2, w=1.0)
    assert derive_params(p).delta_over_ec == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [
    dict(delta=0.0, ec=-1.0, w=1.0),
    dict(delta=0.0, ec=0.0, w=1.0),
    dict(delta=0.0, ec=1e-3, w=0.0),
    dict(delta=1.5, ec=1e-3, w=1.0),       # weak-coupling guard
])
def test_param_validation(bad):
    with pytest.raises(ValueError):
        EmitterParams(**bad)


@pytest.mark.parametrize("bad, named", [
    (dict(delta=math.nan, ec=1e-3, w=1.0), r"\|Delta\| < mu, got nan"),
    (dict(delta=complex(0.0, math.inf), ec=1e-3, w=1.0),
     r"\|Delta\| < mu, got inf"),
    (dict(delta=1e-3, ec=math.inf, w=1.0), "E_C must be positive and finite"),
    (dict(delta=1e-3, ec=math.nan, w=1.0), "E_C must be positive and finite"),
    (dict(delta=1e-3, ec=1e-3, w=math.inf), "w must be positive and finite"),
    (dict(delta=1e-3, ec=1e-3, w=math.nan), "w must be positive and finite"),
])
def test_non_finite_params_rejected_by_name(bad, named):
    with pytest.raises(ValueError, match=named):
        EmitterParams(**bad)


class TestFormFactors:
    params = EmitterParams(delta=0.0, ec=0.05, w=1.0)

    def test_g_at_zero_argument(self):
        g, _, _ = form_factors(np.array([0.7, 0, 0]), np.array([0.7, 0, 0]),
                               self.params)
        assert g == pytest.approx((2 * math.pi) ** -3, rel=1e-12)

    def test_h_at_fermi_level(self):
        _, h, _ = form_factors(np.array([1.0, 0, 0]), np.zeros(3), self.params)
        assert h == pytest.approx(math.sqrt(1.0 / MASS), rel=1e-12)

    def test_g_two_over_w(self):
        w = self.params.w_kf
        p = np.array([1.0, 0, 0])
        k = p - np.array([2.0 / w, 0, 0])
        g, _, _ = form_factors(p, k, self.params)
        assert g == pytest.approx((2 * math.pi) ** -3 * math.exp(-2.0),
                                  rel=1e-12)

    def test_h_consistency_identity(self):
        # h(p)^2 m / |p| = e^{eps_p / E_C}
        for pmag in (0.7, 1.0, 1.2):
            p = np.array([0.0, 0.0, pmag])
            _, h, _ = form_factors(p, np.zeros(3), self.params)
            lhs = h * h * MASS / pmag
            assert lhs == pytest.approx(
                math.exp((pmag**2 - 1.0) / self.params.ec), rel=1e-12)

    def test_t_product(self):
        p = np.array([0.9, 0.1, 0.2])
        k = np.array([0.8, 0.0, 0.3])
        g, h, t = form_factors(p, k, self.params)
        assert t == pytest.approx(g * h, rel=1e-15)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            form_factors(np.zeros(3), np.zeros(3), self.params)


class TestPoleMomentum:
    def test_fermi(self):
        assert pole_momentum(0.0) == pytest.approx(1.0)

    def test_sqrt_example(self):
        assert pole_momentum(0.19) == pytest.approx(0.9, rel=1e-12)

    def test_out_of_band(self):
        with pytest.raises(OutOfBandError):
            pole_momentum(1.5)
        with pytest.raises(OutOfBandError):
            pole_momentum(1.0)

    def test_monotone(self):
        omegas = np.linspace(0.0, 0.99, 50)
        ps = [pole_momentum(float(o)) for o in omegas]
        assert all(a > b for a, b in zip(ps, ps[1:]))


def test_regime_flags_on_arrays_are_the_scalar_flags():
    # points at and near each cutoff, on either side of it, so every flag
    # is true at some and false at others
    r_on = REGIME_KFR / LAMBDA_F
    ec = np.array([1.0 / REGIME_MU_OVER_EC, 0.049, 0.051, 1e-3, 1e-3, 1e-3])
    w = np.array([1.0, math.nextafter(1.0, 0.0), 2.0, 0.5, 1.0, 1.0])
    r = np.array([r_on, math.nextafter(r_on, 0.0), 100.0,
                  REGIME_SPREAD * 0.25 * LAMBDA_F, 7.0, 1e4])
    flags = regime_flags(ec, w, r)
    assert list(flags) == ["kfr_large", "ec_small", "spread_large",
                           "w_large"]
    for name, got in flags.items():
        assert got.dtype == bool
        want = [regime_flags(float(e), float(x), float(d))[name]
                for e, x, d in zip(ec, w, r)]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)
