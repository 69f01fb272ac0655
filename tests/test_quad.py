import math

import numpy as np
import pytest

from pairemit.quad import QuadSpec, integrate_1d, integrate_nested


class TestIntegrate1D:
    def test_polynomial(self):
        res = integrate_1d(lambda x: x * x, 0.0, 1.0)
        assert res.converged
        assert res.value.real == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_semi_infinite_oscillatory(self):
        res = integrate_1d(lambda x: np.exp(-x) * np.cos(10 * x), 0.0, np.inf,
                           QuadSpec(rel_tol=1e-10))
        assert res.converged
        assert res.value.real == pytest.approx(1.0 / 101.0, rel=1e-7)

    def test_gaussian_tail(self):
        res = integrate_1d(lambda x: np.exp(-x * x / 2.0), 0.0, np.inf)
        assert res.converged
        assert res.value.real == pytest.approx(math.sqrt(math.pi / 2.0),
                                               rel=1e-9)

    def test_error_contract(self):
        res = integrate_1d(lambda x: np.sin(7 * x) ** 2, 0.0, 3.0,
                           QuadSpec(rel_tol=1e-9))
        assert res.converged
        assert res.err_est <= max(1e-14, 1e-9 * abs(res.value))

    def test_nonconvergence_reported_not_silent(self):
        # |x|^(-1/2)-type endpoint with a depth budget too small to resolve
        spec = QuadSpec(rel_tol=1e-12, max_depth=3)
        res = integrate_1d(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                           0.0, 1.0, spec)
        assert not res.converged

    def test_additivity(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        spec = QuadSpec(rel_tol=1e-11)
        whole = integrate_1d(f, 0.0, 2.0, spec)
        left = integrate_1d(f, 0.0, 0.7, spec)
        right = integrate_1d(f, 0.7, 2.0, spec)
        assert abs(whole.value - (left.value + right.value)) <= \
            whole.err_est + left.err_est + right.err_est + 1e-13

    def test_determinism(self):
        f = lambda x: np.cos(17 * x) / (1.0 + x * x)
        a = integrate_1d(f, 0.0, 5.0, QuadSpec(rel_tol=1e-10))
        b = integrate_1d(f, 0.0, 5.0, QuadSpec(rel_tol=1e-10))
        assert a.value == b.value           # bitwise
        assert a.err_est == b.err_est

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            QuadSpec(rel_tol=1e-14)


class TestIntegrateNested:
    def test_separable_2d(self):
        res = integrate_nested(lambda x, ys: x * ys, [(0, 1), (0, 1)])
        assert res.converged
        assert res.value.real == pytest.approx(0.25, rel=1e-10)

    def test_gaussian_r2(self):
        res = integrate_nested(
            lambda x, ys: np.exp(-(x * x + ys * ys) / 2.0),
            [(-np.inf, np.inf), (-np.inf, np.inf)])
        assert res.converged
        assert res.value.real == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_spherical_gaussian_3d(self):
        res = integrate_nested(
            lambda r, ct, phis: np.exp(-r * r) * r * r * np.ones_like(phis),
            [(0, np.inf), (-1, 1), (0, 2 * math.pi)])
        assert res.converged
        assert res.value.real == pytest.approx(math.pi ** 1.5, rel=1e-8)

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            integrate_nested(lambda *a: a[-1], [(0, 1)] * 6)

    def test_inner_nonconvergence_dimension_index(self):
        spec = QuadSpec(rel_tol=1e-12, max_depth=2)
        res = integrate_nested(
            lambda x, ys: 1.0 / np.sqrt(np.abs(ys - 0.3) + 1e-14) * (1 + x),
            [(0, 1), (0, 1)], spec)
        assert not res.converged
        assert res.fail_dim == 1
