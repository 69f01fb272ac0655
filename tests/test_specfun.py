import cmath
import math
from collections import Counter

import numpy as np
import pytest

import pairemit.specfun as sf
from pairemit import validation

GOLDEN_ROWS = validation._load_goldens()


def test_golden_table_coverage():
    counts = Counter(tag for tag, _, _ in GOLDEN_ROWS)
    assert set(counts) == set(validation._GOLDEN_FUNCTIONS)
    assert min(counts.values()) >= 50


@pytest.mark.parametrize("tag,z,ref", GOLDEN_ROWS,
                         ids=[f"{t}_{i}" for i, (t, _, _) in enumerate(GOLDEN_ROWS)])
def test_goldens(tag, z, ref):
    got = validation._GOLDEN_FUNCTIONS[tag](z)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def _wronskian_rel_err(z: complex) -> float:
    """Relative error of W[J0, Y0] = J0 Y0' - J0' Y0 = 2/(pi z), with the
    derivatives taken by central differences of J0 and Y0 themselves."""
    h = 1e-5 * min(1.0, abs(z))

    def d(fn):
        return (fn(z + h).value - fn(z - h).value) / (2.0 * h)

    wr = sf.bessel_j0(z).value * d(sf.bessel_y0) \
        - d(sf.bessel_j0) * sf.bessel_y0(z).value
    want = 2.0 / (math.pi * z)
    return abs(wr - want) / abs(want)


class TestK1:
    def test_k1_of_one(self):
        assert sf.bessel_k1(1.0) == pytest.approx(0.6019072302, rel=1e-9)

    def test_k1_of_five(self):
        assert sf.bessel_k1(5.0) == pytest.approx(4.0446134e-3, rel=1e-6)

    def test_small_argument_limit(self):
        for x in (1e-6, 1e-4, 1e-3):
            assert x * sf.bessel_k1(x) == pytest.approx(1.0, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.bessel_k1(0.0)
        with pytest.raises(ValueError):
            sf.bessel_k1(-1.0)

    def test_graceful_underflow(self):
        assert sf.bessel_k1(760.0) == 0.0


class TestHankel:
    def test_h2_at_one(self):
        got = sf.hankel2_0(1.0).value
        want = complex(0.7651976866, -0.0882569642)
        assert abs(got - want) <= 1e-9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sf.hankel2_0(0.0)

    def test_asymptotic_form_at_50(self):
        # on the positive real axis the leading asymptotic modulus matches
        # to well below 1e-3 (the first correction term is a pure phase)
        z = 50.0
        got = sf.hankel2_0(z).value
        lead = math.sqrt(2.0 / (math.pi * z)) * cmath.exp(-1j * (z - math.pi / 4))
        assert abs(abs(got) / abs(lead) - 1.0) <= 1e-3
        # the full complex deviation is the known i/(8z) correction
        assert abs(got - lead) / abs(got) <= 3.0 / (8.0 * z)

    def test_wronskian_at_2_plus_i(self):
        assert _wronskian_rel_err(2.0 + 1.0j) <= 5e-9

    @pytest.mark.parametrize("z", [0.7 + 0.2j, 5.0 - 0.5j, 15.0 + 3.0j,
                                   -4.0 + 2.0j])
    def test_wronskian_on_both_routes(self, z):
        assert _wronskian_rel_err(z) <= 5e-9

    def test_conjugation_symmetry(self):
        # J0(conj z) = conj(J0(z)) on a grid off the real axis, inside the
        # series disc: the large-argument route builds J0 from H0^(2)(z)
        # and conj H0^(2)(conj z), which is symmetric by construction
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = complex(rng.uniform(-6, 6), rng.uniform(0.1, 6))
            a = sf.bessel_j0(z.conjugate()).value
            b = sf.bessel_j0(z).value.conjugate()
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("x", [3.0, 15.0, 200.0])
    def test_negative_real_axis_follows_the_signed_zero(self, x):
        # J0 is even across the cut; Y0 and H0^(2) take the side that the
        # sign of the zero imaginary part names, as cmath does
        mp = pytest.importorskip("mpmath")
        for side in (1.0, -1.0):
            z = complex(-x, math.copysign(0.0, side))
            with mp.workdps(30):
                near = mp.mpc(-x, side * 1e-30)
                wants = [complex(f(0, near)) for f in
                         (mp.besselj, mp.bessely, mp.hankel2)]
            for f, want in zip((sf.bessel_j0, sf.bessel_y0, sf.hankel2_0),
                               wants):
                assert abs(f(z).value - want) <= 1e-12 * abs(want)

    def test_est_error_contract_inside_domain(self):
        # physics-regime arguments: est_error stays at the validated bound
        res = sf.hankel2_0(complex(-7e-4, 9e-5))
        assert res.est_error <= 1e-10
        res = sf.hankel2_0(complex(-50.0, 0.004))
        assert res.est_error <= 1e-10

    def test_est_error_grows_below_guard(self):
        res = sf.hankel2_0(complex(3.0, -6.0))
        assert res.est_error > 1e-10       # cancellation-limited region


class TestPrincipalSqrt:
    def test_sqrt_i(self):
        assert sf.principal_sqrt(1j) == pytest.approx((1 + 1j) / math.sqrt(2))

    def test_branch_convention(self):
        assert sf.principal_sqrt(complex(-1.0, 0.0)) == pytest.approx(1j)

    def test_real(self):
        assert sf.principal_sqrt(4.0) == pytest.approx(2.0)

    def test_nonnegative_real_part(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert sf.principal_sqrt(z).real >= 0.0
