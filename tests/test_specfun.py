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


def _hankel1(z: complex) -> complex:
    """H0^(1)(z) = conj H0^(2)(conj z)."""
    return sf.hankel2_0(z.conjugate()).value.conjugate()


def _hankel2(z: complex) -> complex:
    return sf.hankel2_0(z).value


def _wronskian_rel_err(z: complex) -> float:
    """Relative error of W[H0^(1), H0^(2)] = H1 H2' - H1' H2 = -4i/(pi z),
    with the derivatives taken by central differences of H0^(2) itself at
    z and at conj z."""
    h = 1e-5 * min(1.0, abs(z))

    def d(fn):
        return (fn(z + h) - fn(z - h)) / (2.0 * h)

    wr = _hankel1(z) * d(_hankel2) - d(_hankel1) * _hankel2(z)
    want = -4j / (math.pi * z)
    return abs(wr - want) / abs(want)


class TestK1:
    def test_k1_of_one(self):
        assert sf.bessel_k1(1.0).value == pytest.approx(0.6019072302,
                                                        rel=1e-9)

    def test_k1_of_five(self):
        assert sf.bessel_k1(5.0).value == pytest.approx(4.0446134e-3,
                                                        rel=1e-6)

    def test_small_argument_limit(self):
        for x in (1e-6, 1e-4, 1e-3):
            assert x * sf.bessel_k1(x).value == pytest.approx(1.0, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.bessel_k1(0.0)
        with pytest.raises(ValueError):
            sf.bessel_k1(-1.0)

    def test_graceful_underflow(self):
        assert sf.bessel_k1(760.0).value == 0.0

    @pytest.mark.parametrize("x, named", [
        (np.nan, r"got x = nan"),
        ([1.0, 0.0, -1.0], r"got x\[1\] = 0\.0"),
        ([5.0, 2.0, -3.0, 0.0], r"got x\[2\] = -3\.0"),
        ([[1.0, 2.0], [np.nan, -1.0]], r"got x\[1, 0\] = nan"),
    ])
    def test_first_bad_element_named(self, x, named):
        with pytest.raises(ValueError, match=named):
            sf.bessel_k1(np.array(x))

    def test_within_its_error_of_mpmath(self):
        # dense over the whole domain, denser about the switch radius where
        # the series is cancellation-limited (worst 8.8e-14 near x = 3.97)
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-6, 700.0, 160),
                            np.linspace(3.9, 4.1, 101)])
        res = sf.bessel_k1(x)
        with mp.workdps(20):
            want = np.array([float(mp.besselk(1, v)) for v in x.tolist()])
        assert np.all(np.abs(res.value - want) <= res.est_error * want)
        assert np.all(res.est_error <= 2e-13)


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
        # H0^(1)(z e^{i pi}) = -H0^(2)(z) with H0^(1) = conj H0^(2)(conj .)
        # gives H0^(2)(z) = -conj H0^(2)(-conj z) in the lower half plane:
        # z and its mirror image in the imaginary axis, on both routes and
        # within 2 of the real axis, where the series loses at most e^4 to
        # cancellation
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = complex(rng.uniform(-12, 12), -rng.uniform(0.1, 1.9))
            a = sf.hankel2_0(z).value
            b = -sf.hankel2_0(-z.conjugate()).value.conjugate()
            assert abs(a - b) <= 1e-12 * abs(a)

    @pytest.mark.parametrize("x", [3.0, 15.0, 200.0])
    def test_negative_real_axis_follows_the_signed_zero(self, x):
        # H0^(2) takes the side that the sign of the zero imaginary part
        # names, as cmath does
        mp = pytest.importorskip("mpmath")
        for side in (1.0, -1.0):
            z = complex(-x, math.copysign(0.0, side))
            with mp.workdps(30):
                want = complex(mp.hankel2(0, mp.mpc(-x, side * 1e-30)))
            assert abs(sf.hankel2_0(z).value - want) <= 1e-12 * abs(want)

    def test_est_error_contract_inside_domain(self):
        # physics-regime arguments: est_error stays at the validated bound
        res = sf.hankel2_0(complex(-7e-4, 9e-5))
        assert res.est_error <= 1e-10
        res = sf.hankel2_0(complex(-50.0, 0.004))
        assert res.est_error <= 1e-10

    def test_est_error_grows_below_guard(self):
        res = sf.hankel2_0(complex(3.0, -6.0))
        assert res.est_error > 1e-10       # cancellation-limited region

    @pytest.mark.parametrize("y", [709.0, 710.0, 713.0])
    def test_rotated_wedge_up_to_the_double_range(self, y):
        # H0^(2)(iy) = 2 I0(y) + 2i K0(y)/pi: I0's scale e^y passes the
        # double range at y = 709.78, H0^(2)(iy) only at about 713.98
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = complex(mp.hankel2(0, mp.mpc(0.0, y)))
        res = sf.hankel2_0(complex(0.0, y))
        assert abs(res.value - want) <= res.est_error * abs(want)

    @pytest.mark.parametrize("y", [800.0, 1000.0])
    def test_rotated_wedge_past_the_double_range_overflows(self, y):
        # as in the other wedges: no exception, a non-finite value and
        # NumPy's overflow warning
        with pytest.warns(RuntimeWarning) as caught:
            value = sf.hankel2_0(complex(0.0, y)).value
        assert not cmath.isfinite(value)
        assert any("overflow" in str(w.message) for w in caught)


# one argument in each route and wedge of hankel2_0: the series disc (with
# Im z < -2, where its cancellation is e^4 or worse, among them), the plain
# Watson wedge -pi < arg z <= 3 pi/8, the rotated wedge 3 pi/8 < arg z <=
# 5 pi/8, the reflected wedge beyond, and both sides of the cut on the
# negative axis
_ROUTE_ARGS = [
    0.7 + 0.2j, -7e-4 + 9e-5j, 3.0 - 6.0j, -2.0 - 4.0j, 8.9 + 0.1j,
    15.0 + 3.0j, 20.0 - 5.0j, -30.0 - 2.0j, 12.0 * np.exp(0.3j),
    2.0 + 15.0j, -1.0 + 12.0j, 10.0 * np.exp(1.9j),
    -20.0 + 1.0j, -50.0 + 0.004j, 10.0 * np.exp(3.0j),
    complex(-15.0, 0.0), complex(-15.0, -0.0), complex(-3.0, -0.0),
]


# both routes of bessel_k1 and both sides of the switch radius, the
# small-argument pole, the underflow to zero, and a spread of series
# arguments
_K1_ARGS = [1e-6, 0.3, 1.0, 2.0, 3.95, 4.0, np.nextafter(4.0, 5.0), 4.05,
            7.5, 30.0, 700.0, 760.0, *np.linspace(0.05, 3.95, 48).tolist()]


def test_route_args_reach_every_wedge():
    z = np.array(_ROUTE_ARGS)
    assert np.count_nonzero(np.abs(z) > sf.SERIES_RADIUS) >= 10
    arg = np.angle(z[np.abs(z) > sf.SERIES_RADIUS])
    assert np.any((arg > 3 * np.pi / 8) & (arg <= 5 * np.pi / 8))
    assert np.any(arg > 5 * np.pi / 8) and np.any(arg == -np.pi)


# the Watson integrals on the full 200-node rule, term for term as specfun
# wrote them before it kept only the nodes s > 0
_GH_S, _GH_W = np.polynomial.hermite.hermgauss(200)
_GH_T = _GH_S * _GH_S


def _watson_h2_full(z):
    t2z = 1j * _GH_T / (2.0 * z[:, None])
    integral = np.sum(_GH_W / np.sqrt(1.0 - t2z), axis=-1)
    return (np.sqrt(2.0 / (math.pi * z)) * np.exp(-1j * (z - math.pi / 4.0))
            / math.sqrt(math.pi) * integral)


def _watson_k_full(nu, z):
    t2z = _GH_T / (2.0 * np.asarray(z)[..., None])
    if nu == 0:
        integral = np.sum(_GH_W / np.sqrt(1.0 + t2z), axis=-1)
        gamma_factor = math.sqrt(math.pi)
    else:
        integral = np.sum(_GH_W * _GH_T * np.sqrt(1.0 + t2z), axis=-1)
        gamma_factor = math.sqrt(math.pi) / 2.0
    return np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * integral / gamma_factor


def test_committed_rule_is_bitwise_hermgauss():
    # specfun commits the nodes s > 0 of hermgauss(200) and their weights,
    # so that importing it runs no hermgauss and loads no numpy.polynomial
    assert sf._GH_S.tobytes() == _GH_S[100:].tobytes()
    assert sf._GH_W.tobytes() == _GH_W[100:].tobytes()
    assert sf._GH_T.tobytes() == (_GH_S[100:] * _GH_S[100:]).tobytes()


def test_watson_half_rule_is_bitwise_the_full_rule(monkeypatch):
    # hermgauss mirrors its nodes and weights exactly, so the 100 terms of
    # s > 0, mirrored, are the 200 terms of the full rule in node order
    assert np.array_equal(_GH_S[:100], -_GH_S[:99:-1])
    assert np.array_equal(_GH_W[:100], _GH_W[:99:-1])
    rng = np.random.default_rng(20)
    z = rng.uniform(9.01, 700.0, 3000) \
        * np.exp(1j * rng.uniform(-math.pi, math.pi, 3000))
    z = np.concatenate([z, [complex(-50.0, -0.0), -9.5 - 0j]])
    arg = np.angle(z)
    rotated = (arg > 3 * np.pi / 8) & (arg <= 5 * np.pi / 8)
    assert np.count_nonzero(rotated) >= 100     # I0/K0 wedge
    assert np.count_nonzero(arg > 5 * np.pi / 8) >= 100     # reflected
    assert np.count_nonzero(~rotated & (arg <= 5 * np.pi / 8)) >= 100
    x = np.concatenate([rng.uniform(sf.K_SERIES_RADIUS, 700.0, 3000),
                        [np.nextafter(sf.K_SERIES_RADIUS, 5.0)]])
    got_h, got_k = sf.hankel2_0(z).value, sf.bessel_k1(x).value
    monkeypatch.setattr(sf, "_watson_h2", _watson_h2_full)
    monkeypatch.setattr(sf, "_watson_k", _watson_k_full)
    assert got_h.tobytes() == sf.hankel2_0(z).value.tobytes()
    assert got_k.tobytes() == sf.bessel_k1(x).value.tobytes()


class TestArrays:
    @pytest.mark.parametrize("fn, args, radius, kind", [
        (sf.hankel2_0, _ROUTE_ARGS, sf.SERIES_RADIUS, complex),
        (sf.bessel_k1, _K1_ARGS, sf.K_SERIES_RADIUS, float),
    ], ids=["hankel2_0", "bessel_k1"])
    def test_array_is_its_elements_bitwise(self, fn, args, radius, kind):
        z = np.array(args)
        assert 3 <= np.count_nonzero(np.abs(z) <= radius) < z.size - 3
        whole = fn(z)
        assert whole.value.shape == z.shape
        for i, zi in enumerate(args):
            one = fn(zi)
            assert isinstance(one.value, kind)
            assert isinstance(one.est_error, float)
            assert np.array_equal(whole.value[i], one.value)
            assert whole.est_error[i] == one.est_error
        # any order, any subset, any shape: each element stays the same
        perm = np.random.default_rng(7).permutation(len(z))
        assert np.array_equal(fn(z[perm]).value, whole.value[perm])
        grid = fn(z.reshape(3, -1))
        assert np.array_equal(grid.value, whole.value.reshape(3, -1))
        assert np.array_equal(grid.est_error, whole.est_error.reshape(3, -1))

    def test_array_within_its_error_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        res = sf.hankel2_0(np.array(_ROUTE_ARGS))
        for z, got, err in zip(_ROUTE_ARGS, res.value, res.est_error):
            with mp.workdps(30):
                # the signed zero of Im z names the side of the cut
                near = mp.mpc(z.real, z.imag or math.copysign(1e-30, z.imag))
                want = complex(mp.hankel2(0, near))
            assert abs(got - want) <= err * abs(want)

    def test_cancellation_error_grows_elementwise(self):
        res = sf.hankel2_0(np.array([3.0 + 1.0j, 3.0 - 6.0j]))
        assert res.est_error[0] <= 1e-12 < res.est_error[1]

    def test_zero_anywhere_rejected(self):
        with pytest.raises(ValueError, match="z = 0"):
            sf.hankel2_0(np.array([1.0, 0.0, 2.0]))
