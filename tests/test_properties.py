"""Property tests of the correlators over detector geometries (hypothesis)."""

import cmath
import math

import pytest
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from pairemit import correlations
from pairemit.correlations import DetectorGeometry, default_spec, rho2_and_Q
from pairemit.model import LAMBDA_F, EmitterParams, NonConvergenceError
from pairemit.quad import QuadSpec

DELTA = 2.997e-3
PARAMS = {"normal": EmitterParams(delta=0.0, ec=DELTA, w=1.0),
          "super": EmitterParams(delta=DELTA, ec=DELTA, w=1.0)}


@pytest.mark.parametrize("name", PARAMS)
# every example is a full Q point, so a failure is reported as found rather
# than shrunk, which would take minutes
@settings(derandomize=True, max_examples=10, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(r1=st.floats(80.0, 200.0), r2=st.floats(80.0, 200.0),
       theta=st.floats(0.0, math.pi))
def test_unequal_radii_invariants(name, r1, r2, theta):
    assume(abs(r1 - r2) >= 1.0)
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    geom = DetectorGeometry.from_vectors((r1 * s, 0.0, r1 * c),
                                         (-r2 * s, 0.0, r2 * c))
    res = rho2_and_Q(geom, PARAMS[name], default_spec(0.03))
    assert res.rho2 >= 0.0
    assert abs(res.gamma21) ** 2 <= res.gamma11 * res.gamma22 * (1.0 + 1e-6)
    # gamma(r; r) = G / r^2
    assert res.gamma11 * geom.r1 ** 2 == pytest.approx(
        res.gamma22 * geom.r2 ** 2, rel=1e-13, abs=0.0)


def _polar_vec(r, polar, azimuth):
    return (r * math.sin(polar) * math.cos(azimuth),
            r * math.sin(polar) * math.sin(azimuth), r * math.cos(polar))


# detector positions: those of the CLI's mirrored pairs, at polar angle
# theta / 2 in the x-z plane, and arbitrary directions
_R = st.floats(50.0, 3000.0)
_POSITIONS = st.one_of(
    st.builds(lambda r, t: _polar_vec(r, 0.5 * t, 0.0),
              _R, st.floats(0.0, 2.0 * math.pi)),
    st.builds(_polar_vec, _R, st.floats(0.0, math.pi),
              st.floats(0.0, 2.0 * math.pi)))


@pytest.mark.parametrize("name", PARAMS)
@settings(derandomize=True, max_examples=12, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(r_vec=_POSITIONS)
# its diagonal's cos_theta rounds to 1 - 3e-16
@example(r_vec=_polar_vec(100.0, 1.0, 0.0))
def test_cached_diagonal_matches_uncached_quadrature(name, r_vec):
    # the cache integrates at unit radius and cos(theta/2) = 1 exactly; a
    # geometry's own cos_theta can round to 1 - 2e-16, which moves the
    # value by about 1e-14 relative
    geom = DetectorGeometry.from_vectors(r_vec, r_vec)
    spec = default_spec(0.03)
    cached = correlations._gamma_diag_at(geom.r1 * LAMBDA_F, PARAMS[name],
                                         spec)
    direct = correlations._gamma_quad(geom, PARAMS[name], spec)
    assert cached.value.real == pytest.approx(direct.value.real, rel=1e-13,
                                              abs=0.0)
    # err_est is a difference of two rules: the same 1e-16 nudge moves it
    # by about 1e-12 of itself, but by only 1e-15 of the value
    assert abs(cached.err_est - direct.err_est) <= 1e-13 * direct.value.real
    assert cached.converged and direct.converged


def test_nonconvergence_message_repeats_from_the_cache():
    spec = QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=1)
    geom = DetectorGeometry.from_r_theta(100.0, 0.3)
    correlations._gamma_diag.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(NonConvergenceError) as info:
            rho2_and_Q(geom, PARAMS["super"], spec)
        messages.append(str(info.value))
    assert correlations._gamma_diag.cache_info().hits == 1
    assert messages == ["correlation quadrature did not converge: "
                        "gamma11 in eps, gamma22 in eps, gamma21 in eps"] * 2


# (|Delta|, E_C, w) in the validated regime at every radius below: mu/E_C
# >= 20, and r/(k_F w^2) >= 10 down to r = 50 lambda_F
_IN_REGIME = st.tuples(st.floats(1e-3, 1e-2), st.floats(1e-3, 1e-2),
                       st.floats(0.5, 0.85))


def _at_radius(vec, r):
    norm = math.hypot(*vec)
    return tuple(r * c / norm for c in vec)


# on their contour chi's u-lines cost about as much at any r; its eps
# integral still grows with |r1 - r2| (the pair residues' phase turns by
# about omega |r1 - r2| / 2), to about 1 s at radii 50 and 1902 lambda_F,
# and detectors a small angle apart at large radii take seconds a chi
@pytest.mark.slow
@settings(derandomize=True, max_examples=10, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(abs_delta_ec_w=_IN_REGIME, r1_vec=_POSITIONS, r2_vec=_POSITIONS,
       r1=st.floats(50.0, 3000.0), apart=st.floats(1.0, 2000.0),
       phase=st.floats(0.1, 2.0 * math.pi - 0.1))
# radii 50 and 1902 lambda_F, where a real-line chi took 45-98 s
@example(abs_delta_ec_w=(7.1e-3, 1e-2, 0.74), r1_vec=(0.0, 0.0, 1.0),
         r2_vec=(0.0, 0.0, -1.0), r1=50.0, apart=1852.0, phase=1.0)
def test_chi_swap_symmetry_and_gap_phase(abs_delta_ec_w, r1_vec, r2_vec, r1,
                                         apart, phase):
    # two directions in no common plane with the z axis in general, at
    # unequal radii
    geom = DetectorGeometry.from_vectors(_at_radius(r1_vec, r1),
                                         _at_radius(r2_vec, r1 + apart))
    abs_delta, ec, w = abs_delta_ec_w
    spec = default_spec(0.03)
    # the turned gap's modulus can round 1 ulp away from abs_delta, which
    # moves a chi that cancels to 1e-33 by 1e-12 of itself: both take it
    turned_delta = abs_delta * cmath.exp(1j * phase)
    params = EmitterParams(abs(turned_delta), ec, w)
    res = correlations._chi_quad(geom, params, spec)
    swapped = correlations._chi_quad(geom.swapped(), params, spec)
    assert res.converged and swapped.converged
    assert abs(res.value - swapped.value) <= res.err_est + swapped.err_est
    turned = correlations._chi_quad(
        geom, EmitterParams(turned_delta, ec, w), spec)
    assert abs(abs(turned.value) - abs(res.value)) <= 1e-12 * abs(res.value)


# two detector positions at unequal radii, in no common plane with the z
# axis in general: gamma's phase turns with r1 - r2, so swapping the
# detectors tests how each correlator depends on their order
_SWAP = dict(derandomize=True, max_examples=6, deadline=None, database=None,
             phases=(Phase.explicit, Phase.generate))


def _unequal(r1_vec, r2_vec) -> DetectorGeometry:
    geom = DetectorGeometry.from_vectors(r1_vec, r2_vec)
    assume(abs(geom.r1 - geom.r2) >= 1.0)
    return geom


@settings(**_SWAP)
@given(r1_vec=_POSITIONS, r2_vec=_POSITIONS)
def test_gamma_hermitian(r1_vec, r2_vec):
    geom = _unequal(r1_vec, r2_vec)
    spec = default_spec(0.03)
    res = correlations._gamma_quad(geom, PARAMS["super"], spec)
    swapped = correlations._gamma_quad(geom.swapped(), PARAMS["super"], spec)
    assert res.converged and swapped.converged
    assert abs(swapped.value - res.value.conjugate()) \
        <= res.err_est + swapped.err_est


@settings(**_SWAP)
@given(r1_vec=_POSITIONS, r2_vec=_POSITIONS)
def test_Q_swap_invariant(r1_vec, r2_vec):
    geom = _unequal(r1_vec, r2_vec)
    spec = default_spec(0.03)
    res = rho2_and_Q(geom, PARAMS["super"], spec)
    swapped = rho2_and_Q(geom.swapped(), PARAMS["super"], spec)
    assert abs(swapped.Q - res.Q) <= res.Q_err + swapped.Q_err
