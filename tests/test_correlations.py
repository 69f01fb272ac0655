import cmath
import math
import re

import numpy as np
import pytest

import pairemit.correlations as correlations
import pairemit.kernels as kernels
import pairemit.quad as quad
from pairemit.correlations import (DetectorGeometry, NonConvergenceError,
                                   _chi_quad, default_spec, energy_cutoff,
                                   farfield_amplitude,
                                   farfield_amplitude_direct, chi, gamma,
                                   rho2_and_Q)
from pairemit.model import EmitterParams, pole_momentum, OutOfBandError
from pairemit.quad import QuadResult, QuadSpec

DELTA = 2.997e-3
SUPER = EmitterParams(delta=DELTA, ec=DELTA, w=1.0)
NORMAL = EmitterParams(delta=0.0, ec=DELTA, w=1.0)
R = 100.0


@pytest.fixture(scope="module", autouse=True)
def _warm():
    kernels.warmup()


class TestGeometry:
    def test_from_r_theta(self):
        g = DetectorGeometry.from_r_theta(100.0, math.pi / 3)
        assert g.r1 == pytest.approx(100.0)
        assert g.r2 == pytest.approx(100.0)
        assert g.theta == pytest.approx(math.pi / 3)

    def test_far_field_flag(self):
        # threshold is k_F r >= 50, i.e. r >= 50/(2 pi) lambda_F
        assert DetectorGeometry.from_r_theta(10.0, 0.1).far_field
        assert not DetectorGeometry.from_r_theta(5.0, 0.1).far_field

    def test_positive_distances(self):
        with pytest.raises(ValueError):
            DetectorGeometry((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("geom, named", [
        (lambda: DetectorGeometry.from_r_theta(math.nan, 1.0),
         "r1 = nan, r2 = nan"),
        (lambda: DetectorGeometry.from_r_theta(100.0, math.nan),
         "r1 = nan, r2 = nan"),
        (lambda: DetectorGeometry((0.0, 0.0, 1.0), (0.0, 0.0, math.inf)),
         "r1 = 1.0, r2 = inf"),
    ], ids=["r-nan", "theta-nan", "r2-inf"])
    def test_non_finite_distances_rejected(self, geom, named):
        with pytest.raises(ValueError,
                           match=f"positive and finite, got {named}"):
            geom()


class TestFarfieldAmplitude:
    def test_exact_distance_scaling(self):
        # A at 2r equals A at r times e^{i p_k r} / 2 exactly
        omega = 0.01
        k = np.array([0.0, 0.0, 0.9])
        r1 = np.array([0.0, 0.0, 100.0])
        a1 = farfield_amplitude(k, r1, omega, SUPER)
        a2 = farfield_amplitude(k, 2 * r1, omega, SUPER)
        p_k = pole_momentum(omega)
        r_kf = 100.0 * 2 * math.pi
        assert a2 == pytest.approx(a1 * cmath.exp(1j * p_k * r_kf) / 2.0,
                                   rel=1e-12)

    def test_direction_maximum_along_r(self):
        omega = 0.01
        p_k = pole_momentum(omega)
        r = np.array([0.0, 0.0, 100.0])
        best = abs(farfield_amplitude(np.array([0, 0, p_k]), r, omega, SUPER))
        for ang in (0.05, 0.2, 0.7):
            k = p_k * np.array([math.sin(ang), 0.0, math.cos(ang)])
            assert abs(farfield_amplitude(k, r, omega, SUPER)) < best

    @pytest.mark.parametrize("r1, r2, theta", [(100.0, 100.0, math.pi),
                                               (100.0, 120.0, math.pi - 0.3),
                                               (90.0, 130.0, 1.0)])
    def test_gamma_integrand_is_amplitude_product(self, r1, r2, theta):
        # gamma's kernel is v_k^2 (k/2) A_k(r1) A_k*(r2), with A_k the
        # amplitude that acceptance check farfield_oracle tests against its
        # defining integral; k at angle alpha from the detector bisector z
        n1 = np.array([math.sin(theta / 2), 0.0, math.cos(theta / 2)])
        n2 = np.array([-math.sin(theta / 2), 0.0, math.cos(theta / 2)])
        r1_kf, r2_kf = 2 * math.pi * r1, 2 * math.pi * r2
        for eps in (-0.05, -0.01, -0.002, 0.0, 0.004):
            k = math.sqrt(1.0 + eps)
            omega = math.hypot(eps, DELTA)
            vk2 = 0.5 * (1.0 - eps / omega)
            for cosa in (1.0, 0.6, -0.4):
                sina = math.sqrt(1.0 - cosa * cosa)
                k_vec = k * np.array([sina * math.cos(0.7),
                                      sina * math.sin(0.7), cosa])
                kernel = kernels.gamma_integrand(
                    np.zeros(1), eps, cosa, DELTA, SUPER.ec, SUPER.w_kf,
                    r1_kf, r2_kf, math.cos(theta / 2),
                    correlations.OMEGA_CAP)[0]
                got = kernel * (math.pi / 2) * (2 * math.pi) ** -6 \
                    / (r1_kf * r2_kf)
                want = vk2 * (k / 2) \
                    * farfield_amplitude(k_vec, r1 * n1, omega, SUPER) \
                    * farfield_amplitude(k_vec, r2 * n2, omega,
                                         SUPER).conjugate()
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_out_of_band_propagates(self):
        with pytest.raises(OutOfBandError):
            farfield_amplitude(np.array([0, 0, 1.0]),
                               np.array([0, 0, 100.0]), 1.5, SUPER)

    def test_direct_oracle_requires_convergent_filter(self):
        with pytest.raises(ValueError):
            farfield_amplitude_direct(np.array([0, 0, 1.0]),
                                      np.array([0, 0, 200.0]), 0.01, SUPER)


class TestGamma:
    def test_diagonal_real_positive(self):
        g = DetectorGeometry.from_r_theta(R, 0.0)
        val = gamma(g, SUPER)
        assert val.imag == pytest.approx(0.0, abs=1e-18)
        assert val.real > 0.0

    def test_hermiticity_under_swap(self):
        geom = DetectorGeometry((0.0, 0.0, 90.0),
                                (30.0, 0.0, 85.0))
        a = gamma(geom, SUPER)
        b = gamma(geom.swapped(), SUPER)
        assert abs(a - b.conjugate()) <= 1e-3 * abs(a)

    def test_cauchy_schwarz(self):
        geom = DetectorGeometry.from_r_theta(R, 0.3)
        g11 = gamma(DetectorGeometry(geom.r1_vec, geom.r1_vec), SUPER).real
        g22 = gamma(DetectorGeometry(geom.r2_vec, geom.r2_vec), SUPER).real
        g21 = gamma(geom, SUPER)
        assert abs(g21) ** 2 <= g11 * g22 * (1.0 + 1e-6)

    def test_angular_localization_at_pi(self):
        # |gamma21| at theta = pi is below 1e-3 of the diagonal
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi), SUPER)
        assert abs(res.gamma21) <= 1e-3 * res.gamma11

    def test_far_field_warning(self):
        with pytest.warns(UserWarning):
            gamma(DetectorGeometry.from_r_theta(2.0, 0.1), NORMAL)

    def test_energy_cutoff_convergence(self, monkeypatch):
        # doubling the eps_k window moves the diagonal by less than 1%
        geom = DetectorGeometry.from_r_theta(R, 0.0)
        base = gamma(geom, SUPER).real
        monkeypatch.setattr(correlations, "energy_cutoff", lambda p: min(
            2.0 * energy_cutoff(p), correlations._band_edge(p)))
        wide = gamma(geom, SUPER).real
        assert abs(wide - base) < 0.01 * abs(base)

    def test_nonconvergence_names_the_variable(self):
        spec = QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=1)
        with pytest.raises(NonConvergenceError) as info:
            gamma(DetectorGeometry.from_r_theta(R, 0.0), SUPER, spec)
        assert str(info.value) == "gamma quadrature did not converge in eps"

    def test_energy_cutoff_value(self):
        assert energy_cutoff(SUPER) == pytest.approx(20 * DELTA)
        wide = EmitterParams(delta=0.0, ec=0.2, w=1.0)
        assert energy_cutoff(wide) <= 0.95


def _direction_f(u, k, w, n1, n2, r1, r2, khat):
    """Pair energy-line function at one k direction (before the angular
    integral): 2 sqrt(ab) exp(expo) e^{i(a r1 + b r2)} with the full
    Gaussian exponent of g(a n1 - k) g(b n2 + k)."""
    a = math.sqrt(1.0 + u)
    b = math.sqrt(1.0 - u)
    c1 = khat @ n1
    c2 = khat @ n2
    expo = -(0.5 * w * w) * (a * a + b * b + 2.0 * k * k
                             - 2.0 * a * k * c1 + 2.0 * b * k * c2)
    return 2.0 * math.sqrt(a * b) * np.exp(expo) \
        * cmath.exp(1j * (a * r1 + b * r2))


def _sphere_integral(u, k, w, n1, n2, r1, r2, n_cos=64, n_phi=64):
    """Direct (cos alpha, phi) quadrature of _direction_f over all k-hat,
    polar axis along n1 - n2 (any axis for coincident detectors): a product
    of Gauss-Legendre in cos alpha and the periodic trapezoid rule in phi,
    independent of the program's adaptive integrator."""
    e3 = n1 - n2
    if np.linalg.norm(e3) < 1e-12:
        e3 = np.array([1.0, 0.0, 0.0])
    e3 = e3 / np.linalg.norm(e3)
    e1 = np.cross(e3, [0.0, 1.0, 0.0] if abs(e3[1]) < 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)

    cosa, weights = np.polynomial.legendre.leggauss(n_cos)
    sina = np.sqrt(1.0 - cosa * cosa)
    phis = (2.0 * math.pi / n_phi) * np.arange(n_phi)
    khat = (cosa[:, None, None] * e3
            + sina[:, None, None] * (np.cos(phis)[None, :, None] * e1
                                     + np.sin(phis)[None, :, None] * e2))
    f = _direction_f(u, k, w, n1, n2, r1, r2, khat)
    return (2.0 * math.pi / n_phi) * (weights @ f.sum(axis=1))


# the non-coplanar detector pair of acceptance check 5
CHECK5_N1 = np.array([0.6, 0.0, 0.8])
CHECK5_N2 = np.array([-0.595, 0.1, -0.79]) / np.linalg.norm([-0.595, 0.1,
                                                              -0.79])


class TestChi:
    def test_exact_null_in_normal_state(self):
        geom = DetectorGeometry.from_r_theta(R, math.pi)
        assert chi(geom, NORMAL) == 0.0

    @pytest.mark.parametrize("n1, n2, r1, r2", [
        (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), 628.3, 628.3),
        (np.array([math.sin(0.5 * (math.pi - 0.35)), 0.0,
                   math.cos(0.5 * (math.pi - 0.35))]),
         np.array([-math.sin(0.5 * (math.pi - 0.35)), 0.0,
                   math.cos(0.5 * (math.pi - 0.35))]), 628.3, 628.3),
        (CHECK5_N1, CHECK5_N2, 90.0 * 2 * math.pi, 110.0 * 2 * math.pi),
        (CHECK5_N1, CHECK5_N1, 628.3, 640.0),      # theta = 0
    ], ids=["pi", "pi-0.35", "check5", "theta0"])
    def test_angle_integrated_kernel_matches_direction_quadrature(
            self, n1, n2, r1, r2):
        w = SUPER.w_kf
        cos_theta = float(n1 @ n2)
        for eps in (0.0, 0.02):
            omega = math.sqrt(eps * eps + DELTA * DELTA)
            k = math.sqrt(1.0 + eps)
            us = np.array([0.0, -omega * (1.0 + 1e-6), -omega, omega,
                           omega * (1.0 - 1e-6), -0.2, 0.25])
            got = kernels.chi_f(us, k, w, cos_theta, r1, r2)
            for g, u in zip(got, us):
                x = _sphere_integral(u, k, w, n1, n2, r1, r2)
                # the oracle's node counts have converged: doubled, they
                # move it by far less than the tolerance below
                x2 = _sphere_integral(u, k, w, n1, n2, r1, r2, 128, 128)
                assert abs(x - x2) <= 1e-11 * abs(x2)
                assert abs(g - x) <= 1e-8 * abs(x)

    def test_reported_evaluations_count_every_kernel_node(self, monkeypatch):
        nodes = [0]

        def counting(fn):
            def wrapper(u, *args):
                nodes[0] += np.size(u)
                return fn(u, *args)
            return wrapper

        monkeypatch.setattr(kernels, "chi_f", counting(kernels.chi_f))
        monkeypatch.setattr(kernels, "chi_p", counting(kernels.chi_p))
        res = _chi_quad(DetectorGeometry.from_r_theta(R, math.pi), SUPER,
                        QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=40))
        assert res.converged
        assert res.evaluations == nodes[0] > 0

    def test_u_line_nonconvergence_is_located(self):
        spec = QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=1)
        with pytest.raises(NonConvergenceError) as info:
            chi(DetectorGeometry.from_r_theta(R, math.pi), SUPER, spec)
        m = re.fullmatch(r"chi u-line did not converge at eps = (\S+), "
                         r"u in \[(\S+), (\S+)\]", str(info.value))
        assert m is not None, str(info.value)
        eps, u_lo, u_hi = map(float, m.groups())
        assert abs(eps) <= energy_cutoff(SUPER)
        assert -1.0 < u_lo < u_hi < 1.0
        res = info.value.result
        assert isinstance(res, QuadResult)
        assert not res.converged and res.evaluations > 0

    def test_first_failed_u_line_in_eps_order_is_named(self, monkeypatch):
        batches = []
        batch = quad.integrate_batch

        def recording(f, a, b, spec):
            res = batch(f, a, b, spec)
            batches.append((a, b, res))
            return res

        monkeypatch.setattr(quad, "integrate_batch", recording)
        spec = QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=1)
        with pytest.raises(NonConvergenceError) as info:
            chi(DetectorGeometry.from_r_theta(R, math.pi), SUPER, spec)
        # the u-lines of the sweep that raised: several failed, and the
        # first of them in eps order is named, with its own result
        u_los, u_his, lines = next(b for b in reversed(batches)
                                   if len(b[2]) > 1)
        failed = [j for j, res in enumerate(lines) if not res.converged]
        assert len(failed) > 1
        first = failed[0]
        assert str(info.value).endswith(
            f"u in [{u_los[first]!r}, {u_his[first]!r}]")
        assert info.value.result is lines[first]

    @pytest.mark.parametrize("rel_tol, max_calls, nodes", [
        (0.03, 12, 6_750), (1e-3, 40, 47_250)])
    def test_kernel_calls_at_the_figure_point(self, monkeypatch, rel_tol,
                                              max_calls, nodes):
        # machine-independent counts: the u-lines of an eps sweep share
        # their chi_p calls, while each line keeps its own nodes
        seen = {"calls": 0, "nodes": 0}
        chi_p = kernels.chi_p

        def counting(u, *args):
            seen["calls"] += 1
            seen["nodes"] += np.size(u)
            return chi_p(u, *args)

        monkeypatch.setattr(kernels, "chi_p", counting)
        chi(DetectorGeometry.from_r_theta(R, math.pi), SUPER,
            default_spec(rel_tol))
        assert seen["calls"] <= max_calls
        assert seen["nodes"] == nodes

    def test_telemetry_sums_the_eps_integral_and_every_u_line(
            self, monkeypatch):
        eps, batches = [], []
        integrate_1d, batch = correlations.integrate_1d, quad.integrate_batch

        def eps_recording(*args):
            eps.append(integrate_1d(*args))
            return eps[-1]

        def recording(*args):
            batches.append(batch(*args))
            return batches[-1]

        monkeypatch.setattr(correlations, "integrate_1d", eps_recording)
        monkeypatch.setattr(quad, "integrate_batch", recording)
        res = _chi_quad(DetectorGeometry.from_r_theta(R, math.pi), SUPER,
                        default_spec(0.03))
        # the eps integrals' own batches of one are not u-lines
        lines = [r for b in batches for r in b
                 if not any(r is e for e in eps)]
        assert len(eps) == 2 and len(lines) >= 2 * 15
        assert res.intervals == sum(r.intervals for r in eps + lines)
        assert res.max_depth == max(r.max_depth for r in eps + lines) > 0
        assert res.evaluations == sum(2 + r.evaluations for r in lines)

    def test_regime_warnings(self):
        with pytest.warns(UserWarning):
            chi(DetectorGeometry.from_r_theta(4.0, math.pi), SUPER,
                QuadSpec(rel_tol=1e-2, abs_tol=1e-25, max_depth=25))

    @pytest.mark.slow
    def test_swap_symmetry_asymmetric_geometry(self):
        # chi(r1, r2) = chi(r2, r1) at unequal radii and off-axis angles
        n2 = np.array([-0.6, 0.15, -0.785])
        n2 /= np.linalg.norm(n2)
        geom = DetectorGeometry((0.0, 0.0, 90.0), tuple(105.0 * n2))
        a = chi(geom, SUPER)
        b = chi(geom.swapped(), SUPER)
        assert abs(a - b) <= 2e-2 * abs(a)

    @pytest.mark.slow
    def test_phase_invariance(self):
        geom = DetectorGeometry.from_r_theta(R, math.pi)
        a = chi(geom, SUPER)
        rotated = EmitterParams(delta=DELTA * cmath.exp(1.1j), ec=DELTA, w=1.0)
        b = chi(geom, rotated)
        assert abs(abs(b) - abs(a)) <= 1e-10 * abs(a)
        # the phase itself co-rotates with the gap
        assert cmath.phase(b / a) == pytest.approx(1.1, abs=1e-6)

    @pytest.mark.slow
    def test_small_gap_linear_scaling(self):
        # chi is linear in Delta up to the logarithmic variation of its
        # Hankel-type kernel: the doubling ratio |chi(2D)/chi(D)| matches
        # the closed-form prediction of that kernel and converges (slowly,
        # through the log) toward 2 as the gap shrinks at fixed geometry.
        import pairemit.specfun as sf

        geom = DetectorGeometry.from_r_theta(R, math.pi)
        ec = 0.01
        w_kf = 2 * math.pi
        r_kf = R * 2 * math.pi

        def predicted_ratio(d):
            def bracket(dd):
                z = complex(-r_kf * dd**2 / 8.0, w_kf**2 * dd**2 / 4.0)
                s = 4.0 * cmath.exp(1j * r_kf * dd**2 / 8.0) / (
                    math.pi * cmath.sqrt(1j * r_kf / w_kf**2))
                return abs(sf.hankel2_0(z).value - s)
            return 2.0 * bracket(2 * d) / bracket(d)

        x1 = chi(geom, EmitterParams(delta=2e-4, ec=ec, w=1.0))
        x2 = chi(geom, EmitterParams(delta=4e-4, ec=ec, w=1.0))
        ratio = abs(x2) / abs(x1)
        assert ratio == pytest.approx(predicted_ratio(2e-4), rel=0.03)
        # directional convergence toward 2: shrinking the gap helps
        assert 1.0 < predicted_ratio(2e-3) < predicted_ratio(2e-4) \
            < predicted_ratio(2e-6) < 2.0


class TestRho2AndQ:
    def test_normal_coincident_antibunching(self):
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, 0.0), NORMAL)
        assert res.Q == pytest.approx(0.5, abs=1e-6)

    def test_normal_separated_factorizes(self):
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi / 2), NORMAL)
        assert res.Q == pytest.approx(1.0, abs=1e-4)
        assert res.rho1_1 == pytest.approx(2 * res.gamma11)

    @pytest.mark.slow
    def test_q_even_about_pi(self):
        d = 0.35
        qa = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi - d), SUPER).Q
        qb = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi + d), SUPER).Q
        assert qa == pytest.approx(qb, rel=2e-2)

    @pytest.mark.slow
    def test_rho2_nonnegative_and_flags(self):
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi), SUPER)
        assert res.rho2 >= 0.0
        assert res.regime_flags["far_field"]
        assert res.regime_flags["chi_kfr_ok"]
        assert res.regime_flags["chi_spread_ok"]

    def test_gamma22_is_gamma11_rescaled(self):
        # gamma(r; r) = G / r^2: detector 2's diagonal is detector 1's
        # times (r1 / r2)^2, at unequal radii too
        geom = DetectorGeometry((0.0, 0.0, 90.0), (30.0, 0.0, 85.0))
        res = rho2_and_Q(geom, SUPER)
        g11 = gamma(DetectorGeometry(geom.r1_vec, geom.r1_vec), SUPER)
        g22 = gamma(DetectorGeometry(geom.r2_vec, geom.r2_vec), SUPER)
        assert res.gamma11 == g11.real
        assert abs(res.gamma22 - g22.real) <= 1e-12 * g22.real
        assert res.err_est["gamma22"] / res.gamma22 == pytest.approx(
            res.err_est["gamma11"] / res.gamma11, rel=1e-12)

    def test_one_diagonal_quadrature_per_params(self, monkeypatch):
        # the diagonal G is integrated once per (|Delta|, E_C, w, spec):
        # a spy on the core records each quadrature at unit radii
        diagonals = []
        real = correlations._gamma_core

        def spy(cth2, r1, r2, *rest):
            if (r1, r2) == (1.0, 1.0):
                diagonals.append(rest)
            return real(cth2, r1, r2, *rest)

        monkeypatch.setattr(correlations, "_gamma_core", spy)
        correlations._gamma_diag.cache_clear()
        coarse = default_spec(0.03)
        points = [DetectorGeometry.from_r_theta(r, theta)
                  for r, theta in ((90.0, 0.4), (120.0, 2.0), (150.0, 3.0))]
        for geom in points:
            rho2_and_Q(geom, NORMAL, coarse)
        assert len(diagonals) == 1
        rho2_and_Q(points[0], SUPER, coarse)            # new |Delta|
        assert len(diagonals) == 2
        rho2_and_Q(points[1], SUPER, default_spec(0.05))    # new rel_tol
        assert len(diagonals) == 3
        rotated = EmitterParams(delta=1j * DELTA, ec=DELTA, w=1.0)
        rho2_and_Q(points[2], rotated, coarse)          # gap phase only
        assert len(diagonals) == 3

    def test_diagonal_independent_of_call_order(self):
        # (100, pi)'s diagonal has cos_theta = 1.0 exactly, the others'
        # round below it: gamma11 must not depend on who filled the cache
        b = DetectorGeometry.from_r_theta(100.0, math.pi)
        coarse = default_spec(0.03)
        correlations._gamma_diag.cache_clear()
        first = rho2_and_Q(b, NORMAL, coarse).gamma11
        correlations._gamma_diag.cache_clear()
        for r, theta in ((100.0, 2.0), (150.0, 0.5), (90.0, 2.5)):
            rho2_and_Q(DetectorGeometry.from_r_theta(r, theta), NORMAL,
                       coarse)
        assert rho2_and_Q(b, NORMAL, coarse).gamma11 == first

    def test_diagonal_cache_is_bounded(self):
        spec = QuadSpec(rel_tol=1.0, abs_tol=1e-300, max_depth=1)   # cheap
        size = correlations._DIAG_CACHE_SIZE
        for i in range(size + 3):
            correlations._gamma_diag_at(
                1.0, EmitterParams(0.0, DELTA * (1.0 + i / 8.0), 1.0), spec)
        info = correlations._gamma_diag.cache_info()
        assert info.maxsize == size
        assert info.currsize == size

    def test_nonconvergence_names_the_gamma_components(self):
        spec = QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=1)
        with pytest.raises(NonConvergenceError) as info:
            rho2_and_Q(DetectorGeometry.from_r_theta(R, 0.3), SUPER, spec)
        assert str(info.value) == ("correlation quadrature did not converge: "
                                   "gamma11, gamma22, gamma21")

    def test_nonconvergence_names_chi(self, monkeypatch):
        monkeypatch.setattr(correlations, "_chi_quad",
                            lambda *a, **k: QuadResult(0j, 0.0, 0, False))
        with pytest.raises(NonConvergenceError) as info:
            rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi / 2), SUPER)
        assert str(info.value) == ("correlation quadrature did not converge: "
                                   "chi21")

    def test_normal_theta0_feeds_q_half(self):
        # Delta = 0, theta = 0: chi = 0 and gamma21 = gamma11 give Q = 1/2
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, 0.0), NORMAL)
        assert res.chi21 == 0.0
        assert abs(res.gamma21 - res.gamma11) <= 1e-12 * res.gamma11
