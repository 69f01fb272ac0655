import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import pairemit.correlations as correlations
import pairemit.kernels as kernels
import pairemit.quad as quad
from pairemit.correlations import (CorrelationResult, DetectorGeometry,
                                   NonConvergenceError,
                                   _chi_quad, default_spec, energy_cutoff,
                                   farfield_amplitude,
                                   farfield_amplitude_direct, chi,
                                   rho2_and_Q)
from pairemit.model import (LAMBDA_F, MASS, EmitterParams, OutOfBandError,
                            pole_momentum, regime_flags)
from pairemit.peak import delta_q_peak
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
        # 2 pi - theta mirrors the pair in z: the same radii and angle, the
        # only geometry Q reads
        for theta in (math.pi / 3, 5 * math.pi / 3):
            g = DetectorGeometry.from_r_theta(100.0, theta)
            assert g.r1 == pytest.approx(100.0)
            assert g.r2 == pytest.approx(100.0)
            assert g.cos_theta == pytest.approx(0.5)

    @pytest.mark.parametrize("r, theta", [(100.0, 2.0), (55.0, 0.3),
                                          (137.3, math.pi)])
    def test_from_r_theta_stores_r_and_cos_theta_exactly(self, r, theta):
        g = DetectorGeometry.from_r_theta(r, theta)
        assert (g.r1, g.r2, g.cos_theta) == (r, r, math.cos(theta))

    def test_from_vectors_matches_the_vector_geometry(self):
        # acceptance check 5's non-coplanar pair: the radii and cosine the
        # geometry computed from its stored vectors at version 0.3.0
        geom = DetectorGeometry.from_vectors(
            CHECK5_N1 * 90.0,
            np.array([-0.595, 0.1, -0.79]) / np.linalg.norm([-0.595, 0.1,
                                                             -0.79]) * 110.0)
        for got, want in ((geom.r1, 90.0), (geom.r2, 109.99999999999999),
                          (geom.cos_theta, -0.994925009649501)):
            assert abs(got - want) <= math.ulp(want)
        assert geom.swapped() == DetectorGeometry(geom.r2, geom.r1,
                                                  geom.cos_theta)

    def test_far_field_flag(self):
        # threshold is k_F r >= 50, i.e. r >= 50/(2 pi) lambda_F
        assert regime_flags(NORMAL.ec, NORMAL.w, 10.0)["kfr_large"]
        assert not regime_flags(NORMAL.ec, NORMAL.w, 5.0)["kfr_large"]

    def test_positive_distances(self):
        with pytest.raises(ValueError,
                           match="positive and finite, got r1 = 0.0, r2 = 1.0"):
            DetectorGeometry.from_vectors((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="positive and finite, got "
                                             "r1 = 100.0, r2 = -1.0"):
            DetectorGeometry(100.0, -1.0, 0.5)

    @pytest.mark.parametrize("geom, named", [
        (lambda: DetectorGeometry.from_r_theta(math.nan, 1.0),
         "positive and finite, got r1 = nan, r2 = nan"),
        (lambda: DetectorGeometry.from_r_theta(100.0, math.nan),
         r"cos_theta must lie in \[-1, 1\], got nan"),
        (lambda: DetectorGeometry.from_vectors((0.0, 0.0, 1.0),
                                               (0.0, 0.0, math.inf)),
         "positive and finite, got r1 = 1.0, r2 = inf"),
        (lambda: DetectorGeometry.from_vectors((math.nan, 0.0, 1.0),
                                               (0.0, 0.0, 1.0)),
         "positive and finite, got r1 = nan, r2 = 1.0"),
    ], ids=["r-nan", "theta-nan", "r2-inf", "r1-vector-nan"])
    def test_non_finite_distances_rejected(self, geom, named):
        with pytest.raises(ValueError, match=named):
            geom()

    @pytest.mark.parametrize("cos_theta", [1.0 + 2e-16, -1.5])
    def test_cos_theta_outside_its_range_rejected(self, cos_theta):
        with pytest.raises(ValueError, match=r"cos_theta must lie in "
                                             rf"\[-1, 1\], got {cos_theta!r}"):
            DetectorGeometry(100.0, 100.0, cos_theta)

    def test_from_r_theta_point_takes_no_norm(self, monkeypatch):
        # a Q point reads (r1, r2, cos_theta) as stored: no vector norms
        norms = []
        norm = np.linalg.norm

        def counting(*args, **kwargs):
            norms.append(args)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi), SUPER,
                   default_spec(0.03))
        assert norms == []
        DetectorGeometry.from_vectors((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        assert len(norms) == 2          # the wrapper sees from_vectors' two


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
        # gamma's kernel times (pi/2) (2 pi)^-6 / (r1 r2) is
        # v_k^2 A_k(r1) A_k*(r2) m k, with A_k the amplitude that acceptance
        # check farfield_oracle tests against its defining integral: at the
        # figure parameters and seeded (eps, k-hat) nodes, with the
        # detectors turned off every axis by a seeded rotation
        rng = np.random.default_rng(20081031)
        turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        n1 = turn @ [math.sin(theta / 2), 0.0, math.cos(theta / 2)]
        n2 = turn @ [-math.sin(theta / 2), 0.0, math.cos(theta / 2)]
        bisector = turn @ [0.0, 0.0, 1.0]
        geom = DetectorGeometry.from_vectors(r1 * n1, r2 * n2)
        r1_kf, r2_kf = geom.r1 * LAMBDA_F, geom.r2 * LAMBDA_F
        for _ in range(40):
            eps = rng.uniform(-1.0, 1.0) * energy_cutoff(SUPER)
            khat = rng.normal(size=3)
            khat /= np.linalg.norm(khat)
            k = math.sqrt(1.0 + eps)
            omega = math.hypot(eps, DELTA)
            want = 0.5 * (1.0 - eps / omega) * MASS * k \
                * farfield_amplitude(k * khat, r1 * n1, omega, SUPER) \
                * farfield_amplitude(k * khat, r2 * n2, omega,
                                     SUPER).conjugate()
            kernel = kernels.gamma_integrand(
                rng.uniform(0.0, math.pi, 3), eps, float(khat @ bisector),
                DELTA, SUPER.ec, SUPER.w_kf, r1_kf, r2_kf,
                math.cos(theta / 2), correlations.OMEGA_CAP)
            got = kernel * (math.pi / 2) * (2 * math.pi) ** -6 \
                / (r1_kf * r2_kf)
            assert np.all(np.abs(got - want) <= 1e-12 * abs(want))

    def test_out_of_band_propagates(self):
        with pytest.raises(OutOfBandError):
            farfield_amplitude(np.array([0, 0, 1.0]),
                               np.array([0, 0, 100.0]), 1.5, SUPER)

    def test_direct_oracle_requires_convergent_filter(self):
        with pytest.raises(ValueError):
            farfield_amplitude_direct(np.array([0, 0, 1.0]),
                                      np.array([0, 0, 200.0]), 0.01, SUPER)


def _gamma_diag(r, params=SUPER):
    """gamma(r; r) as rho2_and_Q reads it: the cached G / r^2 (r in
    lambda_F)."""
    return correlations._gamma_diag_at(r * LAMBDA_F, params,
                                       default_spec()).value


def _gamma21(geom, params=SUPER):
    """gamma(2;1) as rho2_and_Q integrates it (without its absolute floor)."""
    return correlations._gamma_quad(geom, params, default_spec()).value


class TestGamma:
    def test_diagonal_real_positive(self):
        val = _gamma_diag(R)
        assert val.imag == pytest.approx(0.0, abs=1e-18)
        assert val.real > 0.0

    def test_hermiticity_under_swap(self):
        geom = DetectorGeometry.from_vectors((0.0, 0.0, 90.0),
                                             (30.0, 0.0, 85.0))
        a = _gamma21(geom)
        b = _gamma21(geom.swapped())
        assert abs(a - b.conjugate()) <= 1e-3 * abs(a)

    def test_cauchy_schwarz(self):
        geom = DetectorGeometry.from_r_theta(R, 0.3)
        g11 = _gamma_diag(geom.r1).real
        g22 = _gamma_diag(geom.r2).real
        g21 = _gamma21(geom)
        assert abs(g21) ** 2 <= g11 * g22 * (1.0 + 1e-6)

    def test_angular_localization_at_pi(self):
        # |gamma21| at theta = pi is below 1e-3 of the diagonal
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi), SUPER)
        assert abs(res.gamma21) <= 1e-3 * res.gamma11

    def test_far_field_warning(self):
        # below k_F r = 50 gamma's amplitudes warn, and a Q point is flagged
        with pytest.warns(UserWarning, match="far-field form not controlled"):
            farfield_amplitude(np.array([0.0, 0.0, 1.0]),
                               np.array([0.0, 0.0, 2.0]), 0.01, NORMAL)
        res = rho2_and_Q(DetectorGeometry.from_r_theta(2.0, 0.1), NORMAL)
        assert not res.regime_flags["kfr_large"]

    def test_energy_cutoff_convergence(self, monkeypatch):
        # doubling the eps_k window moves the diagonal by less than 1%
        base = _gamma_diag(R).real
        monkeypatch.setattr(correlations, "energy_cutoff", lambda p: min(
            2.0 * energy_cutoff(p), correlations._band_edge(p)))
        wide = _gamma_diag(R).real
        assert abs(wide - base) < 0.01 * abs(base)

    def test_nonconvergence_names_the_variable(self, monkeypatch):
        # each gamma part that fails names the variable it stopped in
        spec = QuadSpec(rel_tol=1e-3, abs_tol=1e-300, max_depth=1)
        with pytest.raises(NonConvergenceError) as info:
            rho2_and_Q(DetectorGeometry.from_r_theta(R, 0.0), SUPER, spec)
        assert str(info.value) == ("correlation quadrature did not converge: "
                                   "gamma11 in eps, gamma22 in eps, "
                                   "gamma21 in eps")
        for fail_dim, variable in enumerate(("eps", "cos alpha", "phi")):
            monkeypatch.setattr(
                correlations, "_gamma_quad",
                lambda *a, **k: QuadResult(0j, 0.0, 0, False, fail_dim))
            with pytest.raises(NonConvergenceError) as info:
                rho2_and_Q(DetectorGeometry.from_r_theta(R, 0.3), NORMAL)
            assert str(info.value) == ("correlation quadrature did not "
                                       f"converge: gamma21 in {variable}")

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

    def test_window_holds_both_poles(self):
        # chi adds both poles' i pi residues to every u-line: each window
        # must hold -omega and +omega, inside the branch points +-1
        rng = np.random.default_rng(5)
        held = 0
        for _ in range(3000):
            params = EmitterParams(10.0 ** rng.uniform(-4.0, -1.0),
                                   10.0 ** rng.uniform(-4.0, -1.0),
                                   rng.uniform(0.3, 5.0))
            eps = rng.uniform(-1.0, 1.0)
            omega = math.hypot(eps, params.abs_delta)
            if omega >= correlations.OMEGA_CAP:
                continue
            lo, hi, nonempty = correlations._chi_u_window(
                params.w_kf, math.sqrt(1.0 + eps), omega)
            if nonempty:
                assert -1.0 < lo < -omega < omega < hi < 1.0
                held += 1
        assert held > 1000

    def test_sweep_arrays_match_the_per_node_formulas(self):
        # an eps sweep computes its u windows, contour heights and tau
        # domains as arrays; the per-node formulas they replaced are the
        # reference.  Heights bitwise; windows within one rounding of the
        # largest square they subtract, (k + 6/w)^2 (Python's x ** 2 is
        # C pow, which can round x * x 1 ulp off, numpy's is not); tau
        # domains within 4 ulp (numpy's arcsinh and math.asinh round
        # differently)
        def window(w, k, omega):
            pad = 6.0 / w
            lo = max(max(k - pad, 0.0) ** 2 - 1.0, 1.0 - (k + pad) ** 2)
            hi = min((k + pad) ** 2 - 1.0, 1.0 - max(k - pad, 0.0) ** 2)
            if lo >= hi:
                return None
            ulim = 1.0 - 1e-9
            return (max(min(lo, -omega - 0.02), -ulim),
                    min(max(hi, omega + 0.02), ulim))

        rng = np.random.default_rng(7)
        held = 0
        for _ in range(40):
            w = rng.uniform(0.3, 5.0) * LAMBDA_F
            eps = rng.uniform(-0.95, 0.95, 50)
            omega = np.sqrt(eps * eps + 10.0 ** rng.uniform(-8.0, -2.0))
            k = np.sqrt(1.0 + eps)
            lo, hi, nonempty = correlations._chi_u_window(w, k, omega)
            tol = np.spacing((k + 6.0 / w) ** 2)
            for i, (ki, oi) in enumerate(zip(k.tolist(), omega.tolist())):
                want = window(w, ki, oi)
                assert bool(nonempty[i]) == (want is not None)
                assert want is None or max(abs(lo[i] - want[0]),
                                           abs(hi[i] - want[1])) <= tol[i]
            assert correlations._chi_path_height(w, k).tolist() \
                == [min(0.5, 2.0 / (w * math.sqrt(x))) for x in k.tolist()]
            ustar, scale = correlations._saddle(*rng.uniform(300.0, 2e4, 2))
            for got, ends in zip(correlations._u_domain(lo, hi, ustar, scale),
                                 (lo, hi)):
                want = np.array([math.asinh((x - ustar) / scale)
                                 for x in ends.tolist()])
                assert np.all(np.abs(got - want)
                              <= 4.0 * np.spacing(np.abs(want)))
            held += int(nonempty.sum())
        assert 200 < held < 40 * 50

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
        # first of them in eps order is named, with its own result; a
        # line's batch interval is its contour's parameter range
        starts, stops, lines = next(b for b in reversed(batches)
                                    if len(b[2]) > 1)
        failed = [j for j, res in enumerate(lines) if not res.converged]
        assert len(failed) > 1
        first = failed[0]
        m = re.search(r"u in \[(\S+), (\S+)\]$", str(info.value))
        geom = DetectorGeometry.from_r_theta(R, math.pi)
        saddle = correlations._saddle(geom.r1 * LAMBDA_F, geom.r2 * LAMBDA_F)
        assert correlations._u_domain(*map(float, m.groups()), *saddle) \
            == (starts[first], stops[first])
        assert info.value.result is lines[first]

    @pytest.mark.parametrize("rel_tol, max_calls, nodes", [
        (0.03, 4, 1_350), (1e-3, 12, 9_450)])
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
        geom = DetectorGeometry.from_vectors((0.0, 0.0, 90.0), 105.0 * n2)
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


# ---------------------------------------------------------------------------
# chi's u-lines on their contour, against the real line


def _real_line(k, omega, win, w, cos_theta, r1, r2, fm, fp):
    """The oracle: the pole-subtracted u-line along the real segment, in 32
    pieces, each with its own interval budget (a line that oscillates
    thousands of times and ends next to a branch point needs them)."""
    ends = np.linspace(*win, 33)
    ends[[0, -1]] = win
    total = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        res = quad.integrate_1d(
            lambda u: kernels.chi_p(u, fm, fp, omega, k, w, cos_theta, r1,
                                    r2),
            lo, hi, QuadSpec(rel_tol=1e-8, abs_tol=1e-300, max_depth=60))
        assert res.converged
        total += res.value
    return total


def _pair(r1, r2, polar, azimuth, theta, turn):
    """Detectors at radii r1, r2 (lambda_F) theta apart: n1 from its polar
    angles, n2 turned about n1 by `turn`, so that the two lie in no common
    plane with the z axis in general."""
    n1 = np.array([math.sin(polar) * math.cos(azimuth),
                   math.sin(polar) * math.sin(azimuth), math.cos(polar)])
    e1 = np.cross(n1, [0.0, 0.0, 1.0])
    if np.linalg.norm(e1) < 1e-6:
        e1 = np.array([1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n1, e1)
    n2 = math.cos(theta) * n1 + math.sin(theta) * (math.cos(turn) * e1
                                                   + math.sin(turn) * e2)
    return DetectorGeometry.from_vectors(r1 * n1, r2 * n2)


def _real_line_u_lines(k, omega, lo, hi, w, cos_theta, r1, r2, spec):
    """The oracle of a whole chi: correlations._chi_u_lines along the real
    segments [lo, hi], as chi ran before its contour."""
    fpm = kernels.chi_f(np.concatenate([-omega, omega]),
                        np.concatenate([k, k]), w, cos_theta, r1, r2)
    fm, fp = fpm[:len(k)], fpm[len(k):]

    def p(u, owner):
        j = 0 if owner is None else owner
        return kernels.chi_p(u, fm[j], fp[j], omega[j], k[j], w, cos_theta,
                             r1, r2)

    return quad.integrate_batch(p, lo.tolist(), hi.tolist(), spec), fm, fp


def _contour_and_real_line(params, geom, eps_frac):
    """One u-line (at eps = eps_frac times the eps cutoff) on its contour,
    at the tolerance chi gives its lines at rel_tol 0.03, and the oracle;
    None where the line's window is empty."""
    eps = eps_frac * energy_cutoff(params)
    omega = math.sqrt(eps * eps + params.abs_delta ** 2)
    k = math.sqrt(1.0 + eps)
    lo, hi, held = correlations._chi_u_window(params.w_kf, k, omega)
    if not held:
        return None
    args = (params.w_kf, geom.cos_theta, geom.r1 * LAMBDA_F,
            geom.r2 * LAMBDA_F)
    (res,), fm, fp = correlations._chi_u_lines(
        *(np.array([x]) for x in (k, omega, lo, hi)), *args,
        default_spec(0.03).tightened())
    assert res.converged
    return res, _real_line(k, omega, (lo, hi), *args, fm[0], fp[0]), (lo, hi)


_RADIUS = st.floats(50.0, 3000.0)
_GAP = st.floats(1e-3, 1e-2)


class TestChiContour:
    @pytest.mark.parametrize("params, geom, eps_frac, where", [
        # u* = -0.8, within h = 0.32 of the window's lower end -0.998
        (SUPER, _pair(50.0, 150.0, 0.4, 1.0, math.pi - 0.2, 0.7), 0.0,
         "near-end"),
        # w = 2: the window is [-0.73, 0.73], and u* = 0.95 lies outside
        (EmitterParams(5e-3, 5e-3, 2.0),
         _pair(3000.0, 500.0, 1.2, 0.3, 2.6, 2.0), 0.5, "outside"),
        # radii 50 and 1902 lambda_F, where a real-line chi took 45-98 s
        (EmitterParams(7.1e-3, 1e-2, 0.74),
         DetectorGeometry.from_vectors((0.0, 0.0, 50.0), (0.0, 0.0, -1902.0)),
         0.0,
         "near-end"),
    ], ids=["u*-near-end", "u*-outside", "radii-50-1902"])
    def test_saddle_at_and_beyond_the_window_ends(self, params, geom,
                                                 eps_frac, where):
        res, oracle, (lo, hi) = _contour_and_real_line(params, geom,
                                                       eps_frac)
        ustar, _ = correlations._saddle(geom.r1 * LAMBDA_F,
                                        geom.r2 * LAMBDA_F)
        h = correlations._chi_path_height(
            params.w_kf, math.sqrt(1.0 + eps_frac * energy_cutoff(params)))
        if where == "outside":
            assert not lo < ustar < hi
        else:
            assert lo < ustar < hi and min(ustar - lo, hi - ustar) < h
        assert abs(res.value - oracle) <= res.err_est

    # every example is an oracle line at rel_tol 1e-8; shrinking a failure
    # would take minutes
    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None, phases=(Phase.explicit, Phase.generate))
    @given(abs_delta=_GAP, ec=_GAP, w=st.floats(0.5, 2.0), r1=_RADIUS,
           r2=_RADIUS, polar=st.floats(0.0, math.pi),
           azimuth=st.floats(0.0, 2.0 * math.pi),
           theta=st.floats(2.0 * math.pi / 3.0, math.pi),
           turn=st.floats(0.0, 2.0 * math.pi), eps_frac=st.floats(-1.0, 1.0))
    def test_u_line_matches_the_real_line(self, abs_delta, ec, w, r1, r2,
                                          polar, azimuth, theta, turn,
                                          eps_frac):
        # detectors at least 120 degrees apart, where chi carries weight:
        # the pair Gaussians hold the integrand inside the u window.  Closer
        # than about 90 degrees the integrand sits at the window's ends,
        # next to the branch points +-1, where the contour's first nodes
        # can miss it (see CHANGES.md); chi is e^-(w k_F)^2/2 or more below
        # its back-to-back size there, under rho2_and_Q's floor
        geom = _pair(r1, r2, polar, azimuth, theta, turn)
        lines = _contour_and_real_line(EmitterParams(abs_delta, ec, w), geom,
                                       eps_frac)
        assume(lines is not None)
        res, oracle, _ = lines
        assert abs(res.value - oracle) <= res.err_est

    @settings(derandomize=True, max_examples=6, deadline=None,
              database=None, phases=(Phase.explicit, Phase.generate))
    @given(abs_delta=_GAP, ec=_GAP, w=st.floats(0.5, 0.85),
           r1=st.floats(50.0, 150.0), apart=st.floats(1.0, 30.0),
           polar=st.floats(0.0, math.pi),
           azimuth=st.floats(0.0, 2.0 * math.pi),
           theta=st.floats(math.pi / 2.0, math.pi),
           turn=st.floats(0.0, 2.0 * math.pi))
    def test_chi_matches_the_real_line_chi(self, abs_delta, ec, w, r1, apart,
                                           polar, azimuth, theta, turn):
        # the whole chi, detectors at least 90 degrees apart, against chi
        # with real-line u-lines at rel_tol 1e-8 (about 1 s each at these
        # radii).  Where the detectors nearly coincide, chi's err_est reads
        # low on the real line too (by 25 times at theta = 1e-7; see
        # CHANGES.md)
        geom = _pair(r1, r1 + apart, polar, azimuth, theta, turn)
        params = EmitterParams(abs_delta, ec, w)
        res = _chi_quad(geom, params, default_spec(0.03))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlations, "_chi_u_lines", _real_line_u_lines)
            oracle = _chi_quad(geom, params, default_spec(1e-8))
        assert res.converged and oracle.converged
        assert abs(res.value - oracle.value) <= res.err_est

    def test_nodes_per_u_line_do_not_grow_with_r(self, monkeypatch):
        # figure parameters, back to back, rel_tol 0.03: on the real line
        # chi took 25.6 times the nodes at r = 3000 that it took at
        # r = 100; on the contour a u-line's nodes grade toward the saddle
        lines = {}
        batch = quad.integrate_batch
        line_spec = default_spec(0.03).tightened()

        def recording(f, a, b, spec):
            res = batch(f, a, b, spec)
            if spec == line_spec:       # u-lines, not the eps integral
                lines[r] = lines.get(r, []) + res
            return res

        monkeypatch.setattr(quad, "integrate_batch", recording)
        total = {}
        for r in (100.0, 3000.0):
            total[r] = _chi_quad(DetectorGeometry.from_r_theta(r, math.pi),
                                 SUPER, default_spec(0.03)).evaluations
        per_line = {r: sum(x.evaluations for x in v) / len(v)
                    for r, v in lines.items()}
        assert per_line[3000.0] <= 2.0 * per_line[100.0]
        # the eps integral needs three times the u-lines at r = 3000: the
        # pair residues' phase r omega^2 / 4 turns 17 rad over its window
        assert len(lines[3000.0]) == 3 * len(lines[100.0])
        assert total[3000.0] <= 6.0 * total[100.0]
        # at the CLI's rel_tol the eps integral resolves that phase at
        # r = 100 already, and chi's nodes stay within twice (real line:
        # 47,430 and 600,330)
        nodes = [_chi_quad(DetectorGeometry.from_r_theta(r, math.pi), SUPER,
                           default_spec(1e-3)).evaluations
                 for r in (100.0, 3000.0)]
        assert nodes[1] <= 2.0 * nodes[0]


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
        assert res.regime_flags == {"kfr_large": True,
                                    "spread_large": True}

    def test_gamma22_is_gamma11_rescaled(self):
        # gamma(r; r) = G / r^2: detector 2's diagonal is detector 1's
        # times (r1 / r2)^2, at unequal radii too
        geom = DetectorGeometry.from_vectors((0.0, 0.0, 90.0),
                                             (30.0, 0.0, 85.0))
        res = rho2_and_Q(geom, SUPER)
        g11 = _gamma_diag(geom.r1)
        g22 = _gamma_diag(geom.r2)
        assert res.gamma11 == g11.real
        assert abs(res.gamma22 - g22.real) <= 1e-12 * g22.real
        assert res.err_est["gamma22"] / res.gamma22 == pytest.approx(
            res.err_est["gamma11"] / res.gamma11, rel=1e-12)

    @pytest.mark.parametrize("params", [
        SUPER, EmitterParams(delta=DELTA, ec=DELTA, w=2.0)],
        ids=["inside", "spread_small"])
    def test_flags_are_the_closed_forms_at_pi(self, params):
        # both routes read the paper's conditions alike: back to back at
        # r = 100, w = 2 lambda_F has r / (k_F w^2) = 4, below 10
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi), params,
                         default_spec(0.03))
        closed = delta_q_peak(params, R).regime_ok
        assert res.regime_flags == {n: closed[n]
                                    for n in ("kfr_large", "spread_large")}
        assert res.regime_flags["spread_large"] == (params.w == 1.0)

    def test_result_from_its_four_correlators(self):
        # a result built from a point's correlators and err_est alone
        # reproduces its rho2, Q and Q_err bitwise, and its densities, rho2
        # and Q are the assembly formulas written out below, to the bit
        res = rho2_and_Q(DetectorGeometry.from_r_theta(R, math.pi - 0.2),
                         SUPER, default_spec(0.03))
        g11, g22, g21, x21 = res.gamma11, res.gamma22, res.gamma21, res.chi21
        built = CorrelationResult(gamma11=g11, gamma22=g22, gamma21=g21,
                                  chi21=x21, err_est=res.err_est)
        assert (built.rho2, built.Q, built.Q_err) \
            == (res.rho2, res.Q, res.Q_err)
        rho1_1, rho1_2 = 2.0 * g11, 2.0 * g22
        rho2 = 4.0 * g22 * g11 - 2.0 * abs(g21) ** 2 + 2.0 * abs(x21) ** 2
        assert (built.rho1_1, built.rho1_2, built.rho2, built.Q) \
            == (rho1_1, rho1_2, rho2, rho2 / (rho1_1 * rho1_2))
        assert abs(g21) > 0.0 and abs(x21) > 0.0

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
                                   "gamma11 in eps, gamma22 in eps, "
                                   "gamma21 in eps")

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
