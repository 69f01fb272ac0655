"""Quadrature-path evaluation of the correlation functions and Q(r, theta).

The steady-state one-particle correlation is the Gram form

    gamma(2;1) = int d3k v_k^2 A_k(r1) A_k*(r2),

with the far-field emission amplitude

    A_k(r) = sqrt(pi/2) 2m T(p_k rhat, k) e^{i p_k r} / r,

the outgoing-wave residue of (2pi)^{-3/2} int d3p T e^{ip.r}/(eps_p + w_k - i0).

The pair amplitude reduces, after the same far-field treatment of both
emitted momenta, to a single energy-line integral per quasiparticle mode:

    chi = -(i Delta / (4 r1 r2)) int d3k m k(eps) { PV int du F(u) / (w^2-u^2) * 2w ...

concretely, with F(u) the pair energy-line function (kernels.chi_f) and
poles at u = -w (detector-1 partner on shell) and u = +w (exchange term),

    chi = -(i Delta / (4 r1 r2)) int d3k [ int P(u) du
            + (F(-w) L_- + F(+w) L_+ + i pi (F(-w) + F(+w))) / (2w) ],

where P is the pole-subtracted integrand (kernels.chi_p) and L_+- are the
principal-value logarithms of the truncated energy window.  The i pi terms
are the on-shell pair residues; the numerically evaluated principal value
carries the off-shell background (including the Fermi-surface stationary
phase responsible for the slow oscillatory decay of the bunching peak).

Every correlator reads a geometry as the two distances r1, r2 and the
cosine of the angle between the detectors (DetectorGeometry), and both
assemble their eps integrals alike (_eps_integral): two half-windows split
at eps = 0 and integrated together, an absolute floor on the value turned
into the halves' abs_tol, and the window's truncation bias added to
err_est.

gamma runs as nested adaptive quadrature over (eps_k, k-hat) with Gaussian
truncation of the angular cap.  On the diagonal the phase e^{i p_k (r1 - r2)}
is 1, so gamma(r; r) = G(params) / r^2.  G is integrated once per
(|Delta|, E_C, w, spec) in a process, at unit radius and cos(theta/2) = 1
exactly, and kept in a small bounded cache (_gamma_diag).  In chi the k-hat
integral is analytic: F depends on k-hat only through exp(v . k-hat),
v = w^2 k (a n1 - b n2), and int dOmega exp(v . k-hat) = 4 pi sinh|v| / |v|
(kernels.chi_f), so chi is one adaptive eps integral whose integrand is
one adaptive u-line per eps node.  Its two half-windows run as one batch
of two eps lines (quad.integrate_batch), so each eps sweep covers both.
A sweep's nodes get their omega, k and u windows as arrays, and their
u-lines run in lockstep, started from their two halves (a u-line all but
never ends on its first panel): one chi_f call gives every line's
F(-omega) and F(+omega), and each refinement sweep of the batch is one
chi_p call over the new panels of all its unconverged lines, each
converging on its own.

Each u-line int P(u) du runs from u_lo to u_hi along a path in the complex
u plane, not along the real segment (numerical steepest descent:
Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44 (2006) 1026).  F carries
the phase e^{i phi}, phi = sqrt(1+u) r1 + sqrt(1-u) r2, whose one
stationary point is u* = (r1^2 - r2^2) / (r1^2 + r2^2); the path lies above
the axis where phi' > 0 and below it where phi' < 0, crossing at u*, so on
it e^{i phi} decays instead of oscillating, and a line's node count grows
only with the logarithm of r, not with r or |r1 - r2|.  P is analytic
between the path and the segment, so by Cauchy the value is the same, and
the analytic log and i pi terms stay as they are (_u_path).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, quad
from .model import (LAMBDA_F, MASS, REGIME_KFR, EmitterParams,
                    NonConvergenceError, UndefinedQError, form_factors,
                    pole_momentum, regime_flags)
from .quad import QuadResult, QuadSpec, integrate_1d, integrate_nested

__all__ = [
    "DetectorGeometry", "CorrelationResult", "farfield_amplitude",
    "farfield_amplitude_direct", "rho2_and_Q", "energy_cutoff",
    "default_spec",
]

TWO_PI_M6 = (2.0 * math.pi) ** -6

# Quasiparticle energies at or above this value cannot emit (p_k imaginary).
OMEGA_CAP = 0.999999

# Gaussian-support truncations (energy windows, angular caps) cut where the
# form-factor weight is below e^-18; the bias bound enters err_est.
TRUNCATION_BIAS_REL = math.exp(-18.0)

# the model.regime_flags this route reports, taken at the nearer detector
_REGIME_FLAGS = ("kfr_large", "spread_large")


@dataclass(frozen=True)
class DetectorGeometry:
    """Two detectors as a Q point reads them: their distances r1 and r2
    from the tip (lambda_F) and the cosine of the angle between their
    directions."""

    r1: float
    r2: float
    cos_theta: float

    @classmethod
    def from_r_theta(cls, r: float, theta: float) -> "DetectorGeometry":
        """Equal-radius reduction: both detectors at distance r (lambda_F),
        separated by the angle theta."""
        return cls(r, r, math.cos(theta))

    @classmethod
    def from_vectors(cls, r1_vec, r2_vec) -> "DetectorGeometry":
        """Detectors at two positions, 3-vectors in units of lambda_F."""
        v1 = np.asarray(r1_vec, dtype=float)
        v2 = np.asarray(r2_vec, dtype=float)
        r1 = float(np.linalg.norm(v1))
        r2 = float(np.linalg.norm(v2))
        _check_distances(r1, r2)        # before normalising by them
        cos_theta = float(np.dot(v1 / r1, v2 / r2))
        return cls(r1, r2, max(-1.0, min(1.0, cos_theta)))

    def swapped(self) -> "DetectorGeometry":
        return DetectorGeometry(self.r2, self.r1, self.cos_theta)

    def __post_init__(self):
        _check_distances(self.r1, self.r2)
        if not -1.0 <= self.cos_theta <= 1.0:
            raise ValueError("cos_theta must lie in [-1, 1], "
                             f"got {self.cos_theta}")


def _check_distances(r1: float, r2: float) -> None:
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise ValueError("detector distances must be positive and finite,"
                         f" got r1 = {r1}, r2 = {r2}")


@dataclass
class CorrelationResult:
    """The four correlators of one detector geometry, as rho2_and_Q
    integrates them, with its regime flags and per-correlator err_est.
    The one-particle densities rho1_1 = 2 gamma11 and rho1_2 = 2 gamma22,
    rho2 and Q are derived from the correlators."""

    gamma11: float
    gamma22: float
    gamma21: complex
    chi21: complex
    regime_flags: dict = field(default_factory=dict)
    err_est: dict = field(default_factory=dict)

    @property
    def rho1_1(self) -> float:
        return 2.0 * self.gamma11

    @property
    def rho1_2(self) -> float:
        return 2.0 * self.gamma22

    @property
    def rho2(self) -> float:
        """Two-particle distribution 4 g22 g11 - 2 |g21|^2 + 2 |chi21|^2."""
        return 4.0 * self.gamma22 * self.gamma11 \
            - 2.0 * abs(self.gamma21) ** 2 + 2.0 * abs(self.chi21) ** 2

    @property
    def Q(self) -> float:
        """Normalized coincidence rho2 / (rho1(1) rho1(2))."""
        return self.rho2 / (self.rho1_1 * self.rho1_2)

    @property
    def Q_err(self) -> float:
        """Propagated error estimate of Q from the component estimates."""
        e = self.err_est
        rel = (e.get("gamma11", 0.0) / self.gamma11
               + e.get("gamma22", 0.0) / self.gamma22)
        off = 2.0 * (abs(self.gamma21) * e.get("gamma21", 0.0)
                     + abs(self.chi21) * e.get("chi21", 0.0)) \
            / (self.rho1_1 * self.rho1_2)
        return abs(self.Q) * rel + off


def energy_cutoff(params: EmitterParams) -> float:
    """Half-width of the eps_k integration window.

    20 max(E_C, |Delta|) captures the tunneling-filter and coherence-factor
    tails; the window is additionally capped where the quasiparticle energy
    reaches the propagation band edge (omega(eps) -> mu), beyond which the
    far-field amplitude has no outgoing pole and the integrand vanishes
    identically.
    """
    return min(20.0 * max(params.ec, params.abs_delta), _band_edge(params))


def _band_edge(params: EmitterParams) -> float:
    """Largest |eps_k| whose quasiparticle energy stays below 0.95 mu."""
    ad = params.abs_delta
    return math.sqrt(max(0.95**2 - ad * ad, 1e-4))


def default_spec(rel_tol: float = 1e-3) -> QuadSpec:
    """Quadrature spec of the correlators (the CLI's --rel-tol sets rel_tol)."""
    return QuadSpec(rel_tol=rel_tol, abs_tol=1e-300, max_depth=40)


# ---------------------------------------------------------------------------
# far-field amplitude and its brute-force oracle
# ---------------------------------------------------------------------------

def farfield_amplitude(k_vec: np.ndarray, r_vec: np.ndarray, omega_k: float,
                       params: EmitterParams) -> complex:
    """Outgoing-wave amplitude A_k(r) at detector position r (lambda_F units).

    A_k(r) = sqrt(pi/2) 2m h(p_k) g(p_k rhat - k) e^{i p_k r} / r with the
    emission momentum p_k pinned by the energy denominator pole.  k_vec is in
    k_F units.  Requires the far-field regime and omega_k < mu.
    """
    r_vec = np.asarray(r_vec, dtype=float) * LAMBDA_F
    k_vec = np.asarray(k_vec, dtype=float)
    r = float(np.linalg.norm(r_vec))
    if not regime_flags(params.ec, params.w, r / LAMBDA_F)["kfr_large"]:
        warnings.warn(f"k_F r = {r:.1f} < {REGIME_KFR}: far-field form "
                      "not controlled", stacklevel=2)
    p_k = pole_momentum(omega_k)
    _, _, t = form_factors(p_k * r_vec / r, k_vec, params)
    return math.sqrt(math.pi / 2.0) * 2.0 * MASS * t \
        * cmath.exp(1j * p_k * r) / r


def farfield_amplitude_direct(k_vec: np.ndarray, r_vec: np.ndarray,
                              omega_k: float, params: EmitterParams
                              ) -> complex:
    """Direct numerical evaluation of the defining 3D momentum integral.

    (2 pi)^{-3/2} int d3p T_pk e^{ip.r} / (eps_p + omega_k - i0): the angular
    integral is analytic (Gaussian times plane wave over the sphere), the
    radial integral is done by principal-value subtraction plus the on-shell
    residue.  Serves as the independent oracle for farfield_amplitude; it
    requires E_C w^2 > 1 (in Fermi units) for the radial integrand to decay.
    """
    r_vec = np.asarray(r_vec, dtype=float) * LAMBDA_F
    k_vec = np.asarray(k_vec, dtype=float)
    w = params.w_kf
    ec = params.ec
    if ec * w * w <= 1.2:
        raise ValueError("direct integral needs E_C w_kf^2 > 1.2 to converge")
    kmag = float(np.linalg.norm(k_vec))
    p_w = pole_momentum(omega_k)

    # angular part: int dOmega_p e^{p . c} = 4 pi sinh(p C)/(p C),
    # c = w^2 k + i r, C = sqrt(c.c)
    cvec = w * w * k_vec + 1j * r_vec
    C = cmath.sqrt(complex(np.dot(cvec, cvec)))

    def g_smooth(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p)
        h = np.sqrt(p / MASS) * np.exp(0.5 * (p * p - 1.0) / ec)
        gauss = np.exp(-0.5 * w * w * (p * p + kmag * kmag))
        pc = p * C
        sinhc = np.where(np.abs(pc) > 1e-12, np.sinh(pc) / np.where(pc == 0, 1, pc), 1.0)
        return p * p * h * gauss * 4.0 * math.pi * sinhc

    # truncate where the Gaussian-filter product is dead
    decay = 0.5 * w * w - 0.5 / ec
    p_cut = math.sqrt((40.0 + 0.5 * w * w * kmag * kmag) / decay) + kmag
    p_cut = max(p_cut, p_w + 1.0)

    g_pole = complex(g_smooth(np.array([p_w]))[0])

    def subtracted(p: np.ndarray) -> np.ndarray:
        return (g_smooth(p) - g_pole) / (p * p - p_w * p_w)

    res = integrate_1d(subtracted, 1e-12, p_cut,
                       QuadSpec(rel_tol=1e-7, abs_tol=1e-300, max_depth=48))
    if not res.converged:
        raise NonConvergenceError("farfield oracle radial integral", res)
    pv_log = math.log((p_cut - p_w) / (p_cut + p_w)) / (2.0 * p_w)
    total = res.value + g_pole * (pv_log + 1j * math.pi / (2.0 * p_w))
    return (2.0 * math.pi) ** -1.5 * TWO_PI_M6**0.5 * total


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def _gamma_cosa_window(w: float, cth2: float) -> float:
    """Lower cos(alpha) truncation for the gamma angular cap (weight < e^-20)."""
    scale = 2.0 * w * w * cth2          # at p ~ k ~ 1
    if scale < 1.0:
        return -1.0
    return max(-1.0, 1.0 - 20.0 / scale)


# integration variables of _gamma_core, outermost first (QuadResult.fail_dim)
_GAMMA_VARIABLES = ("eps", "cos alpha", "phi")

# distinct (|Delta|, E_C, w, spec) diagonals one process keeps; a command
# uses one or two parameter sets, the acceptance suite a handful
_DIAG_CACHE_SIZE = 16


def _eps_integral(integrate, pref: complex, ecut: float, spec: QuadSpec,
                  abs_floor: float) -> QuadResult:
    """pref times an eps integral over [-ecut, ecut], as gamma and chi
    assemble theirs.

    The window is two halves split at eps = 0, where the coherence factors
    turn, and ``integrate(los, his, spec)`` integrates both at once, as
    quad.integrate_batch takes its lines: it returns the results of
    [-ecut, 0] and [0, ecut], which are summed in that order.  abs_floor,
    an absolute tolerance on the final value, becomes the halves' abs_tol
    in integrand units, and err_est adds the truncation bias of the window.
    A zero pref (chi in the normal state) gives the exact zero.
    """
    if pref == 0:
        return QuadResult(0j, 0.0, 0, True)
    scale = abs(pref)
    spec = replace(spec, abs_tol=max(spec.abs_tol, abs_floor / scale))
    total = QuadResult(0.0, 0.0, 0, True)
    for res in integrate((-ecut, 0.0), (0.0, ecut), spec):
        total = total + res
    err = scale * total.err_est \
        + TRUNCATION_BIAS_REL * abs(pref * total.value)
    return replace(total, value=pref * total.value, err_est=err)


def _gamma_quad(geom: DetectorGeometry, params: EmitterParams,
                spec: QuadSpec, abs_floor: float = 0.0) -> QuadResult:
    """gamma(2;1) at one detector geometry, by one nested quadrature."""
    cth2 = math.sqrt(max(0.0, 0.5 * (1.0 + geom.cos_theta)))
    return _gamma_core(cth2, geom.r1 * LAMBDA_F, geom.r2 * LAMBDA_F,
                       params.abs_delta, params.ec, params.w_kf,
                       energy_cutoff(params), spec, abs_floor)


def _gamma_core(cth2: float, r1: float, r2: float, dabs: float, ec: float,
                w: float, ecut: float, spec: QuadSpec,
                abs_floor: float = 0.0) -> QuadResult:
    """gamma from scalars: cth2 = cos(theta/2), radii in k_F^-1, the
    emitter's |Delta|, E_C and w_kf, and the eps window half-width ecut."""
    cosa_lo = _gamma_cosa_window(w, cth2)

    def f(eps, cosa, phis):
        return kernels.gamma_integrand(phis, eps, cosa, dabs, ec, w,
                                       r1, r2, cth2, OMEGA_CAP)

    def halves(los, his, s: QuadSpec) -> list[QuadResult]:
        # normal state: v_k^2 = (1 - eps/omega)/2 is exactly 0 on eps > 0
        return [QuadResult(0j, 0.0, 0, True) if dabs == 0.0 and lo == 0.0
                else integrate_nested(
                    f, [(lo, hi), (cosa_lo, 1.0), (0.0, math.pi)], s)
                for lo, hi in zip(los, his)]

    pref = (math.pi / 2.0) * TWO_PI_M6 / (r1 * r2) * 2.0   # phi parity doubling
    return _eps_integral(halves, pref, ecut, spec, abs_floor)


@functools.lru_cache(maxsize=_DIAG_CACHE_SIZE)
def _gamma_diag(dabs: float, ec: float, w: float, ecut: float,
                spec: QuadSpec) -> QuadResult:
    """G = r^2 gamma(r; r), the diagonal at unit radius (k_F^-1).

    cth2 is exactly 1.0, not read from a caller's geometry: a geometry
    built from vectors can have cos_theta = 1 - 4e-16 on its diagonal, and
    a value cached from it would depend on which point asked first.
    ecut = energy_cutoff(params) is in the key, so a changed eps window is
    a new entry, never a stale one.  Callers must not mutate the result.
    """
    return _gamma_core(1.0, 1.0, 1.0, dabs, ec, w, ecut, spec)


def _gamma_diag_at(r_kf: float, params: EmitterParams,
                   spec: QuadSpec) -> QuadResult:
    """gamma(r; r) = G / r^2, err_est scaled alike; r in k_F^-1."""
    g = _gamma_diag(params.abs_delta, params.ec, params.w_kf,
                    energy_cutoff(params), spec)
    r2 = r_kf * r_kf
    return replace(g, value=g.value / r2, err_est=g.err_est / r2)


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------

def _chi_u_window(w: float, k: np.ndarray, omega: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy-line truncations (u_lo, u_hi) of the given (k, omega), and
    which of them hold a line, elementwise.

    The detector-1 branch needs sqrt(1+u) within ~6/w of k, the detector-2
    branch sqrt(1-u) likewise; a window is empty where the two have no
    common support.  A window that holds a line spans both, widened to
    hold the on-shell poles with a margin of 0.02, within 1e-9 of the
    branch points +-1: for 0 < omega < OMEGA_CAP that is
    lo < -omega < omega < hi.
    """
    pad = 6.0 / w
    near = np.maximum(k - pad, 0.0) ** 2
    far = (k + pad) ** 2
    lo = np.maximum(near - 1.0, 1.0 - far)
    hi = np.minimum(far - 1.0, 1.0 - near)
    held = lo < hi
    ulim = 1.0 - 1e-9
    lo = np.maximum(np.minimum(lo, -omega - 0.02), -ulim)
    hi = np.minimum(np.maximum(hi, omega + 0.02), ulim)
    return lo, hi, held


def _chi_path_height(w: float, k: np.ndarray) -> np.ndarray:
    """Largest height of each u-line's contour off the real axis.

    Off the axis the pair Gaussians grow: near u = 0, Re(expo + V) rises by
    about w^2 k y^2 / 4 at height y (back to back; less at smaller angles),
    so y <= 2 / (w sqrt k) keeps that growth within e^1 of the real axis.
    Narrow tips (small w) stop at 0.5.
    """
    return np.minimum(0.5, 2.0 / (w * np.sqrt(k)))


def _saddle(r1: float, r2: float) -> tuple[float, float]:
    """The stationary point u* of the phase phi = a r1 + b r2 (a = sqrt(1+u),
    b = sqrt(1-u); radii in k_F^-1), where r1 / a = r2 / b, and the scale
    _u_path grades its nodes to: 2 / sqrt|phi''(u*)|, twice the width of
    the saddle's Gaussian along the path, with |phi''(u*)| =
    R^5 / (8 sqrt2 r1^2 r2^2), R^2 = r1^2 + r2^2."""
    rr = r1 * r1 + r2 * r2
    curvature = rr ** 2.5 / (8.0 * math.sqrt(2.0) * r1 * r1 * r2 * r2)
    return (r1 * r1 - r2 * r2) / rr, 2.0 / math.sqrt(curvature)


def _u_path(tau: np.ndarray, lo: np.ndarray, hi: np.ndarray, ustar: float,
            scale: float, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A u-line's contour u(tau) and du/dtau.

    The real part x = u* + scale sinh(tau) runs over [lo, hi] for tau in
    _u_domain: nodes grade toward the saddle down to its width, so a
    u-line's node count grows only with log r.  The height is
    y = -h tanh((x - u*)/h) tanh^2((x - lo)/h) tanh^2((hi - x)/h): above the
    axis left of u*, where phi' > 0, and below it right of u*, where
    phi' < 0, so e^{i phi} decays on both sides; it crosses the axis at u*
    at 45 degrees (when u* is more than h inside the window) and lies wholly
    on the decaying side when u* is outside it.  |y| <= h, so the path
    stays in the strip -1 < Re u < 1, clear of the branch points +-1.  The
    squared end factors leave each end along the axis: where F carries
    weight at an end (detectors less than 90 degrees apart), it then
    oscillates over a stretch the first nodes can see, where a 45-degree
    start would damp it within 1/phi' of the end.
    """
    x = np.clip(ustar + scale * np.sinh(tau), lo, hi)
    ts = np.tanh((x - ustar) / h)
    tl = np.tanh((x - lo) / h)
    tr = np.tanh((hi - x) / h)
    ends = tl * tl * tr * tr
    y = -h * ts * ends
    dy = 2.0 * ts * tl * tr * (tl * (1.0 - tr * tr) - (1.0 - tl * tl) * tr) \
        - (1.0 - ts * ts) * ends
    return x + 1j * y, (1.0 + 1j * dy) * (scale * np.cosh(tau))


def _u_domain(lo: np.ndarray, hi: np.ndarray, ustar: float,
              scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The tau intervals of _u_path whose real parts run from lo to hi."""
    return np.arcsinh((lo - ustar) / scale), np.arcsinh((hi - ustar) / scale)


def _chi_u_lines(k: np.ndarray, omega: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, w: float, cos_theta: float, r1: float,
                 r2: float, spec: QuadSpec) -> tuple[list[QuadResult],
                                                     np.ndarray, np.ndarray]:
    """The pole-subtracted u-lines int P(u) du of the given k, omega and
    windows [lo, hi], each along its contour, in one lockstep batch whose
    lines start bisected: 30 (n - 1) nodes for a line of n final panels.
    chi passes the u-lines of an eps sweep of both half-windows at once.

    Returns the line results and every line's F(-omega) and F(+omega),
    which one chi_f call gives.  By Cauchy each value is the real-line
    integral from lo to hi: P is analytic between the two paths (its
    poles at +-omega are subtracted, its branch points +-1 lie outside the
    window, and sinh V / V is even in V).
    """
    h = _chi_path_height(w, k)
    ustar, scale = _saddle(r1, r2)
    fpm = kernels.chi_f(np.concatenate([-omega, omega]),
                        np.concatenate([k, k]), w, cos_theta, r1, r2)
    fm, fp = fpm[:len(k)], fpm[len(k):]

    def p(tau: np.ndarray, j: np.ndarray) -> np.ndarray:
        u, du = _u_path(tau, lo[j], hi[j], ustar, scale, h[j])
        return du * kernels.chi_p(u, fm[j], fp[j], omega[j], k[j], w,
                                  cos_theta, r1, r2)

    a, b = _u_domain(lo, hi, ustar, scale)
    # quad's own name, not one bound in this module: a tracer that spans
    # this module's quad names as correlator calls (perfbench) must not
    # take a batch of u-lines for a correlator
    return quad.integrate_batch(p, a.tolist(), b.tolist(), spec,
                                start_bisected=True), fm, fp


def _chi_quad(geom: DetectorGeometry, params: EmitterParams,
              spec: QuadSpec, abs_floor: float = 0.0) -> QuadResult:
    """chi(2;1) at one detector geometry: an eps integral of u-lines.

    ``evaluations`` counts kernel nodes: two chi_f nodes and the chi_p
    nodes of every u-line.  ``intervals`` adds the final panels of the eps
    integral and of every u-line, and ``max_depth`` is the deepest
    bisection of either level.  Both eps half-windows run as one batch, so
    each eps sweep's u-lines, of both windows, are one batch of lines
    started bisected: one chi_f call, and one chi_p call per refinement
    sweep.  A u-line that does not converge raises NonConvergenceError
    naming its eps node and u window, the first such node in eps order
    within its sweep, which spans both windows.
    """
    cos_theta = geom.cos_theta
    r1 = geom.r1 * LAMBDA_F
    r2 = geom.r2 * LAMBDA_F
    dabs = params.abs_delta
    w = params.w_kf
    # over every u-line: kernel nodes (F(+-omega) and the line's chi_p
    # nodes), final panels and the deepest bisection
    evals = intervals = depth = 0

    def f(eps: np.ndarray, line_spec: QuadSpec) -> np.ndarray:
        """m k(eps) times the energy-line integral over u, at every eps node
        of a sweep of both half-windows.

        The u-lines of all eps nodes whose window holds one run in one
        lockstep batch, started bisected, with one chi_f call for all their
        F(-omega) and F(+omega).
        """
        nonlocal evals, intervals, depth
        omega = np.sqrt(eps * eps + dabs * dabs)
        k = np.sqrt(1.0 + eps)
        lo, hi, held = _chi_u_window(w, k, omega)
        line = held & (omega < OMEGA_CAP)
        out = np.zeros(eps.shape, np.complex128)
        eps, omega, k, lo, hi = (x[line] for x in (eps, omega, k, lo, hi))
        results, fm, fp = _chi_u_lines(k, omega, lo, hi, w, cos_theta, r1,
                                       r2, line_spec)
        for i, res in enumerate(results):
            # the first failed line in eps order (the sweep's nodes of
            # [-ecut, 0] come first) names where chi failed
            if not res.converged:
                raise NonConvergenceError(
                    f"chi u-line did not converge at eps = {float(eps[i])!r}"
                    f", u in [{float(lo[i])!r}, {float(hi[i])!r}]", res)
            evals += 2 + res.evaluations
            intervals += res.intervals
            depth = max(depth, res.max_depth)
        log_m = np.log(np.abs((hi + omega) / (lo + omega)))
        log_p = np.log(np.abs((omega - lo) / (omega - hi)))
        # the window holds both poles: each gives its i pi residue
        analytic = (fm * (log_m + 1j * math.pi)
                    + fp * (log_p + 1j * math.pi)) / (2.0 * omega)
        values = np.array([res.value for res in results])
        out[line] = 0.5 * k * (values + analytic)       # m k(eps) measure
        return out

    def halves(los, his, s: QuadSpec) -> list[QuadResult]:
        """Both eps half-windows as one batch of two lines: each eps sweep
        is one f call, whose u-lines form one batch."""
        line_spec = s.tightened()
        return quad.integrate_batch(lambda eps, owner: f(eps, line_spec),
                                    los, his, s)

    pref = complex(params.delta) * (-0.25j) * TWO_PI_M6 / (r1 * r2)
    total = _eps_integral(halves, pref, energy_cutoff(params), spec,
                          abs_floor)
    return replace(total, evaluations=evals,
                   intervals=total.intervals + intervals,
                   max_depth=max(total.max_depth, depth))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def rho2_and_Q(geom: DetectorGeometry, params: EmitterParams,
               spec: QuadSpec | None = None) -> CorrelationResult:
    """The four correlators of one geometry, from which CorrelationResult
    derives rho2 = 4 g22 g11 - 2 |g21|^2 + 2 |chi21|^2 and Q = rho2 /
    (rho1(2) rho1(1)), rho1 = 2 gamma_diag.  The diagonal is gamma(r; r) =
    G(params) / r^2, and G is one quadrature per (|Delta|, E_C, w, spec)
    and process, cached: gamma11 = G / r1^2 and gamma22 = gamma11
    (r1 / r2)^2, each err_est scaled the same way.  Only gamma21 and chi
    are integrated per point; chi21 is exactly 0 in the normal state.
    Raises NonConvergenceError naming each part that failed, a gamma part
    with the variable its quadrature stopped in, a chi u-line with its eps
    node and u window.  err_est["chi21"] is tested only for detectors 90
    degrees or more apart; nearer, it is known to read low: chi was 13.4
    times its err_est off at theta = 1.2e-7, and one contour u-line 23
    times at theta = 1.19, radii 1852 and 407 lambda_F.  There chi is
    e^-(w k_F)^2/2 or more below its back-to-back size.
    """
    spec = spec or default_spec()
    r1 = geom.r1 * LAMBDA_F
    res11 = _gamma_diag_at(r1, params, spec)
    scale = (r1 / (geom.r2 * LAMBDA_F)) ** 2
    res22 = replace(res11, value=scale * res11.value,
                    err_est=scale * res11.err_est)
    g11 = res11.value.real
    g22 = res22.value.real
    if g11 <= 0.0 or g22 <= 0.0:
        raise UndefinedQError("one-particle density vanished; Q undefined")

    # off-diagonal pieces get an absolute floor tied to the diagonal scale,
    # so geometries where they are negligibly small converge quickly
    floor = 1e-8 * math.sqrt(g11 * g22)
    res21 = _gamma_quad(geom, params, spec, abs_floor=floor)

    chi_res = _chi_quad(geom, params, spec, abs_floor=floor)

    parts = {"gamma11": res11, "gamma22": res22, "gamma21": res21,
             "chi21": chi_res}
    failed = [name if name == "chi21"
              else f"{name} in {_GAMMA_VARIABLES[res.fail_dim]}"
              for name, res in parts.items() if not res.converged]
    if failed:
        raise NonConvergenceError("correlation quadrature did not converge: "
                                  + ", ".join(failed))

    flags = regime_flags(params.ec, params.w, min(geom.r1, geom.r2))
    return CorrelationResult(
        gamma11=g11, gamma22=g22, gamma21=res21.value, chi21=chi_res.value,
        regime_flags={n: flags[n] for n in _REGIME_FLAGS},
        err_est={name: res.err_est for name, res in parts.items()},
    )
