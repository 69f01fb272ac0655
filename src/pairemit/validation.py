"""Acceptance-check registry shared by the CLI validate command and pytest.

CHECKS is the one list of acceptance checks: ``pairemit validate`` runs it,
and tests/test_acceptance.py turns each entry into one test.  An entry is
the check's name, the check, and whether it is slow: the quadrature-path
checks (under a second together), which ``validate --quick`` and
``pytest -m "not slow"`` skip.  Each check returns (passed, detail), and
run_checks makes the CheckResult.  Tolerances here are frozen acceptance
values, not tunables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable

import numpy as np

from .correlations import (CorrelationResult, DetectorGeometry,
                           farfield_amplitude, farfield_amplitude_direct,
                           rho2_and_Q)
from .entanglement import (Q_BELL_THRESHOLD, Q_ENTANGLEMENT_THRESHOLD,
                           classify, concurrence_from_density_matrix,
                           werner_decompose, werner_density_matrix)
from .model import PARAMS_FIG, R_FIG, derive_params, pole_momentum
from .peak import (DQ_BELL, DQ_ENTANGLEMENT, FIG3_PANELS, SweepSpec,
                   angular_profile, delta_q_grid, delta_q_peak,
                   misalignment_tolerance, peak_envelope, threshold_maps)
from .quad import QuadSpec, integrate_1d
from .specfun import _hankel2_large, _hankel2_series, bessel_k1, hankel2_0

__all__ = ["CheckResult", "CHECKS", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float              # wall time


def _load_goldens() -> list[tuple[str, complex, complex]]:
    rows = []
    text = resources.files("pairemit").joinpath("data/specfun_goldens.txt") \
        .read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        re_z, im_z, re_f, im_f, tag = [p.strip() for p in line.split(",")]
        rows.append((tag, complex(float(re_z), float(im_z)),
                     complex(float(re_f), float(im_f))))
    return rows


def _j0_y0(z: complex) -> tuple[complex, complex]:
    """J0 and Y0 as the half sum and half difference of H0^(1)(z) =
    conj H0^(2)(conj z) and H0^(2)(z)."""
    h1 = hankel2_0(z.conjugate()).value.conjugate()
    h2 = hankel2_0(z).value
    return (h1 + h2) / 2.0, (h1 - h2) / 2j


# golden-table tag -> the program's value of the function it tabulates: K1
# on the real axis and H0^(2); a J0 or Y0 row checks H0^(2) at z and conj z
_GOLDEN_FUNCTIONS: dict[str, Callable[[complex], complex]] = {
    "k1": lambda z: bessel_k1(z.real).value,
    "h2": lambda z: hankel2_0(z).value,
    "j0": lambda z: _j0_y0(z)[0],
    "y0": lambda z: _j0_y0(z)[1],
}


# ---------------------------------------------------------------------------
# 1. threshold algebra
# ---------------------------------------------------------------------------

def check_threshold_algebra() -> tuple[bool, str]:
    """With gamma21 = 0, p = (Q-1)/Q to 1e-12 (Q = 3/2 -> 1/3, the Bell
    threshold -> 1/sqrt(2)), and the Werner class read from p agrees with
    the one read from Q against the Q thresholds."""
    worst = 0.0
    disagree = []
    for q, p_want in ((1.2, 1.0 / 6.0), (Q_ENTANGLEMENT_THRESHOLD, 1.0 / 3.0),
                      (2.0, 0.5), (Q_BELL_THRESHOLD, 1.0 / math.sqrt(2.0)),
                      (5.0, 0.8)):
        # correlators g11 = g22 = 1, gamma21 = 0 and |chi|^2 from
        # Q = 1 + |chi|^2 / 2; sqrt((q - 1) 2) can square back 1 ulp off, so
        # the check reads their own Q (at the Bell threshold, 1 ulp above q)
        corr = CorrelationResult(gamma11=1.0, gamma22=1.0, gamma21=0.0,
                                 chi21=math.sqrt((q - 1.0) * 2.0))
        rep = werner_decompose(corr)
        worst = max(worst, abs(rep.p - p_want),
                    abs(rep.p - (corr.Q - 1.0) / corr.Q))
        from_q = classify(corr.Q, Q_ENTANGLEMENT_THRESHOLD, Q_BELL_THRESHOLD)
        if rep.classification != from_q:
            disagree.append(f"Q = {q:.4g}: {rep.classification} != {from_q}")
    ok = worst <= 1e-12 and not disagree
    detail = f"max |p error| = {worst:.2e}"
    if disagree:
        detail += "; class from p disagrees: " + ", ".join(disagree)
    return ok, detail


def check_werner_oracle() -> tuple[bool, str]:
    """Concurrence formula vs direct two-qubit concurrence, 1000 random (a,b)."""
    rng = np.random.default_rng(20090422)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, 3.0)
        if 4 * a + b <= 1e-12:
            continue
        p = b / (4 * a + b)
        formula = max(0.0, (3.0 * p - 1.0) / 2.0)
        direct = concurrence_from_density_matrix(werner_density_matrix(a, b))
        worst = max(worst, abs(formula - direct))
    ok = worst <= 1e-12
    return ok, f"max |concurrence diff| = {worst:.2e}"


def check_specfun_goldens() -> tuple[bool, str]:
    """K1 and H0^(2) (also through J0 and Y0) against the committed
    high-precision table, and H0^(2)'s series and large-argument routes
    against each other on the annulus |z| in [8, 12], |arg z| <= 0.4, where
    both are accurate."""
    worst = 0.0
    worst_tag = ""
    for tag, z, ref in _load_goldens():
        err = abs(_GOLDEN_FUNCTIONS[tag](z) - ref) / abs(ref)
        if err > worst:
            worst, worst_tag = err, tag
    ok = worst <= 1e-10
    detail = f"worst rel err = {worst:.2e} ({worst_tag})"

    n = 60
    i = np.arange(n)
    a = -0.4 + 0.8 * (i * 13 % n) / n
    z = (8.0 + 4.0 * i / (n - 1)) * (np.cos(a) + 1j * np.sin(a))
    h2l = _hankel2_large(z)
    overlap_worst = float(np.max(np.abs(_hankel2_series(z)[0] - h2l)
                                 / np.abs(h2l)))
    ok = ok and overlap_worst <= 1e-9
    return ok, detail + f"; overlap = {overlap_worst:.2e}"


def check_quad_basics() -> tuple[bool, str]:
    """Elementary integrals with analytic values, each converged."""
    cases = [
        (integrate_1d(lambda x: x * x, 0.0, 1.0), 1.0 / 3.0, 1e-12),
        (integrate_1d(lambda x: np.exp(-x) * np.cos(10 * x), 0.0, 10.0,
                      QuadSpec(rel_tol=1e-10)),
         (1.0 + math.exp(-10.0) * (10.0 * math.sin(100.0) - math.cos(100.0)))
         / 101.0, 1e-7),
        (integrate_1d(lambda x: np.exp(-x * x / 2.0), 0.0, 5.0),
         math.sqrt(math.pi / 2.0) * math.erf(5.0 / math.sqrt(2.0)), 1e-9),
    ]
    errs = [abs(res.value.real - want) / abs(want) for res, want, _ in cases]
    converged = all(res.converged for res, _, _ in cases)
    ok = converged and all(err <= tol for (_, _, tol), err in zip(cases, errs))
    detail = f"worst rel err = {max(errs):.2e}"
    return ok, detail if converged else detail + "; not converged"


# ---------------------------------------------------------------------------
# quadrature-path checks (slow)
# ---------------------------------------------------------------------------

def check_normal_antibunching() -> tuple[bool, str]:
    """Normal state: Q -> 1/2 at coincident detectors, -> 1 when separated."""
    p0 = replace(PARAMS_FIG, delta=0.0)
    q_coinc = rho2_and_Q(DetectorGeometry.from_r_theta(R_FIG, 0.0), p0).Q
    q_close = rho2_and_Q(DetectorGeometry.from_r_theta(R_FIG, 0.01), p0).Q
    q_far = rho2_and_Q(DetectorGeometry.from_r_theta(R_FIG, math.pi / 2), p0).Q
    ok = abs(q_coinc - 0.5) <= 0.01 and abs(q_close - 0.5) <= 0.01 \
        and abs(q_far - 1.0) <= 0.02
    return ok, (f"Q(0) = {q_coinc:.4f}, Q(0.01) = {q_close:.4f}, "
                f"Q(pi/2) = {q_far:.4f}")


def check_chi_null_symmetry_phase() -> tuple[bool, str]:
    """The pair amplitude as rho2_and_Q returns it: chi21 = 0 at Delta = 0;
    under a detector swap at unequal radii chi21 is unchanged and gamma21
    turns into its conjugate (within their err_est); under Delta ->
    Delta e^{1.3i}, |chi21| and Q are unchanged."""
    geom = DetectorGeometry.from_vectors(
        np.array([0.6, 0.0, 0.8]) * 90.0,
        np.array([-0.595, 0.1, -0.79]) / np.linalg.norm([-0.595, 0.1, -0.79])
        * 110.0)
    null = rho2_and_Q(geom, replace(PARAMS_FIG, delta=0.0))
    a = rho2_and_Q(geom, PARAMS_FIG)
    b = rho2_and_Q(geom.swapped(), PARAMS_FIG)
    swap_err = abs(a.chi21 - b.chi21) / max(abs(a.chi21), 1e-300)
    conj_err = abs(a.gamma21 - b.gamma21.conjugate())
    conj_tol = a.err_est["gamma21"] + b.err_est["gamma21"]
    rotated = replace(PARAMS_FIG, delta=PARAMS_FIG.delta * np.exp(1.3j))
    c = rho2_and_Q(geom, rotated)
    phase_err = max(abs(abs(c.chi21) - abs(a.chi21)) / abs(a.chi21),
                    abs(c.Q - a.Q) / a.Q)
    ok = null.chi21 == 0.0 and swap_err <= 2e-2 and conj_err <= conj_tol \
        and phase_err <= 1e-10
    return ok, (f"chi21(D=0) = {abs(null.chi21):.1e}, swap rel diff = "
                f"{swap_err:.2e}, gamma21 conj diff = {conj_err:.1e} "
                f"(err_est {conj_tol:.1e}), phase rel diff = "
                f"{phase_err:.2e}")


def check_farfield_oracle() -> tuple[bool, str]:
    """Far-field amplitude vs direct evaluation of its defining integral.

    Documented oracle configuration: k parallel to r, omega = 0.01 mu,
    r = 200 lambda_F, w = 0.55 lambda_F, E_C = 0.12 mu.  The leading
    far-field correction is the wavefront curvature across the source,
    ~ w^2 k_F / r (0.9% here); E_C w_kf^2 = 1.4 > 1 keeps the defining
    integral convergent so the direct evaluation exists at all.  gamma's
    kernel is v_k^2 m k A_k(r1) A_k*(r2) of this amplitude to 1e-12
    (tests/test_correlations.py), so the check covers what gamma integrates.
    """
    params = replace(PARAMS_FIG, ec=0.12, w=0.55)
    omega = 0.01
    r_vec = np.array([0.0, 0.0, 200.0])            # lambda_F units
    k_vec = np.array([0.0, 0.0, pole_momentum(omega)])
    a_far = farfield_amplitude(k_vec, r_vec, omega, params)
    a_dir = farfield_amplitude_direct(k_vec, r_vec, omega, params)
    err = abs(a_far - a_dir) / abs(a_dir)
    ok = err <= 0.02
    return ok, f"relative difference = {err:.3e} (<= 2e-2)"


def check_peak_cross_validation() -> tuple[bool, str]:
    """Quadrature-path Q(r, pi) vs the closed-form 1 + dQ, within 25%.

    Documented configuration: the figure point (PARAMS_FIG at R_FIG, xi =
    33.8 lambda_F); deep in all three regime conditions (k_F r = 628,
    mu/E_C = 334, r/k_F w^2 = 15.9).
    """
    res = rho2_and_Q(DetectorGeometry.from_r_theta(R_FIG, math.pi),
                     PARAMS_FIG)
    closed = delta_q_peak(PARAMS_FIG, R_FIG).delta_q
    ratio = res.Q / (1.0 + closed)
    ok = abs(ratio - 1.0) <= 0.25
    return ok, (f"Q_quad = {res.Q:.3f}, 1+dQ_closed = {1 + closed:.3f}, "
                f"ratio = {ratio:.3f}")


# ---------------------------------------------------------------------------
# closed-form checks
# ---------------------------------------------------------------------------

def _decay_window(n: int, asymptotic: bool = False) -> np.ndarray:
    """n log-spaced r/lambda_F at the figure point over [10, 100] k_F xi^2,
    or (asymptotic) over [10, 100] 2 pi^2 k_F xi^2, where the Hankel
    argument spans [10, 100]."""
    xi = derive_params(PARAMS_FIG).xi
    scale_lf = (2.0 * math.pi ** 2 * xi * xi / (2.0 * math.pi) if asymptotic
                else xi * xi / (2.0 * math.pi))
    return np.geomspace(10.0 * scale_lf, 100.0 * scale_lf, n)


def check_decay_law() -> tuple[bool, str]:
    """Power-law fit of the peak envelope over r in [10, 100] k_F xi^2.

    The envelope is the smooth curve through the oscillation maxima of
    dQ(r) (peak_envelope); the test also verifies that it genuinely bounds
    and touches the oscillating dQ samples.
    """
    rs = _decay_window(200)
    env = peak_envelope(PARAMS_FIG, rs)
    slope = float(np.polyfit(np.log(rs), np.log(env), 1)[0])
    rs_d = _decay_window(1500)
    ratio = delta_q_grid(PARAMS_FIG.abs_delta, PARAMS_FIG.ec, PARAMS_FIG.w,
                         rs_d)[0] / peak_envelope(PARAMS_FIG, rs_d)
    is_envelope = bool(np.max(ratio) <= 1.0 + 1e-9) and np.max(ratio) > 0.95
    ok = abs(slope - (-1.0)) <= 0.15 and is_envelope
    return ok, (f"envelope exponent = {slope:.3f} (want -1.0 +- 0.15); "
                f"envelope bounds and touches dQ: {is_envelope}")


def check_decay_law_asymptotic() -> tuple[bool, str]:
    """Companion diagnostic: the same fit where the Hankel asymptotics hold.

    Window chosen so the Hankel argument spans [10, 100] (i.e. r in
    [10, 100] * 2 pi^2 k_F xi^2); this is where the stated 1/r decay is an
    asymptotic statement.
    """
    rs = _decay_window(200, asymptotic=True)
    env = peak_envelope(PARAMS_FIG, rs)
    slope = float(np.polyfit(np.log(rs), np.log(env), 1)[0])
    ok = abs(slope - (-1.0)) <= 0.15
    return ok, f"envelope exponent = {slope:.3f} (want -1.0 +- 0.15)"


def check_angular_envelope() -> tuple[bool, str]:
    """The envelope at the misalignment tolerance is e^{-1/2} to 1e-3
    relative (the small-angle expansion behind the tolerance is off by
    2.6e-4 at the figure w); monotone falloff."""
    edge = angular_profile(math.pi - misalignment_tolerance(PARAMS_FIG),
                           PARAMS_FIG)
    err = abs(edge / math.exp(-0.5) - 1.0)
    thetas = np.linspace(math.pi, math.pi / 2, 200)
    monotone = bool(np.all(np.diff(angular_profile(thetas, PARAMS_FIG)) <= 0))
    ok = err <= 1e-3 and monotone
    return ok, f"|env/e^-1/2 - 1| = {err:.2e}, monotone = {monotone}"


def check_fig3_shapes() -> tuple[bool, str]:
    """Shape suite of the threshold maps (closed form)."""
    base = PARAMS_FIG
    msgs = []
    ok = True

    # E_C halving strictly increases dQ
    dq0, dq_half = delta_q_grid(base.abs_delta, [base.ec, base.ec / 2],
                                base.w, R_FIG)[0]
    cond = dq_half > dq0
    ok &= cond
    msgs.append(f"EC halving: {dq0:.3f} -> {dq_half:.3f}")

    # nondecreasing in |Delta| over fig3's weak-gap panel
    res, = threshold_maps([SweepSpec(base=base, r=R_FIG, param="delta",
                                     grid=FIG3_PANELS["delta"])])
    mono = bool(np.all(np.diff(res.delta_q) >= -1e-12))
    ok &= mono
    msgs.append(f"delta monotone: {mono}")

    # crossings of both thresholds located
    has_both = len(res.crossings["entangled"]) >= 1 \
        and len(res.crossings["bell"]) >= 1
    ok &= has_both
    if has_both:
        c_e = res.crossings["entangled"][0]
        c_b = res.crossings["bell"][0]
        a, b = delta_q_grid([c_e, c_b], base.ec, base.w, R_FIG)[0]
        tight = abs(a - DQ_ENTANGLEMENT) <= 1e-4 * DQ_ENTANGLEMENT * 10 \
            and abs(b - DQ_BELL) <= 1e-4 * DQ_BELL * 10
        ok &= tight
        msgs.append(f"crossings at |D| = {c_e:.5e} (dQ = {a:.6f}), "
                    f"{c_b:.5e} (dQ = {b:.6f})")
    else:
        msgs.append("missing threshold crossing")

    # r-panel oscillations below the entanglement threshold at large r
    rs = _decay_window(1200, asymptotic=True)
    dq = delta_q_grid(base.abs_delta, base.ec, base.w, rs)[0]
    n_max = int(np.sum((dq[1:-1] > dq[:-2]) & (dq[1:-1] > dq[2:])))
    below = bool(np.all(dq < DQ_ENTANGLEMENT))
    ok &= (n_max >= 3) and below
    msgs.append(f"r-panel: {n_max} maxima, below threshold = {below}")
    return bool(ok), "; ".join(msgs)


# (name, check, slow)
CHECKS: list[tuple[str, Callable[[], tuple[bool, str]], bool]] = [
    ("threshold_algebra", check_threshold_algebra, False),
    ("werner_oracle", check_werner_oracle, False),
    ("specfun_goldens", check_specfun_goldens, False),
    ("quad_basics", check_quad_basics, False),
    ("normal_antibunching", check_normal_antibunching, True),
    ("chi_null_symmetry_phase", check_chi_null_symmetry_phase, True),
    ("farfield_oracle", check_farfield_oracle, True),
    ("peak_cross_validation", check_peak_cross_validation, True),
    ("decay_law", check_decay_law, False),
    ("decay_law_asymptotic", check_decay_law_asymptotic, False),
    ("angular_envelope", check_angular_envelope, False),
    ("fig3_shapes", check_fig3_shapes, False),
]


def run_checks(skip_slow: bool = False) -> list[CheckResult]:
    results = []
    for name, fn, slow in CHECKS:
        if skip_slow and slow:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:            # a crashed check is a failure
            passed, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name, bool(passed), str(detail),
                                   time.perf_counter() - t0))
    return results
