"""Special functions for the closed-form bunching peak: K1 and H0^(2), with
J0 and Y0 under the latter, plus the principal complex square root.

Everything here is evaluated in double precision by one of two fixed routes:

* an ascending power series for small ``|z|`` (``|z| <= SERIES_RADIUS``), and
* one large-argument route, ``_hankel2_large``, for H0^(2): the exact
  integral form of the Hankel asymptotic expansion (Watson's
  representation) on a fixed Gauss-Hermite rule, rotated to I0/K0 for
  3 pi/8 < arg z <= 5 pi/8 and reflected through the origin beyond.
  H0^(1)(z) = conj H0^(2)(conj z) comes from the same route, and
  J0 = (H0^(1) + H0^(2))/2, Y0 = (H0^(1) - H0^(2))/2i.

The switch radius is a frozen module constant, chosen so that the two routes
overlap on an annulus where both are independently accurate; the agreement on
that annulus is asserted by the test suite against a committed high-precision
golden table.  No arbitrary-precision arithmetic is used at run time.

Validated domain
----------------
``|z| <= 1e3``, away from the branch cut of Y0 on the negative real axis.
For ``hankel2_0`` the relative-accuracy claim additionally requires
``Im z >= -HANKEL2_IM_GUARD`` when ``|z| <= SERIES_RADIUS``: below that line
H0^(2) is exponentially small against J0 and Y0 and the series route loses
relative digits to cancellation.  ``est_error`` reflects this honestly.
Function values with ``|Im z|`` beyond ~700 overflow/underflow the double
range; underflow to zero is permitted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecfunResult",
    "bessel_j0",
    "bessel_y0",
    "bessel_k1",
    "hankel2_0",
    "principal_sqrt",
    "SERIES_RADIUS",
    "K_SERIES_RADIUS",
    "HANKEL2_IM_GUARD",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Region switch radii, frozen (never input-dependent at run time).  The value
# 9.0 sits inside the tested overlap annulus |z| in [8, 12].
SERIES_RADIUS = 9.0
K_SERIES_RADIUS = 4.0

# Below Im z = -guard the series route for H0^(2) loses relative accuracy to
# cancellation (the function is ~e^{2 Im z} smaller than J0, Y0 there).
HANKEL2_IM_GUARD = 2.0

# Baseline relative-error bounds for the two routes, measured against a
# 40+-digit oracle on dense grids over the validated domain and rounded up.
_SERIES_BASE_ERR = 5e-13
_LARGE_BASE_ERR = 1e-13

# Fixed Gauss-Hermite rule for the Watson integrals (t = s^2 substitution of
# the weight e^-t t^-1/2).  200 nodes keeps every region below _LARGE_BASE_ERR.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(200)
_GH_T = _GH_NODES * _GH_NODES


@dataclass(frozen=True)
class SpecfunResult:
    """Function value with a conservative relative-error bound."""

    value: complex
    est_error: float


def principal_sqrt(z: complex) -> complex:
    """Principal branch of the complex square root.

    Branch cut on the negative real axis; the result has non-negative real
    part (and maps -x + 0j to +i sqrt(x)).
    """
    return cmath.sqrt(z)


# ---------------------------------------------------------------------------
# ascending series (small |z|)
# ---------------------------------------------------------------------------

def _j0y0_series(z: complex) -> tuple[complex, complex]:
    """J0 and Y0 by their ascending series, principal branch of the log."""
    q = -(z * z) / 4.0
    term = 1.0 + 0.0j
    j0 = term
    harm = 0.0
    ysum = 0.0 + 0.0j
    for k in range(1, 120):
        term *= q / (k * k)
        j0 += term
        harm += 1.0 / k
        # (-1)^{k+1} H_k (z^2/4)^k / (k!)^2  ==  -term * H_k
        ysum -= term * harm
        if abs(term) <= 1e-18 * max(1.0, abs(j0)):
            break
    y0 = (2.0 / math.pi) * ((cmath.log(0.5 * z) + EULER_GAMMA) * j0 + ysum)
    return j0, y0


# ---------------------------------------------------------------------------
# large-argument route: Watson integrals on a fixed Gauss-Hermite rule
# ---------------------------------------------------------------------------

def _watson_h2(z: complex) -> complex:
    """H0^(2)(z) by its exact integral representation, -pi < arg z < pi/2."""
    integral = np.sum(_GH_WEIGHTS / np.sqrt(1.0 - 1j * _GH_T / (2.0 * z)))
    return (
        cmath.sqrt(2.0 / (math.pi * z))
        * cmath.exp(-1j * (z - math.pi / 4.0))
        / math.sqrt(math.pi)
        * integral
    )


def _watson_k(nu: int, z: complex) -> complex:
    """K_nu(z) for nu in {0, 1}, Re z > 0, by the Watson integral."""
    if nu == 0:
        integral = np.sum(_GH_WEIGHTS / np.sqrt(1.0 + _GH_T / (2.0 * z)))
        gamma_factor = math.sqrt(math.pi)
    else:
        integral = np.sum(_GH_WEIGHTS * _GH_T * np.sqrt(1.0 + _GH_T / (2.0 * z)))
        gamma_factor = math.sqrt(math.pi) / 2.0
    return (
        cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z) * integral / gamma_factor
    )


def _i0_periodic(y: complex) -> complex:
    """I0(y) via (1/pi) int_0^pi e^{y cos t} dt, |arg y| <= pi/8.

    Midpoint rule on the periodic-analytic integrand; node count grows with
    |y| (deterministic function of the argument), scaled to avoid overflow.
    """
    n = 64 + 4 * int(math.ceil(abs(y)))
    t = (np.arange(n) + 0.5) * (math.pi / n)
    re = y.real
    return cmath.exp(re) * complex(np.mean(np.exp(y * np.cos(t) - re)))


def _hankel2_large(z: complex) -> complex:
    """H0^(2)(z) for |z| > SERIES_RADIUS, cancellation-free in every wedge."""
    a = cmath.phase(z)
    if a == -math.pi and z.imag == 0.0:
        # -x - 0j, the lower side of the cut, where the Watson square root
        # takes the other branch: H0^(2)(-x - i0) = -H0^(1)(x)
        return -_watson_h2(-z).conjugate()
    if a <= 3.0 * math.pi / 8.0:
        # covers (-pi, 3pi/8]: the direct integral computes the (possibly
        # exponentially small) value without forming J0 - iY0
        return _watson_h2(z)
    if a <= 5.0 * math.pi / 8.0:
        y = -1j * z
        return 2.0 * _i0_periodic(y) + (2j / math.pi) * _watson_k(0, y)
    # H0^(2)(z) = 2 J0(w) + H0^(2)(w) = H0^(1)(w) + 2 H0^(2)(w) with w = -z
    # in the fourth quadrant, and H0^(1)(w) = conj H0^(2)(conj w)
    w = -z
    h2w = _watson_h2(w)
    return _watson_h2(w.conjugate()).conjugate() + h2w + h2w


def _j0y0_large(z: complex) -> tuple[complex, complex]:
    """J0 and Y0 for |z| > SERIES_RADIUS from H0^(1) and H0^(2), taking
    H0^(1)(z) = conj H0^(2)(conj z)."""
    h1 = _hankel2_large(z.conjugate()).conjugate()
    h2 = _hankel2_large(z)
    return (h1 + h2) / 2.0, (h1 - h2) / 2j


# ---------------------------------------------------------------------------
# public Bessel/Hankel API
# ---------------------------------------------------------------------------

def _check_z(z: complex) -> complex:
    z = complex(z)
    if z == 0:
        raise ValueError("argument z = 0 hits the logarithmic singularity")
    return z


def _j0y0(z: complex) -> tuple[complex, complex, float]:
    """J0, Y0 and their error bound by the route that |z| selects."""
    z = _check_z(z)
    if abs(z) <= SERIES_RADIUS:
        return (*_j0y0_series(z), _SERIES_BASE_ERR)
    return (*_j0y0_large(z), _LARGE_BASE_ERR)


def bessel_j0(z: complex) -> SpecfunResult:
    """Bessel J0 for complex argument."""
    j0, _, err = _j0y0(z)
    return SpecfunResult(j0, err)


def bessel_y0(z: complex) -> SpecfunResult:
    """Bessel Y0 for complex argument, principal branch (cut on (-inf, 0])."""
    _, y0, err = _j0y0(z)
    return SpecfunResult(y0, err)


def hankel2_0(z: complex) -> SpecfunResult:
    """Hankel function H0^(2)(z) = J0(z) - i Y0(z).

    Dual-route evaluation: ascending series for ``|z| <= SERIES_RADIUS``,
    Watson-integral route beyond.  The est_error grows below the lower-half
    guard line ``Im z = -HANKEL2_IM_GUARD`` in the series region, where the
    result is cancellation-limited.
    """
    z = _check_z(z)
    if abs(z) <= SERIES_RADIUS:
        j0, y0 = _j0y0_series(z)
        cancel = math.exp(2.0 * max(0.0, min(-z.imag, 350.0)))
        return SpecfunResult(j0 - 1j * y0, _SERIES_BASE_ERR * cancel)
    return SpecfunResult(_hankel2_large(z), _LARGE_BASE_ERR)


# ---------------------------------------------------------------------------
# modified Bessel functions on the positive real axis
# ---------------------------------------------------------------------------

def _k1_series(x: float) -> float:
    q = x * x / 4.0
    term = 1.0
    i1 = term
    pk = -2.0 * EULER_GAMMA + 1.0  # psi(1) + psi(2)
    psum = pk * term
    for k in range(1, 120):
        term *= q / (k * (k + 1))
        i1 += term
        pk += 1.0 / k + 1.0 / (k + 1)
        psum += pk * term
        if term <= 1e-19 * i1:
            break
    i1 *= x / 2.0
    return math.log(x / 2.0) * i1 + 1.0 / x - (x / 4.0) * psum


def bessel_k1(x: float) -> float:
    """Modified Bessel K1, real positive argument.

    Relative error <= 1e-10 for x in [1e-6, 700]; underflows gracefully to
    zero beyond the double-precision exponential range.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"modified Bessel K1 requires x > 0, got {x}")
    if x <= K_SERIES_RADIUS:
        return _k1_series(x)
    if x > 740.0:
        return 0.0
    return _watson_k(1, x).real

