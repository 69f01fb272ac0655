"""Special functions for the closed-form bunching peak: K1 on the positive
real axis and H0^(2) in the complex plane.

Each public function takes a scalar or an array and returns a
``SpecfunResult`` (value and a conservative relative-error bound) of its
shape, a scalar for a scalar; each element is bitwise what its lone call
gives.  One dispatcher, ``_by_route``, sends each element to one of two
fixed routes, switched at a frozen radius (``SERIES_RADIUS``, for K1
``K_SERIES_RADIUS``):

* an ascending power series of fixed length inside (for H0^(2) the series
  of J0 and Y0, H0^(2) = J0 - i Y0), and
* a Watson integral on a fixed Gauss-Hermite rule beyond: ``_watson_k`` for
  K1, and for H0^(2) ``_hankel2_large``, the exact integral form of the
  Hankel asymptotic expansion, rotated to I0/K0 for 3 pi/8 < arg z <= 5 pi/8
  and reflected through the origin beyond.

SERIES_RADIUS sits inside an annulus where both routes are accurate; their
agreement there is asserted against a committed high-precision golden table.
No arbitrary-precision arithmetic is used at run time.

Validated domain: H0^(2) on ``0 < |z| <= 1e3``, the negative real axis
taking the side its signed zero names; with ``|z| <= SERIES_RADIUS`` also
``Im z >= -HANKEL2_IM_GUARD``, below which H0^(2) is exponentially small
against J0 and Y0 and the series loses relative digits (``est_error`` grows
accordingly).  K1 on ``x > 0``: its series is cancellation-limited near the
switch (worst error 8.8e-14 at x = 3.97 against a 40-digit oracle, 8.9e-16
on the Watson route).  Values beyond the double range underflow to zero or
overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpecfunResult", "bessel_k1", "hankel2_0", "SERIES_RADIUS",
           "K_SERIES_RADIUS", "HANKEL2_IM_GUARD"]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Region switch radii, frozen (never input-dependent at run time).  The value
# 9.0 sits inside the tested overlap annulus |z| in [8, 12].
SERIES_RADIUS = 9.0
K_SERIES_RADIUS = 4.0

# Below Im z = -guard the series route for H0^(2) loses relative accuracy to
# cancellation (the function is ~e^{2 Im z} smaller than J0, Y0 there).
HANKEL2_IM_GUARD = 2.0

# Baseline relative-error bounds of the routes, measured against a
# 40+-digit oracle on dense grids over the validated domain and rounded up.
_SERIES_BASE_ERR = 5e-13
_LARGE_BASE_ERR = 1e-13
_K1_SERIES_ERR = 2e-13

# Fixed Gauss-Hermite rule for the Watson integrals (t = s^2 substitution of
# the weight e^-t t^-1/2).  200 nodes keeps every region below _LARGE_BASE_ERR.
# hermgauss returns exactly mirrored nodes and weights, and the integrands
# depend on the node only through t, so only the 100 nodes s > 0 are kept:
# _gh_sum mirrors their terms back into the full rule.
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(200)
_GH_T = _GH_NODES[100:] * _GH_NODES[100:]
_GH_W = _GH_WEIGHTS[100:]

# Fixed length of the ascending series, k = 1 ... 32: on |z| <= SERIES_RADIUS
# its terms fall below 1e-28 of the largest one by k = 32.
_K = np.arange(1.0, 33.0)[:, None]
_HARMONIC = np.cumsum(1.0 / _K, axis=0)

# K1's series, k = 0 ... 31, in powers of q = x^2/4: c_k = 1/(k! (k+1)!) and
# c_k (psi(k+1) + psi(k+2))/2 = c_k ((H_k + H_{k+1})/2 - gamma), H_0 = 0.  On
# x <= K_SERIES_RADIUS the terms fall below 1e-30 of the largest by k = 31.
_K1_C = np.cumprod(np.concatenate(([1.0], 1.0 / (_K[:31, 0] * _K[1:, 0]))))
_K1_PSI = _K1_C * (0.5 * (np.concatenate(([0.0], _HARMONIC[:31, 0]))
                          + _HARMONIC[:, 0]) - EULER_GAMMA)


@dataclass(frozen=True)
class SpecfunResult:
    """Function value(s) with a conservative relative-error bound."""

    value: complex | float | np.ndarray
    est_error: float | np.ndarray


# ---------------------------------------------------------------------------
# ascending series (small |z|)
# ---------------------------------------------------------------------------

def _j0y0_series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J0 and Y0 by their ascending series, principal branch of the log,
    elementwise over a 1-D array: the terms k = 0 ... 32 as running products
    of -z^2/(4 k^2), each sum accumulated from k = 0 upwards."""
    q = z * z / -4.0
    f = np.empty((_K.size + 1, z.size), dtype=complex)
    f[0] = 1.0
    f[1:].real = q.real / (_K * _K)         # componentwise, as q / k^2 rounds
    f[1:].imag = q.imag / (_K * _K)
    term = np.cumprod(f, axis=0)            # (-z^2/4)^k / (k!)^2
    j0 = np.cumsum(term, axis=0)[-1]
    # (-1)^{k+1} H_k (z^2/4)^k / (k!)^2  ==  -term * H_k
    ysum = -np.cumsum(term[1:] * _HARMONIC, axis=0)[-1]
    y0 = (2.0 / math.pi) * ((np.log(0.5 * z) + EULER_GAMMA) * j0 + ysum)
    return j0, y0


def _k1_series(x: np.ndarray) -> tuple[np.ndarray, float]:
    """K1(x) = 1/x + (x/2) sum_k q^k c_k (ln(x/2) - (psi(k+1) + psi(k+2))/2)
    on a 1-D array, q = x^2/4: the powers of q as running products, the sum
    accumulated from k = 0 upwards."""
    h = 0.5 * x
    f = np.empty((x.size, 32))              # one row of powers per element
    f[:, 0] = 1.0
    f[:, 1:] = (h * h)[:, None]
    terms = (np.log(h)[:, None] * _K1_C - _K1_PSI) \
        * np.multiply.accumulate(f, axis=1)
    return 1.0 / x + h * np.add.accumulate(terms, axis=1)[:, -1], \
        _K1_SERIES_ERR


# ---------------------------------------------------------------------------
# large-argument route: Watson integrals on a fixed Gauss-Hermite rule
# ---------------------------------------------------------------------------

def _gh_sum(half: np.ndarray) -> np.ndarray:
    """The 200-node Gauss-Hermite sum over the last axis, from the terms of
    the nodes s > 0 (those of s < 0 are the same, in reverse order): the
    same 200 terms summed in node order, so bitwise the full rule's sum."""
    return np.sum(np.concatenate([half[..., ::-1], half], axis=-1), axis=-1)


def _watson_h2(z: np.ndarray) -> np.ndarray:
    """H0^(2)(z) by its exact integral form, -pi < arg z < pi/2 (1-D)."""
    t2z = 1j * _GH_T / (2.0 * z[:, None])
    integral = _gh_sum(_GH_W / np.sqrt(1.0 - t2z))
    return (
        np.sqrt(2.0 / (math.pi * z))
        * np.exp(-1j * (z - math.pi / 4.0))
        / math.sqrt(math.pi)
        * integral
    )


def _watson_k(nu: int, z):
    """K_nu(z) for nu in {0, 1}, Re z > 0, by the Watson integral."""
    t2z = _GH_T / (2.0 * np.asarray(z)[..., None])
    if nu == 0:
        integral = _gh_sum(_GH_W / np.sqrt(1.0 + t2z))
        gamma_factor = math.sqrt(math.pi)
    else:
        integral = _gh_sum(_GH_W * _GH_T * np.sqrt(1.0 + t2z))
        gamma_factor = math.sqrt(math.pi) / 2.0
    return np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * integral / gamma_factor


def _i0_periodic(y: complex) -> complex:
    """I0(y) via (1/pi) int_0^pi e^{y cos t} dt, |arg y| <= pi/8.

    Midpoint rule on the periodic-analytic integrand; node count grows with
    |y| (deterministic function of the argument), scaled to avoid overflow.
    """
    n = 64 + 4 * int(math.ceil(abs(y)))
    t = (np.arange(n) + 0.5) * (math.pi / n)
    re = y.real
    return cmath.exp(re) * complex(np.mean(np.exp(y * np.cos(t) - re)))


def _hankel2_large(z: np.ndarray) -> np.ndarray:
    """H0^(2) on a 1-D array, |z| > SERIES_RADIUS, cancellation-free."""
    a = np.angle(z)
    # -x - 0j, the lower side of the cut, where the Watson square root takes
    # the other branch: H0^(2)(-x - i0) = -H0^(1)(x)
    cut = (a == -math.pi) & (z.imag == 0.0)
    rotated = (a > 3.0 * math.pi / 8.0) & (a <= 5.0 * math.pi / 8.0)
    reflected = a > 5.0 * math.pi / 8.0
    out = np.empty_like(z)
    # on (-pi, 3pi/8] the direct integral computes the (possibly
    # exponentially small) value without forming J0 - iY0; the cut and the
    # reflected wedge need it at w = -z, the latter also at conj w
    w = np.where(cut | reflected, -z, z)[~rotated]
    h = _watson_h2(np.concatenate([w, np.conj(-z[reflected])]))
    out[~rotated] = np.where(cut[~rotated], -np.conj(h[:w.size]), h[:w.size])
    # H0^(2)(z) = 2 J0(w) + H0^(2)(w) = H0^(1)(w) + 2 H0^(2)(w) with w = -z
    # in the fourth quadrant, and H0^(1)(w) = conj H0^(2)(conj w)
    out[reflected] = np.conj(h[w.size:]) + out[reflected] + out[reflected]
    if rotated.any():
        y = -1j * z[rotated]
        out[rotated] = 2.0 * np.array([_i0_periodic(v) for v in y]) \
            + (2j / math.pi) * _watson_k(0, y)
    return out


# ---------------------------------------------------------------------------
# public K1/Hankel API
# ---------------------------------------------------------------------------

def _by_route(z: np.ndarray, radius: float, series, large) -> SpecfunResult:
    """Elementwise over the array z: series(zs) on |z| <= radius, large(zl)
    beyond, each giving (value, est_error) on a 1-D array; a 0-d z gives a
    Python scalar value and a float est_error, an array arrays of its shape.
    z = 0, the series' logarithmic singularity, raises."""
    if np.count_nonzero(z) < z.size:
        raise ValueError("argument z = 0 hits the logarithmic singularity")
    small = np.abs(z) <= radius
    n_small = np.count_nonzero(small)
    value, err = np.empty_like(z), np.empty(z.shape)
    if n_small:
        value[small], err[small] = series(z[small])
    if n_small < z.size:
        value[~small], err[~small] = large(z[~small])
    if z.ndim == 0:
        return SpecfunResult(value.item(), err.item())
    return SpecfunResult(value, err)


def _hankel2_series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0, y0 = _j0y0_series(z)
    cancel = np.exp(np.minimum(np.maximum(-2.0 * z.imag, 0.0), 700.0))
    return j0 - 1j * y0, _SERIES_BASE_ERR * cancel


def hankel2_0(z) -> SpecfunResult:
    """Hankel function H0^(2)(z) = J0(z) - i Y0(z), elementwise over an array.

    Dual-route evaluation: ascending series for ``|z| <= SERIES_RADIUS``,
    Watson-integral route beyond.  The est_error grows below the lower-half
    guard line ``Im z = -HANKEL2_IM_GUARD`` in the series region, where the
    result is cancellation-limited.
    """
    return _by_route(np.asarray(z, complex), SERIES_RADIUS, _hankel2_series,
                     lambda zl: (_hankel2_large(zl), _LARGE_BASE_ERR))


def bessel_k1(x) -> SpecfunResult:
    """Modified Bessel K1 on the positive real axis, elementwise.

    Ascending series for ``x <= K_SERIES_RADIUS``, Watson integral beyond;
    est_error is the tested bound of the element's route (2e-13 and 1e-13
    relative).  Underflows gracefully to zero past x ~ 740.  Raises
    ValueError naming the first element that is not > 0 (0, negative, NaN).
    """
    x = np.asarray(x, dtype=float)
    ok = x > 0.0
    if np.count_nonzero(ok) < x.size:
        i = np.unravel_index(np.argmin(ok), x.shape)
        at = f"x[{', '.join(map(str, i))}]" if x.ndim else "x"
        raise ValueError(
            f"modified Bessel K1 requires x > 0, got {at} = {x[i]}")
    return _by_route(x, K_SERIES_RADIUS, _k1_series,
                     lambda xl: (_watson_k(1, xl), _LARGE_BASE_ERR))
