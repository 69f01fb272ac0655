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
taking the side its signed zero names.  Below the real axis in the series
disc H0^(2) is about e^{2 Im z} smaller than J0 and Y0, and the series
loses relative digits to that cancellation: its ``est_error`` carries the
factor e^{-2 Im z}, continuously, from the axis down.  K1 on ``x > 0``:
its series is cancellation-limited near the switch (worst error 8.8e-14
at x = 3.97 against a 40-digit oracle, 8.9e-16 on the Watson route).
Values beyond the double range underflow to zero or overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpecfunResult", "bessel_k1", "hankel2_0", "SERIES_RADIUS",
           "K_SERIES_RADIUS"]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Region switch radii, frozen (never input-dependent at run time).  The value
# 9.0 sits inside the tested overlap annulus |z| in [8, 12].
SERIES_RADIUS = 9.0
K_SERIES_RADIUS = 4.0

# Baseline relative-error bounds of the routes, measured against a
# 40+-digit oracle on dense grids over the validated domain and rounded up.
_SERIES_BASE_ERR = 5e-13
_LARGE_BASE_ERR = 1e-13
_K1_SERIES_ERR = 2e-13

# Fixed Gauss-Hermite rule for the Watson integrals (t = s^2 substitution of
# the weight e^-t t^-1/2).  200 nodes keeps every region below _LARGE_BASE_ERR.
# numpy's hermgauss(200) returns exactly mirrored nodes and weights, and the
# integrands depend on the node only through t, so only its 100 nodes s > 0
# and their weights are kept, committed here (a test checks them against
# hermgauss bitwise): _gh_sum mirrors their terms back into the full rule.
_GH_S = np.array([
    0.0784419039174208, 0.2353305267258213, 0.3922335982981664,
    0.5491607639635989, 0.7061216883124085, 0.863126062963396,
    1.0201836143944953, 1.1773041118552332, 1.3344973753799918,
    1.4917732839215188, 1.6491417836246947, 1.8066128962612529,
    1.9641967278469104, 2.121903477463271, 2.2797434463078634,
    2.4377270469968213, 2.5958648131459716, 2.7541674092575477,
    2.9126456409412915, 3.071310465500502, 3.230173002915508,
    3.389244547259216, 3.548536578581765, 3.70806077530396,
    3.8678290271620566, 4.027853448749714, 4.188146393706468,
    4.348720469606022, 4.509588553602011, 4.670763808893703,
    4.832259702079436, 4.994090021471522, 5.156268896452903,
    5.318810817963144, 5.481730660209469, 5.645043703707577,
    5.808765659767065, 5.972912696547549, 6.137501466824152,
    6.302549137615144, 6.468073421840371, 6.634092612196868,
    6.800625617458123, 6.967692001426046, 7.135312024790252,
    7.303506690178222, 7.472297790712723, 7.641707962430267,
    7.8117607409569425, 7.982480622886646, 8.153893132362484,
    8.326024893426121, 8.498903708773607, 8.672558645641239,
    8.847020129643674, 9.022320047500836, 9.198491859723555,
    9.375570724483644, 9.55359363407682, 9.732599565601927, 9.912629647733798,
    10.09372734576829, 10.275938667476474, 10.459312392733537,
    10.643900330402786, 10.829757606576079, 11.016942989025184,
    11.205519253636432, 11.395553599726043, 11.587118122520339,
    11.78029035280524, 11.975153875897131, 12.171799044787127,
    12.370323805730497, 12.570834658918322, 12.773447782488505,
    12.97829035543407, 13.185502124544026, 13.39523727320802,
    13.607666666938064, 13.822980573565543, 14.041391987855553,
    14.263140734648264, 14.4884985875727, 14.717775731247299,
    14.951329028681464, 15.189572756961194, 15.432992784892866,
    15.682165658809753, 15.937784868895722, 16.200697936792103,
    16.47196038876288, 16.75291719139818, 17.04533115109215,
    17.351596779550405, 17.675122529961925, 18.021081501173164,
    18.398096565132175, 18.822895980564734, 19.339248667911406,
])
_GH_W = np.array([
    0.1559222423301015, 0.148441582412264, 0.13453811804030963,
    0.1160825434897398, 0.09534645394062184, 0.07454821205701585,
    0.055480282207965935, 0.03929860922773385, 0.026492061401888416,
    0.016994637481980174, 0.010373317514240955, 0.006023924591982334,
    0.003327655135811797, 0.0017483531042482624, 0.0008735370978955664,
    0.00041497155710760124, 0.00018739476963178586, 8.042850652862717e-05,
    3.28005348758722e-05, 1.2707753950971203e-05, 4.6759044289058526e-06,
    1.6336412605786964e-06, 5.417767732073121e-07, 1.7050141340095836e-07,
    5.090301396174621e-08, 1.4411972185135888e-08, 3.868267375326292e-09,
    9.839283266947777e-10, 2.3708105480598853e-10, 5.409294184513384e-11,
    1.16818014681726e-11, 2.3867692880554957e-12, 4.611464450181758e-13,
    8.421347687181376e-14, 1.4528301518028433e-14, 2.3664867578675387e-15,
    3.6375048888813206e-16, 5.2729781171462646e-17, 7.204297214984686e-18,
    9.27103366865576e-19, 1.1229742763724282e-19, 1.2794012136496613e-20,
    1.3699807056156688e-21, 1.3776941782202437e-22, 1.3000662756922755e-23,
    1.150214592803182e-24, 9.532377303866974e-26, 7.393015541203477e-27,
    5.360543607765585e-28, 3.63002931830541e-29, 2.293242400336963e-30,
    1.3499836949240687e-31, 7.39639697440111e-33, 3.7667945724830275e-34,
    1.780743042880958e-35, 7.803588629246191e-37, 3.165219812079646e-38,
    1.186441590241696e-39, 4.102982841560355e-41, 1.3067728287009244e-42,
    3.8259457909116295e-44, 1.0276815273317143e-45, 2.527257046485393e-47,
    5.677333922420747e-49, 1.1622901525796815e-50, 2.1630323514163613e-52,
    3.649379637346944e-54, 5.565840672543444e-56, 7.649924767009678e-58,
    9.444063985630934e-60, 1.043489431686158e-61, 1.027959483059678e-63,
    8.991246650429484e-66, 6.95131373693484e-68, 4.7271089337314284e-70,
    2.8125155025097183e-72, 1.4555888776596832e-74, 6.511128536147907e-77,
    2.499751483723222e-79, 8.173111897178622e-82, 2.256221537546064e-84,
    5.208320623530135e-87, 9.945830920168708e-90, 1.552065257977179e-92,
    1.95197893981302e-95, 1.947273237670335e-98, 1.5127860735228294e-101,
    8.95778902364364e-105, 3.9416969861690425e-108, 1.250389473861829e-111,
    2.7559362749421044e-115, 4.032032711720662e-119, 3.695754511204447e-123,
    1.968469252981512e-127, 5.504926004965079e-132, 7.004906964699935e-137,
    3.2706601333381056e-142, 3.930595849572358e-148, 6.171630370186441e-155,
    2.2290934962806232e-163,
])
_GH_T = _GH_S * _GH_S
_GH_IT = 1j * _GH_T
_GH_WT = _GH_W * _GH_T

# Fixed length of the ascending series, k = 1 ... 32: on |z| <= SERIES_RADIUS
# its terms fall below 1e-28 of the largest one by k = 32.
_K = np.arange(1.0, 33.0)[:, None]
_K2 = _K * _K
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
    term = np.empty((_K.size + 1, z.size), dtype=complex)
    term[0] = 1.0
    # q / k^2 componentwise, as q's parts round: a complex array's float
    # view holds each element's real and imaginary parts side by side
    np.divide(q.view(float), _K2, out=term[1:].view(float))
    np.multiply.accumulate(term, axis=0, out=term)  # (-z^2/4)^k / (k!)^2
    acc = term.cumsum(0)
    j0 = acc[-1]
    # (-1)^{k+1} H_k (z^2/4)^k / (k!)^2  ==  -term * H_k, so Y0 subtracts
    # the sum of term * H_k (accumulated in the rows above J0's)
    hsum = np.multiply(term[1:], _HARMONIC, out=acc[:-1])
    np.add.accumulate(hsum, axis=0, out=hsum)
    y0 = (2.0 / math.pi) * ((np.log(0.5 * z) + EULER_GAMMA) * j0 - hsum[-1])
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
    t2z = _GH_IT / (2.0 * z[:, None])
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
        integral = _gh_sum(_GH_WT * np.sqrt(1.0 + t2z))
        gamma_factor = math.sqrt(math.pi) / 2.0
    return np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * integral / gamma_factor


def _i0_periodic(y: complex) -> complex:
    """I0(y) via (1/pi) int_0^pi e^{y cos t} dt, |arg y| <= pi/8.

    Midpoint rule on the periodic-analytic integrand; node count grows with
    |y| (deterministic function of the argument), scaled to avoid overflow:
    the mean of e^{y cos t - Re y} times e^{Re y}; past Re y = 709, where
    e^{Re y} nears the largest double, times e^{Re y / 2} twice, so that
    only an I0(y) past the double range overflows (with NumPy's warning).
    """
    n = 64 + 4 * int(math.ceil(abs(y)))
    t = (np.arange(n) + 0.5) * (math.pi / n)
    re = y.real
    mean = complex(np.mean(np.exp(y * np.cos(t) - re)))
    if re <= 709.0:
        return cmath.exp(re) * mean
    half = np.exp(0.5 * re)
    return complex(half * mean * half)


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
    Its callers reject the arguments that their series cannot take."""
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
    Watson-integral route beyond.  In the series region below the real
    axis the result is cancellation-limited, and est_error grows with it,
    by the factor e^{-2 Im z}.  z = 0, the series' logarithmic singularity,
    raises ValueError.
    """
    z = np.asarray(z, complex)
    if np.count_nonzero(z) < z.size:
        raise ValueError("argument z = 0 hits the logarithmic singularity")
    return _by_route(z, SERIES_RADIUS, _hankel2_series,
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
