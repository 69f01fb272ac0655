"""Integrand kernels of the correlators, in NumPy.

The correlators evaluate these on quadrature-node arrays: 21 % of the self
time of a back-to-back Q point under cProfile (r = 100, rel_tol = 1e-3, the
diagonal G cached), against 54 % in quad's own Python.  The
pair-amplitude kernels ``chi_f`` and ``chi_p`` come with the k-direction
integral done in closed form: both Gaussian form factors depend on k-hat
only through exp(v . k-hat), and int dOmega exp(v . k-hat) =
4 pi sinh|v| / |v|, so they take the angle between the detectors instead
of direction cosines.  ``chi_f`` and ``chi_p`` take complex u as well as
real: chi integrates its energy lines along a contour in the complex u
plane.  ``BACKEND`` names the implementation; the benchmark harness
records it with every run, and calls ``warmup`` before timing.

Inputs are in internal Fermi units (k_F = 1, mu = 1, m = 1/2); lengths here
are k_F^-1, energies are units of mu.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BACKEND", "gamma_integrand", "chi_f", "chi_p", "warmup"]

BACKEND = "numpy"


def gamma_integrand(phi, eps, cosa, dabs, ec, w, r1, r2, cth2, omega_cap):
    """One-particle (gamma) integrand over the azimuthal node array.

    Value at fixed (eps_k, cos alpha), broadcast over phi: the two emission
    Gaussians of the gamma kernel depend on the k direction only through the
    bisector component, so the integrand is azimuth-independent.  Includes
    the radial measure m k(eps) and the occupation/tunneling weights.
    """
    omega = math.sqrt(eps * eps + dabs * dabs)
    if omega >= omega_cap:
        return np.zeros(phi.shape, np.complex128)
    k = math.sqrt(1.0 + eps)
    p = math.sqrt(1.0 - omega)
    if omega == 0.0:
        vk2 = 0.5
    else:
        vk2 = 0.5 * (1.0 - eps / omega)
    weight = (
        0.5 * k                      # m k(eps), m = 1/2
        * vk2
        * 2.0 * p * math.exp(-omega / ec)          # h(p_k)^2
        * math.exp(-(w * w) * (p * p + k * k - 2.0 * p * k * cth2 * cosa))
    )
    phase = complex(math.cos(p * (r1 - r2)), math.sin(p * (r1 - r2)))
    return np.full(phi.shape, weight * phase, np.complex128)


def chi_f(u, k, w, cos_theta, r1, r2):
    """Angle-integrated pair energy-line function F(u) over the node array u.

    F(u) = int dOmega_k h(a) h(b) (2 pi)^6 g(a n1 - k) g(b n2 + k)
    e^{i(a r1 + b r2)} with a = sqrt(1+u), b = sqrt(1-u) and |k| = k (a
    scalar, or an array like u with each node's own k); the opposite
    tunneling-filter exponents of the pair cancel, so E_C does not appear,
    and the (2 pi)^-6 of the g's is folded into the assembly prefactor
    outside.  The direction integral is 4 pi e^expo sinh V / V
    with expo = -w^2 (1 + k^2) and V = w^2 k |a n1 - b n2|, written as
    e^(expo + V) (1 - e^-2V) / (2V): expo + V <= 0, so nothing overflows,
    and the last factor tends to 1 as V -> 0.  u may be complex (a point
    of chi's contour, inside the strip -1 < Re u < 1): the square roots
    are then the principal branches, analytic in the strip, and V's branch
    does not matter because sinh V / V is even; Re V >= 0 keeps e^-2V
    bounded.
    """
    a = np.sqrt(1.0 + u)
    b = np.sqrt(1.0 - u)
    # |a n1 - b n2|^2 in a form that stays >= 0 for n1 = n2
    vmag = (w * w * k) * np.sqrt((a - b) ** 2
                                 + 2.0 * a * b * (1.0 - cos_theta))
    expo = -(w * w) * (1.0 + k * k)
    safe = np.where(vmag != 0.0, vmag, 1.0)
    shell = np.where(vmag != 0.0, -np.expm1(-2.0 * safe) / (2.0 * safe), 1.0)
    return (8.0 * math.pi) * np.sqrt(a * b) * np.exp(expo + vmag) * shell \
        * np.exp(1j * (a * r1 + b * r2))


def chi_p(u, fm, fp, omega, k, w, cos_theta, r1, r2):
    """Pole-subtracted pair integrand P(u) for the principal-value integral.

    P(u) = [F(u) - F(-omega)] / (2 omega (u + omega))
         + [F(u) - F(+omega)] / (2 omega (omega - u)).
    fm, fp, omega and k are per node, arrays like u (or scalars, which
    broadcast), so the nodes of many u-lines, each with its own eps, go in
    one call; fm and fp are F(-omega) and F(+omega) at the node's k.
    """
    f = _chi_f(u, k, w, cos_theta, r1, r2)
    return (f - fm) / (2.0 * omega * (u + omega)) + (f - fp) / (
        2.0 * omega * (omega - u)
    )


# chi_p reaches F through a private name, so a wrapper placed on the public
# chi_f (a profiler counting kernel nodes) does not also count chi_p's nodes
_chi_f = chi_f


def warmup() -> None:
    """Evaluate every kernel once on a small input.

    The kernels are plain NumPy, with chi's k-direction integral analytic,
    so there is nothing to compile; the benchmark harness runs this before
    it times, so that first-call costs (NumPy dispatch) fall outside.
    """
    phi = np.zeros(2)
    u = np.array([-0.1, 0.1])
    k = np.array([1.0, 1.01])
    gamma_integrand(phi, -0.01, 0.9, 1e-3, 1e-3, 6.0, 600.0, 600.0, 0.5, 0.99)
    f = chi_f(u, k, 6.0, -0.9, 600.0, 600.0)
    chi_p(u, f, f, np.array([0.05, 0.06]), k, 6.0, -0.9, 600.0, 600.0)
