#!/usr/bin/env python3
"""Regenerate the special-function golden table from a high-precision oracle.

Maintenance script, not part of the installed package: requires mpmath.
Writes src/pairemit/data/specfun_goldens.txt with one record per line,

    re(z), im(z), re(f), im(f), tag

where tag is one of k1, j0, y0, h2.  The program evaluates only K1 and
H0^(2): it checks a j0 or y0 row as the half sum or half difference of
H0^(1)(z) = conj H0^(2)(conj z) and H0^(2)(z).  The working precision is
scaled with |Im z| so that the Hankel combination J0 - i Y0 is formed
without cancellation loss in the reference itself.  Points are chosen
deterministically to cover the argument ranges the peak formula produces
over the documented CLI parameter ranges, the series/large-argument overlap
annulus, and the positive real axis.
"""

from __future__ import annotations

import math
import pathlib

import mpmath as mp

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "pairemit" / \
    "data" / "specfun_goldens.txt"

# lower-half guard for relative accuracy of H0^(2) in the series region
H2_IM_MIN = -2.0


def _fmt(x: float) -> str:
    return format(float(x), ".17e")


def _ref_dps(z: complex) -> int:
    return 40 + int(2.5 * abs(z.imag))


def _record(tag: str, z: complex, f: complex) -> str:
    return ", ".join([_fmt(z.real), _fmt(z.imag), _fmt(f.real),
                      _fmt(f.imag), tag])


def k1_points() -> list[float]:
    pts = []
    x = 1e-6
    while x <= 700.0:
        pts.append(x)
        x *= 1.45
    return pts


def complex_points() -> list[complex]:
    """Deterministic spiral grids over the validated domain."""
    pts: list[complex] = []
    # small/series region: log-radial spiral, all quadrants off the cut
    n = 40
    for i in range(n):
        r = 10.0 ** (-3.0 + 4.0 * i / (n - 1) * 0.97)      # 1e-3 .. ~8.3
        a = -math.pi + 0.15 + (2.0 * math.pi - 0.3) * ((i * 7) % n) / n
        pts.append(r * complex(math.cos(a), math.sin(a)))
    # overlap annulus
    for i in range(16):
        r = 8.0 + 4.0 * i / 15.0
        a = -0.35 + 0.7 * ((i * 5) % 16) / 16.0
        pts.append(r * complex(math.cos(a), math.sin(a)))
    # large region up to 1e3, |Im| kept within double range
    n = 30
    for i in range(n):
        r = 10.0 ** (1.0 + 2.0 * i / (n - 1))
        a = -math.pi + 0.2 + (2.0 * math.pi - 0.4) * ((i * 11) % n) / n
        z = r * complex(math.cos(a), math.sin(a))
        if abs(z.imag) > 250.0:
            z = complex(z.real, math.copysign(250.0, z.imag))
        pts.append(z)
    # physics arguments of the peak formula: second quadrant, small positive
    # imaginary part (i w^2/pi^2 xi^2 - r/2 pi^2 k_F xi^2 over the CLI ranges)
    for i in range(20):
        re = -(10.0 ** (-4.0 + 6.0 * i / 19.0))            # -1e-4 .. -1e2
        im = abs(re) * 10.0 ** (-4.0 + 3.0 * i / 19.0)
        pts.append(complex(re, im))
    # positive real axis
    for x in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0, 800.0):
        pts.append(complex(x, 0.0))
    return pts


def main() -> None:
    lines = ["# re(z), im(z), re(f), im(f), tag  --  high-precision oracle "
             "values (mpmath), regenerate with tools/gen_specfun_goldens.py"]
    for x in k1_points():
        mp.mp.dps = 40
        f = mp.besselk(1, mp.mpf(x))
        lines.append(_record("k1", complex(x, 0.0), complex(float(f), 0.0)))
    for z in complex_points():
        mp.mp.dps = _ref_dps(z)
        zm = mp.mpc(z.real, z.imag)
        j0 = mp.besselj(0, zm)
        y0 = mp.bessely(0, zm)
        lines.append(_record("j0", z, complex(j0)))
        lines.append(_record("y0", z, complex(y0)))
        if z.imag >= H2_IM_MIN or abs(z) > 9.0:
            h2 = j0 - 1j * y0
            if abs(h2) > 1e-280:        # skip the graceful-underflow region
                lines.append(_record("h2", z, complex(h2)))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    counts = {}
    for ln in lines[1:]:
        tag = ln.rsplit(",", 1)[1].strip()
        counts[tag] = counts.get(tag, 0) + 1
    print(f"wrote {OUT} ({counts})")


if __name__ == "__main__":
    main()
