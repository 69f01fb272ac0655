"""Property tests of rho2_and_Q over detector geometries (hypothesis)."""

import math

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from pairemit.correlations import DetectorGeometry, default_spec, rho2_and_Q
from pairemit.model import EmitterParams

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
    geom = DetectorGeometry((r1 * s, 0.0, r1 * c), (-r2 * s, 0.0, r2 * c))
    res = rho2_and_Q(geom, PARAMS[name], default_spec(0.03))
    assert res.rho2 >= 0.0
    assert abs(res.gamma21) ** 2 <= res.gamma11 * res.gamma22 * (1.0 + 1e-6)
    # gamma(r; r) = G / r^2
    assert res.gamma11 * geom.r1 ** 2 == pytest.approx(
        res.gamma22 * geom.r2 ** 2, rel=1e-13, abs=0.0)
