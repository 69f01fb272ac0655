import math

import numpy as np
import pytest

from pairemit.correlations import CorrelationResult
from pairemit.entanglement import (Q_BELL_THRESHOLD, classify,
                                   werner_decompose, werner_density_matrix)


def make_corr(g11=1.0, g22=1.0, g21=0.0, chi=0.0):
    return CorrelationResult(gamma11=g11, gamma22=g22, gamma21=g21,
                             chi21=chi)


def test_entanglement_boundary():
    # b = 2a > 0 -> p = 1/3, concurrence 0
    # with g21 = 0: a = g^2, b = 2|chi|^2; b = 2a means |chi|^2 = g^2
    corr = make_corr(chi=1.0)
    rep = werner_decompose(corr)
    assert rep.p == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert rep.concurrence == 0.0
    assert rep.classification == "separable"        # boundary -> lower class


def test_chsh_boundary():
    # a state on the Bell boundary to the bit, p = 1/sqrt(2): |chi|^2 =
    # 2 (Q - 1) at the threshold Q = 2 + sqrt(2); sqrt(2 (Q - 1)) squares
    # back 1 ulp above that, the float below it onto it
    q = Q_BELL_THRESHOLD
    chi = math.nextafter(math.sqrt((q - 1.0) * 2.0), 0.0)
    corr = make_corr(chi=chi)
    rep = werner_decompose(corr)
    assert rep.p == 1.0 / math.sqrt(2.0)
    assert rep.chsh == pytest.approx(2.0, abs=1e-12)
    assert rep.classification == "entangled"        # boundary -> lower class


def test_maximally_mixed():
    corr = make_corr()
    rep = werner_decompose(corr)
    assert rep.p == 0.0
    assert rep.chsh == 0.0
    assert rep.classification == "separable"


def test_monotone_in_chi():
    ps = [werner_decompose(make_corr(g21=0.3, chi=c)).p
          for c in np.linspace(0.0, 3.0, 30)]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        corr = make_corr(g11=rng.uniform(0.1, 2), g22=rng.uniform(0.1, 2),
                         g21=0.0, chi=rng.uniform(0, 2))
        rep = werner_decompose(corr)
        assert rep.a >= 0 and rep.b >= 0
        assert 0.0 <= rep.p <= 1.0
        assert 4 * rep.a + rep.b == pytest.approx(corr.rho2, rel=1e-12)
        assert rep.concurrence == pytest.approx(
            max(0.0, (3 * rep.p - 1) / 2), abs=1e-15)


def test_rho2_zero_rejected():
    corr = make_corr(g11=1.0, g22=1.0, g21=math.sqrt(2.0), chi=0.0)
    assert corr.rho2 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        werner_decompose(corr)


def test_density_matrix_properties():
    rho = werner_density_matrix(0.2, 1.3)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rho, rho.conj().T)
    assert np.all(np.linalg.eigvalsh(rho) >= -1e-14)


@pytest.mark.parametrize("entangled, bell", [(1.0 / 3.0, 1.0 / math.sqrt(2.0)),
                                             (0.5, math.sqrt(2.0) + 1.0)],
                         ids=["p", "dQ"])
def test_classify_boundaries_fall_to_the_lower_class(entangled, bell):
    up = [math.nextafter(t, math.inf) for t in (entangled, bell)]
    assert [classify(x, entangled, bell)
            for x in (0.0, entangled, up[0], bell, up[1], math.inf)] \
        == ["separable", "separable", "entangled", "entangled",
            "bell_violating", "bell_violating"]
