"""Acceptance suite: one test per entry of validation.CHECKS, the registry
that ``pairemit validate`` runs, each printing a pass/fail line.

The test ids are the check names.  The checks CHECKS marks slow (the
quadrature-path ones, under a second together) carry the ``slow`` mark.  CLI
determinism is tested in tests/test_cli.py (TestDeterminism).  One more test
shows that fig3_shapes checks the |Delta| panel that `pairemit fig3` writes.
"""

import numpy as np
import pytest

from pairemit import peak, validation


@pytest.mark.parametrize("name, check", [
    pytest.param(name, check, id=name,
                 marks=[pytest.mark.slow] if slow else [])
    for name, check, slow in validation.CHECKS])
def test_check(name, check):
    passed, detail = check()
    print(f"ACCEPTANCE [{name}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_fig3_shapes_reads_fig3s_delta_panel(monkeypatch):
    # a |Delta| panel that ends below the entanglement crossing (4.78e-4)
    # holds no crossing, and the check fails on it
    monkeypatch.setitem(peak.FIG3_PANELS, "delta",
                        tuple(np.geomspace(1e-4, 4e-4, 60)))
    passed, detail = validation.check_fig3_shapes()
    assert not passed and "missing threshold crossing" in detail
