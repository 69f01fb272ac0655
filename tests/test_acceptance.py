"""Acceptance suite: one test per entry of validation.CHECKS, the registry
that ``pairemit validate`` runs, each printing a pass/fail line.

The test ids are the check names.  The checks CHECKS marks slow (the
quadrature-path ones, under a second together) carry the ``slow`` mark.  CLI
determinism is tested in tests/test_cli.py (TestDeterminism).  One more test
shows that fig3_shapes checks the |Delta| panel that `pairemit fig3` writes,
and two that chi_null_symmetry_phase fails on a chi21 that breaks the
detector-swap symmetry or the gap-phase invariance.
"""

import dataclasses

import numpy as np
import pytest

from pairemit import correlations, peak, validation
from pairemit.cli import main


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


@pytest.mark.slow
@pytest.mark.parametrize("broken", [
    lambda geom, params: geom.r1 > geom.r2,
    lambda geom, params: complex(params.delta).imag != 0.0,
], ids=["swap", "gap_phase"])
def test_chi_check_fails_on_a_broken_chi21(monkeypatch, capsys, broken):
    # chi21 10 % off on one side of the swap, or once the gap has a phase:
    # the check fails, and `pairemit validate` exits 1 naming it alone
    chi_quad = correlations._chi_quad

    def off(geom, params, *args, **kwargs):
        res = chi_quad(geom, params, *args, **kwargs)
        if broken(geom, params):
            res = dataclasses.replace(res, value=1.1 * res.value)
        return res

    monkeypatch.setattr(correlations, "_chi_quad", off)
    passed, detail = validation.check_chi_null_symmetry_phase()
    assert not passed, detail
    assert main(["validate"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] \
        == "FAILED checks: chi_null_symmetry_phase"
