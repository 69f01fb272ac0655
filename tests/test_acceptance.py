"""Acceptance suite: one test per entry of validation.CHECKS, the registry
that ``pairemit validate`` runs, each printing a pass/fail line.

The test ids are the check names.  The quadrature-path checks (validation
._SLOW, under a second together) carry the ``slow`` mark.  CLI determinism
and caching are tested in tests/test_cli.py (TestDeterminismAndCache).
"""

import pytest

from pairemit import validation


@pytest.mark.parametrize("name, check", [
    pytest.param(name, check, id=name,
                 marks=[pytest.mark.slow] if name in validation._SLOW else [])
    for name, check in validation.CHECKS])
def test_check(name, check):
    res = check()
    status = "PASS" if res.passed else "FAIL"
    print(f"ACCEPTANCE [{res.name}] {status}: {res.detail}")
    assert res.name == name
    assert res.passed, res.detail
