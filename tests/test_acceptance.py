"""Acceptance suite: one test per entry of validation.CHECKS, the registry
that ``pairemit validate`` runs, each printing a pass/fail line.

The test ids are the check names.  The checks CHECKS marks slow (the
quadrature-path ones, under a second together) carry the ``slow`` mark.  CLI
determinism is tested in tests/test_cli.py (TestDeterminism).
"""

import pytest

from pairemit import validation


@pytest.mark.parametrize("name, check", [
    pytest.param(name, check, id=name,
                 marks=[pytest.mark.slow] if slow else [])
    for name, check, slow in validation.CHECKS])
def test_check(name, check):
    passed, detail = check()
    print(f"ACCEPTANCE [{name}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail
