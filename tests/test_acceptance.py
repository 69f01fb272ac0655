"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-3 and 8-10 are algebraic/oracle/closed-form checks (fast); 4-7
exercise the quadrature path (minutes, marked slow); 11 is the CLI
determinism/cache contract.
"""

import pytest

from pairemit import validation


def _report(criterion: str, res: validation.CheckResult):
    status = "PASS" if res.passed else "FAIL"
    print(f"ACCEPTANCE {criterion} [{res.name}] {status}: {res.detail}")
    assert res.passed, f"{criterion}: {res.detail}"


def test_criterion_01_threshold_algebra():
    _report("1", validation.check_threshold_algebra())


def test_criterion_02_werner_oracle():
    _report("2", validation.check_werner_oracle())


def test_criterion_03_specfun_goldens():
    _report("3", validation.check_specfun_goldens())


@pytest.mark.slow
def test_criterion_04_normal_antibunching():
    _report("4", validation.check_normal_antibunching())


@pytest.mark.slow
def test_criterion_05_chi_null_symmetry_phase():
    _report("5", validation.check_chi_null_symmetry_phase())


@pytest.mark.slow
def test_criterion_06_farfield_oracle():
    _report("6", validation.check_farfield_oracle())


@pytest.mark.slow
def test_criterion_07_peak_cross_validation():
    _report("7", validation.check_peak_cross_validation())


def test_criterion_08_decay_law():
    _report("8", validation.check_decay_law())


def test_criterion_08_decay_law_asymptotic_window():
    # companion: the same fit deep in the Hankel-asymptotic window, where
    # the 1/r statement is sharpest
    _report("8b", validation.check_decay_law_asymptotic())


def test_criterion_09_angular_envelope():
    _report("9", validation.check_angular_envelope())


def test_criterion_10_fig3_shapes():
    _report("10", validation.check_fig3_shapes())


@pytest.mark.slow
def test_criterion_11_determinism_and_cache(tmp_path):
    from pairemit.cli import main
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("delta_over_mu = 0\ntheta_points = 3\n"
                       "theta_max = 1.0\nrel_tol = 1e-3\n")
    # workers=1 and workers=2 each compute every row into a fresh cache of
    # their own; the rerun is then served from the workers=1 cache
    blobs = []
    for i, (workers, cache) in enumerate(((1, "c1"), (2, "c2"), (1, "c1"))):
        out = tmp_path / f"a{i}.csv"
        rc = main(["angular", "--config", str(cfgfile), "--workers",
                   str(workers), "--cache-dir", str(tmp_path / cache),
                   "--output", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    print(f"ACCEPTANCE 11 [determinism_cache] {'PASS' if ok else 'FAIL'}: "
          f"identical CSVs from uncached workers=1 and workers=2 runs and "
          f"a cached rerun = {ok}")
    assert ok
