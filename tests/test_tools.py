"""tools/compare_outputs.py, the gate that compares two directories written
by tools/cli_outputs.py, on small hand-made directories of the same shape."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

_HEADER = ("param_value,Q_peak,err_est,regime_ok,classification,"
           "config_hash,version")


def _run(argv: str, stdout: str = "", stderr: str = "") -> str:
    return f"argv: {argv}\nexit: 0\n--- stdout\n{stdout}--- stderr\n{stderr}"


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _outputs(version: str = "0.3.0", config_hash: str = "9e1aba173106",
             q: float = 2.5, q_err: float = 1e-3) -> dict:
    """One closed-form case (a fig3 panel and its sidecar) and the two
    quadrature cases (classify's report and an angular row); classify's
    stdout prints Q."""
    rows = [f"1.0000000000000000e-04,1.0319756325464462e+00,"
            f"4.4269846369672476e-14,1,separable,{config_hash},{version}",
            f"1.0811807510766077e-04,1.0366652110989578e+00,"
            f"5.0760170635268454e-14,1,separable,{config_hash},{version}"]
    meta = {"command": "fig3", "config_hash": config_hash * 5,
            "crossings": {"bell": [], "entangled": []}, "version": version}
    return {
        "default/fig3/run.txt": _run("fig3 --output fig3",
                                     "wrote fig3_delta.csv\n"),
        "default/fig3/fig3_delta.csv": "\n".join([_HEADER, *rows]) + "\n",
        "default/fig3/fig3_delta.meta.json": json.dumps(meta, indent=2),
        "quadrature/classify_r100/run.txt": _run(
            "classify --r 100", f"Q = {q:.6f}\n",
            "warning: outside the validated regime: chi_spread_ok\n"),
        "quadrature/classify_r100/classify.json": json.dumps(
            {"Q": q, "Q_err_est": q_err,
             "geometry": {"r_over_lambdaf": 100.0, "theta_rad": 3.14},
             "regime_flags": {"chi_spread_ok": False, "far_field": True},
             "werner": {"classification": "entangled", "p": 0.6}}),
        "quadrature/angular/run.txt": _run("angular --theta-points 2"),
        "quadrature/angular/angular.csv":
            "theta_rad,Q_normal,err_normal,Q_super,err_super\n"
            f"0.0,0.5,6e-04,{q!r},{q_err!r}\n",
    }


def _compare(tmp_path: Path, a: dict, b: dict) -> int:
    shutil.rmtree(tmp_path / "a", ignore_errors=True)
    shutil.rmtree(tmp_path / "b", ignore_errors=True)
    return compare_outputs.main([str(_write(tmp_path / "a", a)),
                                 str(_write(tmp_path / "b", b))])


def test_identical_directories_exit_0(tmp_path):
    assert _compare(tmp_path, _outputs(), _outputs()) == 0


def test_masked_version_and_config_hash_exit_0(tmp_path, capsys):
    assert _compare(tmp_path, _outputs(),
                    _outputs(version="0.3.1", config_hash="0123456789ab")) == 0
    out = capsys.readouterr().out
    assert "masked default/fig3/fig3_delta.csv" in out
    assert "masked default/fig3/fig3_delta.meta.json" in out


@pytest.mark.parametrize("old, new", [
    ("1.0319756325464462e+00", "1.0319756325464463e+00"),    # a value
    ("4.4269846369672476e-14", "4.4269846369672476e-15"),    # an exponent
])
def test_one_changed_digit_in_a_fig3_csv_exits_1(tmp_path, capsys, old, new):
    b = _outputs()
    csv = b["default/fig3/fig3_delta.csv"]
    assert csv.count(old) == 1
    b["default/fig3/fig3_delta.csv"] = csv.replace(old, new)
    assert _compare(tmp_path, _outputs(), b) == 1
    assert "FAIL default/fig3/fig3_delta.csv: differs outside" \
        in capsys.readouterr().out


def test_q_within_its_error_columns_exits_0(tmp_path):
    # 2.5 +- 1e-3 against 2.5015 +- 1e-3: apart by less than the sum, in
    # classify's stdout too
    assert _compare(tmp_path, _outputs(), _outputs(q=2.5015)) == 0


@pytest.mark.parametrize("case", ["classify_r100/classify.json",
                                  "angular/angular.csv"])
def test_q_further_apart_than_its_error_columns_exits_1(tmp_path, capsys,
                                                        case):
    # 2.5 +- 1e-3 against 2.5025 +- 1e-3, in one file only
    b = _outputs()
    b[f"quadrature/{case}"] = _outputs(q=2.5025)[f"quadrature/{case}"]
    assert _compare(tmp_path, _outputs(), b) == 1
    out = capsys.readouterr().out
    assert f"FAIL quadrature/{case}: Q 2.5 against 2.5025" in out
    assert "1 difference(s)" in out


@pytest.mark.parametrize("old, new", [
    ('"theta_rad": 3.14', '"theta_rad": 3.15'),                 # geometry
    ('"far_field": true', '"far_field": false'),                # a flag
    ('"chi_spread_ok": false, ', ''),                           # a lost flag
    ('"classification": "entangled"',
     '"classification": "bell_violating"'),                     # the class
], ids=["geometry", "regime_flag", "lost_regime_flag", "classification"])
def test_a_changed_classify_reading_exits_1(tmp_path, capsys, old, new):
    # Q and its error are unchanged; what classify read off the point is not
    b = _outputs()
    case = "quadrature/classify_r100/classify.json"
    assert b[case].count(old) == 1
    b[case] = b[case].replace(old, new)
    assert _compare(tmp_path, _outputs(), b) == 1
    out = capsys.readouterr().out
    assert f"FAIL {case}: " in out and "1 difference(s)" in out


@pytest.mark.parametrize("case", ["default/fig3", "quadrature/classify_r100"])
def test_a_changed_stderr_exits_1(tmp_path, capsys, case):
    b = _outputs()
    b[f"{case}/run.txt"] += "warning: something new\n"
    assert _compare(tmp_path, _outputs(), b) == 1
    assert (f"FAIL {case}/run.txt: stderr differs, first at None against "
            "'warning: something new\\n'") in capsys.readouterr().out


def test_a_changed_closed_form_stdout_exits_1(tmp_path, capsys):
    b = _outputs()
    b["default/fig3/run.txt"] = _run("fig3 --output fig3",
                                     "wrote fig3_delta.csv\nmore\n")
    assert _compare(tmp_path, _outputs(), b) == 1
    assert ("FAIL default/fig3/run.txt: stdout differs, first at None "
            "against 'more\\n'") in capsys.readouterr().out


def test_changed_cases_are_listed_not_compared(tmp_path, capsys):
    b = _outputs(q=9.0)
    b["default/fig3/run.txt"] += "warning: something new\n"
    a_dir, b_dir = (_write(tmp_path / d, o) for d, o in (("a", _outputs()),
                                                         ("b", b)))
    assert compare_outputs.main([str(a_dir), str(b_dir),
                                 "--changed", "default/fig3",
                                 "--changed", "quadrature/classify_r100",
                                 "--changed", "quadrature/angular"]) == 0
    assert "changed default/fig3: exit 0 -> 0" in capsys.readouterr().out
