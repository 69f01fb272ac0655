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
            "warning: outside the validated regime: spread_large\n"),
        "quadrature/classify_r100/classify.json": json.dumps(
            {"Q": q, "Q_err_est": q_err,
             "geometry": {"r_over_lambdaf": 100.0, "theta_rad": 3.14},
             "regime_flags": {"kfr_large": True, "spread_large": False},
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


def test_every_moved_quadrature_number_is_listed_and_counted(tmp_path,
                                                             capsys):
    # Q within its error columns passes, but is listed as moved, and so
    # is a nested classify reading; nothing else moved
    b = _outputs(q=2.5015)
    case = "quadrature/classify_r100/classify.json"
    b[case] = b[case].replace('"p": 0.6', '"p": 0.7')
    assert _compare(tmp_path, _outputs(), b) == 0
    moved = [ln for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith("ok ")]
    assert moved == [
        "moved quadrature/angular/angular.csv: Q_super[0] 2.5 -> 2.5015",
        f"moved {case}: Q 2.5 -> 2.5015",
        f"moved {case}: werner.p 0.6 -> 0.7",
        "0 difference(s), 3 quadrature number(s) moved"]


def test_no_moved_number_is_counted_as_0(tmp_path, capsys):
    assert _compare(tmp_path, _outputs(), _outputs()) == 0
    out = capsys.readouterr().out
    assert "moved " not in out
    assert out.endswith("0 difference(s), 0 quadrature number(s) moved\n")


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
    ('"kfr_large": true', '"kfr_large": false'),                # a flag
    ('"kfr_large": true, ', ''),                                # a lost flag
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


# (file, old, new): edits of one field each
_REGIME_OK = ("default/fig3/fig3_delta.csv", ",1,separable,", ",0,separable,")
_Q_PEAK = ("default/fig3/fig3_delta.csv", "1.0319756325464462e+00",
           "1.0319756325464463e+00")
_CROSSING = ("default/fig3/fig3_delta.meta.json", '"bell": []',
             '"bell": [0.5]')
_STDOUT = ("default/fig3/run.txt", "wrote fig3_delta.csv\n",
           "wrote fig3_delta.csv\nmore\n")
_KFR_LARGE = ("quadrature/classify_r100/classify.json", '"kfr_large": true',
              '"kfr_large": false')
_CLASS = ("quadrature/classify_r100/classify.json",
          '"classification": "entangled"', '"classification": "separable"')
_Q_SUPER = ("quadrature/angular/angular.csv", ",2.5,", ",9.0,")
_Q_CLASSIFY = ("quadrature/classify_r100/classify.json", '"Q": 2.5',
               '"Q": 9.0')


def _compare_edited(tmp_path: Path, edits, changed: str) -> int:
    b = _outputs()
    for path, old, new in edits:
        assert old in b[path]
        b[path] = b[path].replace(old, new)
    a_dir, b_dir = (_write(tmp_path / d, o) for d, o in (("a", _outputs()),
                                                         ("b", b)))
    return compare_outputs.main([str(a_dir), str(b_dir),
                                 "--changed", changed])


@pytest.mark.parametrize("edits, changed", [
    ([_REGIME_OK], "default/fig3:regime_ok"),
    ([_REGIME_OK, _CROSSING], "default/fig3:crossings,regime_ok"),
    ([_KFR_LARGE], "quadrature/classify_r100:regime_flags.kfr_large"),
    ([_Q_SUPER], "quadrature/angular:Q_super"),
    ([_Q_CLASSIFY], "quadrature/classify_r100:Q"),
], ids=["csv_column", "column_and_meta_field", "nested_json_field",
        "quadrature_column", "quadrature_q"])
def test_changed_names_are_masked_in_their_case(tmp_path, capsys, edits,
                                                changed):
    assert _compare_edited(tmp_path, edits, changed) == 0
    case = changed.partition(":")[0]
    assert f"changed {case}: masking" in capsys.readouterr().out


def test_a_masked_quadrature_number_is_still_listed_as_moved(tmp_path,
                                                             capsys):
    assert _compare_edited(tmp_path, [_Q_CLASSIFY],
                           "quadrature/classify_r100:Q") == 0
    out = capsys.readouterr().out
    assert "moved quadrature/classify_r100/classify.json: Q 2.5 -> 9.0" in out
    assert "0 difference(s), 1 quadrature number(s) moved" in out


@pytest.mark.parametrize("changed, code", [
    ("*:crossings,regime_ok", 0),
    ("default/*:crossings,regime_ok", 0),
    ("quadrature/*:crossings,regime_ok", 1),
], ids=["every_case", "matching_cases", "no_matching_case"])
def test_a_case_pattern_masks_the_names_in_every_case_it_matches(
        tmp_path, capsys, changed, code):
    # `*` matches across `/`, so one line masks a field in every case
    assert _compare_edited(tmp_path, [_REGIME_OK, _CROSSING], changed) == code
    out = capsys.readouterr().out
    assert ("changed default/fig3: masking ['crossings', 'regime_ok']"
            in out) == (code == 0)


def test_a_case_pattern_lists_every_case_it_matches(tmp_path, capsys):
    assert _compare_edited(tmp_path, [_Q_SUPER, _Q_CLASSIFY],
                           "quadrature/*") == 0
    out = capsys.readouterr().out
    assert "changed quadrature/angular: exit 0 -> 0" in out
    assert "changed quadrature/classify_r100: exit 0 -> 0" in out


@pytest.mark.parametrize("edits, changed, fail", [
    ([_REGIME_OK, _Q_PEAK], "default/fig3:regime_ok",
     "default/fig3/fig3_delta.csv: differs outside the columns "
     "('config_hash', 'version', 'regime_ok')"),
    ([_REGIME_OK], "quadrature/angular:regime_ok",
     "default/fig3/fig3_delta.csv: differs outside the columns "
     "('config_hash', 'version')"),
    ([_CROSSING], "default/fig3:regime_ok",
     "default/fig3/fig3_delta.meta.json: differs outside "
     "('version', 'config_hash', 'regime_ok')"),
    ([_STDOUT], "default/fig3:regime_ok",
     "default/fig3/run.txt: stdout differs"),
    ([_KFR_LARGE, _CLASS], "quadrature/classify_r100:regime_flags.kfr_large",
     "quadrature/classify_r100/classify.json: werner.classification"),
], ids=["unnamed_column", "another_case", "unnamed_meta_field", "stdout",
        "unnamed_json_field"])
def test_an_unnamed_change_in_a_changed_case_exits_1(tmp_path, capsys, edits,
                                                     changed, fail):
    # the names mask what they name, in their case, and nothing else
    assert _compare_edited(tmp_path, edits, changed) == 1
    out = capsys.readouterr().out
    assert f"FAIL {fail}" in out and "1 difference(s)" in out


def test_a_new_case_the_base_rejects_is_reported_not_compared(tmp_path,
                                                              capsys):
    # A's command line rejected the case's arguments, so cli_outputs.py ran
    # it in B only and listed it in A/skipped.txt
    a = {**_outputs(), "skipped.txt": "default/new_cmd\n"}
    b = {**_outputs(), "default/new_cmd/run.txt": _run("new-cmd")}
    assert _compare(tmp_path, a, b) == 0
    out = capsys.readouterr().out
    assert "new  default/new_cmd: A's command line rejects its arguments" \
        in out


@pytest.mark.parametrize("skipped", ["", "default/other\n"])
def test_a_case_run_in_one_directory_only_exits_1(tmp_path, capsys, skipped):
    a = {**_outputs(), "skipped.txt": skipped}
    b = {**_outputs(), "default/new_cmd/run.txt": _run("new-cmd")}
    assert _compare(tmp_path, a, b) == 1
    assert "FAIL default/new_cmd: run in one directory only" \
        in capsys.readouterr().out


def test_cli_outputs_skips_what_the_command_line_rejects():
    path = _PATH.parent / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    cli_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_outputs)
    assert all(map(cli_outputs.accepted, cli_outputs.cases().values()))
    assert not cli_outputs.accepted(["fig3", "--no-such-flag", "1"])
    assert not cli_outputs.accepted(["no-such-command"])
