import csv
import hashlib
import json
import math
import os
import re
import stat
import types
from pathlib import Path

import numpy as np
import pytest

import pairemit
from pairemit import cli
from pairemit.cli import (ConfigError, USAGE_ERROR, fmt, load_config, main)
from pairemit.model import PARAMS_FIG, R_FIG, EmitterParams
from pairemit.peak import DQ_BELL, DQ_ENTANGLEMENT, FIG3_PANELS, delta_q_peak


class TestConfig:
    def test_defaults(self):
        cfg = load_config({})
        assert (cfg.params(), cfg.r_over_lambdaf) == (PARAMS_FIG, R_FIG)
        assert "workers" not in cfg.values

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"ec_over_mu": -1.0})

    @pytest.mark.parametrize("flags, key", [
        (["params", "--w", "inf"], "w_over_lambdaf"),
        (["params", "--delta", "nan"], "delta_over_mu"),
        (["params", "--ec=-inf"], "ec_over_mu"),
        (["peak", "--r", "inf"], "r_over_lambdaf"),
    ])
    def test_bad_flag_value_exit_2_names_key(self, flags, key, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        assert main([*flags, "--output", str(out)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_environment_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIREMIT_CACHE_DIR", str(tmp_path / "cache"))
        assert "cache_dir" not in load_config({}).values
        out = tmp_path / "angular.csv"
        assert main(["angular", "--theta-points", "1", "--rel-tol", "0.03",
                     "--output", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["angular.csv", "angular.meta.json"]

    def test_fmt_17_significant_digits(self):
        s = fmt(1.0 / 3.0)
        assert s == "3.3333333333333331e-01"
        assert len(s.split("e")[0].replace(".", "").replace("-", "")) == 17


_BASE = {"--delta", "--ec", "--w"}
_SWEEP = _BASE | {"--r", "--sweep-min", "--sweep-max", "--sweep-points"}


class TestFlags:
    # every command offers --output and one flag per setting it reads, and
    # no other
    @pytest.mark.parametrize("command, flags", [
        ("params", _BASE),
        ("fig3", _BASE | {"--r"}),
        ("classify", _BASE | {"--r", "--theta", "--rel-tol"}),
        ("angular", _BASE | {"--r", "--rel-tol", "--theta-points"}),
        ("peak", _SWEEP),
        ("sweep", _SWEEP | {"--sweep-param"}),
        ("validate", {"--quick"}),
    ])
    def test_offered_flags(self, command, flags, capsys):
        assert main([command, "--help"]) == 0
        offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert offered == flags | {"--help", "--output"}

    @pytest.mark.parametrize("argv", [
        ["fig3", "--rel-tol", "1e-9"],
        ["validate", "--quick", "--delta", "0.5"],
        ["params", "--theta-points", "3"],
        ["angular", "--workers", "2"],
        ["angular", "--cache-dir", "zz"],
    ], ids=["fig3-rel-tol", "validate-delta", "params-theta-points",
            "angular-workers", "angular-cache-dir"])
    def test_unread_flag_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == USAGE_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_every_setting_has_one_flag_that_a_command_reads(self):
        flags = [flag for _, flag, _ in cli._SETTINGS.values()]
        assert len(set(flags)) == len(flags) == 11
        assert set(flags) == {flag for _, read in cli._COMMANDS.values()
                              for flag in read}

    def test_readme_flag_table_matches_the_commands(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `(\w+)` \| (`--[^|]*`) \|$",
                          readme.read_text(), re.M)
        table = {name: set(re.findall(r"--[a-z-]+", flags))
                 for name, flags in rows}
        want = {name: set(flags) for name, (_, flags) in cli._COMMANDS.items()}
        want["validate"] = {"--quick"}      # a switch, not a setting flag
        assert table == want


# the flags of the fig3 and peak calls in perfbench/workloads.py
_BENCH_FLAGS = ["--delta", "0.002997", "--ec", "0.002997", "--w", "1.0",
                "--r", "100.0"]


def _seeded(seed: int | None) -> tuple[EmitterParams, float]:
    """The figure point (seed None), or a base and r drawn over the ranges
    of the closed_form_maps benchmark points."""
    if seed is None:
        return PARAMS_FIG, R_FIG
    rng = np.random.default_rng(seed)
    delta, ec = (10.0 ** rng.uniform(-3.0, -2.0, 2)).tolist()
    params = EmitterParams(delta, ec, float(rng.uniform(0.8, 2.0)))
    return params, float(10.0 ** rng.uniform(math.log10(50.0), 3.0))


def _flags(params: EmitterParams, r: float) -> list[str]:
    return ["--delta", repr(params.abs_delta), "--ec", repr(params.ec),
            "--w", repr(params.w), "--r", repr(r)]


class TestCommands:
    def test_params(self, tmp_path, capsys):
        out = tmp_path / "params.json"
        rc = main(["params", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["xi_over_lambdaf"] == pytest.approx(33.8075, abs=1e-3)

    def test_sweep_writes_csv_and_meta(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--sweep-param", "delta", "--sweep-min", "1e-4",
                   "--sweep-max", "1e-2", "--sweep-points", "20",
                   "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("param_value,Q_peak,err_est,regime_ok,"
                            "classification,config_hash,version")
        assert len(lines) == 21
        # every row carries provenance (config hash + code version)
        for row in lines[1:]:
            cells = row.split(",")
            assert len(cells[5]) == 12
            assert cells[6] == pairemit.__version__
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["thresholds"]["Q_bell"] == pytest.approx(
            math.sqrt(2) / (math.sqrt(2) - 1))
        assert len(meta["crossings"]["entangled"]) == 1
        # no stray temp files
        assert not [f for f in tmp_path.iterdir() if ".tmp" in f.name]

    def test_empty_grid_exit_2(self, tmp_path):
        rc = main(["sweep", "--sweep-points", "0",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == USAGE_ERROR

    @pytest.mark.filterwarnings("error")
    def test_w_sweep_past_overflow_exit_2(self, tmp_path, capsys):
        # the default sweep grid (10 ... 3e6) takes w past where dQ
        # overflows: no warning or exception escapes, one error line, no
        # dataset
        rc = main(["sweep", "--sweep-param", "w",
                   "--output", str(tmp_path / "w.csv")])
        assert rc == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: dQ overflows") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_ec_sweep_past_k1_underflow(self, tmp_path, capsys):
        # |Delta|/E_C runs from 1000 down to 50: on the first two rows
        # K1(|Delta|/E_C)^2 underflows and dQ is inf, which is a result
        out = tmp_path / "ec.csv"
        rc = main(["sweep", "--sweep-param", "ec", "--sweep-min", "5e-4",
                   "--sweep-max", "1e-2", "--sweep-points", "5",
                   "--delta", "0.5", "--output", str(out)])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        assert [row.split(",")[1] for row in rows[:2]] == ["inf", "inf"]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        # settings come in by their flags only: no command reads a file of
        # them, so --config is a usage error and nothing is written
        p = tmp_path / "run.cfg"
        p.write_text("")
        for command in ("params", "fig3", "classify", "angular", "peak",
                        "sweep"):
            out = tmp_path / "out"
            assert main([command, "--config", str(p), "--output", str(out)]) \
                == USAGE_ERROR, command
            assert "unrecognized arguments: --config" \
                in capsys.readouterr().err, command
            assert list(tmp_path.iterdir()) == [p], command

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, key", [
        (["sweep", "--sweep-max", "-5"], "sweep_max"),
        (["sweep", "--sweep-min", "0"], "sweep_min"),
        (["peak", "--sweep-max", "0"], "sweep_max"),
        (["peak", "--sweep-min=-1e-3"], "sweep_min")])
    def test_non_positive_sweep_end_exit_2_names_it(self, argv, key,
                                                    tmp_path, capsys):
        # a log grid needs two positive ends: no warning, one error line
        # naming the end, no dataset
        assert main([*argv, "--output", str(tmp_path / "s.csv")]) \
            == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be positive")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_fig3_panels(self, tmp_path):
        stem = tmp_path / "fig3"
        rc = main(["fig3", *_BENCH_FLAGS, "--output", str(stem)])
        assert rc == 0
        for param, grid in FIG3_PANELS.items():
            path = tmp_path / f"fig3_{param}.csv"
            values = [float(row.split(",")[0])
                      for row in path.read_text().splitlines()[1:]]
            assert values == list(grid)
            meta = json.loads(path.with_suffix(".meta.json").read_text())
            assert meta["sweep_param"] == param
            assert meta["xi_over_lambdaf"] == pytest.approx(33.8075, abs=1e-3)

    def test_fig3_failing_panel_writes_nothing(self, tmp_path, capsys):
        # the delta panel evaluates, the ec panel's Hankel factor overflows:
        # no panel is written, and the error names the overflowing element
        rc = main(["fig3", "--delta", "0.05", "--w", "200",
                   "--output", str(tmp_path / "d" / "f")])
        assert rc == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: dQ overflows at |Delta|/mu = 0.05, E_C/mu = 0.0003, "
            "w/lambda_F = 200, r/lambda_F = 100: the Hankel argument has "
            "Im z = w^2/(pi^2 xi^2) = 987 > 354.9\n")
        assert list(tmp_path.iterdir()) == []

    def test_peak_dataset(self, tmp_path):
        out = tmp_path / "peak.csv"
        rc = main(["peak", *_BENCH_FLAGS, "--sweep-points", "12",
                   "--output", str(out)])
        assert rc == 0
        assert out.exists()

    def test_peak_bad_r_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["peak", "--r", "-1", "--output", str(out)]) \
            == USAGE_ERROR
        assert "detector distance must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_peak_point_is_the_lone_peak(self, seed, tmp_path, capsys):
        # the dQ(r = ...) line reads the point from the map's evaluation
        params, r = _seeded(seed)
        assert main(["peak", *_flags(params, r), "--sweep-points", "5",
                     "--output", str(tmp_path / "p.csv")]) == 0
        want = delta_q_peak(params, r)
        assert capsys.readouterr().out.splitlines()[0] == (
            f"dQ(r = {r} lambda_F) = {want.delta_q:.6g}  "
            f"regime {want.regime_ok}")

    @pytest.mark.parametrize("argv, message", [
        (["fig3", "--output", "{f}/fig3"], "cannot write {f}/fig3_delta.csv"),
        (["params", "--output", "{f}/p.json"], "cannot write {f}/p.json"),
        (["peak", "--output", "{f}/sub/p.csv"], "cannot write {f}/sub/p.csv")],
        ids=["fig3", "params", "peak"])
    def test_unwritable_output_exit_2_names_the_path(self, argv, message,
                                                     tmp_path, capsys):
        # a file where the output path needs a directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([a.format(f=blocker) for a in argv]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(f=blocker)}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("argv, named", [
        (["params", "--output", "."], "."),
        (["fig3", "--output", "."], "."),
        (["fig3", "--output", "sub/."], "sub/."),
        (["peak", "--sweep-points", "3", "--output", "out/"], "out/")],
        ids=["params", "fig3", "fig3-dot", "peak-slash"])
    def test_output_naming_no_file_exit_2_names_the_path(
            self, argv, named, tmp_path, monkeypatch, capsys):
        # the output path's last component is empty or '.': it names a
        # directory, so nothing is written, not even '_delta.csv' in it
        monkeypatch.chdir(tmp_path)
        assert main(argv) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err == (f"error: cannot write {named}: the output path names "
                       "a directory, not a file\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["fig3"], ["peak", "--sweep-points", "5"],
        ["sweep", "--sweep-param", "w", "--sweep-min", "0.5", "--sweep-max",
         "2", "--sweep-points", "4"]], ids=["fig3", "peak", "sweep"])
    def test_configuration_hashed_once_per_command(
            self, argv, tmp_path, monkeypatch):
        # one SHA-256 of the configuration and version: every dataset's
        # .meta.json carries it, each of its rows the first 12 characters
        calls = []

        def counting(data):
            calls.append(json.loads(data))
            return hashlib.sha256(data)

        monkeypatch.setattr(cli, "hashlib",
                            types.SimpleNamespace(sha256=counting))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert len(calls) == 1
        want = hashlib.sha256(json.dumps(calls[0], sort_keys=True).encode())
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == (4 if argv == ["fig3"] else 1)
        for path in csvs:
            meta = json.loads(path.with_suffix(".meta.json").read_text())
            assert calls[0] == {"config": meta["config"],
                                "version": pairemit.__version__}
            assert meta["config_hash"] == want.hexdigest()
            header, *rows = path.read_text().splitlines()
            col = header.split(",").index("config_hash")
            assert rows and {row.split(",")[col] for row in rows} == {
                meta["config_hash"][:12]}

    def test_peak_takes_command_line_range(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["peak", "--sweep-min", "100", "--sweep-max", "200",
                     "--sweep-points", "3", "--output", str(out)]) == 0
        rs = [float(line.split(",")[0])
              for line in out.read_text().splitlines()[1:]]
        assert rs == pytest.approx([100.0, 100.0 * math.sqrt(2.0), 200.0],
                                   rel=1e-12)

    def test_classify_normal_separable(self, tmp_path, capsys):
        out = tmp_path / "cls.json"
        rc = main(["classify", "--delta", "0", "--r", "100",
                   "--theta", str(math.pi), "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["werner"]["classification"] == "separable"
        assert rep["werner"]["p"] == pytest.approx(0.0, abs=1e-4)
        assert rep["chi21_abs"] == 0.0
        assert capsys.readouterr().err == ""

    def test_classify_names_false_regime_flags(self, tmp_path, capsys):
        # k_F r = 6.3: still classified, exit 0, but one stderr line names
        # every false regime flag
        out = tmp_path / "cls.json"
        rc = main(["classify", "--r", "1", "--rel-tol", "0.03",
                   "--output", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "classification: " in captured.out
        flags = json.loads(out.read_text())["regime_flags"]
        false = {k for k, ok in flags.items() if not ok}
        assert false == {"kfr_large", "spread_large"}
        head, named = captured.err.rsplit(": ", 1)
        assert head == "warning: outside the validated regime"
        assert named.endswith("\n") and named.count("\n") == 1
        assert set(named.strip().split(", ")) == false

    def test_usage_error_on_bad_subcommand(self):
        assert main(["frobnicate"]) == USAGE_ERROR

    def test_validate_quick_passes(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = main(["validate", "--quick", "--output", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["failed"] == 0
        # each check reports its wall time, on its line and in the JSON
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(summary["checks"]) == summary["passed"]
        for line, check in zip(lines, summary["checks"]):
            shown = re.fullmatch(r"PASS  (\w+): .*  \[(\d+\.\d{3}) s\]", line)
            assert shown and shown.group(1) == check["name"]
            assert float(shown.group(2)) == pytest.approx(check["seconds"],
                                                          abs=5e-4)
            assert 0.0 < check["seconds"] < 60.0

    def test_validate_names_corrupted_goldens(self, monkeypatch, capsys):
        # a corrupted golden table must fail naming the specfun check
        import pairemit.validation as validation

        def corrupted():
            rows = validation._load_goldens()
            tag, z, ref = rows[0]
            rows[0] = (tag, z, ref * (1.0 + 1e-6))
            return rows

        monkeypatch.setattr(validation, "_load_goldens", corrupted)
        rc = main(["validate", "--quick"])
        assert rc == 1
        assert "specfun_goldens" in capsys.readouterr().out.split(
            "FAILED checks:")[-1]


# sweep ranges of the four parameters, those of fig3's panels
_SWEEP_RANGES = {"delta": ("1e-4", "1e-2"), "ec": ("3e-4", "3e-2"),
                 "w": ("0.5", "4"), "r": ("10", "3e6")}
_CLASSES = ("separable", "entangled", "bell_violating")
# the threshold between class k and class k + 1, and its dQ
_THRESHOLDS = (("entangled", DQ_ENTANGLEMENT), ("bell", DQ_BELL))


@pytest.fixture(scope="module", params=[None, 1, 2],
                ids=["default", "seed1", "seed2"])
def threshold_datasets(request, tmp_path_factory):
    """fig3's four panels and a sweep over each parameter at one base
    (seed 1 has w < lambda_F): the base w and, per dataset, its swept
    parameter, rows and crossings."""
    params, r = _seeded(request.param)
    out = tmp_path_factory.mktemp("maps")
    assert main(["fig3", *_flags(params, r), "--output",
                 str(out / "fig3")]) == 0
    paths = [out / f"fig3_{p}.csv" for p in _SWEEP_RANGES]
    for param, (lo, hi) in _SWEEP_RANGES.items():
        paths.append(out / f"sweep_{param}.csv")
        assert main(["sweep", *_flags(params, r), "--sweep-param", param,
                     "--sweep-min", lo, "--sweep-max", hi,
                     "--output", str(paths[-1])]) == 0
    datasets = []
    for path in paths:
        meta = json.loads(path.with_suffix(".meta.json").read_text())
        with path.open() as fh:
            datasets.append((meta["sweep_param"], list(csv.DictReader(fh)),
                             meta["crossings"]))
    return params.w, datasets


class TestThresholdDatasets:
    def test_class_changes_bracket_the_crossings(self, threshold_datasets):
        # neighbouring rows on the two sides of a threshold bracket one of
        # its crossings, and each crossing lies in such a bracket or on a
        # row exactly at the threshold
        brackets_seen = 0
        for param, rows, crossings in threshold_datasets[1]:
            x = [float(row["param_value"]) for row in rows]
            level = [_CLASSES.index(row["classification"]) for row in rows]
            for k, (name, dq) in enumerate(_THRESHOLDS):
                brackets = [sorted(x[i:i + 2]) for i in range(len(x) - 1)
                            if min(level[i:i + 2]) <= k < max(level[i:i + 2])]
                on = [v for v, row in zip(x, rows)
                      if float(row["Q_peak"]) == 1.0 + dq]
                for lo, hi in brackets:
                    assert any(lo <= c <= hi for c in crossings[name]), \
                        (param, name, lo, hi, crossings[name])
                for c in crossings[name]:
                    assert c in on or any(lo <= c <= hi
                                          for lo, hi in brackets), \
                        (param, name, c)
                brackets_seen += len(brackets)
        assert brackets_seen > 0

    def test_rows_below_lambda_f_are_outside_the_regime(self,
                                                        threshold_datasets):
        # L = 1 is not modelled below w = lambda_F
        base_w, datasets = threshold_datasets
        below = [row["regime_ok"] for param, rows, _ in datasets
                 for row in rows
                 if (float(row["param_value"]) if param == "w"
                     else base_w) < 1.0]
        assert below and set(below) == {"0"}


class TestOneParserPerProcess:
    _RUNS = [["fig3", *_BENCH_FLAGS, "--output", "{d}/fig3"],
             ["peak", *_BENCH_FLAGS, "--output", "{d}/peak.csv"],
             ["sweep", "--theta", "1.0", "--output", "{d}/bad.csv"],
             ["sweep", "--sweep-param", "w", "--sweep-min", "0.5",
              "--sweep-max", "4", "--output", "{d}/sweep.csv"]]

    def test_reused_parser_writes_the_bytes_of_fresh_ones(self, tmp_path,
                                                          capsys):
        def run(argv, d):
            return main([a.format(d=d) for a in argv])

        cli._parser.cache_clear()
        together = [run(argv, tmp_path / "one") for argv in self._RUNS]
        assert cli._parser.cache_info().misses == 1     # built once
        alone = []
        for argv in self._RUNS:             # each as a fresh process makes it
            cli._parser.cache_clear()
            alone.append(run(argv, tmp_path / "fresh"))
        assert together == alone == [0, 0, USAGE_ERROR, 0]
        names = sorted(f.name for f in (tmp_path / "one").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "fresh").iterdir())
        assert len(names) == 12         # 6 datasets, each CSV and meta
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() \
                == (tmp_path / "fresh" / name).read_bytes(), name


@pytest.mark.parametrize("error, label", [
    ("NonConvergenceError", "quadrature non-convergence"),
    ("UndefinedQError", "undefined Q")])
def test_quadrature_failures_exit_3(monkeypatch, capsys, error, label):
    # main maps the quadrature route's errors to exit 3; it takes their
    # classes from model, the very ones correlations raises
    from pairemit import correlations, model
    cls = getattr(model, error)
    assert getattr(correlations, error) is cls

    def failing(cfg, args):
        raise cls("no value")

    monkeypatch.setitem(cli._COMMANDS, "params",
                        (failing, cli._COMMANDS["params"][1]))
    assert main(["params"]) == cli.NONCONVERGENCE_ERROR
    assert capsys.readouterr().err == f"{label}: no value\n"


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_honour_the_umask(self, tmp_path, capsys, umask, mode):
        old = os.umask(umask)
        try:
            assert main(["peak", "--sweep-points", "3",
                         "--output", str(tmp_path / "p.csv")]) == 0
            cli.atomic_write(tmp_path / "sub" / "x.txt", "x\n")
            cli.atomic_write(tmp_path / "sub" / "x.txt", "y\n")  # replaces
        finally:
            os.umask(old)
        for name in ("p.csv", "p.meta.json", "sub/x.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
        assert (tmp_path / "sub" / "x.txt").read_text() == "y\n"
        assert sorted(f.name for f in tmp_path.rglob("*")) \
            == ["p.csv", "p.meta.json", "sub", "x.txt"]

    def test_missing_directories_are_made(self, tmp_path):
        cli.atomic_write(tmp_path / "a" / "b" / "x.txt", "\u00b5 x\n")
        assert (tmp_path / "a" / "b" / "x.txt").read_bytes() \
            == "\u00b5 x\n".encode()
        assert [f.name for f in (tmp_path / "a" / "b").iterdir()] == ["x.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        (tmp_path / "x.txt").write_text("old\n")

        def full(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", full)
        with pytest.raises(cli.OutputError, match="No space left"):
            cli.atomic_write(tmp_path / "x.txt", "new\n")
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["x.txt"]
        assert (tmp_path / "x.txt").read_text() == "old\n"


@pytest.mark.slow
class TestClassifyDeepPeak:
    def test_bell_violating_at_figure_defaults(self, tmp_path, capsys):
        # deep-peak configuration with dQ > sqrt(2)+1 classifies as Bell
        out = tmp_path / "cls.json"
        rc = main(["classify", "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""       # inside the regime
        rep = json.loads(out.read_text())
        assert rep["Q"] - 1.0 > math.sqrt(2) + 1
        assert rep["werner"]["classification"] == "bell_violating"
        assert rep["werner"]["chsh"] > 2.0


@pytest.mark.slow
class TestAngularShape:
    def test_fig2_shape_features(self, tmp_path):
        # normal: antibunching dip at theta -> 0, -> 1 when separated, no
        # peak; superconducting: large bunching peak at theta = pi
        out = tmp_path / "ang.csv"
        # theta = 0, pi/2 and pi: the first inside the antibunching dip
        # (coherence angle ~1/(k_F w) = 0.16 at the default w)
        rc = main(["angular", "--theta-points", "3", "--output", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        thetas = [float(r[0]) for r in rows]
        q_n = [float(r[1]) for r in rows]
        q_s = [float(r[3]) for r in rows]
        assert thetas == [0.0, math.pi / 2, math.pi]
        # normal curve: dip to ~1/2 near coincidence, ~1 beyond, monotone
        assert q_n[0] == pytest.approx(0.5, abs=0.02)
        assert q_n[-1] == pytest.approx(1.0, abs=0.02)
        assert q_n[0] < q_n[1] <= q_n[2] + 0.02
        # superconducting curve: large bunching peak at theta = pi
        assert q_s[-1] > 3.0
        assert q_s[-1] > q_s[1] and q_s[-1] > q_s[0]
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["command"] == "angular"


def _pin_cpus(monkeypatch, n: int) -> None:
    """Pin the CPU set that angular sizes its pool from to n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.mark.slow
class TestDeterminism:
    def test_angular_bitwise_identical_across_workers(self, tmp_path,
                                                      monkeypatch):
        # one CPU (serial) and two (a pool of 2) each compute every row
        outs = []
        for cpus in (1, 2):
            _pin_cpus(monkeypatch, cpus)
            out = tmp_path / f"angular_cpu{cpus}.csv"
            rc = main(["angular", "--delta", "0",     # normal: fast rows
                       "--theta-points", "3", "--rel-tol", "1e-3",
                       "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]          # CPU count independent
