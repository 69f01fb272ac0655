"""Command-line interface: parameter reports, figure datasets, sweeps,
classification, and the validation suite.

Subcommands: params, angular, peak, fig3, classify, sweep, validate.
Exit codes: 0 success, 1 validation failure, 2 usage/config error (an
output path that cannot be written, or whose last component is empty or
'.', is one), 3 numerical non-convergence.

Each subcommand takes ``--output`` and flags only for the settings it reads
(``_COMMANDS``); any other flag is a usage error.  Every setting has one
way in, its flag: a flag given beats the setting's default, and a setting a
command does not read keeps its default.
CSV outputs carry a header row and floats in scientific notation with 17
significant digits; a JSON sidecar records the full configuration, its
hash, the code version, and achieved error estimates.  All files are
written atomically (temp file + rename), so interrupted runs never leave
partial datasets, with the mode the umask gives a plain open.  Angular rows
are computed on every run, in a process pool sized by the usable CPUs (limit
it with ``taskset``); the rows do not depend on the pool's size.  Each
command imports the modules it uses when it runs: ``params`` loads only
``model``, and the closed-form commands (peak, fig3, sweep) no quadrature.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .model import (PARAMS_FIG, R_FIG, SWEEPABLE, EmitterParams,
                    NonConvergenceError, UndefinedQError, derive_params)

if TYPE_CHECKING:       # each command imports what it runs when it runs
    from .peak import SweepResult, SweepSpec

USAGE_ERROR = 2
NONCONVERGENCE_ERROR = 3

# every setting: its default, whose type parses the setting, and its
# command-line flag with the flag's help
_SETTINGS = {
    "delta_over_mu": (PARAMS_FIG.delta, "--delta", "|Delta|/mu"),
    "ec_over_mu": (PARAMS_FIG.ec, "--ec", "E_C/mu"),
    "w_over_lambdaf": (PARAMS_FIG.w, "--w", "w/lambda_F"),
    "r_over_lambdaf": (R_FIG, "--r", "r/lambda_F"),
    "theta": (math.pi, "--theta", "detector angle (rad)"),
    "theta_points": (25, "--theta-points", None),
    "rel_tol": (1e-3, "--rel-tol", None),
    "sweep_param": ("r", "--sweep-param", None),
    "sweep_min": (10.0, "--sweep-min", None),
    "sweep_max": (3.0e6, "--sweep-max", None),
    "sweep_points": (60, "--sweep-points", None),
}


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration (flags over defaults)."""

    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError as exc:
            raise AttributeError(name) from exc

    def params(self) -> EmitterParams:
        return EmitterParams(delta=self.delta_over_mu, ec=self.ec_over_mu,
                             w=self.w_over_lambdaf)

    @functools.cached_property
    def config_hash(self) -> str:
        """SHA-256 of the configuration and the code version, made once per
        command: every .meta.json carries it, every CSV row its first 12
        characters."""
        payload = {"config": self.values, "version": __version__}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()) \
            .hexdigest()


class ConfigError(ValueError):
    pass


def load_config(given: dict) -> RunConfig:
    """The settings given (None: not given) over the defaults, checked."""
    values = {key: default for key, (default, _, _) in _SETTINGS.items()}
    values.update((key, val) for key, val in given.items() if val is not None)
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    if values["delta_over_mu"] < 0:
        raise ConfigError("delta_over_mu must not be negative, got "
                          f"{values['delta_over_mu']}")
    # the physical ratios and the ends of a log grid
    for key in ("ec_over_mu", "w_over_lambdaf", "sweep_min", "sweep_max"):
        if values[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {values[key]}")
    if values["theta_points"] < 1 or values["sweep_points"] < 1:
        raise ConfigError("grids need at least one point")
    return RunConfig(values)


# ---------------------------------------------------------------------------
# formatting / atomic IO
# ---------------------------------------------------------------------------

def fmt(x: float) -> str:
    return format(float(x), ".16e")


class OutputError(OSError):
    """An output file cannot be written."""


def _json(obj) -> str:
    """The JSON text of every file the CLI writes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _named(path: str | Path) -> Path:
    """path as a Path; OutputError naming it if its last component is empty
    or '.' (`--output .`, `--output out/`), so that it names a directory and
    no file.  Checked on the string given, before Path drops a trailing
    '/' or '/.'."""
    if os.path.basename(os.fspath(path)) in ("", "."):
        raise OutputError(f"cannot write {os.fspath(path)}: the output path "
                          "names a directory, not a file")
    return Path(path)


def _fresh_file(path: Path) -> tuple[int, str]:
    """A new empty file beside path under a random name, open for writing:
    its descriptor and its name."""
    while True:
        tmp = f"{path}.tmp{os.urandom(4).hex()}"
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666), tmp
        except FileExistsError:
            continue


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path through a fresh file in its directory and a rename,
    so a reader sees the old file or the whole new one.  The file is made
    0o666 less the umask, as open() makes it (mkstemp's are 0o600), and its
    directory where that is missing.  A path that cannot be written, or
    whose last component names no file, raises OutputError naming it."""
    path = _named(path)
    data = memoryview(text.encode())
    try:
        try:
            fd, tmp = _fresh_file(path)
        except OSError:
            # a missing directory: make it and try again; where it cannot be
            # made, the error names the part of the path that blocks it
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = _fresh_file(path)
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# row workers (top level: picklable for the process pool)
# ---------------------------------------------------------------------------

def _angular_row(task) -> str:
    from .correlations import DetectorGeometry, default_spec, rho2_and_Q
    theta, r, delta, ec, w, rel_tol = task
    spec = default_spec(rel_tol)
    geom = DetectorGeometry.from_r_theta(r, theta)
    q_n = rho2_and_Q(geom, EmitterParams(0.0, ec, w), spec)
    q_s = rho2_and_Q(geom, EmitterParams(delta, ec, w), spec)
    return ",".join([fmt(theta), fmt(q_n.Q), fmt(q_n.Q_err),
                     fmt(q_s.Q), fmt(q_s.Q_err)])


def _run_rows(tasks) -> list[str]:
    """Angular rows in grid order, from a pool of min(rows, usable CPUs)
    processes, or serially if that is 1."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n_workers = min(len(tasks), cpus)
    if n_workers > 1:
        import concurrent.futures       # here: no other command loads it
        with concurrent.futures.ProcessPoolExecutor(n_workers) as pool:
            return list(pool.map(_angular_row, tasks))
    return [_angular_row(task) for task in tasks]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_params(cfg: RunConfig, args) -> int:
    p = cfg.params()
    d = derive_params(p)
    report = {
        "delta_over_mu": abs(p.delta),
        "ec_over_mu": p.ec,
        "w_over_lambdaf": p.w,
        "xi_over_lambdaf": d.xi_over_lambda_f,
        "w_over_xi": d.w_over_xi,
        "delta_over_ec": d.delta_over_ec,
        "lambda_f_kf_units": d.lambda_f,
    }
    for k, v in report.items():
        print(f"{k:>22s} = {v}")
    if args.output:
        atomic_write(args.output, _json(report))
    return 0


def _write_dataset(path: Path, header: str, rows: list[str], cfg: RunConfig,
                   meta_extra: dict) -> None:
    atomic_write(path, header + "\n" + "\n".join(rows) + "\n")
    meta = {
        "config": cfg.values,
        "config_hash": cfg.config_hash,
        "version": __version__,
    }
    meta.update(meta_extra)
    atomic_write(path.with_suffix(".meta.json"), _json(meta))


def cmd_angular(cfg: RunConfig, args) -> int:
    """Q(theta) datasets for the normal and superconducting emitter, theta
    over [0, pi]."""
    thetas = np.linspace(0.0, math.pi, cfg.theta_points)
    tasks = [(float(t), cfg.r_over_lambdaf, cfg.delta_over_mu,
              cfg.ec_over_mu, cfg.w_over_lambdaf, cfg.rel_tol)
             for t in thetas]
    rows = _run_rows(tasks)
    path = _named(args.output or "angular.csv")
    _write_dataset(path, "theta_rad,Q_normal,err_normal,Q_super,err_super",
                   rows, cfg, {"command": "angular"})
    print(f"wrote {path}")
    return 0


def _sweep_grid(cfg: RunConfig) -> np.ndarray:
    """sweep_points log-spaced values from sweep_min to sweep_max."""
    return np.geomspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)


def _sweep_spec(cfg: RunConfig, param: str, grid) -> SweepSpec:
    from .peak import SweepSpec
    return SweepSpec(base=cfg.params(), r=cfg.r_over_lambdaf, param=param,
                     grid=tuple(float(g) for g in grid))


def _sweep_dataset(cfg: RunConfig,
                   res: SweepResult) -> tuple[list[str], dict]:
    """CSV rows and .meta.json fields of a computed sweep."""
    from .entanglement import (Q_BELL_THRESHOLD, Q_ENTANGLEMENT_THRESHOLD,
                               classify)
    from .peak import DQ_BELL, DQ_ENTANGLEMENT
    hash12 = cfg.config_hash[:12]
    regime_ok = np.logical_and.reduce(list(res.regime_ok.values()))
    rows = [",".join([fmt(v), fmt(1.0 + dq), fmt(err), "1" if ok else "0",
                      classify(dq, DQ_ENTANGLEMENT, DQ_BELL), hash12,
                      __version__])
            for v, dq, err, ok in zip(res.values.tolist(),
                                      res.delta_q.tolist(),
                                      res.delta_q_err.tolist(),
                                      regime_ok.tolist())]
    meta = {"crossings": {k: list(map(float, v))
                          for k, v in res.crossings.items()},
            "thresholds": {"Q_entanglement": Q_ENTANGLEMENT_THRESHOLD,
                           "Q_bell": Q_BELL_THRESHOLD}}
    return rows, meta


_HEADER_SWEEP = ("param_value,Q_peak,err_est,regime_ok,classification,"
                 "config_hash,version")


def cmd_sweep(cfg: RunConfig, args) -> int:
    from .peak import threshold_maps
    res, = threshold_maps([_sweep_spec(cfg, cfg.sweep_param,
                                       _sweep_grid(cfg))])
    rows, meta = _sweep_dataset(cfg, res)
    path = _named(args.output or f"sweep_{cfg.sweep_param}.csv")
    _write_dataset(path, _HEADER_SWEEP, rows, cfg,
                   {"command": "sweep", "sweep_param": cfg.sweep_param, **meta})
    print(f"wrote {path}")
    return 0


def cmd_peak(cfg: RunConfig, args) -> int:
    """Peak height along an r sweep at the configured parameters."""
    from .peak import threshold_maps
    # the point at --r goes first, so it is checked before the map and
    # before anything is written; one evaluation serves both
    point, res = threshold_maps([_sweep_spec(cfg, "r", [cfg.r_over_lambdaf]),
                                 _sweep_spec(cfg, "r", _sweep_grid(cfg))])
    rows, meta = _sweep_dataset(cfg, res)
    path = _named(args.output or "peak_r.csv")
    _write_dataset(path, _HEADER_SWEEP, rows, cfg,
                   {"command": "peak", "sweep_param": "r", **meta})
    regime = {k: bool(v[0]) for k, v in point.regime_ok.items()}
    print(f"dQ(r = {cfg.r_over_lambdaf} lambda_F) = "
          f"{float(point.delta_q[0]):.6g}  regime {regime}")
    print(f"wrote {path}")
    return 0


def cmd_fig3(cfg: RunConfig, args) -> int:
    """Four threshold-map panels (|Delta|, E_C, w, r), evaluated together
    before any is written: a failing panel leaves no dataset."""
    from .peak import FIG3_PANELS, threshold_maps
    stem = _named(args.output or "fig3")
    xi_lf = derive_params(cfg.params()).xi_over_lambda_f
    results = threshold_maps([_sweep_spec(cfg, param, grid)
                              for param, grid in FIG3_PANELS.items()])
    for param, res in zip(FIG3_PANELS, results):
        rows, meta = _sweep_dataset(cfg, res)
        path = stem.parent / f"{stem.name}_{param}.csv"
        _write_dataset(path, _HEADER_SWEEP, rows, cfg,
                       {"command": "fig3", "sweep_param": param,
                        "xi_over_lambdaf": xi_lf, **meta})
        print(f"wrote {path}")
    return 0


def cmd_classify(cfg: RunConfig, args) -> int:
    """Correlators and Werner report at one detector geometry (quadrature)."""
    from .correlations import DetectorGeometry, default_spec, rho2_and_Q
    from .entanglement import werner_decompose
    geom = DetectorGeometry.from_r_theta(cfg.r_over_lambdaf, cfg.theta)
    corr = rho2_and_Q(geom, cfg.params(), default_spec(cfg.rel_tol))
    rep = werner_decompose(corr)
    report = {
        "geometry": {"r_over_lambdaf": cfg.r_over_lambdaf,
                     "theta_rad": cfg.theta},
        "gamma11": corr.gamma11, "gamma22": corr.gamma22,
        "gamma21_abs": abs(corr.gamma21), "chi21_abs": abs(corr.chi21),
        "rho2": corr.rho2, "Q": corr.Q, "Q_err_est": corr.Q_err,
        "regime_flags": corr.regime_flags,
        "werner": {"a": rep.a, "b": rep.b, "p": rep.p,
                   "concurrence": rep.concurrence, "chsh": rep.chsh,
                   "classification": rep.classification},
    }
    print(f"Q = {corr.Q:.6f}   p = {rep.p:.6f}   "
          f"concurrence = {rep.concurrence:.6f}   CHSH = {rep.chsh:.6f}")
    print(f"classification: {rep.classification}")
    outside = [k for k, ok in corr.regime_flags.items() if not ok]
    if outside:
        print("warning: outside the validated regime: "
              + ", ".join(outside), file=sys.stderr)
    text = _json(report)
    print(text, end="")
    if args.output:
        atomic_write(args.output, text)
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    from .validation import run_checks  # here: no other command loads it
    results = run_checks(skip_slow=args.quick)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}"
              f"  [{res.seconds:.3f} s]")
    summary = {
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "checks": [dataclasses.asdict(r) for r in results],
        "version": __version__,
    }
    print(json.dumps(summary, sort_keys=True))      # machine-readable line
    if args.output:
        atomic_write(args.output, _json(summary))
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------

_PARAMS = ("--delta", "--ec", "--w")
_SWEEP = (*_PARAMS, "--r", "--sweep-min", "--sweep-max", "--sweep-points")

# each command with the flags of the settings it reads
_COMMANDS = {
    "params": (cmd_params, _PARAMS),
    "angular": (cmd_angular, (*_PARAMS, "--r", "--rel-tol", "--theta-points")),
    "peak": (cmd_peak, _SWEEP),
    "fig3": (cmd_fig3, (*_PARAMS, "--r")),
    "classify": (cmd_classify, (*_PARAMS, "--r", "--theta", "--rel-tol")),
    "sweep": (cmd_sweep, (*_SWEEP, "--sweep-param")),
    "validate": (cmd_validate, ()),
}


class _Parser(argparse.ArgumentParser):
    """A parser that reads any negative number as a flag's value, where
    argparse's own test takes only plain decimals: `--delta -1e-3` and
    `--r -inf` reach the checks.  Subparsers are made of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built at the first main call
    of a process and reused by the later ones."""
    parser = _Parser(
        prog="pairemit",
        description="Coincidence statistics and entanglement thresholds of "
                    "electron pairs field-emitted from a superconducting tip",
    )
    setting = {flag: (key, default, help_)
               for key, (default, flag, help_) in _SETTINGS.items()}
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--output", help="output path (CSV/JSON per command)")
        for flag in flags:
            key, default, help_ = setting[flag]
            sub.add_argument(
                flag, dest=key, type=type(default), help=help_,
                choices=SWEEPABLE if key == "sweep_param" else None)
    subs.choices["validate"].add_argument(
        "--quick", action="store_true",
        help="skip the slow quadrature-path checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        cfg = load_config({key: getattr(args, key, None) for key in _SETTINGS})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command][0](cfg, args)
    except (ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except UndefinedQError as exc:
        print(f"undefined Q: {exc}", file=sys.stderr)
        return NONCONVERGENCE_ERROR
    except NonConvergenceError as exc:
        print(f"quadrature non-convergence: {exc}", file=sys.stderr)
        return NONCONVERGENCE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
