"""Command-line interface: parameter reports, figure datasets, sweeps,
classification, and the validation suite.

Subcommands: params, angular, peak, fig3, classify, sweep, validate.
Exit codes: 0 success, 1 validation failure, 2 usage/config error (an
output path that cannot be written, or whose last component is empty or
'.', is one), 3 numerical non-convergence.

Each subcommand takes ``--output`` and flags only for the settings it reads
(``_COMMANDS``); any other flag is a usage error.  Configuration is
line-oriented ``key = value`` text ('#' comments) that accepts every known key,
so one file can serve several commands; unknown keys are rejected.
Precedence: command-line flags > config file > defaults.
CSV outputs carry a header row and floats in scientific notation with 17
significant digits; a JSON sidecar records the full configuration, its
hash, the code version, and achieved error estimates.  All files are
written atomically (temp file + rename), so interrupted runs never leave
partial datasets, with the mode the umask gives a plain open.  Angular rows
are cached by a hash of the row's own inputs and the code version, and
reused bitwise; uncached rows run in a process pool sized by the usable
CPUs (limit it with ``taskset``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import math
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import (DetectorGeometry, NonConvergenceError,
                           UndefinedQError, default_spec, rho2_and_Q)
from .entanglement import (Q_BELL_THRESHOLD, Q_ENTANGLEMENT_THRESHOLD,
                           werner_decompose)
from .model import EmitterParams, derive_params
from .peak import (DQ_BELL, DQ_ENTANGLEMENT, SweepResult, SweepSpec,
                   threshold_map, threshold_maps)
from .validation import run_checks

USAGE_ERROR = 2
NONCONVERGENCE_ERROR = 3

_DEFAULTS = {
    "delta_over_mu": 2.997e-3,
    "ec_over_mu": 2.997e-3,
    "w_over_lambdaf": 1.0,
    "r_over_lambdaf": 100.0,
    "theta": math.pi,
    "theta_min": 0.0,
    "theta_max": math.pi,
    "theta_points": 25,
    "rel_tol": 1e-3,
    "cache_dir": "",
    "sweep_param": "r",
    "sweep_min": 10.0,
    "sweep_max": 3.0e6,
    "sweep_points": 60,
    "sweep_log": True,
    "fig3_points": 60,
}


def _sha256(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()) \
        .hexdigest()


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration (defaults < config file < flags)."""

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
        """digest() of the configuration alone, made once per command."""
        return self.digest()

    def digest(self, extra: dict | None = None) -> str:
        # the cache location is an execution detail: it stays out of the hash
        values = {k: v for k, v in self.values.items() if k != "cache_dir"}
        payload = {"config": values, "version": __version__}
        if extra:
            payload.update(extra)
        return _sha256(payload)


class ConfigError(ValueError):
    pass


def _coerce(key: str, raw: str):
    """Parse a config-file value as the type of the key's default."""
    kind = type(_DEFAULTS[key])
    if kind is str:
        return raw
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values = dict(_DEFAULTS)
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            values[key] = _coerce(key, raw)
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown override {key!r}")
        values[key] = val
    if not values["cache_dir"]:
        values["cache_dir"] = os.environ.get("PAIREMIT_CACHE_DIR", "")
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    cfg = RunConfig(values)
    # basic invariants
    if cfg.delta_over_mu < 0 or cfg.ec_over_mu <= 0 or cfg.w_over_lambdaf <= 0:
        raise ConfigError("physical ratios must be positive (delta may be 0)")
    if cfg.theta_points < 1 or cfg.sweep_points < 1 or cfg.fig3_points < 2:
        raise ConfigError("grids need at least one point")
    if cfg.theta_max <= cfg.theta_min and cfg.theta_points > 1:
        raise ConfigError("theta grid must be strictly increasing")
    return cfg


# ---------------------------------------------------------------------------
# formatting / atomic IO / cache
# ---------------------------------------------------------------------------

def fmt(x: float) -> str:
    return format(float(x), ".16e")


class OutputError(OSError):
    """An output file or the cache directory cannot be written."""


def _named(path: str | Path) -> Path:
    """path as a Path; OutputError naming it if its last component is empty
    or '.' (`--output .`, `--output out/`), so that it names a directory and
    no file.  Checked on the string given, before Path drops a trailing
    '/' or '/.'."""
    if os.path.basename(os.fspath(path)) in ("", "."):
        raise OutputError(f"cannot write {os.fspath(path)}: the output path "
                          "names a directory, not a file")
    return Path(path)


def atomic_write(path: Path, text: str) -> None:
    """Write text to path through a fresh file in its directory and a rename,
    so a reader sees the old file or the whole new one.  The file is made
    0o666 less the umask, as open() makes it (mkstemp's are 0o600).  A path
    that cannot be written, or whose last component names no file, raises
    OutputError naming it."""
    _named(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            tmp = path.with_name(f"{path.name}.tmp{secrets.token_hex(4)}")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


class RowCache:
    """Row-level result cache keyed by a hash of each row's inputs."""

    def __init__(self, root: str):
        self.root = Path(root) if root else None
        if self.root:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise OutputError(
                    f"cannot create the cache directory {root}: {exc}") \
                    from exc

    def get(self, key: str) -> str | None:
        if not self.root:
            return None
        p = self.root / f"{key}.row"
        try:
            return p.read_text()
        except OSError:
            return None

    def put(self, key: str, row: str) -> None:
        if not self.root:
            return
        atomic_write(self.root / f"{key}.row", row)


# ---------------------------------------------------------------------------
# row workers (top level: picklable for the process pool)
# ---------------------------------------------------------------------------

def _angular_row(task) -> str:
    theta, r, delta, ec, w, rel_tol = task
    spec = default_spec(rel_tol)
    geom = DetectorGeometry.from_r_theta(r, theta)
    q_n = rho2_and_Q(geom, EmitterParams(0.0, ec, w), spec)
    q_s = rho2_and_Q(geom, EmitterParams(delta, ec, w), spec)
    return ",".join([fmt(theta), fmt(q_n.Q), fmt(q_n.Q_err),
                     fmt(q_s.Q), fmt(q_s.Q_err)])


def _angular_key(task) -> str:
    # _angular_row reads only its task, so no other config key enters
    return _sha256({"cmd": "angular", "task": task, "version": __version__})


def _run_rows(tasks, cache: RowCache) -> list[str]:
    """Angular rows in grid order: cached rows are reused, the rest run in a
    pool of min(uncached rows, usable CPUs) processes, or serially if 1."""
    keys = [_angular_key(task) for task in tasks]
    rows = [cache.get(key) for key in keys]
    pending = [i for i, row in enumerate(rows) if row is None]
    todo = [tasks[i] for i in pending]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n_workers = min(len(todo), cpus)
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(n_workers) as pool:
            done = list(pool.map(_angular_row, todo))
    else:
        done = [_angular_row(task) for task in todo]
    for i, row in zip(pending, done):
        rows[i] = row
        cache.put(keys[i], row)
    return rows  # type: ignore[return-value]


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
        atomic_write(_named(args.output), json.dumps(report, indent=2,
                                                     sort_keys=True) + "\n")
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
    atomic_write(path.with_suffix(".meta.json"),
                 json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_angular(cfg: RunConfig, args) -> int:
    """Q(theta) datasets for the normal and superconducting emitter."""
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_points)
    tasks = [(float(t), cfg.r_over_lambdaf, cfg.delta_over_mu,
              cfg.ec_over_mu, cfg.w_over_lambdaf, cfg.rel_tol)
             for t in thetas]
    rows = _run_rows(tasks, RowCache(cfg.cache_dir))
    path = _named(args.output or "angular.csv")
    _write_dataset(path, "theta_rad,Q_normal,err_normal,Q_super,err_super",
                   rows, cfg, {"command": "angular"})
    print(f"wrote {path}")
    return 0


def _sweep_grid(cfg: RunConfig):
    if cfg.sweep_log:
        if cfg.sweep_min <= 0:
            raise ConfigError("log grid needs positive sweep_min")
        return np.geomspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)
    return np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)


def _classify_dq(dq: float) -> str:
    if dq > DQ_BELL:
        return "bell_violating"
    if dq > DQ_ENTANGLEMENT:
        return "entangled"
    return "separable"


def _sweep_spec(cfg: RunConfig, param: str, grid) -> SweepSpec:
    return SweepSpec(base=cfg.params(), r=cfg.r_over_lambdaf, param=param,
                     grid=tuple(float(g) for g in grid))


def _sweep_dataset(cfg: RunConfig,
                   res: SweepResult) -> tuple[list[str], dict]:
    """CSV rows and .meta.json fields of a computed sweep."""
    hash12 = cfg.digest({"cmd": "threshold_map", "param": res.param})[:12]
    regime_ok = np.logical_and.reduce(list(res.regime_ok.values()))
    rows = [",".join([fmt(v), fmt(1.0 + dq), fmt(err), "1" if ok else "0",
                      _classify_dq(dq), hash12, __version__])
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
    res = threshold_map(_sweep_spec(cfg, cfg.sweep_param, _sweep_grid(cfg)))
    rows, meta = _sweep_dataset(cfg, res)
    path = _named(args.output or f"sweep_{cfg.sweep_param}.csv")
    _write_dataset(path, _HEADER_SWEEP, rows, cfg,
                   {"command": "sweep", "sweep_param": cfg.sweep_param, **meta})
    print(f"wrote {path}")
    return 0


def cmd_peak(cfg: RunConfig, args) -> int:
    """Peak height along an r sweep at the configured parameters."""
    if cfg.sweep_param == "r":
        grid = _sweep_grid(cfg)
    else:
        # the configured range is another parameter's: r takes the range
        # given on the command line, or else the default one
        ends = {key: _DEFAULTS[key] if getattr(args, key) is None
                else getattr(args, key) for key in ("sweep_min", "sweep_max")}
        grid = _sweep_grid(RunConfig({**cfg.values, **ends,
                                      "sweep_log": True}))
    # the point at --r goes first, so it is checked before the map and
    # before anything is written; one evaluation serves both
    point, res = threshold_maps([_sweep_spec(cfg, "r", [cfg.r_over_lambdaf]),
                                 _sweep_spec(cfg, "r", grid)])
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
    stem = _named(args.output or "fig3")
    n = cfg.fig3_points
    xi_lf = derive_params(cfg.params()).xi / (2 * math.pi)
    panels = {
        "delta": np.geomspace(1e-4, 1e-2, n),
        "ec": np.geomspace(3e-4, 3e-2, n),
        "w": np.linspace(0.5, 4.0, n),
        "r": np.geomspace(10.0, 3.0e6, n),
    }
    results = threshold_maps([_sweep_spec(cfg, param, grid)
                              for param, grid in panels.items()])
    for param, res in zip(panels, results):
        rows, meta = _sweep_dataset(cfg, res)
        path = stem.parent / f"{stem.name}_{param}.csv"
        _write_dataset(path, _HEADER_SWEEP, rows, cfg,
                       {"command": "fig3", "sweep_param": param,
                        "xi_over_lambdaf": xi_lf, **meta})
        print(f"wrote {path}")
    return 0


def cmd_classify(cfg: RunConfig, args) -> int:
    """Correlators and Werner report at one detector geometry (quadrature)."""
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
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        atomic_write(_named(args.output),
                     json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
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
        atomic_write(_named(args.output),
                     json.dumps(summary, indent=2, sort_keys=True) + "\n")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------

_FLAGS = {
    "--delta": dict(type=float, dest="delta_over_mu", help="|Delta|/mu"),
    "--ec": dict(type=float, dest="ec_over_mu", help="E_C/mu"),
    "--w": dict(type=float, dest="w_over_lambdaf", help="w/lambda_F"),
    "--r": dict(type=float, dest="r_over_lambdaf", help="r/lambda_F"),
    "--theta": dict(type=float, dest="theta", help="detector angle (rad)"),
    "--rel-tol": dict(type=float, dest="rel_tol"),
    "--cache-dir": dict(dest="cache_dir"),
    "--theta-points": dict(type=int, dest="theta_points"),
    "--sweep-param": dict(dest="sweep_param",
                          choices=("delta", "ec", "w", "r")),
    "--sweep-min": dict(type=float, dest="sweep_min"),
    "--sweep-max": dict(type=float, dest="sweep_max"),
    "--sweep-points": dict(type=int, dest="sweep_points"),
}

_PARAMS = ("--delta", "--ec", "--w")
_SWEEP = (*_PARAMS, "--r", "--sweep-min", "--sweep-max", "--sweep-points")

# each command with the flags of the settings it reads
_COMMANDS = {
    "params": (cmd_params, _PARAMS),
    "angular": (cmd_angular, (*_PARAMS, "--r", "--rel-tol", "--theta-points",
                              "--cache-dir")),
    "peak": (cmd_peak, _SWEEP),
    "fig3": (cmd_fig3, (*_PARAMS, "--r")),
    "classify": (cmd_classify, (*_PARAMS, "--r", "--theta", "--rel-tol")),
    "sweep": (cmd_sweep, (*_SWEEP, "--sweep-param")),
    "validate": (cmd_validate, ()),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built at the first main call
    of a process and reused by the later ones."""
    parser = argparse.ArgumentParser(
        prog="pairemit",
        description="Coincidence statistics and entanglement thresholds of "
                    "electron pairs field-emitted from a superconducting tip",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        if flags:
            sub.add_argument("--config", help="key = value configuration file")
        sub.add_argument("--output", help="output path (CSV/JSON per command)")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
    subs.choices["validate"].add_argument(
        "--quick", action="store_true",
        help="skip the slow quadrature-path checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    overrides = {k: getattr(args, k, None) for k in _DEFAULTS}
    try:
        cfg = load_config(getattr(args, "config", None), overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command][0](cfg, args)
    except (ConfigError, ValueError, OutputError) as exc:
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
