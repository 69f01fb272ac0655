#!/usr/bin/env python3
"""Write the datasets of the closed-form CLI commands into one directory.

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR

Runs `pairemit fig3`, `peak` and `sweep` (over each of r, delta, ec and w)
at the defaults and at 5 seeded bases, drawn with numpy's
default_rng(2024) over the ranges of the `closed_form_maps` benchmark
points; the quadrature route: `classify --rel-tol 0.03` back to back at
r = 100 and 1000 lambda_F, `classify` at the default rel_tol at r = 100
lambda_F, back to back and at theta = 2.5 and 0.3 (where gamma21 refines
deeply), and `angular --theta-points 5 --rel-tol 0.03`;
plus the error paths: a `fig3` whose ec panel overflows, a `peak` whose
point overflows, a `peak` at r = -1, a `sweep` whose grid ends at -5, a
`params` at delta = -1e-3 and a `sweep` whose grid starts at -1e-3 (a
negative value in scientific notation), a `fig3` whose output path runs
through a file, and a `params` and a `fig3` whose output path is `.`.
Each case runs in its own directory
OUTDIR/<base>/<command> with relative output paths; its exit code (or the
exception that escaped main), stdout and stderr go to run.txt there.  The
pairemit imported is the one first on sys.path, so running this on the
sources of two checkouts and `diff -r` on the two directories compares
their outputs byte for byte (tools/compare_outputs.py does so, with the
quadrature results compared within their error columns).  A case whose
arguments the imported pairemit's parser rejects (a flag or command that
an older checkout lacks) is not run: it is listed in OUTDIR/skipped.txt,
which is written on every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from pairemit.cli import _parser, main

# sweep ranges of the four sweep parameters
SWEEPS = {
    "r": (),
    "delta": ("--sweep-min", "1e-4", "--sweep-max", "1e-2"),
    "ec": ("--sweep-min", "3e-4", "--sweep-max", "3e-2"),
    "w": ("--sweep-min", "0.5", "--sweep-max", "4"),
}


def bases(n: int = 5) -> dict[str, list[str]]:
    """The defaults, then n bases over the closed_form_maps ranges."""
    rng = np.random.default_rng(2024)
    out = {"default": []}
    for i in range(n):
        delta, ec = 10.0 ** rng.uniform(-3.0, -2.0, 2)
        w = rng.uniform(0.8, 2.0)
        r = 10.0 ** rng.uniform(math.log10(50.0), 3.0)
        out[f"seed{i}"] = ["--delta", repr(float(delta)),
                           "--ec", repr(float(ec)), "--w", repr(float(w)),
                           "--r", repr(float(r))]
    return out


def cases() -> dict[str, list[str]]:
    """Case directory -> CLI arguments."""
    out = {}
    for name, flags in bases().items():
        out[f"{name}/fig3"] = ["fig3", *flags, "--output", "fig3"]
        out[f"{name}/peak"] = ["peak", *flags, "--output", "peak.csv"]
        for param, ends in SWEEPS.items():
            out[f"{name}/sweep_{param}"] = [
                "sweep", *flags, "--sweep-param", param, *ends,
                "--output", f"sweep_{param}.csv"]
    # the ec panel's Hankel factor overflows (exit 2)
    out["overflow/fig3"] = ["fig3", "--delta", "0.05", "--w", "200",
                            "--output", "fig3"]
    # the point overflows, as does every value of the r map (exit 2)
    out["overflow/peak"] = ["peak", "--delta", "0.05", "--w", "200",
                            "--output", "peak.csv"]
    out["bad_r/peak"] = ["peak", "--r", "-1", "--output", "peak.csv"]
    # a log grid's end is not positive (exit 2)
    out["bad_range/sweep"] = ["sweep", "--sweep-max", "-5", "--output",
                              "sweep.csv"]
    # a negative value in scientific notation reaches the check (exit 2)
    out["bad_sign/params"] = ["params", "--delta", "-1e-3", "--output",
                              "params.json"]
    out["bad_sign/sweep"] = ["sweep", "--sweep-min", "-1e-3", "--output",
                             "sweep.csv"]
    # run() makes `blocked` a file, so the output cannot be written
    out["unwritable/fig3"] = ["fig3", "--output", "blocked/fig3"]
    # the output path names a directory, not a file (exit 2)
    out["empty_name/params"] = ["params", "--output", "."]
    out["empty_name/fig3"] = ["fig3", "--output", "."]
    # the quadrature route: Q and its error estimate
    for r in ("100", "1000"):
        out[f"quadrature/classify_r{r}"] = [
            "classify", "--r", r, "--theta", repr(math.pi), "--rel-tol",
            "0.03", "--output", "classify.json"]
    # ... and at the tolerance a user runs, the CLI's default rel_tol
    for name, theta in (("pi", repr(math.pi)), ("2.5", "2.5"),
                        ("0.3", "0.3")):
        out[f"quadrature/classify_r100_default_theta{name}"] = [
            "classify", "--r", "100", "--theta", theta, "--output",
            "classify.json"]
    out["quadrature/angular"] = ["angular", "--theta-points", "5",
                                 "--rel-tol", "0.03", "--output",
                                 "angular.csv"]
    return out


def accepted(argv: list[str]) -> bool:
    """Whether the imported pairemit's command line takes argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            _parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def run(outdir: Path) -> None:
    home = Path.cwd()
    skipped = []
    for case, argv in cases().items():
        if not accepted(argv):
            skipped.append(case)
            continue
        where = outdir / case
        where.mkdir(parents=True, exist_ok=True)
        if "blocked/" in argv[-1]:
            (where / "blocked").write_text("")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(where)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:        # a traceback from the command line
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            os.chdir(home)
        (where / "run.txt").write_text(
            f"argv: {' '.join(argv)}\nexit: {rc}\n--- stdout\n"
            f"{out.getvalue()}--- stderr\n{err.getvalue()}")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "skipped.txt").write_text("".join(f"{c}\n" for c in skipped))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(Path(sys.argv[1]).resolve())
