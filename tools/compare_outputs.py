#!/usr/bin/env python3
"""Compare two directories written by tools/cli_outputs.py.

    python tools/compare_outputs.py A B [--changed CASE ...]

Passes (exit 0) when
- every closed-form dataset (the CSV and .meta.json files of fig3, peak and
  sweep) is byte-equal in A and B once the code version and the
  configuration hashes are masked: the `version` and `config_hash` keys of
  a .meta.json, and the `config_hash` and `version` columns of a CSV;
- every `classify` Q and every `angular` Q (normal and superconducting)
  differs between A and B by no more than the sum of their two error
  columns (`Q_err_est`; `err_normal`, `err_super`), and what `classify`
  reads off its point is equal: `geometry`, `regime_flags` and
  `werner.classification`;
- every case exits as it did in the other directory and writes the same
  stderr, and every closed-form case the same stdout (a quadrature case's
  stdout prints Q, which is compared in its output file instead);
- except the cases named with --changed, whose behaviour is meant to
  differ: their files are listed, not compared.

The .meta.json of an `angular` dataset is compared like a closed-form one.
Every difference is printed, and so is every masked field that differs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from pathlib import Path

MASKED_KEYS = ("version", "config_hash")
MASKED_COLUMNS = ("config_hash", "version")
QUAD_COLUMNS = (("Q_normal", "err_normal"), ("Q_super", "err_super"))


def _run_parts(run: Path) -> dict:
    """The exit line, stdout and stderr that a case's run.txt records."""
    m = re.search(r"^exit: ([^\n]*)\n--- stdout\n(.*?)--- stderr\n(.*)\Z",
                  run.read_text(), re.M | re.S)
    return dict(zip(("exit", "stdout", "stderr"),
                    m.groups() if m else ("?", "?", "?")))


def _first_difference(ta: str, tb: str) -> str:
    """The first line, with its end, in which two different texts differ
    (None past the end of one)."""
    la, lb = next((la, lb) for la, lb in itertools.zip_longest(
        ta.splitlines(True), tb.splitlines(True)) if la != lb)
    return f"{la!r} against {lb!r}"


def _classified(doc: dict) -> dict:
    """What `classify` reads off its point, compared exactly."""
    return {"geometry": doc.get("geometry"),
            "regime_flags": doc.get("regime_flags"),
            "werner.classification":
                doc.get("werner", {}).get("classification")}


def _masked_csv(text: str) -> tuple[list[list[str]], set[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return rows, set()
    keep = [i for i, name in enumerate(rows[0]) if name not in MASKED_COLUMNS]
    masked = {name for name in rows[0] if name in MASKED_COLUMNS}
    return [[row[i] for i in keep] for row in rows], masked


def _masked_meta(text: str) -> tuple[dict, dict]:
    meta = json.loads(text)
    return ({k: v for k, v in meta.items() if k not in MASKED_KEYS},
            {k: meta.get(k) for k in MASKED_KEYS})


def _quadrature(path: Path, a: Path, b: Path, problems: list) -> None:
    """Q within the sum of the two error columns (classify and angular),
    classify's other readings equal."""
    if path.suffix == ".json":
        qa, qb = (json.loads((d / path).read_text()) for d in (a, b))
        pairs = [(qa["Q"], qa["Q_err_est"], qb["Q"], qb["Q_err_est"])]
        ca, cb = _classified(qa), _classified(qb)
        problems.extend(f"{path}: {k} {ca[k]!r} against {cb[k]!r}"
                        for k in ca if ca[k] != cb[k])
    else:
        ra, rb = (list(csv.DictReader(io.StringIO((d / path).read_text())))
                  for d in (a, b))
        if len(ra) != len(rb):
            problems.append(f"{path}: {len(ra)} rows against {len(rb)}")
            return
        pairs = [(float(x[q]), float(x[e]), float(y[q]), float(y[e]))
                 for x, y in zip(ra, rb) for q, e in QUAD_COLUMNS]
    for qa, ea, qb, eb in pairs:
        qa, ea, qb, eb = map(float, (qa, ea, qb, eb))
        if abs(qa - qb) > ea + eb:
            problems.append(f"{path}: Q {qa!r} against {qb!r}, apart by more "
                            f"than the error columns {ea!r} + {eb!r}")
        else:
            print(f"ok   {path}: Q {qa:.10g} against {qb:.10g}, "
                  f"|dQ| = {abs(qa - qb):.3g} <= {ea + eb:.3g}")


def compare(a: Path, b: Path, changed: set[str]) -> list[str]:
    problems: list[str] = []
    cases = sorted({p.parent.relative_to(a) for p in a.rglob("run.txt")}
                   | {p.parent.relative_to(b) for p in b.rglob("run.txt")})
    for case in cases:
        runs = [d / case / "run.txt" for d in (a, b)]
        if not all(r.exists() for r in runs):
            problems.append(f"{case}: run in one directory only")
            continue
        parts = [_run_parts(r) for r in runs]
        exits = [p["exit"] for p in parts]
        files = [{p.relative_to(d) for p in (d / case).rglob("*")
                  if p.is_file() and p.name != "run.txt"} for d in (a, b)]
        if str(case) in changed:
            print(f"changed {case}: exit {exits[0]} -> {exits[1]}; files "
                  f"{sorted(map(str, files[0]))} -> "
                  f"{sorted(map(str, files[1]))}")
            continue
        if exits[0] != exits[1]:
            problems.append(f"{case}: exit {exits[0]} against {exits[1]}")
        streams = ["stderr"] if case.parts[0] == "quadrature" \
            else ["stdout", "stderr"]
        problems.extend(
            f"{case}/run.txt: {s} differs, first at " + _first_difference(
                parts[0][s], parts[1][s])
            for s in streams if parts[0][s] != parts[1][s])
        for only, d in ((files[0] - files[1], a), (files[1] - files[0], b)):
            for p in sorted(only):
                problems.append(f"{p}: only in {d}")
        for path in sorted(files[0] & files[1]):
            ta, tb = ((d / path).read_text() for d in (a, b))
            if path.name.endswith(".meta.json"):
                (ma, ka), (mb, kb) = _masked_meta(ta), _masked_meta(tb)
                if ma != mb:
                    problems.append(f"{path}: differs outside {MASKED_KEYS}")
                elif ka != kb:
                    print(f"masked {path}: " + ", ".join(
                        f"{k} {ka[k]} -> {kb[k]}" for k in MASKED_KEYS
                        if ka[k] != kb[k]))
            elif path.parts[0] == "quadrature":     # classify.json, Q rows
                _quadrature(path, a, b, problems)
            elif path.suffix == ".csv":
                (ca, na), (cb, _) = _masked_csv(ta), _masked_csv(tb)
                if ca != cb:
                    problems.append(f"{path}: differs outside the columns "
                                    f"{MASKED_COLUMNS}")
                elif ta != tb:
                    print(f"masked {path}: columns {sorted(na)}")
            elif ta != tb:
                problems.append(f"{path}: differs")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--changed", action="append", default=[],
                        metavar="CASE",
                        help="a case (e.g. empty_name/fig3) whose behaviour "
                             "is meant to differ")
    args = parser.parse_args(argv)
    problems = compare(args.a, args.b, set(args.changed))
    for p in problems:
        print(f"FAIL {p}")
    print(f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
