#!/usr/bin/env python3
"""Compare two directories written by tools/cli_outputs.py.

    python tools/compare_outputs.py A B [--changed CASE[:NAME,...] ...]

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
- except the cases that A did not run because its command line rejects
  their arguments (listed in A/skipped.txt): such a case, new in B, is
  reported and not compared;
- except what --changed names as meant to differ.  `--changed CASE:NAME,...`
  masks, in that case only, the named CSV columns and JSON fields (a
  dotted name such as `regime_flags.kfr_large` reaches into a nested
  object) of the .meta.json, CSV and classify.json files, as `version` and
  `config_hash` are masked, and compares everything else; `--changed CASE`
  alone lists the case's files and compares none of them.  CASE is an
  fnmatch pattern (`*` also matches `/`): `*:thresholds.Q_bell` masks that
  field in every case.

The .meta.json of an `angular` dataset is compared like a closed-form one.
Every difference is printed, and so is every masked field that differs.
Every number of a quadrature case's classify.json and angular.csv that
differs at all between A and B, within its error columns or masked, is
printed with both values and counted in the summary line, so that the log
shows whether any output bit moved; it does not fail the comparison.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from collections.abc import Collection
from fnmatch import fnmatchcase
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


def _masked_csv(text: str, columns: Collection[str]
                ) -> tuple[list[list[str]], set[str]]:
    """The rows without the given columns, and the names of those present."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return rows, set()
    keep = [i for i, name in enumerate(rows[0]) if name not in columns]
    masked = {name for name in rows[0] if name in columns}
    return [[row[i] for i in keep] for row in rows], masked


def _masked_json(text: str, keys: Collection[str]) -> tuple[dict, dict]:
    """The document without the given keys (a dotted key reaches into
    nested objects), and each key's value (None where it is absent)."""
    rest = json.loads(text)
    values = {}
    for key in keys:
        *outer, last = key.split(".")
        node = rest
        for part in outer:
            node = node.get(part) if isinstance(node, dict) else None
        values[key] = node.pop(last, None) if isinstance(node, dict) else None
    return rest, values


def _numbers(path: Path, text: str) -> dict[str, str]:
    """Every number of a classify.json (by its dotted key) or of a CSV (as
    `column[row]`, rows from 0), each as written: two are the same number
    exactly when they are written alike."""
    if path.suffix == ".json":
        numbers, todo = {}, [("", json.loads(text))]
        while todo:
            prefix, node = todo.pop()
            for key, value in node.items():
                if isinstance(value, dict):
                    todo.append((f"{prefix}{key}.", value))
                elif isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    numbers[prefix + key] = repr(value)
        return numbers
    numbers = {}
    for i, row in enumerate(csv.DictReader(io.StringIO(text))):
        for column, value in row.items():
            try:
                float(value)
            except (TypeError, ValueError):
                continue
            numbers[f"{column}[{i}]"] = value
    return numbers


def _moved(path: Path, ta: str, tb: str) -> int:
    """Print each number of a quadrature output that differs between its
    texts in A and B at all, with both values; return how many did."""
    na, nb = _numbers(path, ta), _numbers(path, tb)
    moved = sorted(k for k in na.keys() & nb.keys() if na[k] != nb[k])
    for k in moved:
        print(f"moved {path}: {k} {na[k]} -> {nb[k]}")
    return len(moved)


def _quadrature(path: Path, a: Path, b: Path, masked: set[str],
                problems: list) -> None:
    """Q within the sum of the two error columns (classify and angular),
    classify's other readings equal; the masked names are left out."""
    if path.suffix == ".json":
        qa, qb = (_masked_json((d / path).read_text(), masked)[0]
                  for d in (a, b))
        pairs = [] if {"Q", "Q_err_est"} & masked else \
            [(qa["Q"], qa["Q_err_est"], qb["Q"], qb["Q_err_est"])]
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
                 for x, y in zip(ra, rb) for q, e in QUAD_COLUMNS
                 if not {q, e} & masked]
    for qa, ea, qb, eb in pairs:
        qa, ea, qb, eb = map(float, (qa, ea, qb, eb))
        if abs(qa - qb) > ea + eb:
            problems.append(f"{path}: Q {qa!r} against {qb!r}, apart by more "
                            f"than the error columns {ea!r} + {eb!r}")
        else:
            print(f"ok   {path}: Q {qa:.10g} against {qb:.10g}, "
                  f"|dQ| = {abs(qa - qb):.3g} <= {ea + eb:.3g}")


def compare(a: Path, b: Path, changed: set[str],
            fields: dict[str, set[str]]) -> tuple[list[str], int]:
    """Every difference between A and B outside the cases that a pattern
    in changed matches and the names that fields gives a matching case
    pattern, and how many numbers of the compared quadrature outputs
    moved."""
    problems: list[str] = []
    moved = 0
    cases = sorted({p.parent.relative_to(a) for p in a.rglob("run.txt")}
                   | {p.parent.relative_to(b) for p in b.rglob("run.txt")})
    skipped = a / "skipped.txt"
    new = set(skipped.read_text().split()) if skipped.exists() else set()
    for case in cases:
        runs = [d / case / "run.txt" for d in (a, b)]
        if str(case) in new and not runs[0].exists():
            print(f"new  {case}: A's command line rejects its arguments")
            continue
        if not all(r.exists() for r in runs):
            problems.append(f"{case}: run in one directory only")
            continue
        parts = [_run_parts(r) for r in runs]
        exits = [p["exit"] for p in parts]
        files = [{p.relative_to(d) for p in (d / case).rglob("*")
                  if p.is_file() and p.name != "run.txt"} for d in (a, b)]
        if any(fnmatchcase(str(case), p) for p in changed):
            print(f"changed {case}: exit {exits[0]} -> {exits[1]}; files "
                  f"{sorted(map(str, files[0]))} -> "
                  f"{sorted(map(str, files[1]))}")
            continue
        named = set().union(*(names for p, names in fields.items()
                               if fnmatchcase(str(case), p)))
        if named:
            print(f"changed {case}: masking {sorted(named)}")
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
                keys = (*MASKED_KEYS, *sorted(named))
                (ma, ka), (mb, kb) = (_masked_json(t, keys) for t in (ta, tb))
                if ma != mb:
                    problems.append(f"{path}: differs outside {keys}")
                elif ka != kb:
                    print(f"masked {path}: " + ", ".join(
                        f"{k} {ka[k]} -> {kb[k]}" for k in keys
                        if ka[k] != kb[k]))
            elif path.parts[0] == "quadrature":     # classify.json, Q rows
                _quadrature(path, a, b, named, problems)
                moved += _moved(path, ta, tb)
            elif path.suffix == ".csv":
                columns = (*MASKED_COLUMNS, *sorted(named))
                (ca, na), (cb, _) = (_masked_csv(t, columns)
                                     for t in (ta, tb))
                if ca != cb:
                    problems.append(f"{path}: differs outside the columns "
                                    f"{columns}")
                elif ta != tb:
                    print(f"masked {path}: columns {sorted(na)}")
            elif ta != tb:
                problems.append(f"{path}: differs")
    return problems, moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--changed", action="append", default=[],
                        metavar="CASE[:NAME,...]",
                        help="a case (e.g. empty_name/fig3) whose behaviour "
                             "is meant to differ, or the CSV columns and "
                             "JSON fields of a case that are meant to "
                             "differ (e.g. default/fig3:regime_ok); CASE is "
                             "an fnmatch pattern (e.g. '*:thresholds.Q_bell')")
    args = parser.parse_args(argv)
    changed, fields = set(), {}
    for spec in args.changed:
        case, _, names = spec.partition(":")
        if names:
            fields.setdefault(case, set()).update(names.split(","))
        else:
            changed.add(case)
    problems, moved = compare(args.a, args.b, changed, fields)
    for p in problems:
        print(f"FAIL {p}")
    print(f"{len(problems)} difference(s), {moved} quadrature number(s) "
          "moved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
