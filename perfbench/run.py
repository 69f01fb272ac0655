#!/usr/bin/env python3
"""Layered benchmark of pairemit: seeded workloads, end-to-end metrics,
and a traced run for the per-layer numbers.

    python3 perfbench/run.py --workload all --seed 0 --seconds 35

runs every workload, one after the other, each in a child process of its
own (so that its peak memory is its own), and prints each metric with its
unit and sample count.  ``--workload <name>`` runs one in this process;
``--trace 1`` reports the per-layer metrics instead of the end-to-end ones.
Times are wall seconds divided by the host's slowdown, which a reference
workload measures alongside.  The last line of standard output is one JSON
object (correct, attempted, failed, metrics).
A record of each run, with its context, goes to ``perfbench/results/``,
and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sc_backtoback", "normal_angular", "closed_form_maps")
SETUP_REPEATS = 15

# one fresh interpreter: import the package and warm its kernels up
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import pairemit
from pairemit import kernels
kernels.warmup()
print(time.perf_counter() - t0)
"""


# The host's speed: a fixed piece of NumPy and interpreter work that does
# not touch pairemit, run in slices between points.  The CPUs of a shared
# host drop to as little as half speed for minutes at a time while its
# other tenants are busy, and the same point's time moves with them; the
# slices see the same spells.  REF_ITER_S is the time of one iteration on
# an idle 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz base) host.
REF_ITER_S = 3.6e-5
REF_SLICE = 40              # iterations per slice, about 1.5 ms
REF_SHARE = 0.1             # slice time per unit of point time
# a point's slowdown is that of the slices run from REF_AROUND seconds
# before it starts to REF_AROUND seconds after it ends
REF_AROUND = 3.0


def slowdown_of(slices: list[float]) -> float:
    """Time of the given reference slices over their idle-host time."""
    return sum(slices) / (len(slices) * REF_SLICE * REF_ITER_S)


def reference_slice() -> float:
    """Seconds of one slice of the reference work."""
    import numpy as np
    x = np.linspace(0.1, 1.0, 729)
    t = time.perf_counter()
    for _ in range(REF_SLICE):
        a = np.sqrt(1.0 + x)
        b = np.sqrt(1.0 - 0.5 * x)
        y = np.exp(-0.5 * (a * a + b * b)) * np.exp(1j * (3.0 * a + 2.0 * b))
        s = complex(y.sum())
        for j in range(20):
            s = 0.5 * s + math.cos(0.1 * j)
    return time.perf_counter() - t


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import pairemit from this checkout's src/ and nowhere else."""
    if not (SRC / "pairemit" / "__init__.py").is_file():
        _die(f"no pairemit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import pairemit
    if Path(pairemit.__file__).resolve().parent != SRC / "pairemit":
        _die(f"imported pairemit from {pairemit.__file__}, not {SRC}")


def setup_probe() -> float:
    """Seconds to import pairemit and warm its kernels in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    """HEAD commit of the checkout; 'unknown' outside a git repository
    (git is kept from looking above the checkout)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def context(seed: int) -> dict:
    import numpy as np
    from pairemit import kernels
    return {
        "git_revision": git_revision(),
        "backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running points
# ---------------------------------------------------------------------------

def run_points(wl, inputs, budget: float, n_probes: int = 0
               ) -> tuple[list[dict], list[tuple[float, float]], float]:
    """Run points until the time budget is spent.

    ``inputs`` yields blocks.  The first block always runs in full; after
    it, a point is started only if the time spent plus the mean point time
    so far fits the budget (points within a block are in random order, so a
    partial last block is a random subset of it).  ``n_probes`` set-up
    probes are spread evenly over the run, between points, so that they
    meet the same spells of machine speed as the points; their time is left
    out of the budget.  After each point, reference slices run until their
    time is REF_SHARE of the point time so far; each record holds the
    slowdown of the slices around its point.  Times are wall seconds
    (process CPU time would count the spinning of OpenBLAS's idle worker
    threads).  Returns the point records, each probe's time and the
    slowdown around it, and the host's slowdown over the whole run.
    """
    records: list[dict] = []
    probes: list[tuple[float, float]] = []     # (start, seconds)
    ends: list[float] = []          # when each reference slice ended
    slices: list[float] = []        # and how long it took
    work = ref = 0.0
    t0 = time.perf_counter()
    paused = 0.0
    for inp in (inp for block in inputs for inp in block):
        elapsed = time.perf_counter() - t0 - paused
        if len(records) >= wl.block_size \
                and elapsed + elapsed / len(records) > budget:
            break
        while len(probes) < n_probes \
                and elapsed >= len(probes) * budget / n_probes:
            t = time.perf_counter()
            probes.append((t, setup_probe()))
            paused += time.perf_counter() - t
        t = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:
            # NonConvergenceError, UndefinedQError or any other raise:
            # a failed point, counted by the gate; the run goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t
        if "error" not in out:
            out = wl.collect(inp, out)
        records.append({"inputs": inp, "out": out, "seconds": dt,
                        "start": t})
        work += dt
        while ref < REF_SHARE * work:
            slices.append(reference_slice())
            ends.append(time.perf_counter())
            ref += slices[-1]
    while len(probes) < n_probes:
        probes.append((time.perf_counter(), setup_probe()))

    def around(t: float, dt: float) -> float:
        near = slices[bisect.bisect_left(ends, t - REF_AROUND):
                      bisect.bisect_right(ends, t + dt + REF_AROUND)]
        return slowdown_of(near or slices)

    for rec in records:
        rec["slowdown"] = around(rec.pop("start"), rec["seconds"])
    return records, [(dt, around(t, dt)) for t, dt in probes], \
        slowdown_of(slices)


def check_records(wl, seed: int, records: list[dict], refs: dict) -> None:
    """Attach the failure reasons of every record (an empty list passes)."""
    import gate as g
    from pairemit import peak

    entry = refs.get(wl.name, {})
    tol = entry.get("tolerance_rel", 0.0)
    values = entry.get("values", []) if seed == g.DEFAULT_SEED else []

    def closed_form_q(r: float) -> float:
        return 1.0 + peak.delta_q_peak(wl.params(), r).delta_q

    for i, rec in enumerate(records):
        known = values[i] if i < len(values) else None
        if wl.name == "closed_form_maps":
            rec["failures"] = g.check_closed_form(
                i, rec["inputs"], rec["out"], known, tol)
        else:
            rec["failures"] = g.check_quadrature(
                wl.name, rec["inputs"], rec["out"], known, tol,
                closed_form_q)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(records: list[dict], setup: list[tuple[float, float]],
               slowdown: float) -> dict:
    """Times are divided by the host's slowdown around them: the time on
    an idle host.  The measured times are kept under ``wall.``."""
    times = sorted(r["seconds"] / r["slowdown"] for r in records)
    n = len(times)
    failed = sum(bool(r["failures"]) for r in records)
    m = {
        "setup_s": _metric(statistics.median(t / s for t, s in setup), "s",
                           len(setup)),
        "points_per_s": _metric(n / sum(times), "1/s", n),
        "point_s_p50": _metric(statistics.median(times), "s", n),
    }
    if n >= 100:
        m["point_s_p90"] = _metric(statistics.quantiles(times, n=10)[-1],
                                   "s", n)
    m["failed_frac"] = _metric(failed / n, "1", n)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["peak_rss_mb"] = _metric(rss, "MB", 1)
    m["host.slowdown"] = _metric(slowdown, "1", n)
    m["wall.setup_s"] = _metric(statistics.median(t for t, _ in setup), "s",
                                len(setup))
    m["wall.point_s_p50"] = _metric(
        statistics.median(r["seconds"] for r in records), "s", n)
    return m


def idle_seconds(records: list[dict]) -> float:
    return sum(r["seconds"] / r["slowdown"] for r in records)


def per_layer(tracer, records: list[dict], overhead: float) -> dict:
    from tracer import layer_metrics
    m = {k: _metric(v, u, len(records))
         for k, (v, u) in layer_metrics(tracer).items()}
    rel = [r["out"]["q_err"] / abs(r["out"]["Q"]) for r in records
           if "q_err" in r["out"] and r["out"]["Q"]]
    m["correlations.q_err_rel_p50"] = _metric(
        statistics.median(rel) if rel else 0.0, "1", len(rel))
    m["trace.overhead_frac"] = _metric(overhead, "1", 2)
    return m


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict) -> dict:
    import workloads
    from tracer import Tracer

    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    try:
        wl = workloads.WORKLOADS[name](work_dir)
        stream = workloads.blocks(wl, seed)
        budget = seconds / 2.0 if trace else seconds
        records, setup, slowdown = run_points(
            wl, stream, budget, 0 if trace else SETUP_REPEATS)
        result = {"workload": name, **context(seed), "trace": int(trace)}
        if trace:
            # the same points again, traced; the ratio of the two runs'
            # point times, each at idle-host speed, is the tracing overhead
            inputs = [r["inputs"] for r in records]
            tracer = Tracer()
            with tracer.installed():
                traced, _, _ = run_points(wl, iter([inputs]), math.inf)
            overhead = idle_seconds(traced) / idle_seconds(records) - 1.0
            # one spans file per workload: the latest traced run's
            tracer.save(RESULTS / f"{name}.spans.npz")
            for recs in (records, traced):
                check_records(wl, seed, recs, refs)
            records = records + traced
            metrics = per_layer(tracer, traced, overhead)
            result["absent"] = tracer.absent
        else:
            check_records(wl, seed, records, refs)
            metrics = end_to_end(records, setup, slowdown)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures = [{"point": i, "inputs": r["inputs"], "reasons": r["failures"]}
                for i, r in enumerate(records) if r["failures"]]
    result.update({
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures[:20],
        "points": [{k: r[k] for k in ("inputs", "seconds", "slowdown")}
                   for r in records],
    })
    return result


def print_report(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"backend {res['backend']}  nproc {res['nproc']}  "
          f"rev {res['git_revision'][:12]}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40s} {m['value']:>14.6g} {m['unit']:<6s} "
              f"(n={m['samples']})")
    print(f"  attempted {res['attempted']}  failed {res['failed']}")
    for f in res["failures"]:
        print(f"  FAILED point {f['point']} {f['inputs']}: "
              f"{'; '.join(f['reasons'])}")
    for name in res.get("absent", []):
        print(f"  absent (not traced): {name}")


def contract_metrics(res: dict) -> dict:
    """Metrics of the final JSON line: those BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in
             spec["per_layer" if res["trace"] else "end_to_end"]]
    return {k: {"value": res["metrics"][k]["value"],
                "unit": res["metrics"][k]["unit"]} for k in names}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    _import_program()
    import gate
    from pairemit import kernels

    kernels.warmup()
    RESULTS.mkdir(exist_ok=True)
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), gate.load_references())
    print_report(res)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": contract_metrics(res),
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child process of its own; one
    combined JSON line with the metrics named ``<workload>.<metric>``."""
    lines = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        lines.append((name, json.loads(out[-1])))
    failed = sum(r["failed"] for _, r in lines)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for _, r in lines),
        "failed": failed,
        "metrics": {f"{name}.{k}": v for name, r in lines
                    for k, v in r["metrics"].items()},
    }))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
