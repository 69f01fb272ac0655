"""Tests of the benchmark harness itself (not of pairemit).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_blocks(name: str, seed: int, n: int = 3) -> list:
    stream = workloads.blocks(workloads.WORKLOADS[name](), seed)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _first_blocks(name, 7) == _first_blocks(name, 7)
    assert _first_blocks(name, 7) != _first_blocks(name, 8)


def test_sc_blocks_hold_one_exact_back_to_back_point():
    for block in _first_blocks("sc_backtoback", 3, 5):
        thetas = [p["theta"] for p in block]
        assert thetas.count(math.pi) == 1
        assert all(math.pi - 0.35 <= t <= math.pi for t in thetas)
        assert all(100.0 <= p["r"] <= 150.0 for p in block)


def _normal_point():
    wl = workloads.NormalAngular()
    inp = _first_blocks("normal_angular", gate.DEFAULT_SEED, 1)[0][0]
    return wl, inp, wl.run(inp)


def test_gate_fails_on_corrupted_q():
    wl, inp, out = _normal_point()
    ref = gate.load_references()["normal_angular"]
    good = gate.check_quadrature(wl.name, inp, out, ref["values"][0],
                                 ref["tolerance_rel"])
    assert good == []
    bad = dict(out, Q=out["Q"] * (1.0 + 10 * ref["tolerance_rel"]))
    assert gate.check_quadrature(wl.name, inp, bad, ref["values"][0],
                                 ref["tolerance_rel"])
    # off the default seed there is no reference; the [1/2, 1] band holds
    assert gate.check_quadrature(wl.name, inp, dict(out, Q=1.1), None, 0.0)
    assert gate.check_quadrature(wl.name, inp, {"error": "boom"}, None, 0.0)


def test_gate_fails_on_corrupted_peak():
    inp = _first_blocks("sc_backtoback", 0, 1)[0][0]
    inp = dict(inp, theta=math.pi)
    q_cf = 1.0 + gate.mp_delta_q(*workloads.FIGURE.values(), inp["r"])
    out = {"Q": 0.92 * q_cf, "q_err": 0.0, "rho2": 1.0, "werner_norm": 1.0}
    assert gate.check_quadrature("sc_backtoback", inp, out, None, 0.0,
                                 lambda r: q_cf) == []
    out["Q"] = 0.7 * q_cf
    assert gate.check_quadrature("sc_backtoback", inp, out, None, 0.0,
                                 lambda r: q_cf)


def test_gate_fails_on_corrupted_closed_form(tmp_path):
    wl = workloads.ClosedFormMaps(tmp_path)
    inp = _first_blocks("closed_form_maps", 5, 1)[0][0]
    out = wl.collect(inp, wl.run(inp))
    assert gate.check_closed_form(0, inp, out, None, 1e-9) == []
    out["checked"][1][1] *= 1.0 + 1e-6
    assert gate.check_closed_form(0, inp, out, None, 1e-9)


def test_tracer_tolerates_missing_names(monkeypatch):
    from pairemit import correlations, quad
    monkeypatch.setattr(tracer_mod, "TRACED", tracer_mod.TRACED + [
        ("pairemit.quad", "integrate_adaptive", "quad.integrate_adaptive"),
        ("pairemit.no_such_module", "f", "none.f"),
    ])
    monkeypatch.delattr(correlations, "integrate_nested")
    monkeypatch.delattr(quad, "integrate_nested")
    tr = tracer_mod.Tracer()
    with tr.installed():
        pass
    assert set(tr.absent) == {
        "pairemit.quad.integrate_nested", "pairemit.quad.integrate_adaptive",
        "pairemit.no_such_module.f", "pairemit.correlations.integrate_nested"}
    assert tracer_mod.layer_metrics(tr)["quad.integrate_1d.calls"][0] == 0


def test_tracer_restores_and_counts():
    from pairemit import kernels, quad
    original = quad.integrate_1d, kernels.gamma_integrand
    wl = workloads.NormalAngular()
    inp = _first_blocks("normal_angular", 1, 1)[0][0]
    tr = tracer_mod.Tracer()
    with tr.installed():
        assert quad.integrate_1d is not original[0]
        wl.run(inp)
    assert (quad.integrate_1d, kernels.gamma_integrand) == original
    m = tracer_mod.layer_metrics(tr)
    assert m["correlations.rho2_and_Q.calls"][0] == 1
    assert m["quad.integrate_1d.panels"][0] > 0
    assert m["kernels.gamma_integrand.nodes"][0] > 0
    assert m["kernels.chi_p.calls"][0] == 0
    assert m["correlations.gamma.busy_s"][0] > 0


def test_reference_workload_stays_outside_the_program():
    import run
    tr = tracer_mod.Tracer()
    with tr.installed():
        t = run.reference_slice()
    assert t > 0 and len(tr.start) == 0
    idle = run.REF_SLICE * run.REF_ITER_S
    assert run.slowdown_of([idle, 3 * idle]) == pytest.approx(2.0)


def test_tolerances_are_stated_in_benchmark_json():
    refs = gate.load_references()
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for name in workloads.WORKLOADS:
        assert f"{refs[name]['tolerance_rel']:g}" in why[name]


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name):
    # a run always completes its first block, however short --seconds is
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.01")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == workloads.WORKLOADS[name].block_size
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    record = json.loads((BENCH / "results" / f"{name}-seed3-trace0.json"
                         ).read_text())
    assert all(p["slowdown"] > 0 for p in record["points"])


@pytest.mark.parametrize("name, check", [
    ("sc_backtoback", lambda m: m["correlations.chi.share"] >= 0.9),
    ("normal_angular", lambda m: m["kernels.chi_p.calls"] == 0),
    ("closed_form_maps", lambda m: m["quad.integrate_1d.calls"] == 0),
])
def test_traced_workload_stresses_its_layer(name, check):
    proc = _run("--workload", name, "--seed", "4", "--seconds", "0.01",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert check({k: v["value"] for k, v in res["metrics"].items()})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "closed_form_maps", "--seconds", "0.01",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
