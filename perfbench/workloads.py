"""Seeded workloads: input generation and one timed point of program work.

Each workload draws its inputs from ``--seed`` alone, in blocks.  A block
is stratified over the input ranges the program's cost depends on (detector
distance and angle, or base parameters), so the mix of cheap and expensive
points in a run is the same whatever the seed.  The points of a block come
in random order, so a run that stops inside a block has run a random subset
of it.

The program is always reached through module attributes
(``correlations.rho2_and_Q``, not a name imported here), so the tracer's
patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from pairemit import cli, correlations, entanglement, robustness
from pairemit.model import EmitterParams
from pairemit.quad import QuadSpec

# figure parameters of the paper: |Delta| = E_C = 2.997e-3 mu, w = lambda_F
FIGURE = {"delta": 2.997e-3, "ec": 2.997e-3, "w": 1.0}


def q_error(corr) -> float:
    """Propagated absolute error of Q from the component error estimates."""
    e = corr.err_est
    rel = e.get("gamma11", 0.0) / corr.gamma11 \
        + e.get("gamma22", 0.0) / corr.gamma22
    off = 2.0 * (abs(corr.gamma21) * e.get("gamma21", 0.0)
                 + abs(corr.chi21) * e.get("chi21", 0.0)) \
        / (corr.rho1_1 * corr.rho1_2)
    return abs(corr.Q) * rel + off


def _quad_spec(rel_tol: float) -> QuadSpec:
    # the spec the CLI builds from --rel-tol
    return QuadSpec(rel_tol=rel_tol, abs_tol=1e-300, max_depth=40)


class Workload:
    """One point of program work per input; ``out_dir`` takes CLI output."""

    def __init__(self, out_dir: Path | None = None):
        self.out_dir = out_dir

    def collect(self, inp: dict, out: dict) -> dict:
        """Outputs read back after the timed call (none by default)."""
        return out


class ScBackToBack(Workload):
    """Superconducting emitter near back-to-back detectors (classify)."""

    name = "sc_backtoback"
    block_size = 4
    # ~1.5 s a point, so a run holds ~20 of them; at the CLI default 1e-3
    # one point takes ~20 s.  Q moves by ~5e-5 between the two.
    rel_tol = 0.03

    def block(self, rng: np.random.Generator) -> list[dict]:
        n = self.block_size
        rs = 100.0 + 50.0 * (rng.permutation(n) + rng.random(n)) / n
        # one exact back-to-back point per block, the rest stratified
        # over [pi - 0.35, pi)
        off = 0.35 * (np.arange(n - 1, 0, -1) - rng.random(n - 1)) / (n - 1)
        thetas = rng.permutation(np.concatenate(([math.pi], math.pi - off)))
        return [{"r": float(r), "theta": float(t)}
                for r, t in zip(rs, thetas)]

    def params(self) -> EmitterParams:
        return EmitterParams(FIGURE["delta"], FIGURE["ec"], FIGURE["w"])

    def correlate(self, inp: dict, rel_tol: float | None):
        geom = correlations.DetectorGeometry.from_r_theta(inp["r"],
                                                          inp["theta"])
        return correlations.rho2_and_Q(geom, self.params(),
                                       _quad_spec(rel_tol or self.rel_tol))

    def run(self, inp: dict, rel_tol: float | None = None) -> dict:
        corr = self.correlate(inp, rel_tol)
        rep = entanglement.werner_decompose(corr)
        return {"Q": corr.Q, "q_err": q_error(corr), "rho2": corr.rho2,
                "werner_norm": 4.0 * rep.a + rep.b}


class NormalAngular(ScBackToBack):
    """Normal emitter, Q(theta) at r = 100 lambda_F (half of `angular`)."""

    name = "normal_angular"
    block_size = 8
    rel_tol = 1e-3          # the CLI default
    r = 100.0

    def block(self, rng: np.random.Generator) -> list[dict]:
        n = self.block_size
        thetas = math.pi * (rng.permutation(n) + rng.random(n)) / n
        return [{"r": self.r, "theta": float(t)} for t in thetas]

    def params(self) -> EmitterParams:
        return EmitterParams(0.0, FIGURE["ec"], FIGURE["w"])

    def run(self, inp: dict, rel_tol: float | None = None) -> dict:
        corr = self.correlate(inp, rel_tol)
        return {"Q": corr.Q, "q_err": q_error(corr)}


class ClosedFormMaps(Workload):
    """fig3 and peak through the CLI, plus fluctuation-averaged peaks."""

    name = "closed_form_maps"
    block_size = 1
    peak_rows = 60          # CLI default sweep_points of `pairemit peak`
    fig3_rows = 4 * 60      # four panels of fig3_points each

    def block(self, rng: np.random.Generator) -> list[dict]:
        w = float(rng.uniform(0.8, 2.0))
        return [{
            "delta": float(10.0 ** rng.uniform(-3.0, -2.0)),
            "ec": float(10.0 ** rng.uniform(-3.0, -2.0)),
            "w": w,
            "r": float(10.0 ** rng.uniform(math.log10(50.0), 3.0)),
            "rows": [int(i) for i in rng.choice(self.peak_rows, 2,
                                                 replace=False)],
            "fluct": [[float(rng.uniform(0.0, 0.1) * w),
                       float(rng.uniform(0.0, 2.0))] for _ in range(2)],
        }]

    @staticmethod
    def params(inp: dict) -> EmitterParams:
        return EmitterParams(inp["delta"], inp["ec"], inp["w"])

    def run(self, inp: dict) -> dict:
        base = ["--delta", repr(inp["delta"]), "--ec", repr(inp["ec"]),
                "--w", repr(inp["w"]), "--r", repr(inp["r"])]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = [cli.main(["fig3", *base,
                            "--output", str(self.out_dir / "fig3")]),
                  cli.main(["peak", *base,
                            "--output", str(self.out_dir / "peak.csv")])]
        params = self.params(inp)
        avg = [robustness.averaged_peak(
                   params, inp["r"],
                   robustness.FluctuationSpec(sigma_w=sw, sigma_r0=sr)
               ).delta_q for sw, sr in inp["fluct"]]
        return {"rc": rc, "avg": avg}

    def collect(self, inp: dict, out: dict) -> dict:
        """Read back what the CLI wrote: row counts and the checked rows."""
        if out["rc"] != [0, 0]:
            return out

        def rows(path: Path) -> list[list[str]]:
            lines = path.read_text().splitlines()[1:]
            return [ln.split(",") for ln in lines]

        peak = rows(self.out_dir / "peak.csv")
        out["fig3_rows"] = sum(len(rows(self.out_dir / f"fig3_{p}.csv"))
                               for p in ("delta", "ec", "w", "r"))
        out["peak_rows"] = len(peak)
        out["checked"] = [[float(peak[i][0]), float(peak[i][1]) - 1.0]
                          for i in inp["rows"]]
        return out


WORKLOADS = {w.name: w for w in (ScBackToBack, NormalAngular, ClosedFormMaps)}


def blocks(workload, seed: int):
    """Endless stream of input blocks, a pure function of the seed."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    while True:
        yield workload.block(rng)
