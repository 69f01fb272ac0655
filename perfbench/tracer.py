"""Outside-in span tracer for the pairemit layers.

The tracer patches the package's public functions from the outside: every
public name under ``pairemit`` that binds a traced function gets a wrapper
in its place, and ``installed()`` puts the originals back.  Private aliases
(``kernels._chi_f``, which ``kernels.chi_p`` calls) stay untraced, so a
span is one call across a layer boundary.  Wrappers take
``*args, **kwargs`` and pass them through unchanged, so they do not depend
on argument lists.  A name that is absent (a module or function a later
version removed) is recorded in ``absent`` and skipped.

Spans are kept in memory as columns (name, start, end, parent, count) and
written out by ``save()`` when the run ends.  ``count`` holds the work a
span did, where the layer has a count: array nodes for a kernel, integrand
panels for ``integrate_1d``, integrand evaluations reported by a
correlator, bytes for ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

KERNELS = ("chi_p", "chi_f", "gamma_integrand")
# the adaptive integrator's entry points, which pairemit.correlations binds
QUAD_ENTRIES = ("integrate_1d", "integrate_nested")

# (module, function, span name) for every traced layer boundary
TRACED = (
    [("pairemit.kernels", k, f"kernels.{k}") for k in KERNELS]
    + [("pairemit.quad", q, f"quad.{q}") for q in QUAD_ENTRIES]
    + [
        ("pairemit.correlations", "rho2_and_Q", "correlations.rho2_and_Q"),
        ("pairemit.specfun", "hankel2_0", "specfun.hankel2_0"),
        ("pairemit.specfun", "bessel_k1", "specfun.bessel_k1"),
        ("pairemit.peak", "delta_q_peak", "peak.delta_q_peak"),
        ("pairemit.peak", "threshold_map", "peak.threshold_map"),
        ("pairemit.robustness", "averaged_peak", "robustness.averaged_peak"),
        ("pairemit.entanglement", "werner_decompose",
         "entanglement.werner_decompose"),
        ("pairemit.cli", "atomic_write", "cli.atomic_write"),
        ("pairemit.cli", "main", "cli.main"),
    ]
)

# Gauss-Kronrod 7/15: nodes per panel the adaptive integrator evaluates
RULE_NODES = 15


def _first_array_size(args) -> int:
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.size)
    return 0


def _str_bytes(args) -> int:
    for a in args:
        if isinstance(a, str):
            return len(a.encode())
    return 0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("d")
        self._stack = [-1]
        self.absent: list[str] = []
        self.nonconverged = 0

    # -- span recording ----------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.count.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrapper recording one span per call of ``fn``.

        ``before(idx, args)`` may return replacement positional arguments;
        ``after(idx, args, out)`` runs once the span is closed.
        """
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                if before is not None:
                    args = before(idx, args)
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, out)
            return out
        return wrapper

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        patches: list[tuple[object, str, object]] = []

        def replace(module, attr, new):
            patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        try:
            for mod_name, fn_name, span in TRACED:
                try:
                    module = importlib.import_module(mod_name)
                    original = getattr(module, fn_name)
                except (ImportError, AttributeError):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self.wrap(original, span, *self._hooks(span))
                for mod in [m for k, m in list(sys.modules.items())
                            if k == "pairemit" or k.startswith("pairemit.")]:
                    for attr, val in list(vars(mod).items()):
                        if val is original and not attr.startswith("_"):
                            replace(mod, attr, wrapper)
            self._wrap_correlators(replace)
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def _hooks(self, span: str):
        """(before, after) hooks that fill a span's count."""
        def set_count(value_of):
            def after(idx, args, out):
                self.count[idx] = value_of(args, out)
            return after

        if span.startswith("kernels."):
            return None, set_count(lambda args, out: _first_array_size(args))
        if span == "cli.atomic_write":
            return None, set_count(lambda args, out: _str_bytes(args))
        if span == "peak.threshold_map":      # grid points of the map
            return None, set_count(
                lambda args, out: len(getattr(out, "values", ())))
        if span == "quad.integrate_1d":
            return self._count_panels, self._count_nonconverged
        return None, None

    def _count_panels(self, idx: int, args: tuple) -> tuple:
        """Hand integrate_1d an integrand that adds its panels to the span."""
        for i, f in enumerate(args):
            if callable(f):
                def counted(xs, *rest, **kw):
                    self.count[idx] += np.size(xs) / RULE_NODES
                    return f(xs, *rest, **kw)
                return args[:i] + (counted,) + args[i + 1:]
        return args

    def _count_nonconverged(self, idx: int, args, out) -> None:
        if getattr(out, "converged", True) is False:
            self.nonconverged += 1

    def _wrap_correlators(self, replace) -> None:
        """Span each quad entry point as pairemit.correlations binds it.

        A correlator span is labelled at its close by the kernel it
        enclosed (``correlations.chi`` or ``correlations.gamma``); its count
        is the ``evaluations`` figure of the QuadResult it returned.
        """
        corr = sys.modules.get("pairemit.correlations")
        if corr is None:
            return
        kernel_ids = {self.intern(f"kernels.{k}"): k for k in KERNELS}
        chi_id = self.intern("correlations.chi")
        gamma_id = self.intern("correlations.gamma")

        def after(idx, args, out) -> None:
            self.count[idx] = float(getattr(out, "evaluations", 0))
            seen = {kernel_ids.get(n) for n in self.name_id[idx + 1:]}
            if "chi_p" in seen or "chi_f" in seen:
                self.name_id[idx] = chi_id
            elif "gamma_integrand" in seen:
                self.name_id[idx] = gamma_id

        for entry in QUAD_ENTRIES:
            fn = getattr(corr, entry, None)
            if fn is None:
                self.absent.append(f"pairemit.correlations.{entry}")
                continue
            replace(corr, entry,
                    self.wrap(fn, f"correlations.{entry}", after=after))

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "count": np.frombuffer(self.count, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans: name -> (value, unit).

    ``busy_s`` is span time including child spans; a layer's self time is
    its span time minus the time of its direct children.
    """
    a = tr.arrays()
    name_id, parent, count = a["name_id"], a["parent"], a["count"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))

    def mask(name: str) -> np.ndarray:
        nid = tr._ids.get(name, -1)
        return name_id == nid

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for k in KERNELS:
        s = mask(f"kernels.{k}")
        nodes, busy = float(count[s].sum()), float(dur[s].sum())
        m[f"kernels.{k}.calls"] = (int(s.sum()), "count")
        m[f"kernels.{k}.nodes"] = (nodes, "count")
        m[f"kernels.{k}.busy_s"] = (busy, "s")
        m[f"kernels.{k}.ns_per_node"] = (per(busy, nodes, 1e9), "ns")

    q1 = mask("quad.integrate_1d")
    quad = q1 | mask("quad.integrate_nested")
    panels = float(count[q1].sum())
    quad_self = float(self_time[quad].sum())
    m["quad.integrate_1d.calls"] = (int(q1.sum()), "count")
    m["quad.integrate_1d.panels"] = (panels, "count")
    m["quad.integrate_1d.nonconverged"] = (tr.nonconverged, "count")
    m["quad.self_s"] = (quad_self, "s")
    m["quad.us_per_panel"] = (per(quad_self, panels, 1e6), "us")

    rq = mask("correlations.rho2_and_Q")
    chi = mask("correlations.chi")
    rq_busy, chi_busy = float(dur[rq].sum()), float(dur[chi].sum())
    m["correlations.rho2_and_Q.calls"] = (int(rq.sum()), "count")
    m["correlations.rho2_and_Q.busy_s"] = (rq_busy, "s")
    m["correlations.gamma.busy_s"] = (
        float(dur[mask("correlations.gamma")].sum()), "s")
    m["correlations.chi.busy_s"] = (chi_busy, "s")
    m["correlations.chi.share"] = (per(chi_busy, rq_busy), "1")
    m["correlations.chi.reported_evals"] = (float(count[chi].sum()), "count")

    for layer, fn in (("specfun", "hankel2_0"), ("specfun", "bessel_k1"),
                      ("robustness", "averaged_peak"),
                      ("entanglement", "werner_decompose")):
        s = mask(f"{layer}.{fn}")
        m[f"{layer}.{fn}.calls"] = (int(s.sum()), "count")
        m[f"{layer}.{fn}.busy_s"] = (float(dur[s].sum()), "s")

    dq = mask("peak.delta_q_peak")
    m["peak.delta_q_peak.calls"] = (int(dq.sum()), "count")
    m["peak.delta_q_peak.us_per_call"] = (
        per(float(dur[dq].sum()), float(dq.sum()), 1e6), "us")
    # useful_ratio: grid points over the delta_q_peak calls made inside
    # threshold_map (the rest are bisection steps).  Spans are stored in
    # opening order, so a span's descendants are the run of spans opened
    # before it ended.
    tm = np.flatnonzero(mask("peak.threshold_map"))
    dq_before = np.concatenate(([0], np.cumsum(dq)))
    inside = sum(int(dq_before[np.searchsorted(a["start"], a["end"][i])]
                     - dq_before[i + 1]) for i in tm)
    m["peak.threshold_map.calls"] = (len(tm), "count")
    m["peak.threshold_map.useful_ratio"] = (
        per(float(count[tm].sum()), inside), "1")

    aw = mask("cli.atomic_write")
    m["cli.atomic_write.calls"] = (int(aw.sum()), "count")
    m["cli.atomic_write.bytes"] = (float(count[aw].sum()), "B")
    m["cli.atomic_write.busy_s"] = (float(dur[aw].sum()), "s")
    return m
