import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairemit.quad import (QuadResult, QuadSpec, integrate_1d,
                           integrate_batch, integrate_nested)


class TestIntegrate1D:
    def test_error_contract(self):
        res = integrate_1d(lambda x: np.sin(7 * x) ** 2, 0.0, 3.0,
                           QuadSpec(rel_tol=1e-9))
        assert res.converged
        assert res.err_est <= max(1e-14, 1e-9 * abs(res.value))

    def test_nonconvergence_reported_not_silent(self):
        # |x|^(-1/2)-type endpoint with a depth budget too small to resolve
        spec = QuadSpec(rel_tol=1e-12, max_depth=3)
        res = integrate_1d(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                           0.0, 1.0, spec)
        assert not res.converged

    def test_additivity(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        spec = QuadSpec(rel_tol=1e-11)
        whole = integrate_1d(f, 0.0, 2.0, spec)
        left = integrate_1d(f, 0.0, 0.7, spec)
        right = integrate_1d(f, 0.7, 2.0, spec)
        assert abs(whole.value - (left.value + right.value)) <= \
            whole.err_est + left.err_est + right.err_est + 1e-13

    def test_determinism(self):
        f = lambda x: np.cos(17 * x) / (1.0 + x * x)
        a = integrate_1d(f, 0.0, 5.0, QuadSpec(rel_tol=1e-10))
        b = integrate_1d(f, 0.0, 5.0, QuadSpec(rel_tol=1e-10))
        assert a.value == b.value           # bitwise
        assert a.err_est == b.err_est

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, math.inf)

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            QuadSpec(rel_tol=1e-14)


class TestIntegrateNested:
    def test_separable_2d(self):
        res = integrate_nested(lambda x, ys: x * ys, [(0, 1), (0, 1)])
        assert res.converged
        assert res.value.real == pytest.approx(0.25, rel=1e-10)

    def test_gaussian_r2(self):
        res = integrate_nested(
            lambda x, ys: np.exp(-(x * x + ys * ys) / 2.0),
            [(-5.0, 5.0), (-5.0, 5.0)])
        assert res.converged
        want = 2.0 * math.pi * math.erf(5.0 / math.sqrt(2.0)) ** 2
        assert res.value.real == pytest.approx(want, rel=1e-8)

    def test_spherical_gaussian_3d(self):
        res = integrate_nested(
            lambda r, ct, phis: np.exp(-r * r) * r * r * np.ones_like(phis),
            [(0, 4), (-1, 1), (0, 2 * math.pi)])
        assert res.converged
        # 4 pi int_0^4 r^2 e^{-r^2} dr
        want = 4.0 * math.pi * (math.sqrt(math.pi) / 4.0 * math.erf(4.0)
                                - 2.0 * math.exp(-16.0))
        assert res.value.real == pytest.approx(want, rel=1e-8)

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            integrate_nested(lambda *a: a[-1], [(0, 1)] * 6)

    def test_inner_nonconvergence_dimension_index(self):
        spec = QuadSpec(rel_tol=1e-12, max_depth=2)
        res = integrate_nested(
            lambda x, ys: 1.0 / np.sqrt(np.abs(ys - 0.3) + 1e-14) * (1 + x),
            [(0, 1), (0, 1)], spec)
        assert not res.converged
        assert res.fail_dim == 1


def _family(x, freq, kind, kink):
    """Test integrands: smooth (kind 0), complex wave (1), kinked (2)."""
    smooth = np.cos(freq * x) * np.exp(-x)
    wave = np.exp(1j * freq * x) / (1.0 + x * x)
    kinked = np.sqrt(np.abs(x - kink))
    return np.where(kind == 0, smooth, np.where(kind == 1, wave, kinked))


def _batch_integrand(lines):
    """f(xs, owner) of integrate_batch over lines (freq, kind, kink, a, b)."""
    freq, kind, kink = (np.array(col) for col in list(zip(*lines))[:3])

    def f(xs, owner):
        j = 0 if owner is None else owner
        return _family(xs, freq[j], kind[j], kink[j])
    return f


def _alone(line, spec, sweeps=None):
    """The line's integral alone; appends its sweep count to ``sweeps``."""
    freq, kind, kink, a, b = line
    calls = []

    def f(xs):
        calls.append(1)
        return _family(xs, freq, kind, kink)

    res = integrate_1d(f, a, b, spec)
    if sweeps is not None:
        sweeps.append(len(calls))
    return res


_LINE = st.tuples(st.floats(0.0, 60.0), st.integers(0, 2),
                  st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                  st.floats(1e-3, 5.0)).map(
    lambda t: (t[0], t[1], t[2], t[3], t[3] + t[4]))
_SPEC = st.builds(QuadSpec, rel_tol=st.floats(1e-10, 1e-2),
                  abs_tol=st.just(1e-14), max_depth=st.integers(1, 40))
_BATCH_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                           database=None)


class TestIntegrateBatch:
    @_BATCH_SETTINGS
    @given(lines=st.lists(_LINE, min_size=1, max_size=8), spec=_SPEC)
    def test_each_line_is_bitwise_its_lone_integral(self, lines, spec):
        calls = []

        def f(xs, owner):
            calls.append(owner)
            return _batch_integrand(lines)(xs, owner)

        got = integrate_batch(f, [ln[3] for ln in lines],
                              [ln[4] for ln in lines], spec)
        sweeps = []
        # dataclass equality: value, err_est, evaluations, converged,
        # intervals and max_depth all bitwise
        assert got == [_alone(ln, spec, sweeps) for ln in lines]
        # lockstep: one integrand call per sweep, as many sweeps as the
        # slowest line needs alone; one line is called without an owner
        assert len(calls) == max(sweeps)
        assert all((o is None) == (len(lines) == 1) for o in calls)

    @_BATCH_SETTINGS
    @given(lines=st.lists(_LINE, min_size=2, max_size=8), spec=_SPEC,
           data=st.data())
    def test_line_unchanged_by_permutation_or_subset(self, lines, spec,
                                                     data):
        def run(sel):
            sub = [lines[i] for i in sel]
            return integrate_batch(_batch_integrand(sub),
                                   [ln[3] for ln in sub],
                                   [ln[4] for ln in sub], spec)

        whole = run(range(len(lines)))
        perm = data.draw(st.permutations(range(len(lines))))
        assert run(perm) == [whole[i] for i in perm]
        keep = data.draw(st.lists(st.sampled_from(range(len(lines))),
                                  min_size=1, unique=True))
        assert run(keep) == [whole[i] for i in keep]

    @_BATCH_SETTINGS
    @given(lines=st.lists(_LINE, min_size=0, max_size=5), data=st.data(),
           bad=st.sampled_from([(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                (0.0, math.inf), (-math.inf, 0.0)]))
    def test_bad_interval_in_any_line_raises(self, lines, data, bad):
        at = data.draw(st.integers(0, len(lines)))
        a = [ln[3] for ln in lines]
        b = [ln[4] for ln in lines]
        a.insert(at, bad[0])
        b.insert(at, bad[1])

        def f(xs, owner):
            raise AssertionError("integrand called before the check")

        with pytest.raises(ValueError, match="need finite a < b"):
            integrate_batch(f, a, b)

    @_BATCH_SETTINGS
    @given(n=st.integers(2, 6), data=st.data())
    def test_unconvergeable_line_fails_alone(self, n, data):
        # polynomials of degree <= 5 converge on their first panel; the
        # |x|^(-1/2) line cannot within one bisection
        bad = data.draw(st.integers(0, n - 1))
        coef = np.array([data.draw(st.floats(-2.0, 2.0)) for _ in range(n)])

        def f(xs, owner):
            j = 0 if owner is None else owner
            return np.where(j == bad, 1.0 / np.sqrt(np.abs(xs) + 1e-300),
                            coef[j] * xs ** 5 + 1.0)

        spec = QuadSpec(rel_tol=1e-10, max_depth=1)
        got = integrate_batch(f, [0.0] * n, [1.0] * n, spec)
        assert [r.converged for r in got] == [j != bad for j in range(n)]
        assert got[bad].max_depth == 1 and got[bad].intervals == 2
        assert got[bad] == integrate_1d(
            lambda xs: 1.0 / np.sqrt(np.abs(xs) + 1e-300), 0.0, 1.0, spec)

    def test_empty_batch(self):
        assert integrate_batch(lambda xs, owner: xs, [], []) == []

    def test_endpoint_counts_must_match(self):
        with pytest.raises(ValueError):
            integrate_batch(lambda xs, owner: xs, [0.0, 1.0], [1.0])


class TestTelemetry:
    def test_intervals_and_depth_follow_the_bisections(self):
        res = integrate_1d(lambda x: np.cos(17 * x) / (1.0 + x * x), 0.0,
                           5.0, QuadSpec(rel_tol=1e-10))
        # every bisection adds one interval and 30 nodes to the first 15
        assert res.evaluations == 15 * (2 * res.intervals - 1)
        assert 2 ** res.max_depth >= res.intervals > res.max_depth > 0

    def test_sum_adds_intervals_and_keeps_deeper_depth(self):
        a = QuadResult(1.0, 0.1, 45, True, intervals=2, max_depth=1)
        b = QuadResult(2.0, 0.2, 75, True, intervals=3, max_depth=2)
        s = a + b
        assert (s.intervals, s.max_depth, s.evaluations) == (5, 2, 120)

    def test_nested_counts_every_level(self):
        spec = QuadSpec(rel_tol=1e-8)

        def f(x, ys):
            return np.exp(-x * ys) * np.cos(5 * ys)

        rows = []

        def row(x):
            res = integrate_1d(lambda ys: f(x, ys), 0.0, 2.0,
                               spec.tightened())
            rows.append(res)
            return res.value

        outer = integrate_1d(lambda xs: np.array([row(float(x)) for x in xs]),
                             0.0, 1.0, spec)
        res = integrate_nested(f, [(0.0, 1.0), (0.0, 2.0)], spec)
        assert res.value == outer.value
        assert res.intervals == outer.intervals + sum(r.intervals
                                                      for r in rows)
        assert res.max_depth == max(r.max_depth for r in [outer, *rows])
