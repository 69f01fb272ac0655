import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pairemit.quad import (_XGK, QuadResult, QuadSpec, _first_panel,
                           _nodes, _panels, integrate_1d, integrate_batch,
                           integrate_nested)


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

    @pytest.mark.parametrize("kwargs, field", [
        (dict(rel_tol=1e-14), "rel_tol"),
        (dict(rel_tol=math.inf), "rel_tol"),
        (dict(rel_tol=math.nan), "rel_tol"),
        (dict(abs_tol=-1e-14), "abs_tol"),
        (dict(abs_tol=math.nan), "abs_tol"),
        (dict(abs_tol=math.inf), "abs_tol"),
    ], ids=["floor", "rel-inf", "rel-nan", "abs-negative", "abs-nan",
            "abs-inf"])
    def test_rel_tol_floor(self, kwargs, field):
        # rel_tol = inf used to accept a first estimate whose err_est was
        # 27 % of its value, a NaN tolerance to drop its test: each is
        # rejected, naming its field
        with pytest.raises(ValueError, match=field):
            QuadSpec(**kwargs)


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
        return _family(xs, freq[owner], kind[owner], kink[owner])
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
            calls.append((len(xs), owner))
            return _batch_integrand(lines)(xs, owner)

        got = integrate_batch(f, [ln[3] for ln in lines],
                              [ln[4] for ln in lines], spec)
        sweeps = []
        # dataclass equality: value, err_est, evaluations, converged,
        # intervals and max_depth all bitwise
        assert got == [_alone(ln, spec, sweeps) for ln in lines]
        # each bisection adds one panel and 30 nodes to the first panel's 15
        assert all(r.evaluations == 15 * (2 * r.intervals - 1) for r in got)
        # lockstep: one integrand call per sweep, as many sweeps as the
        # slowest line needs alone; every call, a lone line's too, gets
        # each node's line index, the lines in order
        assert len(calls) == max(sweeps)
        for m, owner in calls:
            assert owner.dtype.kind == "i" and owner.shape == (m,)
            assert 0 <= owner[0] and owner[-1] < len(lines)
            assert np.all(np.diff(owner) >= 0)

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
            return np.where(owner == bad, 1.0 / np.sqrt(np.abs(xs) + 1e-300),
                            coef[owner] * xs ** 5 + 1.0)

        spec = QuadSpec(rel_tol=1e-10, max_depth=1)
        got = integrate_batch(f, [0.0] * n, [1.0] * n, spec)
        assert [r.converged for r in got] == [j != bad for j in range(n)]
        assert got[bad].max_depth == 1 and got[bad].intervals == 2
        assert got[bad] == integrate_1d(
            lambda xs: 1.0 / np.sqrt(np.abs(xs) + 1e-300), 0.0, 1.0, spec)

    def test_lone_line_gets_its_index_on_every_sweep(self):
        # the first panel's index is shared read-only; later sweeps' are
        # the line's own, all 0 like it
        calls = []

        def f(xs, owner):
            calls.append((len(xs), owner))
            return np.abs(xs - 0.3)

        res = integrate_batch(f, [0.0], [1.0], QuadSpec(rel_tol=1e-10))
        assert res[0].converged and len(calls) > 2
        for m, owner in calls:
            assert isinstance(owner, np.ndarray) and owner.dtype.kind == "i"
            assert owner.shape == (m,) and not owner.any()
        assert not calls[0][1].flags.writeable

    def test_empty_batch(self):
        assert integrate_batch(lambda xs, owner: xs, [], []) == []

    def test_endpoint_counts_must_match(self):
        with pytest.raises(ValueError):
            integrate_batch(lambda xs, owner: xs, [0.0, 1.0], [1.0])


def _bisected(lines, spec, calls=None):
    """integrate_batch of lines (freq, kind, kink, a, b), started bisected;
    appends each integrand call's abscissae to ``calls``."""
    g = _batch_integrand(lines)

    def f(xs, owner):
        if calls is not None:
            calls.append(xs.copy())
        return g(xs, owner)

    return integrate_batch(f, [ln[3] for ln in lines],
                           [ln[4] for ln in lines], spec, start_bisected=True)


class TestStartBisected:
    """Lines started from their two halves (``start_bisected=True``)."""

    @_BATCH_SETTINGS
    @given(lines=st.lists(_LINE, min_size=1, max_size=8), spec=_SPEC)
    def test_line_is_its_whole_start_past_the_first_panel(self, lines,
                                                          spec):
        calls = []
        got = _bisected(lines, spec, calls)
        past = 0
        for ln, res in zip(lines, got, strict=True):
            assert res == _bisected([ln], spec)[0]     # its lone self
            assert res.evaluations == 30 * (res.intervals - 1)
            whole = _alone(ln, spec)
            if whole.intervals > 1:
                # the whole line bisected its first panel: the same panels
                # from there on, without the first panel's 15 nodes
                past += 1
                assert res == QuadResult(
                    whole.value, whole.err_est, whole.evaluations - 15,
                    whole.converged, intervals=whole.intervals,
                    max_depth=whole.max_depth)
        # the first sweep is every line's two halves, split at (a + b) / 2
        ls, rs = [], []
        for _, _, _, a, b in lines:
            m = 0.5 * (a + b)
            ls += [a, m]
            rs += [m, b]
        assert calls[0].tolist() == _nodes(ls, rs)[0].ravel().tolist()
        assume(past > 0)

    @_BATCH_SETTINGS
    @given(lines=st.lists(_LINE, min_size=2, max_size=8), spec=_SPEC,
           data=st.data())
    def test_line_unchanged_by_permutation_or_subset(self, lines, spec,
                                                     data):
        whole = _bisected(lines, spec)
        perm = data.draw(st.permutations(range(len(lines))))
        assert _bisected([lines[i] for i in perm], spec) \
            == [whole[i] for i in perm]
        keep = data.draw(st.lists(st.sampled_from(range(len(lines))),
                                  min_size=1, unique=True))
        assert _bisected([lines[i] for i in keep], spec) \
            == [whole[i] for i in keep]

    @_BATCH_SETTINGS
    @given(line=_LINE.filter(lambda ln: ln[1] != 2
                             and ln[0] * (ln[4] - ln[3]) <= 8.0),
           spec=_SPEC)
    def test_line_done_on_its_first_panel_ends_on_two(self, line, spec):
        # lines a first panel resolves: no kink, and a wave of at most
        # 8 radians over the line.  A kink, or a wave 15 nodes cannot
        # follow, can hide from a first panel's error estimate and show
        # in its halves'
        whole = _alone(line, spec)
        assume(whole.intervals == 1 and whole.converged)
        (res,) = _bisected([line], spec)
        tol = max(spec.abs_tol, spec.rel_tol * abs(res.value))
        assert res.converged and res.err_est <= tol
        assert (res.intervals, res.max_depth, res.evaluations) == (2, 1, 30)
        assert abs(res.value - whole.value) <= tol


class TestFirstPanel:
    """The first sweep's values are tested before any panel list exists."""

    def test_line_at_its_tolerance_converges_on_its_first_panel(self):
        wave = lambda xs: np.cos(20.0 * xs)
        # rel_tol = 1 accepts the first panel: its err_est is that panel's
        probe = integrate_1d(wave, 0.0, 1.0,
                             QuadSpec(rel_tol=1.0, abs_tol=0.0))
        assert probe.evaluations == 15 and probe.err_est > 0.0
        spec = QuadSpec(rel_tol=1e-12, abs_tol=probe.err_est)
        alone = integrate_1d(wave, 0.0, 1.0, spec)
        # error == tolerance converges: one panel, 15 evaluations
        assert alone == QuadResult(probe.value, probe.err_est, 15, True,
                                   intervals=1, max_depth=0)

        def f(xs, owner):
            return np.where(owner == 0, wave(xs), np.sqrt(np.abs(xs - 0.3)))

        beside = integrate_batch(f, [0.0, 0.0], [1.0, 1.0], spec)
        assert beside[0] == alone
        assert beside[1].evaluations > 15

    @pytest.mark.parametrize("f, nodes", [
        (lambda xs: 1.0 + xs, [15]),
        (np.abs, [15, 30]),
        (lambda xs: np.abs(xs - 0.5), [15, 30, 30]),
    ], ids=["one-sweep", "two-sweeps", "three-sweeps"])
    def test_each_sweep_is_one_call_and_no_node_is_evaluated_twice(
            self, f, nodes):
        # kinks on bisection points: each half is linear, exact on its
        # panels, so the sweep count is known
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return f(xs)

        res = integrate_1d(counted, -1.0, 1.0, QuadSpec(rel_tol=1e-10))
        assert res.converged
        assert calls == nodes
        assert res.evaluations == sum(nodes)

    def test_zero_integrand_with_zero_abs_tol(self):
        res = integrate_1d(np.zeros_like, 0.0, 1.0, QuadSpec(abs_tol=0.0))
        assert res == QuadResult(0j, 0.0, 15, True, intervals=1, max_depth=0)
        assert type(res.value) is complex and type(res.err_est) is float


def _g7(f, lo, hi):
    """G7 of f over [lo, hi], from numpy's own Gauss-Legendre rule."""
    t, w = np.polynomial.legendre.leggauss(7)
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return h * complex(w @ f(c + h * t))


_RULE_CASES = pytest.mark.parametrize("f, exact", [
    (lambda x: x ** 14, lambda lo, hi: (hi ** 15 - lo ** 15) / 15.0),
    (lambda x: np.exp(3j * x),
     lambda lo, hi: (np.exp(3j * hi) - np.exp(3j * lo)) / 3j),
], ids=["x^14", "exp(3ix)"])


class TestPanelRule:
    """Each panel's value is K15 and its err_est |K15 - G7|, against the
    exact integral and a G7 built here.  K15 integrates x^14 exactly and
    exp(3ix) to rounding; G7 does neither, by 4e-11 to 1e-3 relative on
    these panels, far above rounding."""

    @_RULE_CASES
    def test_first_panel(self, f, exact):
        v, e = _first_panel(np.asarray(f(_XGK), np.complex128), 1.0)
        want = exact(-1.0, 1.0)
        assert v == pytest.approx(want, rel=1e-13)
        assert e == pytest.approx(abs(v - _g7(f, -1.0, 1.0)), rel=1e-6,
                                  abs=1e-14 * abs(want))

    @_RULE_CASES
    @pytest.mark.parametrize("ls, rs, stops", [
        ([-1.0], [1.0], [1]),
        ([-2.0, -0.5, 1.0], [-0.5, 1.0, 2.5], [3]),
        ([-2.0, -0.5, 1.0], [-0.5, 1.0, 2.5], [1, 3]),
    ], ids=["one", "several", "several-blocks"])
    def test_panels(self, f, exact, ls, rs, stops):
        owner = np.repeat(np.arange(len(stops)),
                          15 * np.diff([0, *stops]))
        vals, errs = _panels(lambda xs, own: f(xs), ls, rs, owner, stops)
        for lo, hi, v, e in zip(ls, rs, vals, errs, strict=True):
            want = exact(lo, hi)
            assert v == pytest.approx(want, rel=1e-13)
            assert e == pytest.approx(abs(v - _g7(f, lo, hi)), rel=1e-6,
                                      abs=1e-14 * abs(want))

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("node", [4, 7], ids=["kronrod-only", "gauss"])
    @pytest.mark.parametrize("sweeps", [1, 2],
                             ids=["first-panel", "second-sweep"])
    def test_non_finite_node_value_fails_its_line(self, bad, node, sweeps):
        # |x| on [-1, 1] is linear on each half after one bisection; the
        # marked node is one of the first panel or one of the left half's
        at = _XGK[node] if sweeps == 1 else -0.5 + 0.5 * _XGK[node]
        spec = QuadSpec(rel_tol=1e-10)

        def g(xs):
            return np.where(xs == at, bad, np.abs(xs))

        def f(xs, owner):
            # beside it: a line done on its first panel and one bisected
            return np.where(owner == 1, g(xs), np.abs(xs - 1.0))

        # inf times a weight's zero imaginary part is NaN, which numpy
        # reports; the line's result is what is tested here
        with np.errstate(invalid="ignore"):
            alone = integrate_1d(g, -1.0, 1.0, spec)
            batch = integrate_batch(f, [0.0, -1.0, 0.0], [1.0, 1.0, 2.0],
                                    spec)
        for res in (alone, batch[1]):
            assert not res.converged and not math.isfinite(res.err_est)
            assert res.evaluations == 15 + 30 * (sweeps - 1)
        assert batch[0].converged and batch[0].evaluations == 15
        assert batch[2].converged and batch[2].evaluations == 45


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
