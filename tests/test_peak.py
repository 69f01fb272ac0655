import itertools
import json
import math
import types

import numpy as np
import pytest

from pairemit import cli, peak
from pairemit.entanglement import (Q_BELL_THRESHOLD,
                                   Q_ENTANGLEMENT_THRESHOLD)
from pairemit.model import PARAMS_FIG, R_FIG, EmitterParams, derive_params
from pairemit.peak import (DQ_BELL, DQ_ENTANGLEMENT, FIG3_PANELS, SweepSpec,
                           angular_profile, delta_q_grid, delta_q_peak,
                           peak_envelope, threshold_maps)
from pairemit.specfun import bessel_k1, hankel2_0

PARAMS, R = PARAMS_FIG, R_FIG


def _lone_map(spec: SweepSpec):
    """The map of one sweep alone, as `pairemit sweep` makes it."""
    return threshold_maps([spec])[0]

# frozen from the arbitrary-precision oracle evaluation of the closed form
# at |Delta|/mu = 2.997e-3, E_C = |Delta|, w = lambda_F, r = 100 lambda_F
GOLDEN_DELTA_Q = 26.73893311600365


def _mp_delta_q(params, r):
    """The closed form of dQ at 30 digits (mpmath), rounded to a double."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        pi = mp.pi
        r_kf = 2 * pi * mp.mpf(r)
        w_kf = 2 * pi * mp.mpf(params.w)
        xi = 2 / (pi * mp.mpf(params.abs_delta))
        s = 2 * pi ** 2 * xi ** 2
        z = 2j * w_kf ** 2 / s - r_kf / s
        second = 4 * mp.exp(1j * r_kf / s) \
            / (pi * mp.sqrt(1j * r_kf / w_kf ** 2))
        k1 = mp.besselk(1, mp.mpf(params.abs_delta) / mp.mpf(params.ec))
        return float(pi ** 2 / (32 * k1 ** 2)
                     * abs(mp.hankel2(0, z) - second) ** 2)


class TestDeltaQPeak:
    def test_golden_point(self):
        res = delta_q_peak(PARAMS, R)
        assert res.delta_q == pytest.approx(GOLDEN_DELTA_Q, rel=1e-9)

    def test_hankel_argument(self):
        xi = derive_params(PARAMS).xi
        arg, _ = peak._hankel_terms(xi * xi, PARAMS.w, R)
        w = PARAMS.w_kf
        r_kf = R * 2 * math.pi
        want = 1j * w * w / (math.pi**2 * xi**2) \
            - r_kf / (2 * math.pi**2 * xi**2)
        assert arg == pytest.approx(want, rel=1e-14)
        assert arg.real < 0 and arg.imag > 0

    def test_normal_state_is_zero(self):
        res = delta_q_peak(EmitterParams(0.0, PARAMS.ec, PARAMS.w), R)
        assert res.delta_q == 0.0

    def test_hankel_overflow_rejected_naming_parameters(self):
        # at the figure gap |H0^(2)|^2 leaves the double range past
        # w ~ 2000 lambda_F; the default sweep grid reaches 3e6
        with pytest.raises(ValueError, match=r"w/lambda_F = 3e\+06"):
            delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, 3.0e6), R)

    @pytest.mark.filterwarnings("error")
    def test_large_w_below_overflow_is_finite(self):
        dq = delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec, 1690.0),
                          R).delta_q
        assert math.isfinite(dq) and dq > 0.0

    @pytest.mark.parametrize("ratio, finite", [(345.0, True), (385.0, False),
                                               (500.0, False)])
    def test_k1_underflow_against_mpmath(self, ratio, finite):
        # dQ ~ 1e302 at |Delta|/E_C = 345; past about 354 K1 is still
        # positive but K1^2 underflows, and dQ (mpmath's too) is inf
        p = EmitterParams(0.5, 0.5 / ratio, 1.0)
        assert bessel_k1(ratio).value > 0.0
        want = _mp_delta_q(p, R)
        assert math.isfinite(want) == finite
        got = delta_q_peak(p, R).delta_q
        if finite:
            assert got == pytest.approx(want, rel=1e-9)
        else:
            assert got == math.inf

    @pytest.mark.parametrize("r", [0.0, -5.0, math.nan, math.inf])
    def test_bad_distance_rejected_by_name(self, r):
        with pytest.raises(ValueError, match=rf"detector distance must be "
                           rf"positive and finite, got r = {r}"):
            delta_q_peak(PARAMS, r)

    @pytest.mark.parametrize("col, bad, named", [
        (1, math.inf, "E_C must be positive and finite, got inf"),
        (2, math.nan, "w must be positive and finite, got nan"),
        (0, math.nan, r"\|Delta\| < mu, got nan"),
        (3, math.inf, "detector distance .* got r = inf"),
    ])
    def test_grid_names_its_first_non_finite_point(self, col, bad, named):
        cols = [np.full(4, v) for v in (PARAMS.abs_delta, PARAMS.ec,
                                        PARAMS.w, R)]
        cols[col][[1, 3]] = bad, -1.0
        with pytest.raises(ValueError, match=named):
            delta_q_grid(*cols)

    def test_calibrated_against_mpmath(self):
        # dQ's error bound holds on a seeded sample over the CLI ranges,
        # half of it at |Delta|/E_C in [3.7, 4.2], about K1's switch radius
        rng = np.random.default_rng(11)
        n, m = 200, 100

        def logu(lo, hi, k):
            return np.exp(rng.uniform(math.log(lo), math.log(hi), k))

        ad = logu(1e-4, 1e-2, n)
        ec = np.concatenate([logu(3e-4, 3e-2, m),
                             ad[m:] / rng.uniform(3.7, 4.2, n - m)])
        w = rng.uniform(0.5, 4.0, n)
        r = logu(10.0, 3.0e6, n)
        dq, dq_err = delta_q_grid(ad, ec, w, r)
        want = [_mp_delta_q(EmitterParams(*p[:3]), p[3])
                for p in zip(ad, ec, w, r)]
        assert np.all(np.abs(dq - want) <= dq_err)

    def test_small_ratio_prefactor_limit(self):
        # |Delta|/E_C -> 0: prefactor ~ pi^2 x^2 / 32 since K1(x) ~ 1/x
        dq = []
        for ec in (0.3, 0.6):
            p = EmitterParams(PARAMS.delta, ec, PARAMS.w)
            dq.append(delta_q_peak(p, R).delta_q)
        x = abs(PARAMS.delta)
        ratio = dq[1] / dq[0]
        want = ((x / 0.6) / (x / 0.3)) ** 2     # prefactor scaling x^2
        assert ratio == pytest.approx(want, rel=1e-3)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            p = EmitterParams(delta=rng.uniform(1e-5, 0.2),
                              ec=rng.uniform(1e-4, 0.5),
                              w=rng.uniform(0.3, 5.0))
            dq = delta_q_peak(p, rng.uniform(10, 1e5)).delta_q
            assert dq >= 0.0

    def test_regime_flags(self):
        res = delta_q_peak(PARAMS, R)
        assert res.regime_ok == {"kfr_large": True, "ec_small": True,
                                 "spread_large": True, "w_large": True}
        near = delta_q_peak(PARAMS, 5.0)        # k_F r = 31 < 50
        assert not near.regime_ok["kfr_large"]
        assert not near.regime_ok["spread_large"]
        wide_ec = delta_q_peak(EmitterParams(PARAMS.delta, 0.2, PARAMS.w), R)
        assert not wide_ec.regime_ok["ec_small"]

    def test_w_large_flag_below_lambda_f(self):
        # L = 1 is not modelled below w = lambda_F (PARAMS has w = 1)
        narrow = delta_q_peak(EmitterParams(PARAMS.delta, PARAMS.ec,
                                            math.nextafter(1.0, 0.0)), R)
        assert not narrow.regime_ok["w_large"]
        assert [k for k, ok in narrow.regime_ok.items() if not ok] \
            == ["w_large"]
        assert delta_q_peak(PARAMS, R).regime_ok["w_large"]

    def test_oscillation_spacing_matches_hankel_phase(self):
        # maxima spacing of dQ(r) at large r follows the asymptotic phase
        # r / (2 pi^2 k_F xi^2): spacing = pi * 2 pi^2 k_F xi^2
        xi = derive_params(PARAMS).xi
        scale_lf = 2 * math.pi**2 * xi * xi / (2 * math.pi)
        rs = np.geomspace(10 * scale_lf, 40 * scale_lf, 4000)
        dq = delta_q_grid(PARAMS.abs_delta, PARAMS.ec, PARAMS.w, rs)[0]
        peaks = [rs[i] for i in range(1, len(dq) - 1)
                 if dq[i] > dq[i - 1] and dq[i] > dq[i + 1]]
        spacings = np.diff(peaks) / (math.pi * scale_lf)
        assert len(spacings) >= 5
        assert np.all(np.abs(spacings - 1.0) < 0.12)

    @pytest.mark.parametrize("r", [-5.0, [100.0, 0.0], [math.nan]])
    def test_envelope_checks_r_as_the_grid_does(self, r):
        with pytest.raises(ValueError, match="detector distance"):
            peak_envelope(PARAMS, r)

    def test_grid_names_a_negative_abs_delta(self):
        with pytest.raises(ValueError, match=r"\|Delta\| must be "
                           r"non-negative, got \|Delta\|/mu = -0\.002 at "
                           r"point 1 \(E_C/mu = 0\.001, "):
            delta_q_grid([1e-3, -2e-3], 1e-3, 1.0, 100.0)

    def test_envelope_names_a_negative_abs_delta(self):
        # a negative Delta is a gap phase of pi, with |Delta| > 0 and the
        # same envelope; only a negative |Delta| itself is refused
        rs = np.array([100.0, 300.0])
        flipped = EmitterParams(-PARAMS.delta, PARAMS.ec, PARAMS.w)
        assert np.array_equal(peak_envelope(flipped, rs),
                              peak_envelope(PARAMS, rs))
        bad = types.SimpleNamespace(abs_delta=-2e-3, ec=1e-3, w=1.0)
        with pytest.raises(ValueError, match=r"\|Delta\| must be "
                           r"non-negative, got \|Delta\|/mu = -0\.002 at "
                           r"point 0 "):
            peak_envelope(bad, rs)

    def test_large_r_scaled_envelope_bounded(self):
        # r * dQ envelope bounded and non-vanishing over a decade
        xi = derive_params(PARAMS).xi
        kxi2_lf = xi * xi / (2 * math.pi)
        rs = np.geomspace(100 * kxi2_lf, 1000 * kxi2_lf, 50)
        scaled = np.array([r * peak_envelope(PARAMS, float(r)) for r in rs])
        assert scaled.max() / scaled.min() < 3.0
        assert scaled.min() > 0.0


class TestAngularProfile:
    def test_peak_normalization(self):
        assert angular_profile(math.pi, PARAMS) == 1.0

    def test_direct_substitution_kfw5(self):
        # k_F w = 5, theta = pi - 0.2
        p = EmitterParams(PARAMS.delta, PARAMS.ec, 5.0 / (2 * math.pi))
        assert angular_profile(math.pi - 0.2, p) == pytest.approx(
            0.6067833492179677, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            angular_profile(-0.1, PARAMS)
        with pytest.raises(ValueError):
            angular_profile(2 * math.pi, PARAMS)

    def test_range(self):
        for t in np.linspace(0, 2 * math.pi, 40, endpoint=False):
            v = angular_profile(float(t), PARAMS)
            assert 0.0 < v <= 1.0


class TestThresholdMap:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=PARAMS, r=R, param="delta", grid=())

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=PARAMS, r=R, param="delta", grid=(1e-3, 3e-3, 2e-3))

    def test_bad_param_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=PARAMS, r=R, param="bogus", grid=(1.0, 2.0))

    def test_delta_sweep_monotone_and_crossings(self):
        spec = SweepSpec(base=PARAMS, r=R, param="delta",
                         grid=tuple(np.geomspace(1e-4, 1e-2, 30)))
        res = _lone_map(spec)
        assert np.all(np.diff(res.delta_q) >= -1e-12)
        assert len(res.crossings["entangled"]) == 1
        assert len(res.crossings["bell"]) == 1
        # bisected crossing hits the threshold to 1e-6 relative in the param
        for name, target in (("entangled", DQ_ENTANGLEMENT), ("bell", DQ_BELL)):
            c = res.crossings[name][0]
            lo = delta_q_peak(EmitterParams(c * (1 - 3e-6), PARAMS.ec,
                                            PARAMS.w), R).delta_q
            hi = delta_q_peak(EmitterParams(c * (1 + 3e-6), PARAMS.ec,
                                            PARAMS.w), R).delta_q
            assert lo <= target <= hi

    def test_threshold_constants(self):
        assert DQ_ENTANGLEMENT == 0.5
        assert DQ_BELL == math.sqrt(2.0) + 1.0
        # dQ thresholds equivalent to Q = 3/2 and Q = 1/(1 - 1/sqrt2):
        # each Q threshold is 1 plus its dQ threshold exactly, so a sweep's
        # .meta.json reports the Q_bell its crossings are located at
        assert 1.0 + DQ_ENTANGLEMENT == Q_ENTANGLEMENT_THRESHOLD == 1.5
        assert 1.0 + DQ_BELL == Q_BELL_THRESHOLD == 2.0 + math.sqrt(2.0)
        assert Q_BELL_THRESHOLD == pytest.approx(
            math.sqrt(2.0) / (math.sqrt(2.0) - 1.0), rel=1e-15)


# the bases of fig3's panels (FIG3_PANELS) here: the figure base and one
# other (each with its detector distance)
_BASES = {"figure": (PARAMS, R),
          "other": (EmitterParams(5e-3, 2e-3, 1.7), 300.0)}


def _fig3_spec(base: str, param: str, grid=None) -> SweepSpec:
    params, r = _BASES[base]
    return SweepSpec(base=params, r=r, param=param,
                     grid=tuple(FIG3_PANELS[param] if grid is None else grid))


def _point(spec: SweepSpec, value: float) -> tuple[EmitterParams, float]:
    kw = dict(delta=spec.base.delta, ec=spec.base.ec, w=spec.base.w, r=spec.r)
    kw[spec.param] = float(value)
    r = kw.pop("r")
    return EmitterParams(**kw), r


@pytest.mark.parametrize("base", sorted(_BASES))
@pytest.mark.parametrize("param", sorted(FIG3_PANELS))
class TestFig3Panels:
    def test_grid_matches_mpmath(self, base, param):
        spec = _fig3_spec(base, param)
        res = _lone_map(spec)
        want = [_mp_delta_q(*_point(spec, v)) for v in res.values]
        np.testing.assert_allclose(res.delta_q, want, rtol=1e-9, atol=0.0)

    def test_crossings_bracket_their_thresholds(self, base, param):
        spec = _fig3_spec(base, param)
        res = _lone_map(spec)
        for name, target in (("entangled", DQ_ENTANGLEMENT),
                             ("bell", DQ_BELL)):
            for c in res.crossings[name]:
                lo, hi = (delta_q_peak(*_point(spec, c * f)).delta_q - target
                          for f in (1.0 - 3e-6, 1.0 + 3e-6))
                assert lo * hi < 0.0, (name, c, lo, hi)


class TestThresholdMapCounts:
    def test_one_hankel_call_per_grid(self, monkeypatch):
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return hankel2_0(z)

        monkeypatch.setattr(peak, "hankel2_0", counted)
        res = _lone_map(_fig3_spec("figure", "w"))
        assert res.crossings == {"entangled": [], "bell": []}
        assert sizes == [60]
        # with crossings: the grid call, then one call per refinement step
        # over the open brackets (two here)
        sizes.clear()
        res = _lone_map(_fig3_spec("figure", "delta"))
        assert sizes[0] == 60 and max(sizes[1:]) <= 2

    @pytest.mark.parametrize("param", sorted(FIG3_PANELS))
    def test_at_most_ten_evaluations_per_crossing(self, monkeypatch, param):
        # each bracket refines alone as in the full map, so a map over one
        # grid interval counts the evaluations of that interval's crossings
        evals = []
        evaluate = peak._evaluate

        def counted(*cols, **kw):
            evals.append(max(np.size(c) for c in cols))
            return evaluate(*cols, **kw)

        monkeypatch.setattr(peak, "_evaluate", counted)
        grid = FIG3_PANELS[param]
        total = 0
        for lo, hi in zip(grid[:-1], grid[1:]):
            evals.clear()
            res = _lone_map(_fig3_spec("figure", param, (lo, hi)))
            n = sum(len(c) for c in res.crossings.values())
            assert sum(evals) - 2 <= 10 * n
            total += n
        full = _lone_map(_fig3_spec("figure", param))
        assert total == sum(len(c) for c in full.crossings.values())


def _oracle_map(spec: SweepSpec):
    """The map of one sweep with the public, fully checked delta_q_grid for
    the grid and at every Illinois step: values, dQ, its bound, crossings."""
    values = np.asarray(spec.grid, dtype=float)
    dq, dq_err = delta_q_grid(*peak._sweep_columns(spec, values))
    t = np.array([[DQ_ENTANGLEMENT], [DQ_BELL]])
    s = np.sign(dq - t)
    k, i = np.nonzero((s == 0.0) | np.pad(s[:, :-1] * s[:, 1:] < 0.0,
                                          ((0, 0), (0, 1))))
    j = np.where(s[k, i] == 0.0, i, i + 1)
    roots = peak._illinois(
        lambda xs, owner: (delta_q_grid(*peak._sweep_columns(spec, xs))[0]
                           - t[k[owner], 0]).tolist(),
        values[i].tolist(), values[j].tolist(),
        (dq[i] - t[k, 0]).tolist(), (dq[j] - t[k, 0]).tolist())
    crossings = {name: [x for x, kx in zip(roots, k) if kx == n]
                 for n, name in enumerate(("entangled", "bell"))}
    return values, dq, dq_err, crossings


def _seeded_base(seed: int) -> tuple[EmitterParams, float]:
    """A base drawn over the ranges of the closed-form benchmark points."""
    rng = np.random.default_rng(seed)
    delta, ec = 10.0 ** rng.uniform(-3.0, -2.0, 2)
    w = rng.uniform(0.8, 2.0)
    return EmitterParams(delta, ec, w), 10.0 ** rng.uniform(math.log10(50.0),
                                                            3.0)


_ORACLE_BASES = {"figure": (PARAMS, R), "seed1": _seeded_base(1),
                 "seed2": _seeded_base(2)}
_SIGNED = np.geomspace(1e-4, 1e-2, 20)


_EDGE_SWEEPS = {
    # a w sweep with a crossing to refine
    "w-crossing": (EmitterParams(2.997e-3, 6.8e-3, 1.0), "w",
                   FIG3_PANELS["w"]),
    # a signed Delta grid through 0, where dQ = 0
    "delta-through-0": (PARAMS, "delta",
                        np.concatenate((-_SIGNED[::-1], [0.0], _SIGNED))),
    # a bracket with its ends on either side of Delta = 0
    "delta-across-0": (PARAMS, "delta", (-1e-4, 5e-3)),
    # the normal emitter: dQ = 0 along every other parameter
    "normal-w": (EmitterParams(0.0, PARAMS.ec, PARAMS.w), "w",
                 FIG3_PANELS["w"]),
    "normal-r": (EmitterParams(0.0, PARAMS.ec, PARAMS.w), "r",
                 FIG3_PANELS["r"]),
}


def _hex(crossings: dict) -> dict:
    return {k: [x.hex() for x in v] for k, v in crossings.items()}


def _assert_as_oracle(spec: SweepSpec, res) -> None:
    """res is, bitwise, the map of spec that evaluates the public
    delta_q_grid at every refinement step."""
    values, dq, dq_err, crossings = _oracle_map(spec)
    for got, want in ((res.values, values), (res.delta_q, dq),
                      (res.delta_q_err, dq_err)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert _hex(res.crossings) == _hex(crossings)
    for i, v in enumerate(values):
        flags = delta_q_peak(*_point(spec, v)).regime_ok
        assert {k: bool(f[i]) for k, f in res.regime_ok.items()} == flags


def _assert_same_map(got, want) -> None:
    """Two SweepResults agree bitwise: values, dQ, its bound, per-row
    regime flags and crossings."""
    assert got.param == want.param
    assert got.regime_ok.keys() == want.regime_ok.keys()
    for a, b in ((got.values, want.values), (got.delta_q, want.delta_q),
                 (got.delta_q_err, want.delta_q_err),
                 *((got.regime_ok[k], want.regime_ok[k])
                   for k in want.regime_ok)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert _hex(got.crossings) == _hex(want.crossings)


class TestRefinementOracle:
    """A lone map equals, bitwise, the map that evaluates the public
    delta_q_grid at every refinement step."""

    @staticmethod
    def assert_as_oracle(spec: SweepSpec) -> None:
        _assert_as_oracle(spec, _lone_map(spec))

    @pytest.mark.parametrize("base", sorted(_ORACLE_BASES))
    @pytest.mark.parametrize("param", sorted(FIG3_PANELS))
    def test_fig3_panels(self, base, param):
        params, r = _ORACLE_BASES[base]
        self.assert_as_oracle(SweepSpec(base=params, r=r, param=param,
                                        grid=tuple(FIG3_PANELS[param])))

    @pytest.mark.parametrize("params, param, grid", _EDGE_SWEEPS.values(),
                             ids=list(_EDGE_SWEEPS))
    def test_edge_sweeps(self, params, param, grid):
        self.assert_as_oracle(SweepSpec(base=params, r=R, param=param,
                                        grid=tuple(grid)))


def _linear(ad, ec, w, r, **kw):
    """dQ = 1 - r/400, exactly 1/2 at r = 200, as peak._evaluate returns
    it."""
    dq = 1.0 - np.atleast_1d(r) / 400.0
    return dq, np.zeros_like(dq)


# grids with and without the value r = 200, where _linear is 1/2
_ON_THRESHOLD_GRIDS = [(100.0, 200.0, 300.0), (300.0, 200.0, 100.0),
                       (100.0, 200.0), (200.0, 300.0), (150.0, 250.0)]


class TestExactThresholdHit:
    @pytest.mark.parametrize("grid", _ON_THRESHOLD_GRIDS)
    def test_grid_value_on_threshold_is_one_crossing(self, monkeypatch,
                                                     grid):
        monkeypatch.setattr(peak, "_evaluate", _linear)
        res = _lone_map(SweepSpec(base=PARAMS, r=R, param="r", grid=grid))
        assert res.crossings == {"entangled": [200.0], "bell": []}


_BAD_SPECS = {
    "distance": SweepSpec(base=PARAMS, r=-1.0, param="w", grid=(1.0, 2.0)),
    "abs-delta-past-mu": SweepSpec(base=PARAMS, r=R, param="delta",
                                   grid=(1e-3, -1.5)),
    "hankel-overflow": SweepSpec(base=EmitterParams(0.05, 3e-4, 200.0), r=R,
                                 param="ec", grid=(3e-4, 3e-3)),
}


class TestThresholdMaps:
    """threshold_maps evaluates several sweeps together, each bitwise its
    lone map and the oracle's."""

    @staticmethod
    def assert_as_lone_maps(specs) -> None:
        results = threshold_maps(specs)
        assert len(results) == len(specs)
        for spec, res in zip(specs, results):
            _assert_same_map(res, _lone_map(spec))
            _assert_as_oracle(spec, res)

    @pytest.mark.parametrize("base", sorted(_ORACLE_BASES))
    def test_fig3_panels(self, base):
        params, r = _ORACLE_BASES[base]
        self.assert_as_lone_maps([
            SweepSpec(base=params, r=r, param=param, grid=tuple(grid))
            for param, grid in FIG3_PANELS.items()])

    def test_edge_sweeps_among_fig3_panels(self):
        edges = [SweepSpec(base=params, r=R, param=param, grid=tuple(grid))
                 for params, param, grid in _EDGE_SWEEPS.values()]
        panels = [_fig3_spec("figure", param) for param in FIG3_PANELS]
        self.assert_as_lone_maps([x for pair in zip(edges, panels)
                                  for x in pair] + edges[len(panels):])

    def test_grid_values_on_threshold(self, monkeypatch):
        # TestExactThresholdHit's grids in one batch
        monkeypatch.setattr(peak, "_evaluate", _linear)
        for res in threshold_maps([SweepSpec(base=PARAMS, r=R, param="r",
                                             grid=g)
                                   for g in _ON_THRESHOLD_GRIDS]):
            assert res.crossings == {"entangled": [200.0], "bell": []}

    @pytest.mark.parametrize("grids", [
        [(100.0, 150.0), (300.0, 350.0)], [(300.0, 350.0), (100.0, 150.0)],
        [(300.0, 250.0), (150.0, 100.0), (300.0, 350.0)]])
    def test_no_bracket_spans_two_grids(self, monkeypatch, grids):
        # dQ changes sign from the last value of one grid to the first of
        # the next, but within no grid
        monkeypatch.setattr(peak, "_evaluate", _linear)
        for res in threshold_maps([SweepSpec(base=PARAMS, r=R, param="r",
                                             grid=g) for g in grids]):
            assert res.crossings == {"entangled": [], "bell": []}

    def test_no_bracket_spans_two_grids_of_the_closed_form(self):
        # two Delta grids on either side of the figure's entangled crossing
        c = _lone_map(_fig3_spec("figure", "delta")).crossings[
            "entangled"][0]
        specs = [_fig3_spec("figure", "delta", (c / 1.02, c / 1.01)),
                 _fig3_spec("figure", "delta", (c * 1.01, c * 1.02))]
        results = threshold_maps(specs)
        below, above = (res.delta_q - DQ_ENTANGLEMENT for res in results)
        assert below[-1] * above[0] < 0.0
        for spec, res in zip(specs, results):
            assert res.crossings == {"entangled": [], "bell": []}
            _assert_same_map(res, _lone_map(spec))

    @pytest.mark.parametrize("first, second",
                             itertools.permutations(sorted(_BAD_SPECS), 2))
    def test_bad_points_raise_as_alone(self, first, second):
        # every grid's columns are checked, in spec order, before the grids
        # are evaluated and the Hankel factor can overflow
        want = second if first == "hankel-overflow" else first
        with pytest.raises(ValueError) as alone:
            _lone_map(_BAD_SPECS[want])
        good = _fig3_spec("figure", "r")
        with pytest.raises(ValueError) as batch:
            threshold_maps([good, _BAD_SPECS[first], good,
                            _BAD_SPECS[second]])
        assert str(batch.value) == str(alone.value)


def _benchmark_bases(n: int):
    """The first n bases (|Delta|, E_C, w, r) of the closed_form_maps
    benchmark at seed 0: its stream draws w, |Delta|, E_C, r, two row
    indices and two fluctuation pairs per point."""
    rng = np.random.default_rng([0, sum(map(ord, "closed_form_maps"))])
    for _ in range(n):
        w = rng.uniform(0.8, 2.0)
        delta, ec = (10.0 ** rng.uniform(-3.0, -2.0) for _ in range(2))
        r = 10.0 ** rng.uniform(math.log10(50.0), 3.0)
        rng.choice(60, 2, replace=False)
        for _ in range(4):
            rng.uniform()
        yield delta, ec, w, r


def _counting(monkeypatch, name: str) -> list:
    """Replace peak.<name> by a wrapper that records each call's largest
    argument size; return the record."""
    sizes = []
    f = getattr(peak, name)

    def counted(*args, **kw):
        sizes.append(max(np.size(a) for a in args))
        return f(*args, **kw)

    monkeypatch.setattr(peak, name, counted)
    return sizes


class TestThresholdMapsCounts:
    def test_fig3_makes_one_grid_hankel_call(self, monkeypatch, tmp_path,
                                             capsys):
        sizes = _counting(monkeypatch, "hankel2_0")
        assert cli.main(["fig3", "--output", str(tmp_path / "f")]) == 0
        assert sizes[0] == 4 * 60
        metas = [json.loads((tmp_path / f"f_{p}.meta.json").read_text())
                 for p in FIG3_PANELS]
        crossings = sum(len(v) for m in metas for v in m["crossings"].values())
        assert crossings > 0 and max(sizes[1:]) <= crossings

    def test_steps_are_the_lone_maps_in_lockstep(self, monkeypatch):
        # a step evaluates the open brackets of every panel together, and
        # each evaluation calls K1 on its own elements
        hankel = _counting(monkeypatch, "hankel2_0")
        k1 = _counting(monkeypatch, "bessel_k1")
        lone = {}
        for param in FIG3_PANELS:
            hankel.clear()
            k1.clear()
            _lone_map(_fig3_spec("figure", param))
            assert k1 == hankel
            lone[param] = hankel[1:]
        hankel.clear()
        k1.clear()
        threshold_maps([_fig3_spec("figure", p) for p in FIG3_PANELS])
        assert hankel[0] == 4 * 60 and k1 == hankel
        assert hankel[1:] == [sum(step) for step in itertools.zip_longest(
            *lone.values(), fillvalue=0)]

    def test_benchmark_bases_evaluation_counts(self, monkeypatch, tmp_path,
                                               capsys):
        # fig3's four panels share one grid evaluation and one refinement;
        # peak's point and r map share theirs; every evaluation makes one
        # K1 call, on the elements of its Hankel call
        evals = _counting(monkeypatch, "_evaluate")
        hankel = _counting(monkeypatch, "hankel2_0")
        k1 = _counting(monkeypatch, "bessel_k1")
        n, counts = 200, {"fig3": 0, "peak": 0}
        for base in _benchmark_bases(n):
            flags = [x for f, v in zip(("--delta", "--ec", "--w", "--r"),
                                       base) for x in (f, repr(v))]
            for command, out in (("fig3", "f"), ("peak", "p.csv")):
                for record in (evals, hankel, k1):
                    record.clear()
                assert cli.main([command, *flags,
                                 "--output", str(tmp_path / out)]) == 0
                assert len(evals) == len(hankel) and k1 == hankel
                counts[command] += len(evals)
        assert counts["fig3"] / n <= 9.0
        assert counts["peak"] / n <= 6.8
