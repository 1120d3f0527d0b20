"""The psi grid pass as arrays and the EvalContext's rows: bit identity with
the one-point evaluators, the array check of the points, the order checks,
and a count guard against per-row objects in the certification sweeps."""

import math
import random
import re

import numpy as np
import pytest

import qfun.core
import qfun.deriv
from qfun import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalContext,
    EvalResult,
    QParam,
    UnsupportedOrder,
    certify_lcm,
    inv_digamma_provider,
    ln_gamma_provider,
    make_grid,
    q_digamma,
    q_polygamma,
    q_psi_grid,
    ratio_provider,
    verify_g_beta_lcm,
    verify_theorem_ratio_lcm,
)
from qfun.theorems import RatioSpec


def one_point(p: QParam, k: int, x: float) -> EvalResult:
    return q_digamma(p, x) if k == 0 else q_polygamma(p, x, k)


def draw_points(rng: random.Random, count: int) -> list[float]:
    """count x log-uniform in [0.01, 100], a quarter of them repeats, shuffled."""
    xs = [math.exp(rng.uniform(math.log(0.01), math.log(100.0))) for _ in range(count)]
    xs += rng.sample(xs, count // 4)
    rng.shuffle(xs)
    return xs


def draw_params(seed: int) -> list[QParam]:
    rng = random.Random(seed)
    sub = [QParam(rng.uniform(0.05, 0.95)) for _ in range(3)]
    sup = [QParam(rng.uniform(1.05, 20.0)) for _ in range(3)]
    return sub + sup + [QParam(0.9999, allow_near_one=True)]


class TestBitIdentity:
    """Every value a grid pass gives equals its one-point evaluation: from
    q_psi_grid, from EvalContext.psi_grid and from a provider's d_grid."""

    @pytest.mark.parametrize("p", draw_params(15), ids=lambda p: f"q={p.q:.6g}")
    def test_grid_values_equal_point_evaluations(self, p):
        rng = random.Random(str(p.q))
        # 1,980 keys over the seven q: 35 points at six of them, and 10 at
        # q = 0.9999, where a Lambert row takes up to 2^21 terms
        xs = draw_points(rng, 8 if p.allow_near_one else 28)
        keys = [(k, x) for k in range(9) for x in xs]
        rng.shuffle(keys)
        want = {key: one_point(p, *key) for key in keys}
        if p.allow_near_one:
            # Euler-Maclaurin rows and Lambert rows meet in each pass
            terms = [r.terms for r in want.values()]
            assert min(terms) < 100 and max(terms) > 10_000
        for k in range(9):
            pts = [x for kk, x in keys if kk == k]
            assert q_psi_grid(p, k, pts) == [want[k, x] for x in pts], k
        assert EvalContext(p).psi_grid(keys) == [want[key] for key in keys]
        orders = list(range(1, 10))
        rng.shuffle(orders)
        d = ln_gamma_provider(EvalContext(p)).d_grid(orders, xs)
        assert d.tolist() == [[want[n - 1, x].value for x in xs] for n in orders]


class TestPointCheck:
    """The pass checks its points as one array; a bad point raises, for the
    first bad x in pass order, exactly what q_digamma raises for that x."""

    P = QParam(0.5)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1.5", None],
        ids=["nan", "inf", "-inf", "zero", "negative", "True", "str", "None"],
    )
    def test_first_bad_point_raises_the_one_point_error(self, bad):
        with pytest.raises(DomainError) as info:
            q_digamma(self.P, bad)
        want = str(info.value)
        # alone, and before -2.0, which is bad too but later in pass order
        for later in ([], [-2.0]):
            points = {0: [1.5, 2.0], 3: [0.5, bad, *later], 1: [2.5, *later]}
            calls = [
                lambda: qfun.core._psi_orders(self.P, points, DEFAULT_TRUNCATION),
                lambda: q_psi_grid(self.P, 3, [0.5, bad, *later]),
                lambda: EvalContext(self.P).psi_grid(
                    [(k, x) for k, xs in points.items() for x in xs]
                ),
            ]
            for call in calls:
                with pytest.raises(DomainError) as info:
                    call()
                assert str(info.value) == want, later

    def test_a_bad_point_before_a_bad_order_raises_first(self):
        with pytest.raises(DomainError, match="x must be positive, got 0.0"):
            qfun.core._psi_orders(self.P, {0: [0.0], 9: [1.0]}, DEFAULT_TRUNCATION)
        with pytest.raises(UnsupportedOrder, match=re.escape("got 9")):
            qfun.core._psi_orders(self.P, {9: [1.0], 0: [0.0]}, DEFAULT_TRUNCATION)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_int_and_numpy_points_equal_float_points(self, k):
        floats = [1.0, 2.5, 3.0, 0.25]
        others = [1, np.float64(2.5), 3, np.float64(0.25)]
        want = q_psi_grid(self.P, k, floats)
        assert q_psi_grid(self.P, k, others) == want
        assert EvalContext(self.P).psi_grid((k, x) for x in others) == want


class TestOrderChecks:
    @pytest.mark.parametrize("k", [0.0, False, True, -1, 9])
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_psi_checks_its_order_as_psi_grid_does(self, k, warm):
        ctx = EvalContext(QParam(0.5))
        if warm:
            # keys equal to (0.0, 1.5), (False, 1.5) and (True, 1.5)
            ctx.psi_grid([(0, 1.5), (1, 1.5), (0, 2.5)])
            ctx.psi(1, 1.5)
        want = f"psi order must be an int in 0..8, got {k!r}"
        for call in (lambda: ctx.psi(k, 1.5), lambda: ctx.psi_grid([(k, 1.5)])):
            with pytest.raises(UnsupportedOrder) as info:
                call()
            assert str(info.value) == want
        assert len(ctx._results) == (3 if warm else 0)

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda p: ln_gamma_provider(p),
            lambda p: ratio_provider(p, 1.0, 2.0, 2.0, 1.0),
            lambda p: inv_digamma_provider(p)[0],
        ],
        ids=["ln-gamma", "ratio", "inv-digamma"],
    )
    def test_providers_reject_orders_other_than_ints_from_one(self, make, bad):
        prov = make(QParam(0.5))
        want = f"derivative order must be an int >= 1, got {bad!r}"
        for call in (lambda: prov.d(bad, 2.5), lambda: prov.d_grid([1, bad], [2.5])):
            with pytest.raises(UnsupportedOrder) as info:
                call()
            assert str(info.value) == want


class TestHandedOutResults:
    def test_a_swept_key_hands_out_one_object(self):
        ctx = EvalContext(QParam(0.5))
        grid = make_grid(0.05, 20.0, points=16)
        assert certify_lcm(ratio_provider(ctx, 1.0, 2.0, 2.0, 1.0), grid).passed
        x = 2.0 * float(grid[5])
        r = ctx.psi(2, x)
        assert ctx.psi_grid([(2, x)])[0] is r
        assert ctx.psi(2, x) is r
        assert r == q_polygamma(ctx.p, x, 2)
        y = float(grid[7])
        got = ctx.psi_grid([(0, y), (0, y)])
        assert got[0] is got[1] is ctx.psi(0, y)
        assert got[0] == q_digamma(ctx.p, y)


class TestSweepCounts:
    """A certification sweep reads its psi values as rows: it makes no
    EvalResult and checks its points as arrays, without core._check_x.
    Counted by call, not timed."""

    @staticmethod
    def counts(monkeypatch, call) -> tuple[int, int]:
        made, checked = [], []
        init = EvalResult.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        check = qfun.core._check_x

        def counting_check(x):
            checked.append(x)
            return check(x)

        monkeypatch.setattr(EvalResult, "__init__", counting_init)
        for mod in (qfun.core, qfun.deriv):
            monkeypatch.setattr(mod, "_check_x", counting_check)
        call()
        return len(made), len(checked)

    def test_counters_see_a_point_read(self, monkeypatch):
        ctx = EvalContext(QParam(0.5))
        assert self.counts(monkeypatch, lambda: ctx.psi(1, 1.5)) == (1, 1)

    def test_default_ratio_sweep(self, monkeypatch):
        spec = RatioSpec(1.0, 2.0, 2.0, 1.0)
        call = lambda: verify_theorem_ratio_lcm(spec, QParam(0.5))
        assert self.counts(monkeypatch, call) == (0, 0)

    def test_default_g_beta_sweep(self, monkeypatch):
        # the duplication gate reads rows too: the sweep has no one-point read
        call = lambda: verify_g_beta_lcm(QParam(0.5))
        assert self.counts(monkeypatch, call) == (0, 0)
