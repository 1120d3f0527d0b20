"""The psi grid pass as arrays and the EvalContext's rows: bit identity with
the one-point evaluators, the array check of the points, the order checks,
the provider sweeps' contract, and a count guard against per-row objects in
the certification sweeps."""

import math
import random
import re
import warnings

import numpy as np
import pytest

import qfun.core
import qfun.deriv
import qfun.rows
import qfun.theorems
from qfun import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalContext,
    EvalResult,
    NonConvergent,
    QParam,
    Truncation,
    UnsupportedOrder,
    certify_lcm,
    digamma_zero,
    g_beta_log_deriv,
    g_beta_provider,
    inv_digamma_provider,
    ln_gamma_provider,
    ln_q_gamma,
    log_derivatives,
    make_grid,
    q_digamma,
    q_polygamma,
    q_psi_grid,
    ratio_provider,
    verify_g_beta_lcm,
    verify_theorem_ratio_lcm,
)
from qfun.theorems import RatioSpec


def one_point(p: QParam, k: int, x: float, t: Truncation | None = None) -> EvalResult:
    return q_digamma(p, x, t) if k == 0 else q_polygamma(p, x, k, t)


# The (k, x) keys that each library provider's d_grid reads, listed order n
# by order n and x by x as its formula reads them, with the base they are
# read at and the one-point form of its d(n, x).  A sweep passes the orders
# as they first appear among these keys (listed_points gives each order's
# points as a sweep lists them).

A, B, ALPHA, BETA = 1.0, 2.0, 2.0, 0.75


def ratio_keys(orders, xs):
    return [key for n in orders for x in xs for key in ((n - 1, A * x), (n - 1, B * x))]


def g_beta_keys(orders, xs):
    return [
        key
        for n in orders
        for x in xs
        for key in ((n, x + 1.0), (n, x), (n - 1, x + 0.5), (n - 1, x + 1.0), (n, x + 0.5))
    ]


def providers(p: QParam, t: Truncation | None = None):
    """name -> (provider at a fresh context at truncation t, keys of
    (orders, xs), base of the keys, one-point d(n, x))."""
    q = p.q
    half = QParam(q * q)

    def psi(base, k, x):
        return one_point(base, k, x).value

    def ratio_d(n, x):
        return ALPHA * A**n * psi(p, n - 1, A * x) - BETA * B**n * psi(p, n - 1, B * x)

    def g_beta_d(n, x):
        dfrac = -(psi(half, n, x + 1.0) - psi(half, n, x)) / (2.0 * math.log(q))
        return (
            2.0 * (psi(half, n - 1, x + 0.5) - psi(half, n - 1, x + 1.0))
            + 0.5 * psi(half, n, x)
            + 0.5 * psi(half, n, x + 0.5)
            + 0.5 * BETA * (1.0 - q * q) * dfrac
        )

    def inv_d(n, x):
        return -log_derivatives([psi(p, k, x) for k in range(n + 1)])[n - 1]

    return {
        "ln-gamma": (
            ln_gamma_provider(EvalContext(p, t)),
            lambda orders, xs: [(n - 1, x) for n in orders for x in xs],
            p,
            lambda n, x: psi(p, n - 1, x),
        ),
        "ratio": (ratio_provider(EvalContext(p, t), A, B, ALPHA, BETA), ratio_keys, p, ratio_d),
        "g-beta": (g_beta_provider(EvalContext(p, t), BETA), g_beta_keys, half, g_beta_d),
        "inv-digamma": (
            inv_digamma_provider(EvalContext(p, t))[0],
            lambda orders, xs: [(k, x) for k in range(max(orders) + 1) for x in xs],
            p,
            inv_d,
        ),
    }


def pass_order(keys: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """The distinct keys, order-major: orders as they first appear, each
    order's points as they first appear."""
    by_order: dict[int, dict[float, None]] = {}
    for k, x in keys:
        by_order.setdefault(k, {})[x] = None
    return [(k, x) for k, xs in by_order.items() for x in xs]


def listed_points(name: str, orders, xs) -> dict[int, list[float]]:
    """The points that a library provider's d_grid hands the grid pass for
    (orders, xs), order by order as the pass takes them: the points its
    formula reads at that order, each x of xs in turn, repeats and all."""
    if name == "inv-digamma":
        return {k: xs for k in range(max(orders) + 1)}
    if name == "g-beta":
        # psi^(n) at x, x+1/2 and x+1; an order read only as some n-1, at
        # x+1/2 and x+1
        lead = xs + [x + 0.5 for x in xs] + [x + 1.0 for x in xs]
        firsts = dict.fromkeys(k for k, _ in g_beta_keys(orders, xs))
        return {k: lead if k in orders else lead[len(xs) :] for k in firsts}
    if name == "ratio":
        xs = [y for x in xs for y in (A * x, B * x)]
    return {n - 1: xs for n in orders}


def record_passes(monkeypatch) -> list[dict]:
    """The points of every grid pass made from deriv or theorems."""
    passes = []
    for mod in (qfun.deriv, qfun.theorems):

        def recording(p, points, t, _one_pass=mod._psi_orders):
            passes.append(points)
            return _one_pass(p, points, t)

        monkeypatch.setattr(mod, "_psi_orders", recording)
    return passes


def passed_keys(passes: list[dict]) -> list[tuple[int, float]]:
    return [(k, float(x)) for points in passes for k, xs in points.items() for x in xs]


PROVIDERS = ["ln-gamma", "ratio", "g-beta", "inv-digamma"]
# right of the digamma zero at each q, for inv-digamma; repeated points,
# and points whose shifts by 1/2 and 1 are points too, for g-beta
SWEEP_XS = [1.5, 2.0, 7.25, 2.5, 2.0, 3.0, 12.0, 1.5]


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

    @pytest.mark.parametrize("name", PROVIDERS)
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("orders", [[3, 1], [1, 2, 3, 4], [2, 2]], ids=str)
    def test_provider_sweeps_equal_point_evaluations(self, name, q, orders):
        assert digamma_zero(QParam(q)).x0 < min(SWEEP_XS)
        prov, _, _, d = providers(QParam(q))[name]
        got = prov.d_grid(orders, SWEEP_XS)
        assert got.tolist() == [[d(n, x) for x in SWEEP_XS] for n in orders]

    @pytest.mark.parametrize("name", ["ln-gamma", "ratio"])
    def test_super_unit_provider_sweeps_equal_point_evaluations(self, name):
        prov, _, _, d = providers(QParam(2.0))[name]
        got = prov.d_grid([3, 1], SWEEP_XS)
        assert got.tolist() == [[d(n, x) for x in SWEEP_XS] for n in (3, 1)]


    @pytest.mark.parametrize("q", [0.99, 1 / 0.99], ids=["q=0.99", "q=1/0.99"])
    def test_long_rows_across_the_negligible_threshold(self, q):
        # sums that run past k |ln q| = 40, from where every kernel takes
        # 1 - q^k as 1.0 without computing it
        p = QParam(q)
        xs = [0.05, 0.3, 2.0, 6.0]
        reach = -qfun.core._LN_NEGLIGIBLE / abs(math.log(q))
        for k in (0, 3, 8):
            want = [one_point(p, k, x) for x in xs]
            assert min(r.terms for r in want) < reach < max(r.terms for r in want)
            assert q_psi_grid(p, k, xs) == want, k
        want = [ln_q_gamma(p, x) for x in xs]
        assert max(r.terms for r in want) > reach
        assert EvalContext(p).ln_gamma_grid(xs) == want


class TestOneRow:
    """A pass of one point runs the row kernel, like any other pass, and
    gives the one-point evaluation's result, or its error, bit for bit."""

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_every_order_equals_the_point_evaluation(self, monkeypatch, q):
        p = QParam(q)
        passes = []
        lambert_rows = qfun.rows._lambert_rows
        monkeypatch.setattr(
            qfun.rows, "_lambert_rows", lambda *a: passes.append(a) or lambert_rows(*a)
        )
        xs = [0.05, 0.3, 1.0, 2.5, 17.0]
        for k in range(9):
            for x in xs:
                assert q_psi_grid(p, k, [x]) == [one_point(p, k, x)], (k, x)
        assert len(passes) == 9 * len(xs)

    @pytest.mark.parametrize("k", [0, 3])
    def test_an_euler_maclaurin_point_equals_the_point_evaluation(self, k):
        p = QParam(1 - 1e-5, allow_near_one=True)
        want = one_point(p, k, 0.5)
        assert want.terms < 40  # the Lambert series would take millions
        assert q_psi_grid(p, k, [0.5]) == [want]

    @pytest.mark.parametrize(
        "q, x, t",
        [(0.99, 1.0, Truncation(max_terms=64)), (10.0, 1e308, None)],
        ids=["cap", "overflow"],
    )
    def test_raises_the_one_point_error(self, q, x, t):
        p = QParam(q)
        with pytest.raises((NonConvergent, OverflowError)) as point:
            q_digamma(p, x, t)
        with pytest.raises(point.type, match=re.escape(str(point.value))):
            q_psi_grid(p, 0, [x], t)


class TestPointCheck:
    """The pass checks its points as one array; a bad point raises, for the
    first bad x in pass order, exactly what q_digamma raises for that x."""

    P = QParam(0.5)

    # the one-point error's own text for an int too large for a float: by
    # repr while repr can print it, by its bit length past that
    INT_TEXT = {
        10**400: f"x must be a finite real, got {10**400!r}",
        -(10**400): f"x must be a finite real, got {-(10**400)!r}",
        10**5000: "x must be a finite real, got an int of 16610 bits",
        -(10**5000): "x must be a finite real, got a negative int of 16610 bits",
    }

    @pytest.mark.parametrize(
        "bad",
        [
            math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1.5", None, 10**400, -(10**400),
            10**5000, -(10**5000),
        ],
        ids=[
            "nan", "inf", "-inf", "zero", "negative", "True", "str", "None", "huge-int", "-huge-int",
            "unprintable-int", "-unprintable-int",
        ],
    )
    def test_first_bad_point_raises_the_one_point_error(self, bad):
        with pytest.raises(DomainError) as info:
            q_digamma(self.P, bad)
        want = str(info.value)
        if type(bad) is int:
            assert want == self.INT_TEXT[bad]
        # alone, and before -2.0, which is bad too but later in pass order
        for later in ([], [-2.0]):
            points = {0: [1.5, 2.0], 3: [0.5, bad, *later], 1: [2.5, *later]}
            calls = [
                lambda: qfun.rows._psi_orders(self.P, points, DEFAULT_TRUNCATION),
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
            qfun.rows._psi_orders(self.P, {0: [0.0], 9: [1.0]}, DEFAULT_TRUNCATION)
        with pytest.raises(UnsupportedOrder, match=re.escape("got 9")):
            qfun.rows._psi_orders(self.P, {9: [1.0], 0: [0.0]}, DEFAULT_TRUNCATION)

    @pytest.mark.parametrize(
        "bad",
        [True, "1.5", None, 10**400, math.nan, math.inf, -math.inf, 0.0, -1.0, 10**5000],
        ids=[
            "True", "str", "None", "huge-int", "nan", "inf", "-inf", "zero", "negative",
            "unprintable-int",
        ],
    )
    @pytest.mark.parametrize("name", PROVIDERS)
    def test_providers_check_a_point_that_is_not_a_float(self, name, bad):
        # every point, a float or not, is checked as q_digamma checks it,
        # before a provider shifts or scales it, so the error names the
        # caller's x
        prov = providers(self.P)[name][0]
        with pytest.raises(DomainError) as info:
            q_digamma(self.P, bad)
        want = str(info.value)
        if type(bad) is int:
            assert want == self.INT_TEXT[bad]
        for call in (lambda: prov.d(1, bad), lambda: prov.d_grid([2, 1], [2.5, bad])):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == want

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_huge_points_evaluate_without_a_warning(self, q):
        # every Lambert term underflows to 0, so psi takes its limit as x
        # grows: -ln(1 - q) at q < 1 and ln q (x - 1/2) - ln(q - 1) at q > 1
        # for order 0, ln q for order 1 at q > 1, and 0 otherwise
        p, x, lnq = QParam(q), 2.0**1023, math.log(q)
        limits = {
            0: -math.log1p(-q) if q < 1.0 else lnq * (x - 0.5) - math.log(q - 1.0),
            1: 0.0 if q < 1.0 else lnq,
            3: 0.0,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, limit in limits.items():
                r = one_point(p, k, x)
                assert r == EvalResult(limit, 0.0, 64), k
                assert q_psi_grid(p, k, [x, 3.0]) == [r, one_point(p, k, 3.0)], k

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_int_and_numpy_points_equal_float_points(self, k):
        # 2^53 + 1 rounds to the float 2^53
        floats = [1.0, 2.5, 3.0, 0.25, 2.0**53]
        others = [1, np.float64(2.5), 3, np.float64(0.25), 2**53 + 1]
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
        # the keys equal to the rejected ones still read their one-point results
        got = ctx.psi_grid([(0, 1.5), (1, 1.5)])
        assert got == [one_point(ctx.p, 0, 1.5), one_point(ctx.p, 1, 1.5)]

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda p: ln_gamma_provider(p),
            lambda p: ratio_provider(p, 1.0, 2.0, 2.0, 1.0),
            lambda p: inv_digamma_provider(p)[0],
            lambda p: g_beta_provider(p, BETA),
        ],
        ids=["ln-gamma", "ratio", "inv-digamma", "g-beta"],
    )
    def test_providers_reject_orders_other_than_ints_from_one(self, make, bad):
        prov = make(QParam(0.5))
        want = f"derivative order must be an int >= 1, got {bad!r}"
        for call in (lambda: prov.d(bad, 2.5), lambda: prov.d_grid([1, bad], [2.5])):
            with pytest.raises(UnsupportedOrder) as info:
                call()
            assert str(info.value) == want

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, True])
    def test_g_beta_log_deriv_rejects_the_same_orders(self, bad):
        want = f"derivative order must be an int >= 1, got {bad!r}"
        with pytest.raises(UnsupportedOrder) as info:
            g_beta_log_deriv(QParam(0.5), 1.0, bad, 1.5)
        assert str(info.value) == want


class TestHandedOutResults:
    def test_a_swept_key_reads_its_one_point_result(self):
        # after a sweep through the context, every read of a swept key
        # evaluates it afresh and equals the one-point evaluation
        ctx = EvalContext(QParam(0.5))
        grid = make_grid(0.05, 20.0, points=16)
        assert certify_lcm(ratio_provider(ctx, 1.0, 2.0, 2.0, 1.0), grid).passed
        x = 2.0 * float(grid[5])
        r = ctx.psi(2, x)
        assert r == q_polygamma(ctx.p, x, 2)
        assert ctx.psi_grid([(2, x)]) == [r]
        assert ctx.psi(2, x) == r
        y = float(grid[7])
        want = q_digamma(ctx.p, y)
        assert ctx.psi_grid([(0, y), (0, y)]) == [want, want]
        assert ctx.psi(0, y) == want


class TestProviderSweeps:
    """A provider sweep hands the pass one float array per order, holding
    the points its formula reads at that order."""

    @pytest.mark.parametrize("name", PROVIDERS)
    @pytest.mark.parametrize("orders", [[3, 1], [1, 2, 3, 4, 5, 6]], ids=str)
    def test_one_pass_of_the_distinct_keys_in_order(self, monkeypatch, name, orders):
        # the keys each provider lists, in order; SWEEP_XS repeats points,
        # and the pass takes them as listed
        prov = providers(QParam(0.5))[name][0]
        passes = record_passes(monkeypatch)
        prov.d_grid(orders, SWEEP_XS)
        assert len(passes) == 1
        assert all(type(xs) is np.ndarray and xs.dtype == np.float64 for xs in passes[0].values())
        got = [(k, xs.tolist()) for k, xs in passes[0].items()]
        assert got == list(listed_points(name, orders, SWEEP_XS).items())

    def test_g_beta_evaluates_each_distinct_key_once(self, monkeypatch):
        # order n reads psi^(n) at x, x+1/2 and x+1 and psi^(n-1) at x+1/2
        # and x+1, so orders 1..6 list 30 keys per x, of which 20 are distinct
        xs = [float(x) for x in make_grid(0.05, 20.0, points=64)]
        keys = g_beta_keys(range(1, 7), xs)
        assert len(keys) == 30 * 64 and len(set(keys)) == 1_280
        ctx = EvalContext(QParam(0.5))
        passes = record_passes(monkeypatch)
        assert verify_g_beta_lcm(ctx, grid=np.array(xs)).passed
        # the duplication gate on each base, then the sweep, which
        # evaluates every key it reads, the gate's ones too
        evaluated = passed_keys(passes[2:])
        assert len(passes) == 3
        assert len(evaluated) == len(set(evaluated)) == 1_280
        assert set(evaluated) == set(keys)
        # neither context has anywhere to keep a value
        assert not hasattr(ctx, "__dict__") and not hasattr(ctx.squared(), "__dict__")

    def test_a_swept_g_beta_key_is_read_without_a_second_evaluation(self, monkeypatch):
        want = g_beta_provider(QParam(0.5), BETA).d_grid([3, 1], SWEEP_XS).tolist()
        ctx = EvalContext(QParam(0.5))
        prov = g_beta_provider(ctx, BETA)
        prov.d_grid([1, 2, 3], SWEEP_XS)
        half = ctx.squared()
        passes = record_passes(monkeypatch)
        points = []
        one_point_eval = qfun.deriv._psi_point

        def counting(*args):
            points.append(args)
            return one_point_eval(*args)

        monkeypatch.setattr(qfun.deriv, "_psi_point", counting)
        # the sweep kept nothing: the first read evaluates its one point
        r = half.psi(2, 3.0)
        assert len(points) == 1 and passes == []
        assert r == q_polygamma(QParam(0.25), 3.0, 2)
        # each later read evaluates the key once: a grid call in one pass,
        # the repeated key in it once, and a point read one point
        assert half.psi_grid([(2, 3.0), (2, 3.0)]) == [r, r]
        assert passed_keys(passes) == [(2, 3.0)]
        assert half.psi(2, 3.0) == r
        assert len(points) == 2 and len(passes) == 1
        # another sweep over the same keys evaluates them afresh, in one pass
        assert prov.d_grid([3, 1], SWEEP_XS).tolist() == want
        assert len(passes) == 2 and len(points) == 2

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_term_cap_raises_the_first_capped_keys_error(self, name):
        # a 1000-term cap fails psi^(k) at q = 0.5 for k >= 2 near x = 0.05,
        # and at base 0.25 for k >= 4 near x = 0.03 and every k at 0.02
        q, t = 0.5, Truncation(max_terms=1000)
        xs = [2.0, 0.03, 0.4, 0.0226, 0.02]
        orders = [5, 2]
        prov, keys_of, base, _ = providers(QParam(q), t)[name]
        for key in pass_order(keys_of(orders, xs)):
            try:
                one_point(base, *key, t)
            except NonConvergent as err:
                want = str(err)
                break
        else:
            pytest.fail("no key reaches the cap")
        with pytest.raises(NonConvergent) as info:
            prov.d_grid(orders, xs)
        assert str(info.value) == want

    def test_psi_grid_takes_orders_as_they_first_appear_among_all_its_keys(self):
        # (4, 2.0) converges, and (0, 0.02) and (4, 0.03) are both past a
        # 1000-term cap at q = 0.25; order 4 comes first among the keys, so
        # the pass reaches (4, 0.03) first
        p, t = QParam(0.25), Truncation(max_terms=1000)
        ctx = EvalContext(p, t)
        ctx.psi(4, 2.0)
        for key in ((0, 0.02), (4, 0.03)):
            with pytest.raises(NonConvergent) as want:
                one_point(p, *key, t)
        with pytest.raises(NonConvergent) as info:
            ctx.psi_grid([(4, 2.0), (0, 0.02), (4, 0.03)])
        assert str(info.value) == str(want.value)


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
        for mod in (qfun.core, qfun.rows, qfun.deriv):
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
