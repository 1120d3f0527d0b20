"""Finite differences, log-derivative recursion, grid and certification."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

import qfun.core
import qfun.deriv
import qfun.rows

from qfun import (
    DomainError,
    EvalContext,
    LogDerivProvider,
    N_MAX,
    NonConvergent,
    QParam,
    Truncation,
    UnsupportedOrder,
    VerifyReport,
    certify_lcm,
    ln_gamma_provider,
    ln_q_gamma,
    log_derivatives,
    make_grid,
    q_digamma,
    q_gamma,
    q_polygamma,
    q_psi_grid,
    ratio_provider,
)
from qfun.deriv import TIGHT_MARGIN
from stencils import default_step, finite_diff


class TestMakeGrid:
    def test_geometric_spacing(self):
        g = make_grid(0.1, 10.0, points=5)
        ratios = [g[i + 1] / g[i] for i in range(len(g) - 1)]
        assert max(ratios) - min(ratios) < 1e-9

    def test_linear_spacing(self):
        g = make_grid(1.0, 2.0, points=5, spacing="linear")
        steps = [g[i + 1] - g[i] for i in range(len(g) - 1)]
        assert max(steps) - min(steps) < 1e-12

    def test_endpoints_pulled_inward(self):
        g = make_grid(1.0, 2.0, points=8)
        assert g[0] > 1.0 and g[-1] < 2.0

    def test_point_count(self):
        assert len(make_grid(0.5, 3.0, points=17)) == 17

    def test_validation(self):
        with pytest.raises(DomainError):
            make_grid(2.0, 1.0)
        with pytest.raises(DomainError):
            make_grid(1.0, 2.0, points=1)
        with pytest.raises(DomainError):
            make_grid(1.0, 2.0, spacing="cubic")
        with pytest.raises(DomainError):
            make_grid(0.0, 2.0, spacing="geometric")

    @pytest.mark.parametrize(
        "bad", [True, "5", 10**400, math.inf, math.nan], ids=["bool", "str", "huge-int", "inf", "nan"]
    )
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_ends_must_be_finite_reals(self, end, bad):
        # True once swept from 1.0, "5" raised TypeError, 10**400 OverflowError
        ends = {"lo": 1.0, "hi": 2.0, end: bad}
        with pytest.raises(DomainError, match=f"^{end} must be a finite real, got "):
            make_grid(ends["lo"], ends["hi"])

    @pytest.mark.parametrize("bad", [3.0, True, "3"])
    def test_points_must_be_an_int(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"points must be an int >= 2, got {bad!r}")):
            make_grid(1.0, 2.0, points=bad)


class TestFiniteDiff:
    def test_exponential_all_orders(self):
        # f = exp(-x): nth derivative is (-1)^n exp(-x); the default step
        # widens with n, so the O(h^2) error does too
        f = lambda x: math.exp(-x)
        for n, rel in ((1, 1e-8), (2, 1e-6), (3, 1e-4), (4, 1e-2)):
            got = finite_diff(f, 1.3, n=n)
            want = (-1.0) ** n * math.exp(-1.3)
            assert got == pytest.approx(want, rel=rel), n

    def test_cubic_low_orders(self):
        f = lambda x: x**3
        assert finite_diff(f, 2.0, n=1) == pytest.approx(12.0, rel=1e-8)
        assert finite_diff(f, 2.0, n=2) == pytest.approx(12.0, rel=1e-6)
        assert finite_diff(f, 2.0, n=3) == pytest.approx(6.0, rel=1e-3)

    def test_explicit_step(self):
        f = lambda x: math.sin(x)
        got = finite_diff(f, 0.7, n=1, h=1e-6)
        assert got == pytest.approx(math.cos(0.7), rel=1e-9)

    def test_stencil_escape_raises(self):
        f = lambda x: 1.0 / x
        # n=2 stencil spans x-h .. x+h; h=0.6 pushes past lo=0
        with pytest.raises(DomainError):
            finite_diff(f, 0.5, n=2, h=0.6, lo=0.0)
        # n=4 spans x-2h .. x+2h
        with pytest.raises(DomainError):
            finite_diff(f, 0.5, n=4, h=0.3, lo=0.0)

    def test_order_validation(self):
        with pytest.raises(UnsupportedOrder):
            finite_diff(math.exp, 1.0, n=5)
        with pytest.raises(UnsupportedOrder):
            finite_diff(math.exp, 1.0, n=0)

    @pytest.mark.parametrize("bad", [True, 1.0, 2.0])
    def test_order_must_be_an_int(self, bad):
        with pytest.raises(UnsupportedOrder, match=re.escape(f"got {bad!r}")):
            finite_diff(math.exp, 1.0, n=bad)


class TestLogDerivatives:
    def test_reciprocal_power(self):
        # f = (1+x)^(-1): (ln f)^(n) = (-1)^n (n-1)!/(1+x)^n
        x = 0.6
        fs = [(-1.0) ** k * math.factorial(k) / (1.0 + x) ** (k + 1)
              for k in range(7)]
        got = log_derivatives(fs)
        for n in range(1, 7):
            want = (-1.0) ** n * math.factorial(n - 1) / (1.0 + x) ** n
            assert got[n - 1] == pytest.approx(want, rel=1e-12), n

    def test_pure_exponential(self):
        # f = exp(cx): every log-derivative beyond the first vanishes
        c, x = 0.37, 1.1
        fs = [c**k * math.exp(c * x) for k in range(5)]
        got = log_derivatives(fs)
        assert got[0] == pytest.approx(c, rel=1e-12)
        for v in got[1:]:
            assert abs(v) < 1e-12

    def test_gaussian_factor(self):
        # f = exp(x^2/2): (ln f)' = x, (ln f)'' = 1, rest 0
        x = 0.8
        f = math.exp(x * x / 2.0)
        fs = [f, x * f, (x * x + 1.0) * f, (x**3 + 3.0 * x) * f]
        got = log_derivatives(fs)
        assert got[0] == pytest.approx(x, rel=1e-12)
        assert got[1] == pytest.approx(1.0, rel=1e-12)
        assert abs(got[2]) < 1e-12

    def test_requires_positive_value(self):
        with pytest.raises(DomainError):
            log_derivatives([-1.0, 0.5])
        with pytest.raises(DomainError):
            log_derivatives([1.0])


class TestDefaultStep:
    def test_grows_with_order(self):
        steps = [default_step(1.0, n) for n in range(1, 5)]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_scales_with_x(self):
        assert default_step(100.0, 1) > default_step(1.0, 1)


class TestCertifyLcm:
    def test_known_lcm_function(self):
        # ln f = 1/x gives (-1)^n (ln f)^(n) = n!/x^(n+1) > 0
        def d(n, x):
            return (-1.0) ** n * math.factorial(n) / x ** (n + 1)

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="exp(1/x)")
        grid = make_grid(0.5, 8.0, points=24)
        rep = certify_lcm(prov, grid)
        assert rep.passed
        assert rep.worst_margin >= 0.0
        # n!/x^(n+1) at x near 8 falls with n, so the last order checked
        # holds the worst margin: the default sweep stops at N_MAX
        assert (rep.worst_point["n_order"], rep.worst_point["x"]) == (N_MAX, float(grid[-1]))

    def test_designed_violation(self):
        # ln f = -x^2: n=1 is fine (margin 2x > 0) but n=2 margin is -2
        def d(n, x):
            if n == 1:
                return -2.0 * x
            if n == 2:
                return -2.0
            return 0.0

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="exp(-x^2)")
        rep = certify_lcm(prov, make_grid(0.5, 8.0, points=8))
        assert not rep.passed
        assert rep.counterexample is not None
        assert rep.counterexample["n_order"] == 2
        assert rep.counterexample["margin"] == pytest.approx(-2.0, rel=1e-12)
        assert rep.worst_point["n_order"] == 2
        assert rep.worst_margin == pytest.approx(-2.0, rel=1e-12)

    def test_margin_sign_convention(self):
        # margin(n, x) = (-1)^n d(n, x); first violating order is reported
        def d(n, x):
            return 1.0  # wrong sign for odd n

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="bad")
        rep = certify_lcm(prov, make_grid(1.0, 2.0, points=4))
        assert not rep.passed
        assert rep.counterexample["n_order"] == 1
        # value is d itself, margin its sign-adjusted version
        assert (rep.counterexample["value"], rep.counterexample["margin"]) == (1.0, -1.0)

    def test_report_type(self):
        orders = set()

        def d(n, x):
            orders.add(n)
            return (-1.0) ** n

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="flat")
        grid = make_grid(1.0, 2.0, points=4)
        rep = certify_lcm(prov, grid, n_orders=3)
        assert isinstance(rep, VerifyReport)
        assert orders == {1, 2, 3}
        assert (rep.claim_id, rep.params, rep.tol) == ("flat", {}, 1e-9)
        assert rep.grid_summary == {"lo": float(grid[0]), "hi": float(grid[-1]), "points": 4}

    @pytest.mark.parametrize("tol", [True, "1e-9", 10**400], ids=["bool", "str", "huge-int"])
    def test_rejects_tol_that_is_not_a_real(self, tol):
        # True once ran as tol=True, "1e-9" raised TypeError, 10**400 OverflowError
        prov = LogDerivProvider(d=lambda n, x: 1.0, lo=0.0, hi=math.inf, name="flat")
        with pytest.raises(DomainError, match="^tol must be a finite real, got "):
            certify_lcm(prov, make_grid(1.0, 2.0, points=4), tol=tol)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        prov = LogDerivProvider(d=lambda n, x: 1.0, lo=0.0, hi=math.inf, name="flat")
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            certify_lcm(prov, make_grid(1.0, 2.0, points=4), tol=tol)

    def test_nan_margin_fails(self):
        # a NaN margin is not >= -tol, so it is a violation and the worst
        prov = LogDerivProvider(d=lambda n, x: math.nan, lo=0.0, hi=math.inf, name="nan")
        grid = make_grid(1.0, 2.0, points=4)
        rep = certify_lcm(prov, grid, n_orders=2)
        assert not rep.passed
        assert math.isnan(rep.worst_margin)
        assert (rep.worst_point["n_order"], rep.worst_point["x"]) == (1, float(grid[0]))
        ce = rep.counterexample
        assert (ce["n_order"], ce["x"]) == (1, float(grid[0])) and math.isnan(ce["margin"])
        # one point, so equal rows even at NaN: the CLI renders it once
        assert ce == rep.worst_point


class TestProviders:
    def test_ln_gamma_provider_first_order_is_digamma(self):
        from qfun import q_digamma

        p = QParam(0.5)
        prov = ln_gamma_provider(p)
        for x in (0.3, 1.7):
            assert prov.d(1, x) == pytest.approx(
                q_digamma(p, x).value, rel=1e-13
            )

    def test_ratio_provider_matches_finite_difference(self):
        # matched order: analytic d(n, .) vs first difference of d(n-1, .)
        p = QParam(0.5)
        prov = ratio_provider(p, a=1.0, b=2.0, alpha=2.0, beta=1.0)
        for n in (2, 3):
            for x in (0.8, 2.5):
                got = prov.d(n, x)
                want = finite_diff(lambda u: prov.d(n - 1, u), x, n=1)
                assert got == pytest.approx(want, rel=1e-7), (n, x)

    def test_ratio_provider_validation(self):
        p = QParam(0.5)
        with pytest.raises(DomainError):
            ratio_provider(p, a=2.0, b=1.0, alpha=1.0, beta=2.0)
        with pytest.raises(DomainError):
            ratio_provider(p, a=1.0, b=1.0, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("name", ["a", "b", "alpha", "beta"])
    @pytest.mark.parametrize(
        "bad, shown",
        [
            (True, "True"),
            ("1.5", "'1.5'"),
            (math.nan, "nan"),
            (-math.inf, "-inf"),
            (10**400, "1" + "0" * 400),
            (-(10**5000), "a negative int of 16610 bits"),
        ],
        ids=["bool", "str", "nan", "-inf", "huge-int", "unprintable-int"],
    )
    def test_ratio_parameters_must_be_finite_reals(self, name, bad, shown):
        # a NaN alpha once built a sweep that failed with worst_margin nan,
        # and a huge int raised OverflowError
        from qfun import RatioSpec

        args = {"a": 1.0, "b": 2.0, "alpha": 2.0, "beta": 1.0, name: bad}
        for make in (lambda: ratio_provider(QParam(0.5), **args), lambda: RatioSpec(**args)):
            with pytest.raises(DomainError) as info:
                make()
            assert str(info.value) == f"{name} must be a finite real, got {shown}"


class TestEvalContext:
    def test_values_equal_direct_calls(self):
        from qfun import EvalContext, ln_q_gamma, q_digamma, q_polygamma

        for q in (0.5, 2.0):
            p = QParam(q)
            ctx = EvalContext(p)
            for x in (0.3, 1.0, 2.75, 12.0):
                assert ctx.psi(0, x) == q_digamma(p, x), (q, x)
                for k in range(1, 8):
                    assert ctx.psi(k, x) == q_polygamma(p, x, k), (q, x, k)
                assert ctx.ln_gamma(x) == ln_q_gamma(p, x), (q, x)

    def test_repeated_point_returns_same_result(self):
        # each read evaluates afresh, and equals the one-point evaluation
        from qfun import EvalContext

        p = QParam(0.5)
        ctx = EvalContext(p)
        assert ctx.psi(2, 1.5) == ctx.psi(2, 1.5) == q_polygamma(p, 1.5, 2)
        assert ctx.ln_gamma(1.5) == ctx.ln_gamma(1.5) == ln_q_gamma(p, 1.5)
        assert ctx.ln_gamma(1.5) != ctx.psi(0, 1.5)

    def test_holds_no_value_store(self):
        # only p, the truncation, the zero and the q^2 context: there is no
        # __dict__ for a store of values to grow in
        ctx = EvalContext(QParam(0.5))
        ctx.psi_grid([(0, 1.5)])
        ctx.ln_gamma_grid([1.5])
        assert EvalContext.__slots__ == ("p", "trunc", "_zero", "_squared", "__weakref__")
        assert not hasattr(ctx, "__dict__")
        with pytest.raises(AttributeError):
            ctx._results = {}

    def test_zero_solved_once(self, monkeypatch):
        import qfun.deriv
        from qfun import EvalContext, digamma_zero

        solves = []

        def counting(*args, **kwargs):
            solves.append(args)
            return digamma_zero(*args, **kwargs)

        monkeypatch.setattr(qfun.deriv, "digamma_zero", counting)
        ctx = EvalContext(QParam(0.5))
        assert ctx.zero() is ctx.zero()
        assert ctx.zero() == digamma_zero(QParam(0.5))
        assert len(solves) == 1

    @pytest.mark.parametrize("bad", [True, False, None, "1.5"])
    def test_warm_context_rejects_a_non_float_x_as_a_fresh_one(self, bad):
        # True and False equal and hash like 1.0 and 0.0, so merging the
        # repeated keys before the check would answer True with psi(1.0)
        calls = [
            lambda ctx: ctx.psi(0, bad),
            lambda ctx: ctx.psi_grid([(0, bad)]),
            lambda ctx: ctx.ln_gamma(bad),
            lambda ctx: ctx.ln_gamma_grid([bad]),
        ]
        for call in calls:
            fresh = EvalContext(QParam(0.5))
            with pytest.raises(DomainError) as want:
                call(fresh)
            warm = EvalContext(QParam(0.5))
            warm.psi_grid([(0, 0.5), (0, 1.0)])
            warm.ln_gamma_grid([0.5, 1.0])
            with pytest.raises(DomainError) as got:
                call(warm)
            assert str(got.value) == str(want.value) == f"x must be a finite real, got {bad!r}"


class TestPsiGrid:
    """The grid pass against one-point evaluations, which stay its reference."""

    # 0.01 needs many chunks, 50 one; unsorted, with repeated points
    XS = [3.0, 0.01, 50.0, 0.37, 0.01, 1.0, 12.5, 0.08, 3.0, 0.2, 50.0, 1.0001]

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.99, 2.0, 5.0])
    def test_equals_point_evaluations(self, q):
        p = QParam(q)
        for k in range(0, 9):
            want = [q_digamma(p, x) if k == 0 else q_polygamma(p, x, k) for x in self.XS]
            assert q_psi_grid(p, k, self.XS) == want, (q, k)
            ctx = EvalContext(p)
            assert ctx.psi_grid((k, x) for x in self.XS) == want, (q, k)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.99, 2.0, 5.0])
    def test_one_mixed_order_pass_equals_point_evaluations(self, q, monkeypatch):
        p = QParam(q)
        keys = [(k, x) for x in self.XS for k in range(9)]
        random.Random(str(q)).shuffle(keys)
        passes = []
        one_pass = qfun.deriv._psi_orders
        monkeypatch.setattr(
            qfun.deriv, "_psi_orders", lambda *args: passes.append(args) or one_pass(*args)
        )
        got = EvalContext(p).psi_grid(keys)
        assert len(passes) == 1
        assert got == [q_digamma(p, x) if k == 0 else q_polygamma(p, x, k) for k, x in keys]

    @pytest.mark.parametrize("q", [0.999, 1.001])
    def test_near_one_equals_point_evaluations_past_one_block(self, q):
        # sums of up to 786,368 terms, summed in blocks of 8,192 past the
        # first 16,320; 0.01 would take millions
        p = QParam(q, allow_near_one=True)
        t = Truncation(max_terms=100_000_000)
        xs = [x for x in self.XS if x > 0.01]
        keys = [(k, x) for x in xs for k in range(9)]
        want = [q_digamma(p, x, t) if k == 0 else q_polygamma(p, x, k, t) for k, x in keys]
        assert max(r.terms for r in want) > 16_320
        for k in range(9):
            assert q_psi_grid(p, k, xs, t) == want[k::9], (q, k)
        assert EvalContext(p, t).psi_grid(keys) == want

    def test_term_cap_raises_the_first_capped_keys_error(self):
        # with q = 0.5 and a 1000-term cap, psi^(0) converges at these
        # points, psi^(1) fails at 0.0451 and 0.045, psi^(k >= 2) at 0.05 too
        p = QParam(0.5)
        t = Truncation(max_terms=1000)

        def per_point(k, x):
            with pytest.raises(NonConvergent) as info:
                q_digamma(p, x, t) if k == 0 else q_polygamma(p, x, k, t)
            return str(info.value)

        # the kernel: the first capped row in the order given
        ks, xs = [1, 0, 2, 3, 1], [0.4, 0.045, 0.0451, 0.05, 0.045]
        with pytest.raises(NonConvergent) as info:
            qfun.rows._psi_rows(p, ks, xs, t)
        assert str(info.value) == per_point(2, 0.0451)
        # the context: orders as they first appear (0, 3, 1, 2), each
        # order's points as they first appear
        keys = [(0, 0.045), (3, 2.0), (1, 0.4), (3, 0.05), (1, 0.045), (0, 0.05), (2, 0.0451)]
        with pytest.raises(NonConvergent) as info:
            EvalContext(p, t).psi_grid(keys)
        assert str(info.value) == per_point(3, 0.05)

    def test_psi_returns_the_grid_result(self, monkeypatch):
        ctx = EvalContext(QParam(0.5))
        passes = []
        one_pass = qfun.deriv._psi_orders
        monkeypatch.setattr(
            qfun.deriv, "_psi_orders", lambda *args: passes.append(args[1]) or one_pass(*args)
        )
        keys = [(2, 1.5), (0, 0.3), (2, 1.5), (1, 0.3)]
        got = ctx.psi_grid(keys)
        # one pass, which evaluates the repeated key once
        assert passes == [{2: [1.5], 0: [0.3], 1: [0.3]}]
        assert got[0] == got[2]
        for key, r in zip(keys, got):
            assert ctx.psi(*key) == r
        # a later call evaluates its key afresh, in a pass of its own
        assert ctx.psi_grid([(0, 0.3), (0, 0.3)]) == [got[1], got[1]]
        assert passes[1:] == [{0: [0.3]}]

    def test_validation(self):
        p = QParam(0.5)
        with pytest.raises(UnsupportedOrder):
            q_psi_grid(p, 9, [1.0])
        with pytest.raises(UnsupportedOrder):
            q_psi_grid(p, -1, [1.0])
        with pytest.raises(DomainError):
            q_psi_grid(p, 0, [1.0, 0.0])
        assert q_psi_grid(p, 3, []) == []

    @pytest.mark.parametrize("k", [0.0, 9, True])
    @pytest.mark.parametrize("xs", [[1.5], [1.5, 2.5]])
    def test_context_rejects_bad_orders_at_any_point_count(self, k, xs):
        want = f"psi order must be an int in 0..8, got {k!r}"
        with pytest.raises(UnsupportedOrder, match=re.escape(want)):
            EvalContext(QParam(0.5)).psi_grid((k, x) for x in xs)


class TestLnGammaGrid:
    """The ln Gamma_q grid pass against one-point ln_q_gamma, its reference."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.99, 2.0, 5.0])
    def test_equals_point_evaluations(self, q):
        p = QParam(q)
        want = [ln_q_gamma(p, x) for x in TestPsiGrid.XS]
        assert EvalContext(p).ln_gamma_grid(TestPsiGrid.XS) == want, q

    def test_array_tails_equal_the_one_point_tails(self):
        # infinite at the first chunk end near q = 1, 0.0 far out, and in
        # range between; sub-unit bases, as q > 1 sums at 1/q
        xs = [0.3, 1.0, 2.5, 1e-3, 40.0, 0.999999, 7.0]
        kinds = set()
        for q in (0.2, 0.5, 0.99, 0.9999, 1 / 3.0):
            tails = qfun.rows._logprod_tails(q, np.array(xs))
            for next_j in (1, 64, 192, 16_320, 10_000_000):
                got = tails(next_j, np.arange(len(xs))).tolist()
                want = [qfun.core._logprod_tail(q, x, next_j) for x in xs]
                assert got == want, (q, next_j)
                assert tails(next_j, np.array([4, 0, 4])).tolist() == [want[4], want[0], want[4]]
                kinds.update(v if v in (0.0, math.inf) else "finite" for v in got)
        assert kinds == {0.0, "finite", math.inf}

    @pytest.mark.parametrize("q", [0.99, 2.0, 1.25])
    def test_err_bounds_equal_the_one_point_ones(self, q):
        # x < 1 and x >= 1, at q > 1 too; at q = 0.99 every tail with x >= 1
        # is infinite at the first chunk end
        p = QParam(q)
        xs = [0.3, 0.05, 1.0, 2.5, 12.0, 0.75]
        base = q if q < 1.0 else 1.0 / q
        infinite = [qfun.core._logprod_tail(base, x, 64) == math.inf for x in xs]
        assert any(infinite) == (q == 0.99)
        got = EvalContext(p).ln_gamma_grid(xs)
        want = [ln_q_gamma(p, x) for x in xs]
        assert [(r.err_bound, r.terms) for r in got] == [(r.err_bound, r.terms) for r in want]
        assert got == want

    def test_term_cap_raises_the_first_points_error(self):
        # with q = 0.8 and a 300-term cap, 0.3 and 1.0001 converge while 2.0
        # and 1.0 (where ln Gamma_q is 0, so the target is abs_tol) do not
        p = QParam(0.8)
        t = Truncation(max_terms=300)
        xs = [0.3, 1.0001, 2.0, 1.0, 0.3]
        with pytest.raises(NonConvergent) as info:
            ln_q_gamma(p, 2.0, t)
        want = str(info.value)
        assert want == "term cap 300 reached before the tail target (q=0.8, x=2.0)"
        with pytest.raises(NonConvergent) as info:
            EvalContext(p, t).ln_gamma_grid(xs)
        assert str(info.value) == want

    def test_overflow_raises_the_first_points_error(self):
        # at q = 2 the prefactor q^{x(x-1)/2} leaves the double range past
        # x = 1.9e154, on the log scale too
        p = QParam(2.0)
        with pytest.raises(OverflowError, match=re.escape("at x = 3e+160")):
            ln_q_gamma(p, 3e160)
        with pytest.raises(OverflowError, match=re.escape("at x = 3e+160")):
            EvalContext(p).ln_gamma_grid([1.5, 3e160, 2e160])

    def test_ln_gamma_returns_the_grid_result(self, monkeypatch):
        ctx = EvalContext(QParam(0.5))
        passes = []
        one_pass = qfun.deriv._ln_gamma_rows
        monkeypatch.setattr(
            qfun.deriv, "_ln_gamma_rows", lambda p, xs, t: passes.append(xs) or one_pass(p, xs, t)
        )
        got = ctx.ln_gamma_grid([1.5, 0.3, 1.5])
        # one pass, which evaluates the repeated point once
        assert passes == [[1.5, 0.3]]
        assert got[0] == got[2]
        assert ctx.ln_gamma(1.5) == got[0] == ln_q_gamma(ctx.p, 1.5)
        assert ctx.ln_gamma(0.3) == got[1]
        # a later call evaluates its point afresh, in a pass of its own
        assert ctx.ln_gamma_grid([0.3, 0.3]) == [got[1], got[1]]
        assert passes[1:] == [[0.3]]
        assert ctx.psi(0, 1.5) != got[0]

    def test_validation(self):
        ctx = EvalContext(QParam(0.5))
        with pytest.raises(DomainError):
            ctx.ln_gamma_grid([1.0, 0.0])
        assert ctx.ln_gamma_grid([]) == []

    @pytest.mark.parametrize(
        "fill",
        [lambda ctx: ctx.ln_gamma(1.5), lambda ctx: ctx.ln_gamma_grid([1.5])],
        ids=["ln_gamma", "ln_gamma_grid"],
    )
    def test_order_minus_one_stays_unsupported(self, fill):
        # ln Gamma_q is not psi^(-1): once ln_gamma has run, both psi calls
        # still raise what they raised before
        ctx = EvalContext(QParam(0.5))

        def errors():
            found = []
            for call in (lambda: ctx.psi(-1, 1.5), lambda: ctx.psi_grid([(-1, 1.5)])):
                with pytest.raises(UnsupportedOrder) as info:
                    call()
                found.append(str(info.value))
            return found

        before = errors()
        fill(ctx)
        assert errors() == before


def test_super_unit_term_cap_names_the_callers_q():
    # the sums run at base 1/q = 0.2, and the error names q = 5.0 itself
    p = QParam(5.0)
    t = Truncation(max_terms=64)

    def message(call):
        with pytest.raises(NonConvergent) as info:
            call()
        return str(info.value)

    for k in (0, 2):
        want = f"term cap 64 reached before the tail target (q=5.0, x=0.01, order={k})"
        point = (lambda: q_polygamma(p, 0.01, k, t)) if k else (lambda: q_digamma(p, 0.01, t))
        assert message(point) == want
        assert message(lambda: q_psi_grid(p, k, [1.0, 0.01], t)) == want
        assert message(lambda: EvalContext(p, t).psi_grid([(k, 1.0), (k, 0.01)])) == want
    t = Truncation(max_terms=8)
    want = "term cap 8 reached before the tail target (q=5.0, x=0.01)"
    for call in (
        lambda: ln_q_gamma(p, 0.01, t),
        lambda: q_gamma(p, 0.01, t),
        lambda: EvalContext(p, t).ln_gamma_grid([0.01, 0.02]),
    ):
        assert message(call) == want


class TestSquaredContext:
    def test_made_once_at_base_q_squared(self):
        ctx = EvalContext(QParam(0.5), Truncation(rel_tol=1e-12))
        half = ctx.squared()
        assert half is ctx.squared()
        assert half.p == QParam(0.25)
        assert half.trunc == ctx.trunc
        assert half.psi(0, 1.5) == q_digamma(QParam(0.25), 1.5, ctx.trunc)


class TestGridHook:
    def test_called_once_per_sweep_after_domain_checks(self):
        calls = []

        def d_grid(orders, xs):
            calls.append((list(orders), list(xs)))
            return np.array([[(-1.0) ** n] * len(xs) for n in orders])

        prov = LogDerivProvider(
            d=lambda n, x: (-1.0) ** n, lo=0.0, hi=math.inf, name="flat", d_grid=d_grid
        )
        grid = make_grid(1.0, 2.0, points=4)
        certify_lcm(prov, grid, n_orders=3)
        assert calls == [([1, 2, 3], [float(x) for x in grid])]
        calls.clear()
        with pytest.raises(DomainError):
            certify_lcm(prov, [1.0, -1.0])
        assert calls == []

    def test_rejects_a_grid_of_the_wrong_shape(self):
        prov = LogDerivProvider(
            d=lambda n, x: 1.0, lo=0.0, hi=math.inf, name="short",
            d_grid=lambda orders, xs: np.ones((len(orders), len(xs) - 1)),
        )
        with pytest.raises(ValueError, match="d_grid returned shape"):
            certify_lcm(prov, [1.0, 2.0], n_orders=2)

    @pytest.mark.parametrize("q", [0.3, 0.7, 2.0])
    def test_provider_without_hook_gives_same_report(self, q):
        p = QParam(q)
        grid = [3.0, 0.05, 1.7, 0.4, 11.0, 0.05, 20.0]
        for make in (
            lambda: ratio_provider(p, a=1.0, b=2.0, alpha=2.0, beta=1.0),
            lambda: ratio_provider(p, a=0.7, b=1.9, alpha=1.0, beta=1.3),
            lambda: ln_gamma_provider(p),
        ):
            hooked = make()
            assert hooked.d_grid is not None
            plain = make()
            by_hand = LogDerivProvider(d=plain.d, lo=plain.lo, hi=plain.hi, name=plain.name)
            assert certify_lcm(hooked, grid) == certify_lcm(by_hand, grid)

    def test_term_cap_raises_the_per_point_sweeps_error(self):
        # with q = 0.5 and a 1000-term cap, psi^(0) converges at every point
        # and psi^(1) fails at 0.0451 and 0.045 (order 2), psi^(2) also at
        # 0.05 (order 3): the sweep's first failure is order 2 at 0.0451
        p = QParam(0.5)
        t = Truncation(max_terms=1000)
        grid = [0.05, 2.0, 0.0451, 0.4, 0.045]

        def sweep(prov):
            with pytest.raises(NonConvergent) as info:
                certify_lcm(prov, grid)
            return str(info.value)

        hooked = ratio_provider(EvalContext(p, t), a=1.0, b=2.0, alpha=2.0, beta=1.0)
        per_point = dataclasses.replace(
            ratio_provider(EvalContext(p, t), a=1.0, b=2.0, alpha=2.0, beta=1.0), d_grid=None
        )
        want = sweep(per_point)
        assert want == "term cap 1000 reached before the tail target (q=0.5, x=0.0451, order=1)"
        assert sweep(hooked) == want


def plain_certify(provider, grid, n_orders=N_MAX, tol=1e-9):
    """The sweep certify_lcm must agree with: read d(n, x) one point at a
    time, ascending order then grid order, keeping the row of the first
    point, then of each strictly smaller margin until a NaN one, and of the
    first margin not >= -tol."""
    xs = [float(x) for x in np.asarray(grid, dtype=np.float64).ravel()]
    worst = violation = None
    for n in range(1, n_orders + 1):
        sign = -1.0 if n % 2 else 1.0
        for x in xs:
            value = provider.d(n, x)
            row = {"n_order": n, "x": x, "value": value, "margin": sign * value}
            margin = row["margin"]
            if worst is None or (
                not math.isnan(worst["margin"]) and (math.isnan(margin) or margin < worst["margin"])
            ):
                worst = row
            if violation is None and not margin >= -tol:
                violation = row
    notes = ()
    if violation is None and worst["margin"] < TIGHT_MARGIN:
        notes = (f"tight margin {worst['margin']:.3e}",)
    return VerifyReport(
        claim_id=provider.name,
        params={},
        grid_summary={"lo": min(xs), "hi": max(xs), "points": len(xs)},
        passed=violation is None,
        worst_margin=worst["margin"],
        worst_point=worst,
        counterexample=violation,
        notes=notes,
        tol=tol,
    )


class TestCertifyReduction:
    """certify_lcm's array reduction against the plain sweep, on margins
    chosen for their edge cases; repr tells -0.0 from 0.0, in the margins
    and in the values d(n, x) the rows carry."""

    XS = [0.5, 1.0, 2.0, 4.0]
    TOL = 1e-9
    NAN, INF = math.nan, math.inf
    CASES = {
        "all-nan": [[NAN] * 4] * 3,
        "nan-and-inf": [[NAN, INF, NAN, INF], [INF, NAN, INF, NAN], [NAN] * 4],
        "all-inf": [[INF] * 4] * 3,
        "nan-before-minimum": [[NAN, 2.0, 1.0, NAN], [3.0, NAN, 1.0, 5.0], [NAN, 1.0, 4.0, 2.0]],
        "zero-first": [[1.0, 0.0, -0.0, 2.0], [-0.0, 0.0, 1.0, 1.0], [0.0, 3.0, -0.0, 1.0]],
        "minus-zero-first": [[1.0, -0.0, 0.0, 2.0], [0.0, -0.0, 1.0, 1.0], [-0.0, 3.0, 0.0, 1.0]],
        "minus-inf": [[1.0, 2.0, -INF, 0.5], [-INF, NAN, -INF, 0.0], [-1.0, 2.0, 3.0, -INF]],
        "exactly-minus-tol": [[1.0, -TOL, 2.0, -TOL], [-TOL, 3.0, -TOL, 1.0], [2.0, -TOL, 1.0, 5.0]],
        "just-below-minus-tol": [
            [1.0, -TOL, 2.0, 3.0],
            [-TOL, math.nextafter(-TOL, -INF), -TOL, 1.0],
            [-2 * TOL, -TOL, -2 * TOL, 5.0],
        ],
        "ties-below-tol": [[5.0, -3.0, 2.0, -3.0], [-3.0, -1.0, -3.0, 0.0], [-3.0, -3.0, 1.0, -2.0]],
    }

    @classmethod
    def provider(cls, margins, hook: bool):
        """A provider whose margin at order n and grid point i is
        margins[n - 1][i]; d = sign * margin gives it back exactly."""
        index = {x: i for i, x in enumerate(cls.XS)}

        def d(n, x):
            return (-1.0 if n % 2 else 1.0) * margins[n - 1][index[x]]

        d_grid = None
        if hook:
            def d_grid(orders, xs):
                return np.array([[d(n, x) for x in xs] for n in orders])

        return LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="table", d_grid=d_grid)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("hook", [False, True])
    def test_equals_the_plain_sweep(self, case, hook):
        margins = self.CASES[case]
        want = plain_certify(self.provider(margins, False), self.XS, 3, self.TOL)
        got = certify_lcm(self.provider(margins, hook), self.XS, 3, self.TOL)
        # repr is exact for floats and, unlike ==, holds for NaN
        assert repr(got) == repr(want)

    def test_tol_zero_keeps_minus_zero(self):
        margins = self.CASES["minus-zero-first"]
        want = plain_certify(self.provider(margins, False), self.XS, 3, 0.0)
        got = certify_lcm(self.provider(margins, False), self.XS, 3, 0.0)
        assert want.passed and repr(got) == repr(want)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tables_equal_the_plain_sweep(self, seed):
        # few distinct values, so ties and signed zeros are common
        rng = random.Random(seed)
        pool = [0.0, -0.0, 1.0, -1.0, -self.TOL, 2e-9, -2e-9, math.nan, math.inf, -math.inf]
        margins = [[rng.choice(pool) for _ in self.XS] for _ in range(4)]
        want = plain_certify(self.provider(margins, False), self.XS, 4, self.TOL)
        for hook in (False, True):
            got = certify_lcm(self.provider(margins, hook), self.XS, 4, self.TOL)
            assert repr(got) == repr(want), margins

    def test_d_is_read_in_order_major_order(self):
        seen = []

        def d(n, x):
            seen.append((n, x))
            return (-1.0) ** n

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="flat")
        certify_lcm(prov, [2.0, 1.0, 3.0], n_orders=2)
        assert seen == [(n, x) for n in (1, 2) for x in (2.0, 1.0, 3.0)]
