"""Finite differences, log-derivative recursion, grid and certification."""

import math

import pytest

from qfun import (
    CMReport,
    DomainError,
    LogDerivProvider,
    N_MAX,
    QParam,
    UnsupportedOrder,
    certify_lcm,
    default_step,
    finite_diff,
    ln_gamma_provider,
    log_derivatives,
    make_grid,
    ratio_provider,
)


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
        rep = certify_lcm(prov, make_grid(0.5, 8.0, points=24))
        assert rep.passed
        assert rep.worst_margin >= 0.0
        assert rep.orders_checked == N_MAX

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
        assert rep.violation is not None
        n, x, margin = rep.violation
        assert n == 2
        assert margin == pytest.approx(-2.0, rel=1e-12)
        assert rep.worst_order == 2
        assert rep.worst_margin == pytest.approx(-2.0, rel=1e-12)

    def test_margin_sign_convention(self):
        # margin(n, x) = (-1)^n d(n, x); first violating order is reported
        def d(n, x):
            return 1.0  # wrong sign for odd n

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="bad")
        rep = certify_lcm(prov, make_grid(1.0, 2.0, points=4))
        assert not rep.passed
        assert rep.violation[0] == 1

    def test_report_type(self):
        def d(n, x):
            return (-1.0) ** n

        prov = LogDerivProvider(d=d, lo=0.0, hi=math.inf, name="flat")
        rep = certify_lcm(prov, make_grid(1.0, 2.0, points=4), n_orders=3)
        assert isinstance(rep, CMReport)
        assert rep.orders_checked == 3
        assert rep.tol == 1e-9

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        prov = LogDerivProvider(d=lambda n, x: 1.0, lo=0.0, hi=math.inf, name="flat")
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            certify_lcm(prov, make_grid(1.0, 2.0, points=4), tol=tol)


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
        from qfun import EvalContext

        ctx = EvalContext(QParam(0.5))
        assert ctx.psi(2, 1.5) is ctx.psi(2, 1.5)
        assert ctx.ln_gamma(1.5) is ctx.ln_gamma(1.5)
        assert ctx.ln_gamma(1.5) is not ctx.psi(0, 1.5)

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
