"""Core evaluation tests.

Reference values were computed with mpmath at 40 significant digits and
frozen here as literals.  Brute-force re-summations inside the tests use
plain Python loops so they share no code with the implementation.
"""

import copy
import math
import pickle
import re
import tracemalloc

import pytest

import qfun.core
import qfun.rows
from qfun import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalContext,
    EvalResult,
    NonConvergent,
    QParam,
    Regime,
    Truncation,
    UnsupportedOrder,
    digamma_inversion_residual,
    digamma_zero,
    gamma_inversion_residual,
    ln_q_gamma,
    q_bracket,
    q_digamma,
    q_gamma,
    q_polygamma,
    q_psi_grid,
)

GRID_QS = (0.1, 0.3, 0.5, 0.7, 0.9, 2.0, 5.0)


def geom_grid(lo, hi, n):
    r = (hi / lo) ** (1.0 / (n - 1))
    return [lo * r**i for i in range(n)]


def brute_digamma(q, x, terms=4000):
    # direct partial sum of the series, no tail logic
    if q < 1.0:
        s = 0.0
        for k in range(1, terms + 1):
            s += q ** (k * x) / (1.0 - q**k)
        return -math.log(1.0 - q) + math.log(q) * s
    s = 0.0
    for k in range(1, terms + 1):
        s += q ** (-k * x) / (1.0 - q ** (-k))
    return -math.log(q - 1.0) + math.log(q) * (x - 0.5 - s)


def brute_polygamma(q, x, n, terms=4000):
    if q > 1.0:
        raise AssertionError("brute oracle only written for 0<q<1")
    s = 0.0
    for k in range(1, terms + 1):
        s += k**n * q ** (k * x) / (1.0 - q**k)
    return math.log(q) ** (n + 1) * s


class TestQParam:
    def test_regime_tags(self):
        assert QParam(0.5).regime is Regime.SUB_UNIT
        assert QParam(2.0).regime is Regime.SUPER_UNIT

    def test_rejects_bad_q(self):
        for bad in (0.0, -1.0, 1.0):
            with pytest.raises(DomainError):
                QParam(bad)

    def test_near_one_guard(self):
        with pytest.raises(DomainError):
            QParam(1.0 + 1e-7)
        p = QParam(1.0 + 1e-7, allow_near_one=True)
        assert p.regime is Regime.SUPER_UNIT

    def test_inverted_flips_regime(self):
        p = QParam(4.0)
        assert p.inverted().q == pytest.approx(0.25, rel=1e-15)
        assert p.inverted().regime is Regime.SUB_UNIT


class TestTruncation:
    def test_validation(self):
        with pytest.raises(DomainError):
            Truncation(rel_tol=0.0)
        with pytest.raises(DomainError):
            Truncation(max_terms=0)

    @pytest.mark.parametrize("bad", [1.5, True, 10.0, "10", None])
    def test_max_terms_must_be_an_int(self, bad):
        want = f"max_terms must be an int >= 1, got {bad!r}"
        with pytest.raises(DomainError, match=re.escape(want)):
            Truncation(max_terms=bad)

    def test_tiny_budget_raises_nonconvergent(self):
        t = Truncation(max_terms=3)
        with pytest.raises(NonConvergent):
            q_digamma(QParam(0.99), 0.1, t)


class TestDigamma:
    def test_frozen_values(self):
        # mpmath, 40 dps
        cases = [
            (0.5, 1.0, -0.4205290343560458),
            (0.5, 2.0, 0.2726181462038995),
            (0.2, 1.0, -0.2624783521312075),
            (2.0, 1.0, -0.7671026246360184),
            (2.0, 3.7, 2.1055395867948366),
        ]
        for q, x, want in cases:
            r = q_digamma(QParam(q), x)
            assert r.value == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_large_x_asymptote_sub_unit(self):
        # psi_q(x) -> -ln(1-q)
        r = q_digamma(QParam(0.5), 30.0)
        assert abs(r.value - math.log(2.0)) < 2e-9

    def test_matches_brute_sum(self):
        for q in (0.2, 0.5, 0.8, 2.0, 5.0):
            for x in (0.3, 1.0, 4.7):
                got = q_digamma(QParam(q), x).value
                assert got == pytest.approx(brute_digamma(q, x), rel=1e-12, abs=1e-12)

    def test_recurrence(self):
        # psi_q(x+1) - psi_q(x) = -ln(q) q^x/(1-q^x)
        for q in (0.2, 0.5, 0.9):
            p = QParam(q)
            for x in geom_grid(0.05, 20.0, 17):
                lhs = q_digamma(p, x + 1.0).value - q_digamma(p, x).value
                rhs = -math.log(q) * q**x / (1.0 - q**x)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_super_unit_shift_identity(self):
        # psi_q(x) = psi_{1/q}(x) + (2x-3)/2 ln q for q>1
        for q, x in ((2.0, 1.0), (2.0, 3.7), (5.0, 0.4)):
            lhs = q_digamma(QParam(q), x).value
            rhs = (
                q_digamma(QParam(1.0 / q), x).value
                + 0.5 * (2.0 * x - 3.0) * math.log(q)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_err_bound_is_honest(self):
        loose = Truncation(rel_tol=1e-6)
        tight = Truncation(rel_tol=1e-15)
        for q in (0.5, 2.0):
            p = QParam(q)
            r = q_digamma(p, 0.7, loose)
            ref = q_digamma(p, 0.7, tight).value
            assert abs(r.value - ref) <= r.err_bound + 1e-13 * abs(ref)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_digamma(QParam(0.5), 0.0)
        with pytest.raises(DomainError):
            q_digamma(QParam(0.5), -2.0)


class TestGamma:
    def test_frozen_values(self):
        # mpmath, 40 dps
        assert ln_q_gamma(QParam(0.5), 3.0).value == pytest.approx(
            math.log(1.5), rel=1e-13
        )
        assert q_gamma(QParam(0.3), 7.5).value == pytest.approx(
            6.225126642246239, rel=1e-13
        )
        assert ln_q_gamma(QParam(0.3), 7.5).value == pytest.approx(
            1.8285937862797741, rel=1e-13
        )
        assert q_gamma(QParam(2.0), 3.0).value == pytest.approx(3.0, rel=1e-13)
        assert q_gamma(QParam(5.0), 2.5).value == pytest.approx(
            1.9873156088977731, rel=1e-13
        )

    def test_normalization(self):
        for q in GRID_QS:
            p = QParam(q)
            assert q_gamma(p, 1.0).value == pytest.approx(1.0, abs=1e-12)
            assert q_gamma(p, 2.0).value == pytest.approx(1.0, abs=1e-12)

    def test_functional_equation(self):
        # Gamma_q(x+1) = [x]_q Gamma_q(x)
        for q in GRID_QS:
            p = QParam(q)
            for x in geom_grid(0.05, 20.0, 17):
                lhs = ln_q_gamma(p, x + 1.0).value
                rhs = math.log(q_bracket(p, x)) + ln_q_gamma(p, x).value
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_small_integer_products(self):
        # Gamma_q(n+1) = [n]_q!
        p = QParam(0.5)
        want = 1.0
        for n in range(1, 7):
            want *= q_bracket(p, float(n))
            assert q_gamma(p, n + 1.0).value == pytest.approx(want, rel=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            q_gamma(QParam(5.0), 200.0)
        # log-space path stays fine at the same point
        assert math.isfinite(ln_q_gamma(QParam(5.0), 200.0).value)

    def test_err_bound_tracks_value_scale(self):
        r = q_gamma(QParam(0.5), 7.0)
        assert 0.0 <= r.err_bound < 1e-10 * abs(r.value)


class TestPolygamma:
    def test_frozen_values(self):
        # mpmath, 40 dps
        p = QParam(0.5)
        assert q_polygamma(p, 1.0, 1).value == pytest.approx(
            1.3183793521481788, rel=1e-13
        )
        assert q_polygamma(p, 1.0, 2).value == pytest.approx(
            -2.3642369760703093, rel=1e-13
        )
        assert q_polygamma(p, 7.0, 1).value == pytest.approx(
            0.007586070262985543, rel=1e-13
        )

    def test_matches_brute_sum(self):
        for q in (0.2, 0.5, 0.8):
            for n in (1, 2, 3, 5):
                for x in (0.4, 1.3, 6.0):
                    got = q_polygamma(QParam(q), x, n).value
                    want = brute_polygamma(q, x, n)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_sign_pattern(self):
        # complete monotonicity of psi_q': sign is (-1)^(n+1), both regimes
        for q in (0.3, 0.7, 2.0, 5.0):
            p = QParam(q)
            for n in range(1, 9):
                for x in (0.1, 1.0, 3.0, 10.0):
                    v = q_polygamma(p, x, n).value
                    assert (-1.0) ** (n + 1) * v > 0.0

    def test_super_unit_matches_brute(self):
        # for q>1 the n-th derivative (n>=2) equals that of the inverted
        # parameter; n=1 picks up ln q from the linear term
        q = 3.0
        for x in (0.5, 2.2):
            d1 = q_polygamma(QParam(q), x, 1).value
            assert d1 == pytest.approx(
                brute_polygamma(1.0 / q, x, 1) + math.log(q), rel=1e-12
            )
            d2 = q_polygamma(QParam(q), x, 2).value
            assert d2 == pytest.approx(brute_polygamma(1.0 / q, x, 2), rel=1e-12)

    def test_order_validation(self):
        p = QParam(0.5)
        with pytest.raises(UnsupportedOrder):
            q_polygamma(p, 1.0, 0)
        with pytest.raises(UnsupportedOrder):
            q_polygamma(p, 1.0, 9)


class TestBracket:
    def test_against_direct_formula(self):
        for q in (0.2, 0.5, 0.8, 2.0, 5.0):
            p = QParam(q)
            for x in (0.1, 1.0, 2.5, 7.0):
                want = (1.0 - q**x) / (1.0 - q)
                assert q_bracket(p, x) == pytest.approx(want, rel=1e-14)

    def test_integer_values(self):
        assert q_bracket(QParam(0.5), 1.0) == pytest.approx(1.0, rel=1e-15)
        assert q_bracket(QParam(0.5), 2.0) == pytest.approx(1.5, rel=1e-15)
        assert q_bracket(QParam(0.5), 3.0) == pytest.approx(1.75, rel=1e-15)

    # q^x leaves the double range past x = 1024 at q = 2; near q = 1 the
    # quotient leaves it first
    @pytest.mark.parametrize("q, x", [(2.0, 1e308), (1.0001, 7.09e6)], ids=str)
    def test_overflow_names_x(self, q, x):
        want = f"q_bracket overflows the double range at x = {x!r}"
        with pytest.raises(OverflowError, match=re.escape(want)):
            q_bracket(QParam(q, allow_near_one=True), x)


class TestInversionResiduals:
    def test_gamma_inversion(self):
        # Gamma_q(x) = q^((x-1)(x-2)/2) Gamma_{1/q}(x), q>1
        for q in (2.0, 5.0):
            p = QParam(q)
            for x in (0.3, 1.0, 4.2, 11.0):
                rc = gamma_inversion_residual(p, x)
                assert rc.passed, (q, x, rc.residual, rc.budget)

    def test_digamma_inversion(self):
        for q in (2.0, 5.0):
            p = QParam(q)
            for x in (0.3, 1.0, 4.2, 11.0):
                rc = digamma_inversion_residual(p, x)
                assert rc.passed, (q, x, rc.residual, rc.budget)

    @pytest.mark.parametrize("q, x", [(1.0001, 0.5), (1.0001, 1.5), (1.0001, 4.0), (1.001, 1.5)])
    def test_digamma_inversion_near_one(self, q, x):
        # the q > 1 side sums at ln p = -ln q; summed at the log of the
        # rounded base 1/q, these residuals read 2.5 to 26 times the budget
        rc = digamma_inversion_residual(QParam(q, allow_near_one=True), x)
        assert rc.passed, (q, x, rc.residual, rc.budget)

    def test_sub_unit_rejected(self):
        with pytest.raises(DomainError):
            gamma_inversion_residual(QParam(0.5), 1.0)
        with pytest.raises(DomainError):
            digamma_inversion_residual(QParam(0.5), 1.0)


class TestHugeX:
    """At q > 1, where the head ln q (x - 1/2) of psi or the prefactor of
    ln Gamma_q leaves the double range, the evaluator raises its
    OverflowError before any sum: at one point, and on a grid for the first
    such x in pass order."""

    @pytest.fixture
    def no_sums(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("started a sum")

        monkeypatch.setattr(qfun.core, "_chunk_sum", refuse)
        monkeypatch.setattr(qfun.rows, "_chunk_rows", refuse)

    # the prefactor is NaN (-inf + inf) at q = 10 from about x = 8.2e307,
    # and +inf at q = 2 past x = 1.9e154
    @pytest.mark.parametrize("q, x", [(10.0, 1e308), (10.0, 8.3e307), (2.0, 1e200)], ids=str)
    def test_ln_gamma_prefactor(self, no_sums, q, x):
        p = QParam(q)
        for fn, call in (("ln_q_gamma", ln_q_gamma), ("q_gamma", q_gamma)):
            want = f"{fn} overflows the double range at x = {x!r}"
            with pytest.raises(OverflowError, match=re.escape(want)):
                call(p, x)
        want = f"ln_q_gamma overflows the double range at x = {x!r}"
        with pytest.raises(OverflowError, match=re.escape(want)):
            EvalContext(p).ln_gamma_grid([1.5, x, 1.5 * x])

    # ln 10 x passes the largest double from x = 7.8e307
    @pytest.mark.parametrize("x", [1e308, 7.9e307], ids=str)
    def test_psi_head(self, no_sums, x):
        p = QParam(10.0)
        later = 1.7e308  # past the range too, but later in pass order
        calls = [
            lambda: q_digamma(p, x),
            lambda: q_psi_grid(p, 0, [3.0, x, later]),
            lambda: qfun.rows._psi_orders(p, {1: [x], 0: [2.0, x, later]}, DEFAULT_TRUNCATION),
            lambda: EvalContext(p).psi_grid([(1, 3.0), (0, x), (0, later)]),
        ]
        for call in calls:
            with pytest.raises(OverflowError) as info:
                call()
            assert str(info.value) == f"q_digamma overflows the double range at x = {x!r}"

    @pytest.mark.parametrize("k", [1, 4])
    def test_other_orders_keep_their_limit(self, k):
        # only order 0 takes the head: the others evaluate, on a grid too,
        # without an overflow warning
        p = QParam(10.0)
        r = q_polygamma(p, 1e308, k)
        assert r == EvalResult(math.log(10.0) if k == 1 else 0.0, 0.0, 64)
        assert q_psi_grid(p, k, [1e308, 3.0]) == [r, q_polygamma(p, 3.0, k)]


class TestEvalResult:
    def test_fields(self):
        r = q_digamma(QParam(0.5), 1.0)
        assert isinstance(r, EvalResult)
        assert r.terms > 0
        assert r.err_bound >= 0.0

    @pytest.mark.parametrize(
        "make",
        [lambda: q_digamma(QParam(0.5), 1.5), lambda: digamma_zero(QParam(0.5))],
        ids=["EvalResult", "ZeroResult"],
    )
    def test_slotted_results_round_trip(self, make):
        r = make()
        assert not hasattr(r, "__dict__")
        for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert type(copied) is type(r) and copied == r

    def test_tighter_tolerance_needs_more_terms(self):
        p = QParam(0.9)
        loose = q_digamma(p, 0.5, Truncation(rel_tol=1e-6)).terms
        tight = q_digamma(p, 0.5, Truncation(rel_tol=1e-14)).terms
        assert tight > loose


class TestTinyX:
    """Where the psi tail majorant is infinite at the term cap no chunk end
    can stop, so the sum is never started; where x |ln q| is below the
    normal range ln Gamma_q is refused."""

    def test_psi_raises_the_cap_message_without_summing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("summed a block")

        monkeypatch.setattr(qfun.core, "_lambert_block", lambda q, x, n: refuse)
        with pytest.raises(NonConvergent) as info:
            q_digamma(QParam(0.5), 1e-310)
        assert str(info.value) == (
            "term cap 10000000 reached before the tail target (q=0.5, x=1e-310, order=0)"
        )
        with pytest.raises(NonConvergent) as info:
            q_polygamma(QParam(0.5), 5e-324, 3)
        assert str(info.value) == (
            "term cap 10000000 reached before the tail target (q=0.5, x=5e-324, order=3)"
        )

    def test_grid_rows_that_cannot_stop_are_not_summed(self, monkeypatch):
        rows = []
        chunk_rows = qfun.rows._chunk_rows

        def recording(count, trunc, offsets, scales, chunk, tails, where):
            def chunk_of(k):
                terms_of = chunk(k)

                def recorded(active):
                    rows.extend(active.tolist())
                    return terms_of(active)

                return recorded

            return chunk_rows(count, trunc, offsets, scales, chunk_of, tails, where)

        monkeypatch.setattr(qfun.rows, "_chunk_rows", recording)
        with pytest.raises(NonConvergent) as info:
            q_psi_grid(QParam(0.5), 0, [1.0, 1e-310, 2.0, 5e-324])
        assert "(q=0.5, x=1e-310, order=0)" in str(info.value)
        assert set(rows) == {0, 2}

    def test_grid_keeps_the_first_capped_key_in_order(self):
        # under a 64-term cap x = 0.01 is capped only after its sum
        t = Truncation(max_terms=64)
        for xs, named in (([0.01, 1e-310], "x=0.01,"), ([1e-310, 0.01], "x=1e-310,")):
            with pytest.raises(NonConvergent, match=f"term cap 64 .*{named}"):
                q_psi_grid(QParam(0.5), 0, xs, t)

    @pytest.mark.parametrize("q", [0.5, 0.8, 0.99, 2.0])
    def test_ln_gamma_refuses_a_subnormal_x_ln_q(self, q):
        for fn in (ln_q_gamma, q_gamma):
            with pytest.raises(DomainError, match=r"x = 5e-324 is too small"):
                fn(QParam(q), 5e-324)
        # Gamma_q(x) = Gamma_q(1 + x) / [x]_q, with Gamma_q(1 + x) = 1 + O(x)
        x = 1e-300
        bracket = x * abs(math.log(q)) / abs(1.0 - q)
        got = ln_q_gamma(QParam(q), x)
        assert got.err_bound <= Truncation().target(got.value)
        assert got.value == pytest.approx(-math.log(bracket), rel=1e-15, abs=got.err_bound)
        # exp of a log near 690 carries its rounding, about 1e-13 relative
        assert q_gamma(QParam(q), x).value == pytest.approx(1.0 / bracket, rel=1e-12)


def traced_peak(call) -> int:
    """Peak traced allocation of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Long sums work in blocks of _BLOCK_TERMS terms, so their memory does
    not grow with the chunk length."""

    P = QParam(0.9999, allow_near_one=True)
    T = Truncation(max_terms=100_000_000)

    def test_one_point_sum_stays_below_512_kib(self):
        # 1,179,584 terms, in chunks of up to 65,536; 2,049 KiB when each
        # chunk was one array
        r = q_polygamma(self.P, 0.5, 6, self.T)
        assert r.terms == 1_179_584
        assert traced_peak(lambda: q_polygamma(self.P, 0.5, 6, self.T)) < 512 * 1024

    def test_zero_solve_stays_within_the_work_buffers_of_one_sum(self):
        # the index and work arrays of one sum, three blocks, and two half
        # blocks while they grow, with room for the small objects
        bound = 8 * 5 * qfun.core._BLOCK_TERMS
        assert traced_peak(lambda: digamma_zero(self.P, trunc=self.T)) <= bound
