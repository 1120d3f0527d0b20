"""The Euler-Maclaurin ln Gamma_q (qfun.em._ln_gamma_em) and the rule that takes
it in place of the product series in ln_q_gamma, q_gamma and the ln Gamma_q
grid pass.

ln Gamma_q takes the Euler-Maclaurin sum only where the product series
provably cannot stop within core._LOGPROD_SWITCH terms: where its tail
majorant at that chunk end stays above the stop target that the
Euler-Maclaurin value caps.  The tests check both paths against each other,
the Gamma_q recurrence on the public results, the contract of that switch
(every product sum within it keeps its bits, and the Euler-Maclaurin sum is
taken only where the product series capped at the switch raises
NonConvergent), the values at x = 1 and 2, the fallback where the
Euler-Maclaurin sum cannot meet its target, and grid passes that mix the
two paths.
"""

import json
import math
import random
from pathlib import Path

import pytest

from qfun import (
    DEFAULT_TRUNCATION,
    EvalContext,
    EvalResult,
    NonConvergent,
    QParam,
    Truncation,
    ln_q_gamma,
    q_bracket,
    q_gamma,
)
import qfun.em
from qfun import core

LONG_SUMS = Path(__file__).with_name("long_sums_reference.json")
T = DEFAULT_TRUNCATION
# q_gamma's target on the log scale
GAMMA_STOP = 0.5 * T.rel_tol
# Rounding beyond both err_bounds, relative to 1 + |pre|, with pre the
# closed-form prefactor that both paths add their sums to.  The product
# series rounds in each of its 10^4 to 10^6 terms: over 400 seeded near-one
# points its distance from the Euler-Maclaurin value, beyond both bounds,
# reached 6.9e-14.  The Euler-Maclaurin sum alone, against 50-digit mpmath
# values of the same formula with M = 60 and 25 orders, was off by 1.2e-15
# at most over six near-one points.
PRODUCT_ROUNDING = 1e-12
EM_ROUNDING = 1e-13
ALL_QS = (0.2, 0.5, 0.8, 2.0, 5.0)  # qfun all's q


def near_one_points(seed, count, ln_x=(math.log(0.05), math.log(20.0))):
    """count seeded (p, x): |q - 1| log-uniform in [1e-4, 1e-2] on both
    sides of 1 and x log-uniform in ln_x."""
    rng = random.Random(seed)
    for _ in range(count):
        q = 1.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
        yield QParam(q, allow_near_one=True), math.exp(rng.uniform(*ln_x))


def pre_of(p, x):
    return core._ln_gamma_parts(p, x)[0]


def gamma_target(value):
    return max(GAMMA_STOP, T.abs_tol)


def em_sum(p, x, t=T, target=T.target):
    """ln Gamma_q(x) by the Euler-Maclaurin sum alone."""
    return qfun.em._ln_gamma_em(p, x, pre_of(p, x), t, target)


def em_instead(p, x, target):
    """The switch's choice at the default truncation and the given target."""
    return core._ln_gamma_em_instead(p, x, core._ln_gamma_parts(p, x), T, target)


def product_series(p, x, t=T, stop_target=None):
    """ln Gamma_q(x) by the product series alone, summed by the one-point
    chunk loop core._chunk_sum, at the target of ln_q_gamma or, given its
    stop_target, of q_gamma."""
    pre, lnp, base = core._ln_gamma_parts(p, x)

    def target(s):
        return t.target(pre + s) if stop_target is None else max(stop_target, t.abs_tol)

    s, tail, terms = core._chunk_sum(
        core._logprod_block(lnp, x), lambda k: core._logprod_tail(lnp, base, x, k), t, target,
        f"q={p.q}, x={x}",
    )
    return EvalResult(pre + s, tail, terms)


def exp_result(ln):
    """q_gamma's result from its log-scale one."""
    value = math.exp(ln.value)
    return EvalResult(value, value * math.expm1(ln.err_bound), ln.terms)


@pytest.mark.parametrize("log_scale", [True, False], ids=["ln_gamma", "gamma"])
def test_paths_agree(log_scale):
    sides = set()
    for p, x in near_one_points(f"paths:{log_scale}", 24, (math.log(1e-8), math.log(20.0))):
        sides.add(p.q < 1.0)
        if log_scale:
            em = em_sum(p, x)
            product = product_series(p, x, T)
            assert em.err_bound <= T.target(em.value), (p.q, x)
        else:
            em = exp_result(em_sum(p, x, target=gamma_target))
            product = exp_result(product_series(p, x, T, GAMMA_STOP))
            assert em.err_bound <= 2.0 * GAMMA_STOP * em.value, (p.q, x)
        allowance = PRODUCT_ROUNDING * (1.0 + abs(pre_of(p, x)))
        if not log_scale:
            allowance *= em.value
        budget = em.err_bound + product.err_bound + allowance
        assert abs(em.value - product.value) <= budget, (p.q, x, em, product)
        assert em.terms < 40, (p.q, x, em)
        assert_switch_keeps_short_sums(p, x, product.terms, log_scale)
    assert sides == {True, False}


def test_recurrence_holds_on_the_public_results():
    taken = 0
    for p, x in near_one_points("recurrence", 40):
        g0, g1 = ln_q_gamma(p, x), ln_q_gamma(p, x + 1.0)
        taken += g0.terms < 100 and g1.terms < 100
        bracket = q_bracket(p, x)
        mag = 1.0 + abs(pre_of(p, x)) + abs(pre_of(p, x + 1.0)) + abs(math.log(bracket))
        resid = abs(g1.value - g0.value - math.log(bracket))
        assert resid <= g0.err_bound + g1.err_bound + EM_ROUNDING * mag, (p.q, x, g0, g1)
        e0, e1 = q_gamma(p, x), q_gamma(p, x + 1.0)
        resid = abs(e1.value - bracket * e0.value)
        budget = e1.err_bound + bracket * e0.err_bound + EM_ROUNDING * mag * e1.value
        assert resid <= budget, (p.q, x, e0, e1)
    assert taken >= 20


@pytest.mark.parametrize("q", [0.9999, 1.001])
def test_large_x_integrates_over_several_panels(q):
    # the integral of L over [20, x + 19] takes about log2(x / 20) panels
    p = QParam(q, allow_near_one=True)
    for x in (50.0, 1e3, 1e5):
        em = em_sum(p, x)
        product = product_series(p, x)
        budget = em.err_bound + product.err_bound + PRODUCT_ROUNDING * (1.0 + abs(pre_of(p, x)))
        assert abs(em.value - product.value) <= budget, (q, x, em, product)
        assert ln_q_gamma(p, x) == em


@pytest.mark.parametrize("q", [0.99, 0.999, 0.9999, 0.99995, 1.0001, 1.01])
def test_x_one_is_exactly_zero(q):
    # G(y) = L(y + 1 - x) - L(y) vanishes at x = 1, and so does pre.  The
    # fixed log-scale target of q_gamma takes the product series at
    # |q - 1| = 1e-2, which stops within the switch there
    p = QParam(q, allow_near_one=True)
    assert ln_q_gamma(p, 1.0) == EvalResult(0.0, 0.0, 20)
    if abs(q - 1.0) < 1e-2:
        assert q_gamma(p, 1.0) == EvalResult(1.0, 0.0, 20)
    else:
        assert q_gamma(p, 1.0).terms <= core._LOGPROD_SWITCH


def test_x_one_took_the_product_series_long():
    # where the value is 0 only abs_tol stops the product series
    assert product_series(QParam(0.99), 1.0, T).terms == 131_008


def test_x_two_falls_back_where_the_floor_is_within_the_switch():
    # the tail at the switch meets the target at |pre|, so the switch cannot
    # show that the product series needs more terms, and the series runs;
    # as the assembled value cancels to 0 its target shrinks and it runs
    # long
    for q in (0.99, 0.995):
        p = QParam(q)
        got = ln_q_gamma(p, 2.0)
        assert got == product_series(p, 2.0, T), q
    assert ln_q_gamma(QParam(0.995), 2.0).terms == 196_544


@pytest.mark.parametrize("q", [0.999, 0.9999, 0.99995, 1.00005, 1.0001])
def test_x_two_takes_euler_maclaurin_nearer_one(q):
    # Gamma_q(2) = 1: the value is the rounding of pre + the sum.  The
    # product series took 720,832 terms at q = 0.999 and reached the
    # default 1e7-term cap at q = 0.99995
    p = QParam(q, allow_near_one=True)
    got = ln_q_gamma(p, 2.0)
    assert got.terms < 40, got
    assert abs(got.value) <= got.err_bound + EM_ROUNDING * (1.0 + abs(pre_of(p, 2.0))), got


class TestFallback:
    P = QParam(0.9999, allow_near_one=True)

    def test_a_cap_below_the_euler_maclaurin_terms_raises_the_products_error(self):
        assert ln_q_gamma(self.P, 0.5).terms == 25
        t = Truncation(max_terms=24)
        with pytest.raises(NonConvergent):
            em_sum(self.P, 0.5, t, t.target)
        want = "term cap 24 reached before the tail target (q=0.9999, x=0.5)"
        for fn in (ln_q_gamma, q_gamma):
            with pytest.raises(NonConvergent) as info:
                fn(self.P, 0.5, t)
            assert str(info.value) == want
        t = Truncation(max_terms=25)
        assert ln_q_gamma(self.P, 0.5, t) == ln_q_gamma(self.P, 0.5)

    def test_a_target_out_of_reach_runs_the_product_series(self):
        # 20 orders at y0 = 20 fall short of 1e-40 relative; the product
        # series gets there in more than the switch
        p, t = QParam(0.997), Truncation(rel_tol=1e-40)
        with pytest.raises(NonConvergent):
            em_sum(p, 0.5, t, t.target)
        got = ln_q_gamma(p, 0.5, t)
        assert got == product_series(p, 0.5, t)
        assert got.terms > core._LOGPROD_SWITCH


def assert_switch_keeps_short_sums(p, x, terms, log_scale):
    """Where the product series stops within the switch, taking terms, the
    switch keeps it."""
    if terms <= core._LOGPROD_SWITCH:
        target = T.target if log_scale else gamma_target
        assert em_instead(p, x, target) is None, (p.q, x, log_scale, terms)


def test_the_switch_takes_euler_maclaurin_at_the_pinned_long_sums():
    # every pinned product sum passes the switch: the product series capped
    # there raises, and the switch takes the Euler-Maclaurin sum
    cases = json.loads(LONG_SUMS.read_text("utf-8"))["cases"]
    cases = [c for c in cases if c["kind"] in ("ln_gamma", "gamma")]
    assert len(cases) == 8
    capped = Truncation(max_terms=core._LOGPROD_SWITCH)
    for c in cases:
        p, x = QParam(c["q"], allow_near_one=True), c["x"]
        log_scale = c["kind"] == "ln_gamma"
        with pytest.raises(NonConvergent):
            product_series(p, x, capped, None if log_scale else GAMMA_STOP)
        assert em_instead(p, x, T.target if log_scale else gamma_target) is not None, c


@pytest.mark.parametrize("q", ALL_QS + (0.99, 1.0 / 0.99))
def test_floor_stays_below_the_product_terms_and_the_rule_keeps_short_sums(q):
    p = QParam(q)
    rng = random.Random(f"floor:{q}")
    for _ in range(12):
        x = math.exp(rng.uniform(math.log(1e-8), math.log(20.0)))
        for log_scale, stop in ((True, None), (False, GAMMA_STOP)):
            product = product_series(p, x, T, stop)
            assert_switch_keeps_short_sums(p, x, product.terms, log_scale)


def test_the_value_cap_keeps_a_sum_that_pre_alone_would_leave():
    # near x = 0 the value (18.4) passes |pre| (5.6): the tail at the switch
    # is above the target at |pre| but not above the one at the
    # Euler-Maclaurin cap, and the product series indeed stops at the switch
    p, x = QParam(0.996449), 1e-8
    pre, lnp, base = core._ln_gamma_parts(p, x)
    tail = core._logprod_tail(lnp, base, x, core._LOGPROD_SWITCH)
    assert tail > T.target(pre * (1.0 + 1e-9))
    em = em_sum(p, x)
    assert tail <= T.target((max(abs(pre), abs(em.value)) + em.err_bound) * (1.0 + 1e-9))
    assert ln_q_gamma(p, x) == product_series(p, x)
    assert ln_q_gamma(p, x).terms == core._LOGPROD_SWITCH


def test_underflow_settles_qfun_alls_rows_without_euler_maclaurin(monkeypatch):
    def refuse(*args):
        raise AssertionError("computed an Euler-Maclaurin sum")

    monkeypatch.setattr(qfun.em, "_ln_gamma_em", refuse)
    monkeypatch.setattr(qfun.em, "_psi_em", refuse)
    xs = [1e-8, 0.05, 0.5, 1.0, 1.4616, 2.0, 7.5, 20.0, 1e6]
    for q in ALL_QS:
        p = QParam(q)
        for x in xs:
            ln_q_gamma(p, x)
            q_gamma(p, min(x, 20.0))
        EvalContext(p).ln_gamma_grid(xs)


class TestMixedGrid:
    # at q = 0.997 the Euler-Maclaurin sum takes 1e-8, 1.0 and 1.0001 and
    # the product series the others, 2.0 in 262,080 terms
    P = QParam(0.997)
    XS = [0.5, 1e-8, 2.0, 1.0, 3.0, 1.0001, 0.5]

    def test_grid_equals_point_evaluations(self):
        want = [ln_q_gamma(self.P, x) for x in self.XS]
        assert [r.terms < 100 for r in want] == [False, True, False, True, False, True, False]
        assert EvalContext(self.P).ln_gamma_grid(self.XS) == want

    def test_term_cap_raises_the_first_product_points_error(self):
        t = Truncation(max_terms=1000)
        with pytest.raises(NonConvergent) as info:
            ln_q_gamma(self.P, 0.5, t)
        want = str(info.value)
        assert ln_q_gamma(self.P, 1e-8, t).terms < 100
        with pytest.raises(NonConvergent) as info:
            EvalContext(self.P, t).ln_gamma_grid(self.XS[1:])
        assert str(info.value) == want.replace("x=0.5", "x=2.0")
