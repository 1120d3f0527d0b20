"""The Euler-Maclaurin q-polygammas (qfun.em._psi_em) and the rule that takes
them in place of the Lambert series.

psi^(k) takes the Euler-Maclaurin sum only where the Lambert series
provably cannot stop within core._EM_REACH terms: where its tail majorant
at that chunk end stays above the stop target that the Euler-Maclaurin
value caps.  The tests check both paths against each other, the contract
of that switch (a Lambert sum within the switch keeps its bits, and the
Euler-Maclaurin sum is taken only where the Lambert series capped at the
switch raises NonConvergent), grid passes that mix the two paths, the
digamma just above and below q = 1 against reference_psi, and three
corner values against tests/em_corners_reference.json.  Those pins are mpmath
values of the numerically differentiated L(y) = ln(1 - p^y) route, with a
larger shift and more Euler-Maclaurin orders than the code; they use no
Eulerian closed form, so they stay independent of the code under test.
To re-capture them (it takes about 20 s), run this file with python.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qfun import (
    DEFAULT_TRUNCATION,
    EvalContext,
    NonConvergent,
    QParam,
    Truncation,
    q_digamma,
    q_polygamma,
    q_psi_grid,
)
import qfun.em
from qfun import core, rows

REFERENCE = Path(__file__).with_name("em_corners_reference.json")
LONG_SUMS = Path(__file__).with_name("long_sums_reference.json")
CORNERS = [(0.9999, 0.05, 6), (1.0001, 0.05, 8), (0.5, 1e-300, 0)]
QS = (0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01)
CAP = Truncation(max_terms=100_000_000)


def evaluate(p, k, x, t=None):
    return q_polygamma(p, x, k, t) if k else q_digamma(p, x, t)


def seeded_points(q):
    """Two seeded x, log-uniform in [0.05, 20], for each order 0..8."""
    rng = random.Random(f"em:{q}")
    for k in range(9):
        for _ in range(2):
            yield k, math.exp(rng.uniform(math.log(0.05), math.log(20.0)))


def allowance(p, k, x, value):
    """Rounding beyond both err_bounds: 1e-14 of the magnitudes the value
    is assembled from, in both regimes, with no 1 / |ln q| factor."""
    h, _ = core._psi_offsets(p, k, x, core._psi_parts(p, 0)[3])
    return 1e-14 * (abs(value) + abs(h))


@pytest.mark.parametrize("q", QS)
def test_paths_agree_and_the_floor_stays_below_the_lambert_terms(q):
    p = QParam(q, allow_near_one=True)
    for k, x in seeded_points(q):
        lam = core._psi_lambert(p, k, x, CAP)
        em = qfun.em._psi_em(p, k, x, CAP)
        assert em.err_bound <= CAP.target(em.value), (q, k, x)
        budget = lam.err_bound + em.err_bound + allowance(p, k, x, em.value)
        assert abs(lam.value - em.value) <= budget, (q, k, x, lam, em)
        if lam.terms <= core._EM_REACH:
            assert core._em_instead(p, k, x, CAP) is None, (q, k, x)


# (q, x, terms) of psi_q(x) just above and below 1: Lambert sums of 16,320
# to 1,638,336 terms, and one Euler-Maclaurin sum of 24.  While q > 1
# summed at the log of the rounded base 1/q, each Lambert row above 1
# missed the reference by 2.5e-13 to 1.1e-11
LN_P_TABLE = [(1.00001, 2.5, 1_638_336), (1.00001, 10.0, 393_152), (1.0001, 10.0, 65_472),
              (1.001, 2.5, 16_320), (1.00001, 1.5, 24), (0.99999, 2.5, 1_638_336)]


@pytest.mark.parametrize(("q", "x", "terms"), LN_P_TABLE)
def test_digamma_near_one_meets_the_reference(q, x, terms):
    p = QParam(q, allow_near_one=True)
    got = q_digamma(p, x)
    assert got.terms == terms
    want = float(reference_psi(q, x, 0))
    assert abs(got.value - want) <= got.err_bound + allowance(p, 0, x, got.value), (got, want)


def test_settling_from_the_head_keeps_every_path_choice(monkeypatch):
    # where _em_instead returns None the public result is the Lambert sum,
    # bit for bit, and where it returns a value the Lambert series cannot
    # stop within the switch.  "settled by the head" counts the points whose
    # tail does not underflow, yet that the rule leaves to the Lambert
    # series without computing _psi_em.  Every point counts; the sums, up
    # to 2,097,088 terms each, run at every other one, to keep it under 2 s
    em_calls = []
    psi_em = qfun.em._psi_em
    monkeypatch.setattr(qfun.em, "_psi_em", lambda *args: em_calls.append(args) or psi_em(*args))
    reach = Truncation(max_terms=core._EM_REACH)
    rng = random.Random("em-instead")
    seen = {"lambert": 0, "em": 0, "settled by the head": 0}
    for i in range(300):
        side = rng.choice((-1.0, 1.0))
        p = QParam(1.0 + side * math.exp(rng.uniform(math.log(1e-5), math.log(1e-2))),
                   allow_near_one=True)
        x = math.exp(rng.uniform(math.log(0.01), math.log(20.0)))
        k = rng.randrange(9)
        em_calls.clear()
        got = core._em_instead(p, k, x, DEFAULT_TRUNCATION)
        if got is None:
            seen["lambert"] += 1
            flagged = rows._lambert_may_pass(core._psi_parts(p, 0)[0], k, x)
            seen["settled by the head"] += bool(flagged and not em_calls)
        else:
            seen["em"] += 1
        if i % 2:
            continue
        if got is None:
            want = core._psi_lambert(p, k, x, DEFAULT_TRUNCATION)
            assert evaluate(p, k, x) == want, (p.q, k, x)
        else:
            with pytest.raises(NonConvergent):
                core._psi_lambert(p, k, x, reach)
    assert min(seen.values()) >= 5, seen


def test_the_switch_keeps_the_pinned_long_sums():
    # every pinned sum stops within 2,000,000 terms, inside the switch
    cases = json.loads(LONG_SUMS.read_text("utf-8"))["cases"]
    psi = [c for c in cases if c["kind"].startswith("psi")]
    assert len(psi) == 36
    for c in psi:
        p, k = QParam(c["q"], allow_near_one=True), int(c["kind"][3:])
        assert c["terms"] <= core._EM_REACH
        assert core._em_instead(p, k, c["x"], DEFAULT_TRUNCATION) is None, c


# the Lambert series ran one chunk past the switch, to 2,162,624 terms,
# where a closed-form lower bound on its term count, with slack for its
# rounding and its bisection, fell just short of the switch
SWITCH_EDGE = [(0.9995191590164888, 0.044091093986344136, 2),
               (0.9999591064957895, 0.6153839745287636, 4)]


@pytest.mark.parametrize(("q", "x", "k"), SWITCH_EDGE)
def test_a_sum_past_the_switch_takes_euler_maclaurin(q, x, k):
    p = QParam(q, allow_near_one=True)
    got = q_polygamma(p, x, k)
    assert got.terms <= 112, got
    with pytest.raises(NonConvergent):
        core._psi_lambert(p, k, x, Truncation(max_terms=core._EM_REACH))
    lam = core._psi_lambert(p, k, x, CAP)
    budget = lam.err_bound + got.err_bound + allowance(p, k, x, got.value)
    assert abs(lam.value - got.value) <= budget, (lam, got)


# one-point and grid psi^(k) at x down to the least subnormal, each case
# printed as [value, terms] or the NonConvergent message; the switch
# evaluates one tail majorant before any sum, whatever the term cap, and a
# cap of 4096 keeps the capped cases quick
TINY_X_SCRIPT = """
import json
from qfun import EvalContext, NonConvergent, QParam, Truncation, q_digamma, q_polygamma, q_psi_grid

def outcome(call):
    try:
        r = call()
    except NonConvergent as e:
        return str(e)
    return [r.value, r.terms]

t = Truncation(max_terms=4096)
out = []
for q in (0.2, 0.5, 0.8, 2.0, 5.0):
    p = QParam(q)
    for x in (1e-305, 1e-310, 5e-324):
        for k in (0, 3):
            out.append([q, x, k,
                outcome(lambda: q_polygamma(p, x, k, t) if k else q_digamma(p, x, t)),
                outcome(lambda: q_psi_grid(p, k, [1.0, x], t)[1]),
                outcome(lambda: EvalContext(p, t).psi_grid([(k, 1.0), (k, x)])[1])])
    out.append([q, 1e-305, 0, outcome(lambda: q_digamma(p, 1e-305)), None, None])
print(json.dumps(out))
"""


def test_tiny_x_ends_in_a_value_or_nonconvergent():
    # a subprocess, so that an evaluation that never returns fails the
    # test instead of hanging the suite
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", TINY_X_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    cases = json.loads(run.stdout)
    assert len(cases) == 35
    for q, x, k, point, grid, ctx_grid in cases:
        if grid is not None:
            assert grid == ctx_grid == point, (q, x, k)
        if isinstance(point, str):
            assert point.startswith("term cap 4096 reached") and f"q={q}, x={x!r}" in point
        else:
            # psi(x) = -1/x + O(1): only k = 0 at 1e-305 has a finite value
            assert (k, x) == (0, 1e-305) and point[0] == pytest.approx(-1.0 / x, rel=1e-15)
    assert [c[3] for c in cases if c[:3] == [0.5, 1e-305, 0]] == [[-1.0000000000000001e305, 68]] * 2


class TestMixedGrid:
    P = QParam(0.9999, allow_near_one=True)
    # psi^(6) at 0.05 and 0.01 takes millions of Lambert terms, at 3.0 and
    # 8.0 a few hundred thousand
    XS = [0.05, 3.0, 0.01, 8.0]

    def test_grid_equals_point_evaluations(self):
        want = [q_polygamma(self.P, x, 6) for x in self.XS]
        assert [r.terms < 100 for r in want] == [True, False, True, False]
        assert q_psi_grid(self.P, 6, self.XS) == want
        keys = [(k, x) for x in self.XS for k in (0, 6)]
        ctx_want = [evaluate(self.P, k, x) for k, x in keys]
        assert EvalContext(self.P).psi_grid(keys) == ctx_want

    def test_term_cap_raises_the_first_capped_lambert_keys_error(self):
        # the Euler-Maclaurin rows take about 21 terms and meet the cap
        t = Truncation(max_terms=1000)
        with pytest.raises(NonConvergent) as info:
            q_polygamma(self.P, 3.0, 6, t)
        want = str(info.value)
        assert q_polygamma(self.P, 0.05, 6, t).terms < 100
        with pytest.raises(NonConvergent) as info:
            q_psi_grid(self.P, 6, self.XS, t)
        assert str(info.value) == want


class TestCorners:
    def test_values_match_the_pins(self):
        ref = json.loads(REFERENCE.read_text("utf-8"))
        assert [(c["q"], c["x"], c["k"]) for c in ref["cases"]] == CORNERS
        for c in ref["cases"]:
            want = float(c["value"])
            got = evaluate(QParam(c["q"], allow_near_one=True), c["k"], c["x"])
            assert got.terms < 100, c
            assert 0.0 <= got.err_bound <= DEFAULT_TRUNCATION.target(got.value), c
            assert abs(got.value - want) <= got.err_bound + 1e-14 * abs(want), (c, got)

    def test_the_lambert_series_alone_reaches_a_3e6_term_cap(self):
        p = QParam(0.9999, allow_near_one=True)
        t = Truncation(max_terms=3_000_000)
        with pytest.raises(NonConvergent):
            core._psi_lambert(p, 6, 0.05, t)
        assert core._psi_point(p, 6, 0.05, t) == q_polygamma(p, 0.05, 6)


def reference_psi(q, x, k, shift=40, em_terms=20, dps=60):
    """psi^(k)_q(x) in mpmath: -sum_j D^{k+1} L(x + j) plus the head, the
    first terms differentiated numerically up to y0 = x + M >= shift (or
    p^M < e^-100), the rest by em_terms Euler-Maclaurin orders at y0."""
    import mpmath as mp

    abs_ln_p = abs(math.log(q))
    m = math.ceil(100.0 / abs_ln_p) if abs_ln_p > 0.5 else max(0, math.ceil(shift - x))
    # L(y) must resolve p^y from 1 at y = x
    dps += max(0, math.ceil(-math.log10(x)))
    with mp.workdps(dps):
        qm, xm = mp.mpf(q), mp.mpf(x)
        ln_p = -abs(mp.log(qm))

        def big_l(y):
            return mp.log1p(-mp.exp(y * ln_p))

        # a step relative to x keeps the stencil inside y > 0
        h = xm * mp.mpf(2) ** (-mp.mp.prec - 10)
        direct = mp.diff(lambda y: mp.fsum(big_l(y + j) for j in range(m)), xm, k + 1, h=h)
        d = list(mp.diffs(big_l, xm + m, k + 2 * em_terms))
        tail = -d[k] + d[k + 1] / 2 - mp.fsum(
            mp.bernoulli(2 * i) / mp.factorial(2 * i) * d[k + 2 * i]
            for i in range(1, em_terms + 1)
        )
        if q < 1.0:
            pre = -mp.log(1 - qm) if k == 0 else 0
        elif k == 0:
            pre = -mp.log(qm - 1) + (xm - mp.mpf(1) / 2) * mp.log(qm)
        else:
            pre = mp.log(qm) if k == 1 else 0
        return mp.nstr(pre - direct - tail, 40)


if __name__ == "__main__":
    captured_at = sys.argv[1] if len(sys.argv) > 1 else ""
    cases = [{"q": q, "x": x, "k": k, "value": reference_psi(q, x, k)} for q, x, k in CORNERS]
    REFERENCE.write_text(json.dumps({"captured_at": captured_at, "cases": cases}, indent=1) + "\n",
                         "utf-8")
    print(len(cases), "cases")
