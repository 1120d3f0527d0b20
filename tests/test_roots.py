"""Zero location and the derived constants.

x0 references were computed with mpmath (40 dps) by bisecting the same
series to 1e-21; constants against their defining sums.
"""

import math
import random
import statistics

import pytest

from qfun import (
    DomainError,
    NonConvergent,
    QParam,
    Truncation,
    digamma_zero,
    q_digamma,
    q_euler_mascheroni,
    q_harmonic,
    q_polygamma,
)
import qfun.em
from qfun import core, roots

# mpmath, 40 dps
X0_FROZEN = {
    0.2: 1.4219658034220688,
    0.5: 1.4463627156098169,
    0.8: 1.4570478055569942,
    2.0: 1.4738231706986189,
    5.0: 1.4854004708358908,
}
# just above 1: 40-digit mpmath x bisected to a bracket under 1e-20 on the
# sign of test_euler_maclaurin.reference_psi(q, x, 0), the mpmath series
# of numerically differentiated ln(1 - p^y) (60 digits inside)
X0_NEAR_ONE = {
    1.0001: 1.4616341273188416,
    1.0003: 1.4616380912312055,
}



def plain_zero(p, tol=1e-12, trunc=None, bisect_steps=40, newton_steps=10):
    """The solver digamma_zero must agree with: double the bracket outward
    from [1, 2], evaluate every one of bisect_steps midpoints, then take
    damped Newton steps; returns (x0, residual, bracket) or raises."""

    def f(x):
        return q_digamma(p, x, trunc).value

    lo, hi = 1.0, 2.0
    f_lo, f_hi = f(lo), f(hi)
    while f_lo >= 0.0:
        lo *= 0.5
        f_lo = f(lo)
    while f_hi <= 0.0:
        hi *= 2.0
        f_hi = f(hi)
    x, fx = 0.5 * (lo + hi), None
    for _ in range(bisect_steps):
        x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            lo = hi = x
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
    if fx is None:
        fx = f(x)
    for _ in range(newton_steps):
        if abs(fx) <= tol:
            break
        candidate = x - fx / q_polygamma(p, x, 1, trunc).value
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        x = candidate
        fx = f(x)
        if fx < 0.0:
            lo = x
        elif fx > 0.0:
            hi = x
        else:
            lo = hi = x
    if abs(fx) > tol:
        raise NonConvergent(f"residual {abs(fx):.3e} above tol {tol:.3e}")
    return x, abs(fx), (lo, hi)


def _oracle_cases():
    rng = random.Random(20151)
    capped = Truncation(max_terms=100_000_000)
    spread = [math.exp(rng.uniform(math.log(0.01), math.log(50.0))) for _ in range(16)]
    near_one = [
        1.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(3e-5), math.log(1e-2)))
        for _ in range(20)
    ]
    cases = [(q, None, {}) for q in (0.2, 0.5, 0.8, 2.0, 5.0, *spread)]
    cases += [(q, capped, {}) for q in near_one]
    for kw in (
        {"bisect_steps": 0},
        {"bisect_steps": 5},
        {"bisect_steps": 60},
        {"tol": 1e-3},
        {"tol": 1e-15},
        {"tol": 1e-15, "newton_steps": 0},
    ):
        cases += [(q, None, kw) for q in (0.05, 0.5, 0.95, 1.5, 30.0)]
    cases.append((1.0 - 2e-4, capped, {"tol": 1e-3, "bisect_steps": 60}))
    # just above 1, where each Lambert psi sums tens of thousands of terms
    # at ln p = -ln q and the window rests on the rounding allowance alone
    cases += [(1.0 + rng.uniform(1e-4, 3e-4), None, {}) for _ in range(10)]
    return [
        pytest.param(q, trunc, kw, id=f"q={q!r}" + "".join(f",{k}={v}" for k, v in kw.items()))
        for q, trunc, kw in cases
    ]


class TestMatchesPlainBisection:
    """digamma_zero skips the midpoints whose sign is not in doubt; x0,
    residual and bracket must be those of evaluating them all."""

    @pytest.mark.parametrize("q, trunc, kw", _oracle_cases())
    def test_bit_identical(self, q, trunc, kw):
        p = QParam(q, allow_near_one=True)
        try:
            want = plain_zero(p, trunc=trunc, **kw)
        except NonConvergent:
            with pytest.raises(NonConvergent):
                digamma_zero(p, trunc=trunc, **kw)
            return
        z = digamma_zero(p, trunc=trunc, **kw)
        assert (z.x0, z.residual, z.bracket) == want


class TestDigammaZero:
    def test_frozen_locations(self):
        for q, want in X0_FROZEN.items():
            z = digamma_zero(QParam(q))
            assert z.x0 == pytest.approx(want, abs=1e-10), q

    @pytest.mark.parametrize("q", sorted(X0_NEAR_ONE))
    def test_locations_near_one(self, q):
        # within the error that tol on the residual leaves, with 1e-14 for
        # rounding; summed at the log of the rounded base 1/q, x0 was off
        # by 2.1e-12 and 1.8e-12
        p = QParam(q, allow_near_one=True)
        z = digamma_zero(p)
        slope = q_polygamma(p, z.x0, 1).value
        assert abs(z.x0 - X0_NEAR_ONE[q]) <= (roots.DEFAULT_ZERO_TOL + 1e-14) / slope, z

    def test_residual_within_tol(self):
        for q in X0_FROZEN:
            z = digamma_zero(QParam(q), tol=1e-12)
            assert abs(z.residual) <= 1e-12

    def test_bracket_in_unit_shifted_interval(self):
        # the zero lives in (1, 2) for every admissible q
        for q in (0.05, 0.3, 0.6, 0.95, 3.0, 10.0):
            z = digamma_zero(QParam(q))
            assert 1.0 < z.x0 < 2.0
            lo, hi = z.bracket
            assert lo <= z.x0 <= hi

    def test_sign_change_across_zero(self):
        for q in (0.3, 2.0):
            p = QParam(q)
            z = digamma_zero(p)
            assert q_digamma(p, z.x0 - 0.05).value < 0.0
            assert q_digamma(p, z.x0 + 0.05).value > 0.0

    def test_classical_limit(self):
        # q -> 1 recovers the positive zero of the ordinary digamma
        z = digamma_zero(QParam(0.999))
        assert abs(z.x0 - 1.4616) <= 5e-3
        assert z.x0 == pytest.approx(1.4616123069919615, abs=1e-9)

    def test_iterations_reported(self):
        z = digamma_zero(QParam(0.5))
        assert z.iterations > 0

    def test_no_point_evaluated_twice_in_a_row(self, monkeypatch):
        import qfun.roots

        point = qfun.roots._psi_point
        for q in (0.5, 2.0):
            xs = []

            def recording(p, k, x, trunc):
                if k == 0:
                    xs.append(x)
                return point(p, k, x, trunc)

            monkeypatch.setattr(qfun.roots, "_psi_point", recording)
            z = digamma_zero(QParam(q))
            assert all(a != b for a, b in zip(xs, xs[1:])), q
            assert z.iterations == len(xs), q

    def test_default_solves_make_few_evaluations(self, monkeypatch):
        import qfun.roots

        point = qfun.roots._psi_point
        xs = []

        def counting(p, k, x, trunc):
            if k == 0:
                xs.append(x)
            return point(p, k, x, trunc)

        monkeypatch.setattr(qfun.roots, "_psi_point", counting)
        for q in (0.5, 2.0, 1.001):
            xs.clear()
            z = digamma_zero(QParam(q))
            assert z.iterations == len(xs) <= 20, q

    @pytest.mark.parametrize("name", ["bisect_steps", "newton_steps"])
    @pytest.mark.parametrize("steps", [-3, 2.5, True, "4"])
    def test_rejects_step_counts_other_than_non_negative_ints(self, name, steps):
        with pytest.raises(DomainError, match=f"{name} must be an int >= 0"):
            digamma_zero(QParam(0.5), **{name: steps})

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            digamma_zero(QParam(0.5), tol=tol)

    def test_without_bisection_the_midpoint_is_evaluated(self):
        # no bisection step: the bracket midpoint is evaluated once, then polished
        z = digamma_zero(QParam(0.5), bisect_steps=0, newton_steps=40)
        assert z.x0 == pytest.approx(X0_FROZEN[0.5], abs=1e-11)
        assert z.residual <= 1e-12


def near_one_draw(seed, n, lo, hi):
    """n seeded q with |q - 1| log-uniform in [lo, hi], on both sides of 1."""
    rng = random.Random(seed)
    return [
        QParam(1.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(lo), math.log(hi))),
               allow_near_one=True)
        for _ in range(n)
    ]


class TestEulerMaclaurinGuidance:
    """Near q = 1 the signs that choose the bracket and the locate come from
    the Euler-Maclaurin sum, and the Lambert series runs only at the points
    that plain_zero evaluates near the zero."""

    def test_rule_keeps_qfun_all_on_the_lambert_signs(self):
        t = Truncation()
        for q in X0_FROZEN:
            assert not roots._em_guided(QParam(q), t), q
        assert all(roots._em_guided(p, t) for p in near_one_draw(1, 20, 1e-4, 1e-2))

    def test_near_one_solves_make_few_lambert_sums(self, monkeypatch):
        point = roots._psi_point
        calls = []

        def counting(p, k, x, trunc):
            calls.append(k)
            return point(p, k, x, trunc)

        monkeypatch.setattr(roots, "_psi_point", counting)
        counts = []
        for p in near_one_draw(13, 40, 1e-4, 1e-2):
            calls.clear()
            z = digamma_zero(p)
            assert z.iterations == calls.count(0), p.q
            counts.append(len(calls))
        assert statistics.median(counts) <= 3, counts
        assert max(counts) <= 8, counts

    def test_lambert_error_bounds_the_gap_to_the_euler_maclaurin_value(self):
        # at points within 1e-6 of the zero, as digamma_zero's E bounds it
        rng = random.Random(7)
        t = Truncation()
        for p in near_one_draw(29, 16, 3e-5, 1e-2):
            ends = [qfun.em._psi_em(p, 0, x, t).value for x in (1.0, 2.0)]
            err = roots._lambert_error(t, *ends)
            x = digamma_zero(p).x0 + rng.uniform(-1e-6, 1e-6)
            em = qfun.em._psi_em(p, 0, x, t)
            lam = core._psi_point(p, 0, x, t)
            assert abs(lam.value - em.value) <= em.err_bound + err, (p.q, x, lam, em, err)

    def test_window_slopes_taken_near_the_zero(self):
        # psi'(2) is far below psi'(x0) at small q: a window slope taken at
        # hi would make these solves take 18, 14, 13 and 11 evaluations
        got = {q: digamma_zero(QParam(q)).iterations for q in (0.01, 0.05, 0.1, 0.2)}
        assert got == {0.01: 15, 0.05: 12, 0.1: 11, 0.2: 9}


class TestQEulerMascheroni:
    def test_frozen_value(self):
        # mpmath: (1-q)/ln(q) * psi_q(1)
        got = q_euler_mascheroni(QParam(0.5))
        assert got == pytest.approx(0.3033475762076459, rel=1e-13)

    def test_classical_limit(self):
        got = q_euler_mascheroni(QParam(0.9999, allow_near_one=True))
        assert got == pytest.approx(0.577161803984, abs=1e-9)
        # still a visible distance from Euler's constant at this q
        assert abs(got - 0.5772156649015329) > 1e-5

    def test_definition_consistency(self):
        for q in (0.2, 0.7):
            p = QParam(q)
            want = (1.0 - q) / math.log(q) * q_digamma(p, 1.0).value
            assert q_euler_mascheroni(p) == pytest.approx(want, rel=1e-14)

    def test_super_unit_rejected(self):
        with pytest.raises(DomainError):
            q_euler_mascheroni(QParam(2.0))


class TestQHarmonic:
    def test_frozen_values(self):
        p = QParam(0.5)
        assert q_harmonic(p, 1) == pytest.approx(1.0, rel=1e-15)
        assert q_harmonic(p, 2) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert q_harmonic(p, 10) == pytest.approx(1.6057182718907462, rel=1e-13)

    def test_matches_direct_sum(self):
        for q in (0.2, 0.8):
            p = QParam(q)
            for n in (1, 3, 12):
                want = sum(q**k / (1.0 - q**k) for k in range(1, n + 1))
                assert q_harmonic(p, n) == pytest.approx(want, rel=1e-13)

    def test_zero_terms(self):
        assert q_harmonic(QParam(0.5), 0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            q_harmonic(QParam(0.5), -1)
        with pytest.raises(DomainError):
            q_harmonic(QParam(2.0), 3)


class TestRaisedCaps:
    def test_near_one_with_explicit_truncation(self):
        t = Truncation(rel_tol=1e-12, max_terms=10_000_000)
        z = digamma_zero(QParam(0.999), tol=1e-10, trunc=t)
        assert abs(z.x0 - 1.4616) <= 5e-3
