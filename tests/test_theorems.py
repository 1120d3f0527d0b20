"""Claim verifiers.

Each verifier gets (i) its stated pass cases, (ii) a designed failure or
boundary case, and (iii) a cross-check against an oracle that shares no
code with the verifier (finite differences of the directly assembled
function, brute sums, or closed forms from the functional equation).
"""

import math
import random

import pytest

import numpy as np

from qfun import (
    DomainError,
    QParam,
    RatioSpec,
    Truncation,
    beta_star,
    digamma_zero,
    finite_diff,
    g_beta_log_deriv,
    inv_digamma_provider,
    ln_g_beta,
    make_grid,
    phi_series_coefficient,
    psi_duplication_residual,
    q_bracket,
    q_digamma,
    q_gamma,
    ratio_log_middle,
    run_claim,
    verify_g_beta_lcm,
    verify_gamma_lcm_and_superadd,
    verify_ineq_1,
    verify_ineq_010,
    verify_ineq_555,
    verify_ineq_666,
    verify_inv_digamma_lcm,
    verify_phi_coeff,
    verify_psi_duplication,
    verify_remark_ineq,
    verify_theorem_ratio_lcm,
)
from qfun.theorems import CLAIM_IDS, CLAIMS, TIGHT_MARGIN, rerun_kwargs


BALANCED = RatioSpec(a=1.0, b=2.0, alpha=2.0, beta=1.0)


def _record_calls(monkeypatch, name: str) -> list:
    """Log the positional arguments of every call to name made from the
    deriv and theorems layers, wherever either module looks it up."""
    import qfun.deriv
    import qfun.theorems

    log = []
    for mod in (qfun.deriv, qfun.theorems):
        if hasattr(mod, name):
            def recording(*args, _fn=getattr(mod, name), **kwargs):
                log.append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, recording)
    return log


class TestRatioSpec:
    def test_balanced_predicate(self):
        assert BALANCED.balanced()
        assert not RatioSpec(1.0, 2.0, 1.0, 1.0).balanced()

    def test_order_enforced(self):
        with pytest.raises(DomainError):
            RatioSpec(a=2.0, b=1.0, alpha=1.0, beta=2.0)


class TestRatioLcm:
    def test_sufficiency_sub_unit(self):
        for q in (0.2, 0.5, 0.8):
            rep = verify_theorem_ratio_lcm(BALANCED, QParam(q))
            assert rep.passed, (q, rep.worst_margin)
            assert any("sufficiency" in n for n in rep.notes)

    def test_trivial_zero_exponents(self):
        spec = RatioSpec(1.0, 2.0, 0.0, 0.0)
        rep = verify_theorem_ratio_lcm(spec, QParam(0.5))
        assert rep.passed
        assert rep.worst_margin == 0.0

    def test_unbalanced_violates(self):
        rep = verify_theorem_ratio_lcm(RatioSpec(1.0, 2.0, 1.0, 1.0), QParam(0.5))
        assert not rep.passed
        assert rep.counterexample is not None
        assert any("necessity" in n for n in rep.notes)

    def test_hard_unbalanced_class_found_at_higher_order(self):
        # alpha*a > beta*b with alpha > beta hides its violation above the
        # first couple of orders; at q=0.8 it surfaces at n=3
        rep = verify_theorem_ratio_lcm(RatioSpec(1.0, 2.0, 1.5, 1.0), QParam(0.8))
        assert not rep.passed
        ce = rep.counterexample
        assert ce["n_order"] == 3
        # violation region sits near x ~ 2.3 (a fine scan peaks there at
        # margin ~ -1.1e-2); the default grid first clips it here
        assert 1.5 < ce["x"] < 3.0
        assert ce["margin"] < -1e-3

    def test_super_unit_balanced_violates(self):
        # the sub-unit statement does not survive parameter inversion: the
        # quadratic prefactor contributes ln(q) alpha a (a-b) < 0 to the
        # second log-derivative at large x
        rep = verify_theorem_ratio_lcm(BALANCED, QParam(2.0))
        assert not rep.passed
        assert rep.counterexample is not None
        assert rep.counterexample["n_order"] == 2

    def test_super_unit_second_derivative_limit(self):
        # analytic limit of the violation above: 2 psi'(x) - 4 psi'(2x)
        # tends to ln(q)(alpha a^2 - beta b^2) = -2 ln 2 at q=2
        from qfun import q_polygamma

        p = QParam(2.0)
        d2 = (
            2.0 * q_polygamma(p, 60.0, 1).value
            - 4.0 * q_polygamma(p, 120.0, 1).value
        )
        assert d2 == pytest.approx(-2.0 * math.log(2.0), rel=1e-9)

    def test_super_unit_unbalanced_scan_skipped(self):
        rep = verify_theorem_ratio_lcm(RatioSpec(1.0, 2.0, 1.0, 1.0), QParam(2.0))
        assert rep.passed
        assert rep.worst_point is None
        assert any("skipped" in n for n in rep.notes)

    def test_matches_finite_difference(self):
        from qfun import ln_q_gamma, ratio_provider

        p = QParam(0.5)
        prov = ratio_provider(p, BALANCED.a, BALANCED.b, BALANCED.alpha, BALANCED.beta)
        x = 1.1

        def ln_ratio(u):
            return (
                BALANCED.alpha * ln_q_gamma(p, BALANCED.a * u).value
                - BALANCED.beta * ln_q_gamma(p, BALANCED.b * u).value
            )

        assert prov.d(1, x) == pytest.approx(
            finite_diff(ln_ratio, x, n=1), rel=1e-7
        )
        # matched order: compare d(n) to a first difference of d(n-1)
        for n in (2, 3):
            want = finite_diff(lambda u: prov.d(n - 1, u), x, n=1)
            assert prov.d(n, x) == pytest.approx(want, rel=1e-7)


class TestIneq555:
    def test_default_sweep_passes(self):
        for q in (0.2, 0.5, 0.8):
            rep = verify_ineq_555(BALANCED, QParam(q))
            assert rep.passed, (q, rep.worst_margin)

    def test_spec_point_pairs(self):
        rep = verify_ineq_555(
            RatioSpec(1.0, 3.0, 3.0, 1.0), QParam(0.2), x1=0.5,
            grid=np.array([4.0]),
        )
        assert rep.passed

    def test_middle_bounded_by_one(self):
        # right-hand inequality alone: the log of the middle term is <= 0
        p = QParam(0.5)
        for x in (1.5, 2.0, 7.0):
            mid = ratio_log_middle(BALANCED, p, 1.0, x)
            assert mid <= 1e-12

    def test_lhospital_scale_coherence(self):
        # lim_{x->x1} ln(middle)/(x-x1) = alpha a (psi(a x1) - psi(b x1))
        p = QParam(0.5)
        x1 = 1.0
        slope = BALANCED.alpha * BALANCED.a * (
            q_digamma(p, BALANCED.a * x1).value
            - q_digamma(p, BALANCED.b * x1).value
        )
        errs = []
        for dx in (1e-3, 1e-4, 1e-5):
            got = ratio_log_middle(BALANCED, p, x1, x1 + dx) / dx
            errs.append(abs(got - slope))
        # shrinking sequence converges; final gap within 1e-4
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4

    def test_equality_as_x_approaches_x1(self):
        rep = verify_ineq_555(
            BALANCED, QParam(0.5), grid=np.array([1.0 + 1e-9])
        )
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-6

    def test_super_unit_fails(self):
        # quadratic prefactor breaks the lower bound right of x1 for q>1
        rep = verify_ineq_555(BALANCED, QParam(2.0))
        assert not rep.passed

    def test_unbalanced_rejected(self):
        with pytest.raises(DomainError):
            verify_ineq_555(RatioSpec(1.0, 2.0, 1.0, 1.0), QParam(0.5))


class TestIneq666:
    def test_holds_up_to_twenty(self):
        for q in (0.2, 0.5, 0.8, 0.95):
            rep = verify_ineq_666(QParam(q), n_max=20)
            assert rep.passed, q

    def test_spot_value_against_functional_equation(self):
        # Gamma_q^2(2)/Gamma_q(4) at q=0.5: functional equation gives
        # Gamma(4) = [3][2][1] = 1.75 * 1.5 = 2.625
        p = QParam(0.5)
        mid = q_gamma(p, 2.0).value ** 2 / q_gamma(p, 4.0).value
        want = 1.0 / (q_bracket(p, 3.0) * q_bracket(p, 2.0))
        assert mid == pytest.approx(want, rel=1e-6)
        assert mid == pytest.approx(0.38095238095238093, rel=1e-9)
        lower = math.exp(2.0 * 0.5 * math.log(0.5) / 0.5)
        assert lower == pytest.approx(0.25, rel=1e-15)
        assert lower <= mid <= 1.0

    def test_n1_equality(self):
        rep = verify_ineq_666(QParam(0.5), n_max=1)
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-12
        assert any("tight" in n for n in rep.notes)

    def test_super_unit_rejected(self):
        with pytest.raises(DomainError):
            verify_ineq_666(QParam(2.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_ineq_666(QParam(0.5), n_max=0)


class TestDuplication:
    def test_point_residuals(self):
        for x in (1.0, 0.25):
            rc = psi_duplication_residual(QParam(0.5), x)
            assert rc.residual <= 1e-11
            assert rc.passed

    def test_grid_sweep(self):
        for q in (0.1, 0.5, 0.9):
            rep = verify_psi_duplication(QParam(q))
            assert rep.passed, q

    def test_residual_within_budget_pointwise(self):
        p = QParam(0.3)
        for x in make_grid(0.05, 20.0, points=16):
            rc = psi_duplication_residual(p, float(x))
            assert rc.residual <= rc.budget, x

    def test_super_unit_rejected(self):
        with pytest.raises(DomainError):
            psi_duplication_residual(QParam(2.0), 1.0)


class TestGBeta:
    def test_beta_star_frozen_values(self):
        # -13 ln q / (6 (1 - q^2)), mpmath
        assert beta_star(QParam(0.1)) == pytest.approx(5.039327644599763, rel=1e-13)
        assert beta_star(QParam(0.5)) == pytest.approx(2.0024251882842864, rel=1e-13)
        assert beta_star(QParam(0.9)) == pytest.approx(1.2014795645190719, rel=1e-13)

    def test_beta_star_positive(self):
        for q in (0.05, 0.3, 0.6, 0.95):
            assert beta_star(QParam(q)) > 0.0

    def test_log_deriv_matches_finite_difference(self):
        # oracle: central differences of the direct, un-substituted ln g
        cases = [(0.5, 1.3, 1, 0.8), (0.3, 1.0, 2, 0.6), (0.7, 2.0, 1, 1.5)]
        for q, b, n, x in cases:
            p = QParam(q)
            got = g_beta_log_deriv(p, b, n, x)
            want = finite_diff(lambda u: ln_g_beta(p, b, u), x, n=n)
            rel = abs(got - want) / max(abs(want), 1e-8)
            assert rel < 1e-6, (q, b, n, x, rel)

    def test_beta_zero_drops_correction_term(self):
        # with beta=0 the derivative reduces to the four-psi combination
        p = QParam(0.5)
        x = 1.0
        got = g_beta_log_deriv(p, 0.0, 1, x)
        from qfun import q_polygamma

        p2 = QParam(0.25)
        want = (
            2.0 * q_digamma(p2, x + 0.5).value
            - 2.0 * q_digamma(p2, x + 1.0).value
            + 0.5 * q_polygamma(p2, x, 1).value
            + 0.5 * q_polygamma(p2, x + 0.5, 1).value
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_threshold_certifies(self):
        for q in (0.1, 0.5, 0.9):
            p = QParam(q)
            rep = verify_g_beta_lcm(p, beta=beta_star(p))
            assert rep.passed, q

    def test_above_threshold_certifies(self):
        p = QParam(0.5)
        rep = verify_g_beta_lcm(p, beta=beta_star(p) + 10.0)
        assert rep.passed

    def test_below_threshold_fails(self):
        p = QParam(0.5)
        rep = verify_g_beta_lcm(p, beta=beta_star(p) - 0.5)
        assert not rep.passed
        assert rep.counterexample is not None

    def test_default_beta_is_threshold(self):
        p = QParam(0.5)
        a = verify_g_beta_lcm(p)
        b = verify_g_beta_lcm(p, beta=beta_star(p))
        assert a.worst_margin == b.worst_margin

    def test_super_unit_rejected(self):
        with pytest.raises(DomainError):
            verify_g_beta_lcm(QParam(2.0))


class TestPhiCoefficients:
    def test_closed_form(self):
        # c_n = -beta (1-q^2)/(2 ln q) - 1 - 2^-n + 1/((n+1) 2^(n-1))
        p = QParam(0.5)
        for n in (1, 2, 3, 7):
            b = 1.7
            want = (
                -b * (1.0 - 0.25) / (2.0 * math.log(0.5))
                - 1.0
                - 0.5**n
                + 1.0 / ((n + 1) * 2.0 ** (n - 1))
            )
            assert phi_series_coefficient(b, p, n) == pytest.approx(want, rel=1e-14)

    def test_threshold_is_extremal_at_n2(self):
        # at beta = beta_star the n=2 coefficient vanishes exactly and the
        # neighbors stay positive
        p = QParam(0.5)
        bs = beta_star(p)
        assert abs(phi_series_coefficient(bs, p, 2)) < 1e-13
        assert phi_series_coefficient(bs, p, 1) == pytest.approx(1.0 / 12.0, abs=1e-13)
        assert phi_series_coefficient(bs, p, 3) == pytest.approx(1.0 / 48.0, abs=1e-13)

    def test_nonnegative_at_threshold(self):
        for q in (0.1, 0.5, 0.9):
            p = QParam(q)
            rep = verify_phi_coeff(p, n_max=200)
            assert rep.passed, q

    def test_beta_zero_goes_negative(self):
        # the bare bracket is negative for every n
        p = QParam(0.5)
        assert phi_series_coefficient(0.0, p, 1) == pytest.approx(-1.0, rel=1e-14)
        rep = verify_phi_coeff(p, beta=0.0, n_max=50)
        assert not rep.passed

    def test_large_beta_dominates(self):
        p = QParam(0.5)
        for n in (1, 10, 100):
            assert phi_series_coefficient(50.0, p, n) > 0.0


class TestInvDigammaLcm:
    def test_passes_right_of_zero(self):
        for q in (0.5, 2.0):
            rep = verify_inv_digamma_lcm(QParam(q))
            assert rep.passed, q

    def test_provider_first_order_sign(self):
        # (ln(1/psi))' = -psi'/psi < 0 right of the zero
        p = QParam(0.5)
        prov, x0 = inv_digamma_provider(p)
        for x in (x0 + 0.2, 5.0, 15.0):
            assert prov.d(1, x) < 0.0

    def test_provider_matches_finite_difference(self):
        p = QParam(0.5)
        prov, x0 = inv_digamma_provider(p)
        for n in (2, 3, 4):
            x = x0 + 1.5
            want = finite_diff(lambda u: prov.d(n - 1, u), x, n=1)
            assert prov.d(n, x) == pytest.approx(want, rel=1e-6), n

    def test_grid_touching_zero_rejected(self):
        p = QParam(0.5)
        x0 = digamma_zero(p).x0
        with pytest.raises(DomainError):
            verify_inv_digamma_lcm(p, grid=np.array([x0 + 1e-6, 5.0]))

    def test_order_sweep_evaluates_each_psi_once(self, monkeypatch):
        # orders 1..4 at one x need psi^(0..4): five evaluations, not 1+2+3+4
        prov, x0 = inv_digamma_provider(QParam(0.5))
        digammas = _record_calls(monkeypatch, "q_digamma")
        polygammas = _record_calls(monkeypatch, "q_polygamma")
        for n in range(1, 5):
            prov.d(n, x0 + 1.0)
        calls = [args[1:] for args in digammas + polygammas]
        assert len(calls) == 5
        assert len(set(calls)) == 5


class TestIneq1:
    def test_equal_arguments_are_equality(self):
        p = QParam(0.5)
        x0 = digamma_zero(p).x0
        rep = verify_ineq_1(p, a=2.0, x=x0 + 1.0, y=x0 + 1.0)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-12

    def test_spec_pairs_pass(self):
        p = QParam(0.5)
        x0 = digamma_zero(p).x0
        assert verify_ineq_1(p, a=2.0, x=x0 + 0.5, y=x0 + 2.0).passed
        assert verify_ineq_1(QParam(3.0), a=1.5, x=2.5, y=6.0).passed

    def test_left_of_zero_rejected(self):
        p = QParam(0.5)
        x0 = digamma_zero(p).x0
        with pytest.raises(DomainError):
            verify_ineq_1(p, a=2.0, x=x0 - 0.1, y=x0 + 1.0)

    def test_exponent_validation(self):
        p = QParam(0.5)
        x0 = digamma_zero(p).x0
        with pytest.raises(DomainError):
            verify_ineq_1(p, a=1.0, x=x0 + 1.0, y=x0 + 2.0)


class TestIneq010:
    def test_u_one_is_equality(self):
        for q in (0.3, 0.8, 2.0):
            rep = verify_ineq_010(QParam(q), a=2.0, u=1.0)
            assert rep.passed
            assert abs(rep.worst_margin) <= 1e-12

    def test_spec_points_pass(self):
        assert verify_ineq_010(QParam(0.5), a=2.0, u=2.0).passed
        assert verify_ineq_010(QParam(0.8), a=3.0, u=1.5).passed

    def test_outside_positivity_rejected(self):
        # u+1 must clear the digamma zero
        with pytest.raises(DomainError):
            verify_ineq_010(QParam(0.5), a=2.0, u=0.2)


class TestRemarkIneq:
    def test_holds_for_small_n(self):
        for q in (0.5, 0.9):
            rep = verify_remark_ineq(QParam(q), n_max=10)
            assert rep.passed, q

    def test_inner_term_is_shifted_digamma(self):
        # ln q/(1-q) gamma_q - ln q H_{n,q} telescopes to psi_q(n+1)
        from qfun import q_euler_mascheroni, q_harmonic

        p = QParam(0.5)
        n = 3
        inner = (
            math.log(0.5) / (1.0 - 0.5) * q_euler_mascheroni(p)
            - math.log(0.5) * q_harmonic(p, n)
        )
        assert inner == pytest.approx(q_digamma(p, n + 1.0).value, rel=1e-12)
        assert inner == pytest.approx(0.6026882321848259, rel=1e-13)

    def test_super_unit_rejected(self):
        with pytest.raises(DomainError):
            verify_remark_ineq(QParam(2.0))


class TestGammaLcmSuperadd:
    def test_both_parts_pass(self):
        for q in (0.5, 2.0):
            rep = verify_gamma_lcm_and_superadd(QParam(q))
            assert rep.passed, q

    def test_spot_product_inequality(self):
        # Gamma_q(1.5)^2 <= Gamma_q(3) = [2]_q = 1.5 at q=0.5
        p = QParam(0.5)
        lhs = q_gamma(p, 1.5).value ** 2
        rhs = q_gamma(p, 3.0).value
        assert rhs == pytest.approx(1.5, rel=1e-12)
        assert lhs <= rhs

    def test_super_unit_point_recorded(self):
        rep = verify_gamma_lcm_and_superadd(
            QParam(2.0), grid_x=np.array([0.3, 0.8])
        )
        assert rep.passed

    def test_lcm_grid_beyond_zero_rejected(self):
        p = QParam(0.5)
        with pytest.raises(DomainError):
            verify_gamma_lcm_and_superadd(p, grid_lcm=np.array([0.5, 1.6]))


class TestNecessityProperty:
    """Randomized sufficiency/necessity sweep, plain RNG, fixed seeds.

    Draws are restricted to the two unbalanced classes whose violations
    are detectable within the default order window (see the hard-class
    fixed test above for the one that is not).
    """

    @staticmethod
    def draw_spec(rng):
        a = rng.uniform(0.5, 1.5)
        r = rng.choice([1.5, 2.0, 2.5, 3.0])
        b = r * a
        if rng.random() < 0.5:
            beta = rng.uniform(0.3, 2.0)
            m = rng.uniform(1.3, 2.5)
            alpha = m * beta * b / a
        else:
            alpha = rng.uniform(0.3, 1.2)
            beta = alpha * rng.uniform(1.3, 2.5)
        return RatioSpec(a, b, alpha, beta)

    def test_unbalanced_draws_always_violate(self):
        for q in (0.2, 0.5, 0.8):
            rng = random.Random(20260819 + int(q * 10))
            p = QParam(q)
            for _ in range(12):
                spec = self.draw_spec(rng)
                rep = verify_theorem_ratio_lcm(spec, p)
                assert not rep.passed, (q, spec)

    def test_balanced_draws_always_pass(self):
        rng = random.Random(7)
        for q in (0.2, 0.5, 0.8):
            p = QParam(q)
            for _ in range(6):
                a = rng.uniform(0.5, 1.5)
                b = a * rng.choice([1.5, 2.0, 3.0])
                alpha = rng.uniform(0.3, 2.0)
                beta = alpha * a / b
                rep = verify_theorem_ratio_lcm(RatioSpec(a, b, alpha, beta), p)
                assert rep.passed, (q, a, b, alpha, beta)


class TestRunClaim:
    def test_every_claim_runs_at_half(self):
        p = QParam(0.5)
        for claim in CLAIM_IDS:
            rep = run_claim(claim, p)
            assert rep.claim_id == claim
            assert rep.passed, claim

    def test_super_unit_claims(self):
        p = QParam(2.0)
        # regime-agnostic claims run; outcomes can legitimately differ
        assert run_claim("t34-inv-psi", p).passed
        assert run_claim("gamma-lcm-superadd", p).passed
        assert not run_claim("t31-ratio-lcm", p).passed

    def test_unknown_claim(self):
        with pytest.raises(DomainError):
            run_claim("no-such-claim", QParam(0.5))

    def test_point_mode_reproduces_sweep_counterexample(self):
        p = QParam(0.5)
        sweep = run_claim("t31-ratio-lcm", p, a=1.0, b=2.0, alpha=1.0, beta=1.0)
        assert not sweep.passed
        ce = sweep.counterexample
        point = run_claim(
            "t31-ratio-lcm", p, a=1.0, b=2.0, alpha=1.0, beta=1.0,
            x=ce["x"], orders=ce["n_order"],
        )
        assert not point.passed
        assert point.worst_margin == pytest.approx(ce["margin"], abs=1e-12)

    @pytest.mark.parametrize(
        "claim, q, kwargs",
        [
            ("c-ineq-1", 0.5, {}),
            ("c-ineq-1", 0.5, {"x": 3.0, "b": 4.0}),
            ("c-ineq-010", 0.5, {}),
            ("c-ineq-010", 2.0, {"x": 2.0}),
            ("t34-inv-psi", 0.5, {}),
            ("t34-inv-psi", 0.5, {"x_min": 1.0}),
            ("t34-inv-psi", 2.0, {"x": 3.0}),
            ("gamma-lcm-superadd", 0.5, {}),
            ("gamma-lcm-superadd", 0.5, {"x": 0.3, "b": 0.6}),
        ],
    )
    def test_one_zero_solve_per_claim_run(self, monkeypatch, claim, q, kwargs):
        solves = _record_calls(monkeypatch, "digamma_zero")
        run_claim(claim, QParam(q), **kwargs)
        assert len(solves) <= 1

    def test_tight_margin_note(self):
        rep = run_claim("c-666", QParam(0.5), n_max=1)
        assert rep.passed
        assert rep.worst_margin < TIGHT_MARGIN
        assert any("tight" in n for n in rep.notes)

    @pytest.mark.parametrize("tol", [-10.0, math.nan, math.inf])
    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_rejects_negative_or_non_finite_tol(self, claim, tol):
        # a NaN tol would pass every margin, a negative one would fail a zero margin
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            run_claim(claim, QParam(0.5), tol=tol)


class TestClaimRegistry:
    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_regime_matches_verifier(self, claim):
        p = QParam(2.0)
        if CLAIMS[claim].sub_unit_only:
            assert not CLAIMS[claim].supports(p)
            with pytest.raises(DomainError):
                run_claim(claim, p)
        else:
            assert CLAIMS[claim].supports(p)
            assert run_claim(claim, p).claim_id == claim

    def test_all_sweep_makes_45_claim_runs(self):
        from qfun.cli import DEFAULT_ALL_QS

        runs = [(c, q) for c in CLAIM_IDS for q in DEFAULT_ALL_QS if CLAIMS[c].supports(QParam(q))]
        assert len(runs) == 45
        assert sum(q > 1.0 for _, q in runs) == 12

    @pytest.mark.parametrize(
        "claim, q",
        [(c, q) for c in CLAIM_IDS for q in (0.5, 2.0) if CLAIMS[c].supports(QParam(q))],
    )
    def test_worst_point_rerun_reproduces_worst_margin(self, claim, q):
        p = QParam(q)
        sweep = run_claim(claim, p)
        point = run_claim(claim, p, **rerun_kwargs(sweep, sweep.worst_point))
        assert point.worst_margin == sweep.worst_margin
