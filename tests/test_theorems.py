"""Claim verifiers.

Each verifier gets (i) its stated pass cases, (ii) a designed failure or
boundary case, and (iii) a cross-check against an oracle that shares no
code with the verifier (finite differences of the directly assembled
function, brute sums, or closed forms from the functional equation).
"""

import inspect
import math
import random

import pytest

import numpy as np

from qfun import (
    DomainError,
    EvalContext,
    LogDerivProvider,
    NonConvergent,
    QParam,
    RatioSpec,
    ResidualCheck,
    Truncation,
    beta_star,
    certify_lcm,
    digamma_zero,
    g_beta_log_deriv,
    inv_digamma_provider,
    ln_g_beta,
    ln_gamma_provider,
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
import qfun.deriv
import qfun.theorems
from qfun.theorems import CLAIM_IDS, CLAIMS, DEFAULT_TOL, TIGHT_MARGIN, _finish, _row, rerun_kwargs
from stencils import finite_diff


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

    def test_sweep_matches_point_residuals(self):
        # unsorted, 0.05 repeated, and 0.55 = 0.05 + 1/2 shares a psi_{q^2} point
        grid = [0.05, 3.0, 0.55, 0.05, 1.0, 20.0, 0.5]
        for q in (0.2, 0.5, 0.8):
            p = QParam(q)
            points = [(x, psi_duplication_residual(p, x)) for x in grid]
            x, rc = min(points, key=lambda pt: pt[1].budget - pt[1].residual)
            rep = verify_psi_duplication(p, grid=np.array(grid))
            assert rep.worst_point == {
                "n_order": None, "x": x, "value": rc.residual, "margin": rc.budget - rc.residual
            }, q

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

    def test_gate_miss_below_tol_fails(self, monkeypatch):
        # a residual over its budget fails the gate however small the miss:
        # the gate row is judged with no slack, as psi-duplication judges it
        def over_budget(ctx, xs):
            return [ResidualCheck(2e-13, 1e-13) for _ in xs]

        def no_sweep(*args):
            raise AssertionError("the sweep ran after a failed gate")

        monkeypatch.setattr(qfun.theorems, "_duplication_residuals", over_budget)
        monkeypatch.setattr(qfun.theorems, "certify_lcm", no_sweep)
        grid = make_grid(0.5, 4.0, points=16)
        rep = verify_g_beta_lcm(QParam(0.5), grid=grid)
        assert not rep.passed
        assert rep.notes == ("duplication gate failed; sweep not run",)
        assert rep.worst_margin == 1e-13 - 2e-13
        assert rep.counterexample == rep.worst_point
        assert rep.counterexample["x"] == float(grid[0])
        assert rep.counterexample["value"] == 2e-13

    def test_default_beta_is_threshold(self):
        p = QParam(0.5)
        a = verify_g_beta_lcm(p)
        b = verify_g_beta_lcm(p, beta=beta_star(p))
        assert a.worst_margin == b.worst_margin

    def test_super_unit_rejected(self):
        with pytest.raises(DomainError):
            verify_g_beta_lcm(QParam(2.0))
        # the regime is checked before a bad order or x
        for n, x in [(1, 1.5), (0, 1.5), (1, -1.0), (0, math.nan)]:
            with pytest.raises(DomainError, match="stated for 0 < q < 1"):
                g_beta_log_deriv(QParam(2.0), 1.0, n, x)

    @pytest.mark.parametrize(
        "bad",
        ["a", True, None, math.nan, math.inf, 0.0, -1.0, 10**400, 10**5000],
        ids=["str", "True", "None", "nan", "inf", "zero", "negative", "huge-int", "unprintable-int"],
    )
    def test_ln_g_beta_checks_x_as_q_digamma_does(self, bad):
        # "a" raised TypeError, and True evaluated at 1.0
        with pytest.raises(DomainError) as want:
            q_digamma(QParam(0.5), bad)
        with pytest.raises(DomainError) as got:
            ln_g_beta(QParam(0.5), 1.0, bad)
        assert str(got.value) == str(want.value)
        assert ln_g_beta(QParam(0.5), 1.0, 2) == ln_g_beta(QParam(0.5), 1.0, 2.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("verify", [verify_g_beta_lcm, verify_phi_coeff])
    def test_non_finite_beta_rejected(self, verify, beta):
        # a NaN weight passed every margin, an infinite one made them infinite
        with pytest.raises(DomainError, match="beta must be a finite real"):
            verify(QParam(0.5), beta=beta)


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

    def test_super_unit_q_rejected(self):
        # the coefficient belongs to the g_beta claims, stated for 0 < q < 1
        with pytest.raises(DomainError, match="the corrected ratio square is stated for 0 < q < 1"):
            phi_series_coefficient(1.0, QParam(2.0), 3)


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
        passes = _record_calls(monkeypatch, "_psi_orders")
        prov.d_grid([1, 2, 3, 4], [x0 + 1.0])
        # every psi evaluation of a sweep is a key of its one grid pass
        assert len(passes) == 1
        calls = [(k, x) for _, points, _ in passes for k, xs in points.items() for x in xs]
        assert len(calls) == len(set(calls)) == 5


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

    @pytest.mark.parametrize("x", [None, 2.0])
    @pytest.mark.parametrize("a", [0.0, -1.0, 1.0])
    def test_ineq_010_rejects_exponent_not_above_one(self, a, x):
        # the sweep filters its grid by 1 - 2/a, so the check must come first
        with pytest.raises(DomainError, match="a must exceed 1"):
            run_claim("c-ineq-010", QParam(0.5), a=a, x=x)

    def test_ineq_010_sweep_with_every_point_excluded_is_rejected(self):
        # u + 1 < x0 everywhere on [0.01, 0.02]: no point is examined
        with pytest.raises(DomainError, match="no grid point in"):
            run_claim("c-ineq-010", QParam(0.5), x_min=0.01, x_max=0.02, points=3)

    def test_unknown_argument_rejected(self):
        with pytest.raises(TypeError):
            run_claim("c-666", QParam(0.5), n_maximum=5)
        # a truncation rides in the context, EvalContext(p, trunc)
        with pytest.raises(TypeError):
            run_claim("c-666", QParam(0.5), trunc=Truncation(rel_tol=1e-10))

    def test_none_keeps_claim_default(self):
        p = QParam(0.5)
        assert run_claim("phi-coeff", p, n_max=None, beta=None) == run_claim("phi-coeff", p)

    def test_tight_margin_note(self):
        rep = run_claim("c-666", QParam(0.5), n_max=1)
        assert rep.passed
        assert rep.worst_margin < TIGHT_MARGIN
        assert any("tight" in n for n in rep.notes)

    def test_nan_margin_fails(self):
        # a NaN margin is not >= -tol: it fails the report and is its worst
        rows = [_row(None, x, m, m) for x, m in ((1.0, 2.0), (2.0, math.nan), (3.0, -1.0))]
        rep = _finish("c-555", {}, {}, rows, DEFAULT_TOL)
        assert not rep.passed
        assert math.isnan(rep.worst_margin)
        assert rep.worst_point["x"] == rep.counterexample["x"] == 2.0

    @pytest.mark.parametrize(
        "table, worst, failure",
        [
            ([[1.0, -2.0, math.nan], [0.5, 0.5, 0.5]], (1, 3.0), (1, 2.0)),
            ([[math.nan, 1.0, -1.0], [0.5, 0.5, 0.5]], (1, 1.0), (1, 1.0)),
            ([[1.0, -0.5, 2.0], [-0.5, 3.0, 1.0]], (1, 2.0), (1, 2.0)),
            ([[0.0, -0.0, 1.0], [2.0, 2.0, 2.0]], (1, 1.0), None),
            ([[1.0, 2.0, 3.0], [0.5, 4.0, 0.25]], (2, 3.0), None),
        ],
        ids=["nan-after-failure", "nan-first", "tied-least", "signed-zeros", "all-pass"],
    )
    def test_certify_lcm_and_finish_reach_one_verdict(self, table, worst, failure):
        # one margin table, as a sweep's (order, x) margins and as report rows
        xs = [1.0, 2.0, 3.0]
        signs = [(-1.0) ** n for n in range(1, len(table) + 1)]
        d = np.array([[s * m for m in row] for s, row in zip(signs, table)])
        prov = LogDerivProvider(
            d=lambda n, x: math.nan, lo=0.0, hi=math.inf, name="table",
            d_grid=lambda orders, grid: d,
        )
        cm = certify_lcm(prov, np.array(xs), n_orders=len(table), tol=0.1)
        rows = [_row(n, x, m, m) for n, row in enumerate(table, 1) for x, m in zip(xs, row)]
        rep = _finish("c-555", {}, {}, rows, 0.1)

        def located(point):
            return None if point is None else (point["n_order"], point["x"])

        assert located(cm.worst_point) == located(rep.worst_point) == worst
        assert repr(cm.worst_margin) == repr(rep.worst_margin)
        assert located(cm.counterexample) == located(rep.counterexample) == failure
        assert cm.passed == rep.passed == (failure is None)
        assert cm.notes == rep.notes

    @pytest.mark.parametrize("tol", [-10.0, math.nan, math.inf])
    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_rejects_negative_or_non_finite_tol(self, claim, tol):
        # a NaN tol would pass every margin, a negative one would fail a zero margin
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            run_claim(claim, QParam(0.5), tol=tol)


# run_claim arguments that replace each claim's defaults; a claim stated for
# 0 < q < 1 only must reject q > 1 whatever it is given
EXPLICIT_ARGS = {
    "t31-ratio-lcm": {"a": 1.0, "b": 3.0, "alpha": 3.0, "beta": 1.0, "orders": 3},
    "c-555": {"a": 1.0, "b": 3.0, "alpha": 3.0, "beta": 1.0, "points": 8},
    "c-666": {"n_max": 5},
    "g-beta-lcm": {"beta": 1.0},
    "phi-coeff": {"beta": 1.0, "n_max": 5},
    "t34-inv-psi": {"orders": 2, "points": 8},
    "c-ineq-1": {"a": 3.0, "points": 4},
    "c-ineq-010": {"a": 3.0, "points": 8},
    "remark-harmonic": {"n_max": 5},
    "gamma-lcm-superadd": {"orders": 2},
    "psi-duplication": {"x": 1.5},
}


class TestClaimRegistry:
    @pytest.mark.parametrize(
        "claim, kwargs",
        [pytest.param(c, {}, id=c) for c in CLAIM_IDS]
        + [pytest.param(c, EXPLICIT_ARGS.get(c), id=f"{c}-explicit") for c in CLAIM_IDS],
    )
    def test_regime_matches_verifier(self, claim, kwargs):
        assert kwargs is not None, f"EXPLICIT_ARGS has no entry for {claim}"
        p = QParam(2.0)
        if CLAIMS[claim].sub_unit_only:
            assert not CLAIMS[claim].supports(p)
            with pytest.raises(DomainError):
                run_claim(claim, p, **kwargs)
        else:
            assert CLAIMS[claim].supports(p)
            assert run_claim(claim, p, **kwargs).claim_id == claim

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


def _p_functions() -> list[str]:
    """The public functions of theorems and deriv that take a q parameter p."""
    return [
        name
        for mod in (qfun.theorems, qfun.deriv)
        for name in mod.__all__
        if inspect.isfunction(getattr(mod, name))
        and "p" in inspect.signature(getattr(mod, name)).parameters
    ]


_SWEEP = make_grid(0.5, 4.0, 6)

# name -> (arguments before p, arguments after p, keyword arguments), all at q = 0.5
CONTEXT_SAMPLES = {
    "verify_theorem_ratio_lcm": ((BALANCED,), (_SWEEP, 3), {}),
    "ratio_log_middle": ((BALANCED,), (1.0, 2.5), {}),
    "verify_ineq_555": ((BALANCED,), (1.0, make_grid(1.5, 6.0, 6)), {}),
    "verify_ineq_666": ((), (5,), {}),
    "psi_duplication_residual": ((), (1.5,), {}),
    "verify_psi_duplication": ((), (_SWEEP,), {}),
    "beta_star": ((), (), {}),
    "ln_g_beta": ((), (1.0, 1.5), {}),
    "g_beta_log_deriv": ((), (1.0, 2, 1.5), {}),
    "g_beta_provider": ((), (1.0,), {}),
    "verify_g_beta_lcm": ((), (1.0, _SWEEP, 3), {}),
    "phi_series_coefficient": ((1.0,), (3,), {}),
    "verify_phi_coeff": ((), (None, 10), {}),
    "inv_digamma_provider": ((), (), {}),
    "verify_inv_digamma_lcm": ((), (make_grid(2.0, 8.0, 6), 3), {}),
    "verify_ineq_1": ((), (2.0, 2.0, 3.0), {}),
    "verify_ineq_010": ((), (2.0, 1.5), {}),
    "verify_remark_ineq": ((), (5,), {}),
    "verify_gamma_lcm_and_superadd": (
        (), (make_grid(0.0, 1.0, 3, "linear"), make_grid(0.1, 1.2, 4), 3), {}
    ),
    "run_claim": (("c-666",), (), {"n_max": 5}),
    "ln_gamma_provider": ((), (), {}),
    "ratio_provider": ((), (1.0, 2.0, 2.0, 1.0), {}),
}


def _comparable(result):
    """result as == can compare it: a provider's closures are replaced by
    the derivatives they return at sample points."""
    if isinstance(result, tuple):
        return tuple(_comparable(r) for r in result)
    if isinstance(result, LogDerivProvider):
        xs = (result.lo + 0.5, result.lo + 2.0)
        derivs = [result.d(n, x) for n in (1, 2) for x in xs]
        return (result.name, result.lo, result.hi, derivs)
    return result


class TestContextContract:
    """Every public function that takes p takes a QParam or an EvalContext
    at that q, and with a context evaluates through it alone."""

    @pytest.mark.parametrize("name", _p_functions())
    def test_shared_context_gives_the_qparam_result(self, monkeypatch, name):
        assert name in CONTEXT_SAMPLES, f"CONTEXT_SAMPLES has no arguments for {name}"
        fn = getattr(qfun.theorems, name, None) or getattr(qfun.deriv, name)
        before, after, kwargs = CONTEXT_SAMPLES[name]
        want = _comparable(fn(*before, QParam(0.5), *after, **kwargs))

        ctx = EvalContext(QParam(0.5))
        ctx.squared()  # the base-q^2 context belongs to the shared one
        made = []
        init = EvalContext.__init__

        def recording_init(self, *args, **kw):
            init(self, *args, **kw)
            made.append(self)

        monkeypatch.setattr(EvalContext, "__init__", recording_init)
        assert _comparable(fn(*before, ctx, *after, **kwargs)) == want
        assert made == []

    def test_only_the_context_takes_a_truncation(self):
        public = [getattr(mod, name) for mod in (qfun.theorems, qfun.deriv) for name in mod.__all__]
        takers = {
            f.__name__ for f in public
            if callable(f) and "trunc" in inspect.signature(f).parameters
        }
        assert takers == {"EvalContext"}
        assert list(inspect.signature(EvalContext.of).parameters) == ["p"]

    def test_context_truncation_reaches_the_evaluators(self):
        # a 1000-term cap fails psi^(2) at q = 0.5 near x = 0.05, where the
        # default truncation passes the same sweep
        p = QParam(0.5)
        assert verify_theorem_ratio_lcm(BALANCED, p).passed
        with pytest.raises(NonConvergent, match="term cap 1000 reached"):
            verify_theorem_ratio_lcm(BALANCED, EvalContext(p, Truncation(max_terms=1000)))


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, True])
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda v: verify_ineq_666(QParam(0.5), n_max=v), "n_max must be an int >= 1, got {!r}"),
            (lambda v: verify_phi_coeff(QParam(0.5), n_max=v), "n_max must be an int >= 1, got {!r}"),
            (lambda v: verify_remark_ineq(QParam(0.5), n_max=v), "n_max must be an int >= 1, got {!r}"),
            (lambda v: phi_series_coefficient(1.0, QParam(0.5), v), "n must be an int >= 1, got {!r}"),
            (
                lambda v: certify_lcm(ln_gamma_provider(QParam(0.5)), _SWEEP, n_orders=v),
                "n_orders must be an int >= 1, got {!r}",
            ),
            (
                lambda v: run_claim("t31-ratio-lcm", QParam(0.5), orders=v),
                "n_orders must be an int >= 1, got {!r}",
            ),
        ],
        ids=[
            "c-666", "phi-coeff", "remark-harmonic", "phi-coefficient",
            "certify-lcm", "run-claim-orders",
        ],
    )
    def test_rejects_non_int_or_below_one(self, call, message, bad):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == message.format(bad)


class TestRealArguments:
    """Every real scalar of a verifier, and run_claim's single point with its
    paired b, its grid bounds and its tol, passes one check: a bool, a
    string or an int too large for a float is rejected by name.  True once
    ran as 1.0, "2.5" as 2.5, and a huge int raised OverflowError."""

    @pytest.mark.parametrize(
        "bad, shown",
        [(True, "True"), ("2.5", "'2.5'"), (10**400, repr(10**400))],
        ids=["bool", "str", "huge-int"],
    )
    @pytest.mark.parametrize(
        "name, call",
        [
            ("x1", lambda v: verify_ineq_555(BALANCED, QParam(0.5), x1=v)),
            ("a", lambda v: verify_ineq_1(QParam(0.5), v, 2.0, 3.0)),
            ("x", lambda v: verify_ineq_1(QParam(0.5), 2.0, v, 3.0)),
            ("y", lambda v: verify_ineq_1(QParam(0.5), 2.0, 2.0, v)),
            ("a", lambda v: verify_ineq_010(QParam(0.5), v, 1.5)),
            ("u", lambda v: verify_ineq_010(QParam(0.5), 2.0, v)),
            ("beta", lambda v: verify_phi_coeff(QParam(0.5), beta=v)),
            ("beta", lambda v: verify_g_beta_lcm(QParam(0.5), beta=v)),
            ("x", lambda v: run_claim("t31-ratio-lcm", QParam(0.5), x=v)),
            ("x", lambda v: run_claim("c-ineq-1", QParam(0.5), x=v)),
            ("y", lambda v: run_claim("c-ineq-1", QParam(0.5), x=2.0, b=v)),
            ("u", lambda v: run_claim("c-ineq-010", QParam(0.5), x=v)),
            ("x", lambda v: run_claim("gamma-lcm-superadd", QParam(0.5), x=v, b=0.5)),
            ("y", lambda v: run_claim("gamma-lcm-superadd", QParam(0.5), x=0.5, b=v)),
            ("lo", lambda v: run_claim("t31-ratio-lcm", QParam(0.5), x_min=v)),
            ("hi", lambda v: run_claim("t31-ratio-lcm", QParam(0.5), x_max=v)),
            ("tol", lambda v: run_claim("t31-ratio-lcm", QParam(0.5), tol=v)),
        ],
        ids=[
            "c-555-x1", "ineq-1-a", "ineq-1-x", "ineq-1-y", "ineq-010-a", "ineq-010-u",
            "phi-coeff-beta", "g-beta-beta", "run-t31-x", "run-ineq-1-x", "run-ineq-1-b",
            "run-ineq-010-x", "run-superadd-x", "run-superadd-b",
            "run-t31-x-min", "run-t31-x-max", "run-t31-tol",
        ],
    )
    def test_rejects_what_is_not_a_finite_real(self, name, call, bad, shown):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be a finite real, got {shown}"
