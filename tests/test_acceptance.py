"""Acceptance suite.

One test per acceptance criterion, in order; `pytest -v` therefore prints
one pass/fail line per criterion.  Each test also prints a human-readable
summary line (visible with -s or in the captured output of a failure).

Criterion 6's q>1 half asserts a refutation.  Criterion 1's functional
equation Gamma_q(x+1) = [x]_q Gamma_q(x) gives, for q>1,
psi_q(x+1) - psi_q(x) = ln q * q^x/(q^x - 1), so psi'_q(x) -> ln q as
x -> oo.  For a balanced ratio (alpha a = beta b, a < b) the second
log-derivative alpha a^2 psi'_q(ax) - beta b^2 psi'_q(bx) therefore tends
to ln q * alpha a (a - b) < 0: the ratio is not logarithmically completely
monotonic for q>1, and the certifier must say so at order 2 with that
limit as its worst margin.
"""

import json
import math
import os
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from qfun import (
    QParam,
    RatioSpec,
    Truncation,
    beta_star,
    certify_lcm,
    digamma_inversion_residual,
    digamma_zero,
    g_beta_provider,
    gamma_inversion_residual,
    inv_digamma_provider,
    ln_g_beta,
    ln_gamma_provider,
    ln_q_gamma,
    make_grid,
    phi_series_coefficient,
    psi_duplication_residual,
    q_bracket,
    q_digamma,
    q_gamma,
    ratio_log_middle,
    ratio_provider,
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
    verify_theorem_ratio_lcm,
    verify_remark_ineq,
)
from qfun.cli import main as cli_main
from stencils import finite_diff

SUB_QS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ALL_QS = SUB_QS + (2.0, 5.0)
X_GRID = make_grid(0.05, 20.0, points=33)


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {tag}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_identity_suite():
    worst_feq = 0.0
    for q in ALL_QS:
        p = QParam(q)
        for g in (1.0, 2.0):
            assert abs(q_gamma(p, g).value - 1.0) <= 1e-12
        for x in X_GRID:
            x = float(x)
            lhs = ln_q_gamma(p, x + 1.0).value
            rhs = math.log(q_bracket(p, x)) + ln_q_gamma(p, x).value
            rel = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst_feq = max(worst_feq, rel)
            assert rel <= 1e-10, (q, x)
    for q in (2.0, 5.0):
        p = QParam(q)
        for x in X_GRID:
            x = float(x)
            assert gamma_inversion_residual(p, x).passed, (q, x)
            assert digamma_inversion_residual(p, x).passed, (q, x)
    report(1, True, f"functional equation worst rel {worst_feq:.2e}; "
                    f"inversion residuals within combined bounds")


def test_criterion_02_recurrence():
    worst = 0.0
    for q in SUB_QS:
        p = QParam(q)
        for x in X_GRID:
            x = float(x)
            lhs = q_digamma(p, x + 1.0).value - q_digamma(p, x).value
            rhs = -(q**x) / (1.0 - q**x) * math.log(q)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-10, (q, x)
    report(2, True, f"worst residual {worst:.2e}")


def test_criterion_03_duplication_gate():
    worst = 0.0
    for q in SUB_QS:
        p = QParam(q)
        for x in X_GRID:
            rc = psi_duplication_residual(p, float(x))
            worst = max(worst, rc.residual)
            assert rc.residual <= 1e-9, (q, x)
    report(3, True, f"worst residual {worst:.2e} (gate 1e-9)")


def test_criterion_04_derivative_oracle():
    rng = random.Random(20260819)

    def check(dn, direct, x, n):
        got = dn(n, x)
        want = (
            finite_diff(direct, x, n=1)
            if n == 1
            else finite_diff(lambda u: dn(n - 1, u), x, n=1)
        )
        err = abs(got - want) / max(abs(want), 1e-8)
        assert err <= 1e-6, (x, n, got, want)

    for _ in range(20):
        q = rng.uniform(0.15, 0.9)
        p = QParam(q)
        a = rng.uniform(0.5, 1.5)
        b = a * rng.uniform(1.5, 3.0)
        alpha = rng.uniform(0.3, 2.0)
        beta = alpha * a / b
        prov = ratio_provider(p, a, b, alpha, beta)

        def ln_ratio(u, p=p, a=a, b=b, al=alpha, be=beta):
            return al * ln_q_gamma(p, a * u).value - be * ln_q_gamma(p, b * u).value

        check(prov.d, ln_ratio, rng.uniform(0.3, 5.0), rng.choice([1, 2, 3]))

    for _ in range(20):
        q = rng.uniform(0.15, 0.9)
        p = QParam(q)
        bet = rng.uniform(0.2, 3.0)
        prov = g_beta_provider(p, bet)
        check(
            prov.d,
            lambda u, p=p, bet=bet: ln_g_beta(p, bet, u),
            rng.uniform(0.3, 5.0),
            rng.choice([1, 2, 3]),
        )

    for _ in range(20):
        q = rng.choice([rng.uniform(0.15, 0.9), rng.uniform(1.5, 5.0)])
        p = QParam(q)
        prov = ln_gamma_provider(p)
        check(
            prov.d,
            lambda u, p=p: ln_q_gamma(p, u).value,
            rng.uniform(0.3, 5.0),
            rng.choice([1, 2, 3]),
        )

    for _ in range(20):
        q = rng.choice([rng.uniform(0.15, 0.9), rng.uniform(1.5, 5.0)])
        p = QParam(q)
        prov, x0 = inv_digamma_provider(p)
        check(
            prov.d,
            lambda u, p=p: -math.log(q_digamma(p, u).value),
            x0 + rng.uniform(0.3, 10.0),
            rng.choice([1, 2, 3]),
        )

    report(4, True, "20 draws per provider within 1e-6 relative")


def test_criterion_05_zero_location():
    for q in ALL_QS:
        z = digamma_zero(QParam(q), tol=1e-12)
        assert 1.0 < z.x0 < 2.0, q
        assert abs(z.residual) <= 1e-12, q
    z = digamma_zero(
        QParam(0.999), tol=1e-10,
        trunc=Truncation(rel_tol=1e-12, max_terms=10_000_000),
    )
    gap = abs(z.x0 - 1.4616)
    report(5, gap <= 5e-3, f"x0 in (1,2) at all grid q; q=0.999 gap {gap:.2e}")


def test_criterion_06_ratio_sufficiency():
    specs = (RatioSpec(1.0, 2.0, 2.0, 1.0), RatioSpec(1.0, 3.0, 3.0, 1.0))
    for q in (0.2, 0.5, 0.8):
        p = QParam(q)
        for spec in specs:
            rep = verify_theorem_ratio_lcm(spec, p, tol=1e-9)
            assert rep.passed, (q, spec, rep.worst_margin)
    worst = []
    for q in (2.0, 5.0):
        p = QParam(q)
        for spec in specs:
            rep = verify_theorem_ratio_lcm(spec, p, tol=1e-9)
            limit = math.log(q) * spec.alpha * spec.a * (spec.a - spec.b)
            assert not rep.passed, (q, spec)
            assert rep.counterexample["n_order"] == 2, (q, spec)
            # the grid ends at x = 20, where the rest of psi'_q(x) - ln q
            # is of order q^-20
            assert rep.worst_margin == pytest.approx(limit, rel=1e-5), (
                q, spec)
            worst.append(rep.worst_margin)
    report(
        6,
        True,
        "sub-unit passes; q>1 refuted at n=2 in all 4 runs with worst "
        f"margin ln(q) alpha a (a-b), down to {min(worst):.3e}",
    )


def test_criterion_07_ratio_necessity():
    rng = random.Random(42)

    def draw_spec():
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

    false_passes = 0
    for _ in range(50):
        spec = draw_spec()
        for q in (0.2, 0.5, 0.8):
            rep = verify_theorem_ratio_lcm(spec, QParam(q), n_orders=6)
            if rep.passed:
                false_passes += 1
    report(7, false_passes == 0,
           f"50 unbalanced draws x 3 q: {false_passes} false passes")


def test_criterion_08_ineq_555():
    rng = random.Random(555)
    for _ in range(10):
        q = rng.uniform(0.15, 0.9)
        p = QParam(q)
        a = rng.uniform(0.5, 1.5)
        b = a * rng.uniform(1.5, 3.0)
        alpha = rng.uniform(0.3, 2.0)
        beta = alpha * a / b
        spec = RatioSpec(a, b, alpha, beta)
        x1 = rng.uniform(0.2, 2.0)
        xs = np.array(sorted(x1 + rng.uniform(1e-3, 10.0) for _ in range(8)))
        rep = verify_ineq_555(spec, p, x1=x1, grid=xs)
        assert rep.passed, (q, spec, x1, rep.worst_margin)

    spec = RatioSpec(1.0, 2.0, 2.0, 1.0)
    p = QParam(0.5)
    slope = 2.0 * (q_digamma(p, 1.0).value - q_digamma(p, 2.0).value)
    got = ratio_log_middle(spec, p, 1.0, 1.0 + 1e-5) / 1e-5
    gap = abs(got - slope)
    report(8, gap <= 1e-4,
           f"10 random balanced specs x 8 pairs pass; l'Hospital gap {gap:.2e}")


def test_criterion_09_ineq_666():
    for q in (0.2, 0.5, 0.8, 0.95):
        rep = verify_ineq_666(QParam(q), n_max=20)
        assert rep.passed, q
    p = QParam(0.5)
    mid = q_gamma(p, 2.0).value ** 2 / q_gamma(p, 4.0).value
    oracle = 1.0 / (q_bracket(p, 3.0) * q_bracket(p, 2.0))
    assert abs(mid - oracle) <= 1e-6 * abs(oracle)
    lower = math.exp(2.0 * 0.5 * 1.0 * math.log(0.5) / (1.0 - 0.5))
    assert abs(lower - 0.25) <= 1e-12
    assert lower <= mid <= 1.0
    report(9, True, f"n=1..20 at four q; spot middle {mid:.4f}, lower 0.25")


def test_criterion_10_g_beta():
    for q in SUB_QS:
        p = QParam(q)
        bs = beta_star(p)
        for bet in (bs, bs + 1.0):
            rep = verify_g_beta_lcm(p, beta=bet, n_orders=6)
            assert rep.passed, (q, bet, rep.worst_margin)
        rep = verify_phi_coeff(p, n_max=200)
        assert rep.passed, q
        assert min(
            phi_series_coefficient(bs, p, n) for n in range(1, 201)
        ) >= -1e-13
    report(10, True, "LCM at beta_star and beta_star+1; c_n >= 0 for n <= 200")


def test_criterion_11_inv_digamma():
    for q in (0.5, 2.0):
        p = QParam(q)
        x0 = digamma_zero(p).x0
        rep = verify_inv_digamma_lcm(
            p, grid=make_grid(x0 + 0.1, 20.0, points=48), n_orders=4
        )
        assert rep.passed, (q, rep.worst_margin)
    report(11, True, "reciprocal-digamma LCM holds right of the zero, N=4")


def test_criterion_12_mean_inequalities():
    for q in (0.5, 2.0):
        p = QParam(q)
        x0 = digamma_zero(p).x0
        eq = verify_ineq_1(p, a=2.0, x=x0 + 1.0, y=x0 + 1.0)
        assert abs(eq.worst_margin) <= 1e-12
        assert run_claim("c-ineq-1", p).passed, q
    for q in (0.5, 0.8, 2.0):
        p = QParam(q)
        eq = verify_ineq_010(p, a=2.0, u=1.0)
        assert abs(eq.worst_margin) <= 1e-12
        assert run_claim("c-ineq-010", p).passed, q
    for q in (0.5, 0.9):
        assert verify_remark_ineq(QParam(q), n_max=10).passed, q
    report(12, True, "powered-mean and harmonic bounds pass; equalities to 1e-12")


def test_criterion_13_gamma_lcm_superadd():
    outcomes = []
    for q in (0.5, 2.0):
        p = QParam(q)
        x0 = digamma_zero(p).x0
        rep = verify_gamma_lcm_and_superadd(
            p,
            grid_x=make_grid(0.0, 1.0, points=20, spacing="linear"),
            grid_lcm=make_grid(0.05, x0 - 0.05, points=48),
            n_orders=6,
        )
        outcomes.append((q, rep.passed, rep.worst_margin))
        assert rep.passed, (q, rep.worst_margin)
    detail = "; ".join(
        f"q={q}: superadd+LCM margin {m:.2e}" for q, _, m in outcomes
    )
    report(13, True, detail)


def test_criterion_14_cli_contract(capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out1 = os.path.join(tmp, "a.csv")
        out2 = os.path.join(tmp, "b.csv")
        code1 = cli_main(["all", "--format", "csv", "--out", out1])
        err1 = capsys.readouterr().err
        code2 = cli_main(["all", "--format", "csv", "--out", out2])
        capsys.readouterr()
        with open(out1, "rb") as fh:
            body1 = fh.read()
        with open(out2, "rb") as fh:
            body2 = fh.read()
        assert body1 == body2, "repeat run not byte-identical"

        rows = body1.decode().splitlines()[1:]
        any_fail = any(r.rsplit(",", 1)[1] == "false" for r in rows)
        assert code1 == code2 == (1 if any_fail else 0)

    assert cli_main(["verify", "--claim", "psi-duplication", "--q", "0.5",
                     "--out", os.devnull]) == 0
    assert cli_main(["verify", "--claim", "bogus", "--q", "0.5"]) == 2
    capsys.readouterr()

    reruns = [l.split("re-run: qfun ")[1].split()
              for l in err1.splitlines() if "re-run: qfun " in l]
    assert reruns, "failing sweep must emit re-run lines"
    for argv in reruns:
        code = cli_main(argv + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1, argv
        rep = payload["reports"][0]
        assert rep["counterexample"] is not None, argv
    report(
        14,
        True,
        f"byte-identical sweep; exit codes 0/1/2 honored; "
        f"{len(reruns)} counterexample re-run lines reproduce their violations",
    )
