"""Numerical certification of monotonicity and inequality claims for the
q-gamma family.

Each verifier checks one claim over a grid and returns a VerifyReport
carrying the worst margin, the first counterexample if any, and notes on
branch choices or excluded points.  VerifyReport is deriv's one report
type: the three monotonicity claims return certify_lcm's report with
their own claim id, parameters and notes, and the others fold their
margin rows into one through _finish, so deriv._verdict forms every
verdict.  Wherever a claim involves products or powers of gamma values
the comparison happens in log space.  The CLAIMS registry maps the
stable claim-id strings onto these verifiers and regimes.
Every public verifier and provider, and run_claim, takes p as a QParam,
evaluated at the default truncation, or as an EvalContext at that q,
resolved by EvalContext.of; the context is the one carrier of the
truncation, so another one is passed as EvalContext(p, trunc).  Every
evaluator value goes through that one context, so claim runs that share a
context solve for the digamma zero once.  The context keeps no value: each
sweep lists its points once and reads the values that its one grid call
returns, and the providers and the duplication gate hand the grid pass one
array per order of the points their formula reads at that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    DomainError,
    QParam,
    Regime,
    ResidualCheck,
    _check_count,
    _check_real,
    _check_x,
    _fp_allowance,
    _require_sub_unit,
)
from .deriv import (
    N_MAX,
    TIGHT_MARGIN,  # noqa: F401 (kept importable here)
    EvalContext,
    LogDerivProvider,
    VerifyReport,
    _grid_summary,
    _order_rows,
    _row,
    _verdict,
    certify_lcm,
    ln_gamma_provider,
    log_derivatives,
    make_grid,
    ratio_provider,
)
from .roots import q_euler_mascheroni, q_harmonic
from .roots import digamma_zero  # noqa: F401 (kept importable here)
from .rows import _check_points, _psi_orders

__all__ = [
    "BALANCE_TOL",
    "DEFAULT_TOL",
    "ZERO_MARGIN",
    "CLAIM_IDS",
    "CLAIMS",
    "Claim",
    "ClaimArgs",
    "RatioSpec",
    "verify_theorem_ratio_lcm",
    "ratio_log_middle",
    "verify_ineq_555",
    "verify_ineq_666",
    "psi_duplication_residual",
    "verify_psi_duplication",
    "beta_star",
    "ln_g_beta",
    "g_beta_log_deriv",
    "g_beta_provider",
    "verify_g_beta_lcm",
    "phi_series_coefficient",
    "verify_phi_coeff",
    "inv_digamma_provider",
    "verify_inv_digamma_lcm",
    "verify_ineq_1",
    "verify_ineq_010",
    "verify_remark_ineq",
    "verify_gamma_lcm_and_superadd",
    "run_claim",
    "rerun_kwargs",
]

BALANCE_TOL = 1e-12
DEFAULT_TOL = 1e-9
# grid points must clear the digamma zero by at least this much
ZERO_MARGIN = 1e-3

DEFAULT_X_MIN = 0.05
DEFAULT_X_MAX = 20.0
DEFAULT_POINTS = 64
DEFAULT_SPACING = "geometric"


@dataclass(frozen=True)
class RatioSpec:
    """Parameters of the ratio Gamma_q(a x)^alpha / Gamma_q(b x)^beta.

    Requires 0 < a < b.  balanced() tests the exponent coupling
    alpha * a = beta * b that the monotonicity theorem turns on.
    """

    a: float
    b: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "alpha", "beta"):
            _check_real(name, getattr(self, name))
        if not 0.0 < self.a < self.b:
            raise DomainError(f"need 0 < a < b, got a={self.a}, b={self.b}")

    def balanced(self) -> bool:
        return abs(self.alpha * self.a - self.beta * self.b) <= BALANCE_TOL


def _finish(
    claim_id: str,
    params: dict,
    grid_summary: dict,
    rows: list[dict],
    tol: float,
    notes: tuple[str, ...] = (),
) -> VerifyReport:
    """Fold margin rows, scanned in append order, into a report through
    _verdict, as certify_lcm folds its margins."""
    margins = np.array([r["margin"] for r in rows], dtype=np.float64)
    return _verdict(claim_id, params, grid_summary, margins, lambda i: dict(rows[i]), tol, notes)


def _default_grid() -> np.ndarray:
    return make_grid(DEFAULT_X_MIN, DEFAULT_X_MAX, DEFAULT_POINTS, DEFAULT_SPACING)


def _log_psi(ctx: EvalContext, xs: list[float]) -> dict[float, float]:
    """ln psi_q(x) by x, for the points xs, from one grid pass at ctx; the
    first x whose psi_q(x) is not positive raises."""
    out = {}
    for x, r in zip(xs, ctx.psi_grid((0, x) for x in xs)):
        if r.value <= 0.0:
            raise DomainError(f"psi_q({x}) = {r.value:.6g} is not positive; point left of the zero")
        out[x] = math.log(r.value)
    return out


def _ln_gammas(ctx: EvalContext, xs: list[float]) -> dict[float, float]:
    """ln Gamma_q by x, for the points xs, from one grid pass at ctx."""
    return dict(zip(xs, (r.value for r in ctx.ln_gamma_grid(xs))))


# ---------------------------------------------------------------------------
# ratio of gamma powers: monotonicity and the derived two-sided bound

def verify_theorem_ratio_lcm(
    spec: RatioSpec,
    p: QParam | EvalContext,
    grid: np.ndarray | None = None,
    n_orders: int = N_MAX,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Log-complete-monotonicity of Gamma_q(ax)^alpha / Gamma_q(bx)^beta.

    Balanced exponents with alpha >= 0 take the sufficiency branch.  For
    0 < q < 1 the default window (orders up to N_MAX, x up to 20) passes,
    but a pass covers only the orders and points swept: at q = 0.8 the
    default spec fails at order 8 near x = 15.  For q > 1 the balanced
    ratio fails at order 2, where the evaluator's prefactor turns the
    second log-derivative negative.  Anything else takes the necessity
    scan, which hunts for a sign violation and is expected to find one
    when 0 < q < 1; for q > 1 the necessity direction is not asserted, so
    unbalanced input is reported as out of scope rather than scanned.
    The report is certify_lcm's, with this claim's id, parameters and
    notes.
    """
    ctx = EvalContext.of(p)
    p = ctx.p
    if grid is None:
        grid = _default_grid()
    params = {"q": p.q, "a": spec.a, "b": spec.b, "alpha": spec.alpha, "beta": spec.beta}
    sufficiency = spec.balanced() and spec.alpha >= 0.0
    if not sufficiency and p.regime is Regime.SUPER_UNIT:
        return _finish(
            "t31-ratio-lcm",
            params,
            _grid_summary(grid),
            [],
            tol,
            notes=("necessity scan skipped: only asserted for 0 < q < 1",),
        )
    provider = ratio_provider(ctx, spec.a, spec.b, spec.alpha, spec.beta)
    cm = certify_lcm(provider, grid, n_orders, tol)
    if sufficiency:
        notes = ("sufficiency branch: balanced exponents with alpha >= 0, expected pass",)
    else:
        notes = ("necessity branch: unbalanced exponents, expecting a violation",)
        if cm.passed:
            notes = notes + ("no violation on this grid; widen it or raise the order cap",)
    return replace(cm, claim_id="t31-ratio-lcm", params=params, notes=notes + cm.notes)


def ratio_log_middle(spec: RatioSpec, p: QParam | EvalContext, x1: float, x: float) -> float:
    """Log of the normalized ratio appearing in the two-sided bound:
    alpha [lnG(ax) - lnG(ax1)] - beta [lnG(bx) - lnG(bx1)]."""
    lng = EvalContext.of(p).ln_gamma
    return spec.alpha * (lng(spec.a * x).value - lng(spec.a * x1).value) - spec.beta * (
        lng(spec.b * x).value - lng(spec.b * x1).value
    )


def verify_ineq_555(
    spec: RatioSpec,
    p: QParam | EvalContext,
    x1: float = 1.0,
    grid: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Two-sided bound for the normalized ratio at balanced exponents.

    In log space: alpha a (x - x1) [psi(a x1) - psi(b x1)] <= ln(middle) <= 0
    for every grid x > x1, each side with slack tol.
    """
    ctx = EvalContext.of(p)
    if not spec.balanced():
        raise DomainError("the two-sided bound needs balanced exponents (alpha a = beta b)")
    if spec.alpha < 0.0 or spec.beta < 0.0:
        raise DomainError("the two-sided bound needs alpha, beta >= 0")
    if not _check_real("x1", x1) > 0.0:
        raise DomainError(f"x1 must be a positive real, got {x1!r}")
    if grid is None:
        grid = x1 + np.geomspace(1e-4, 10.0, DEFAULT_POINTS)
    xs = [float(v) for v in np.asarray(grid, dtype=np.float64).ravel()]
    if any(v <= x1 for v in xs):
        raise DomainError("every grid point must lie strictly right of x1")
    slope = spec.alpha * spec.a * (ctx.psi(0, spec.a * x1).value - ctx.psi(0, spec.b * x1).value)
    # ln Gamma_q at a x and b x, for x1 and then each grid x
    points = [v for x in [x1] + xs for v in (spec.a * x, spec.b * x)]
    ax1, bx1, *lng = (r.value for r in ctx.ln_gamma_grid(points))
    rows = []
    for x, ax, bx in zip(xs, lng[0::2], lng[1::2]):
        mid = spec.alpha * (ax - ax1) - spec.beta * (bx - bx1)
        lower = slope * (x - x1)
        rows.append(_row(None, x, mid, min(mid - lower, -mid)))
    params = {
        "q": ctx.p.q, "a": spec.a, "b": spec.b, "alpha": spec.alpha, "beta": spec.beta, "x1": x1,
    }
    return _finish("c-555", params, _grid_summary(np.asarray(xs)), rows, tol)


def verify_ineq_666(
    p: QParam | EvalContext,
    n_max: int = 20,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """exp[2q(n-1) ln(q)/(1-q)] <= Gamma_q(n)^2 / Gamma_q(2n) <= 1 for
    integers n = 1..n_max, checked in log space."""
    ctx = EvalContext.of(p)
    p = ctx.p
    _require_sub_unit(p, "this bound")
    _check_count("n_max", n_max, 1)
    lnq = math.log(p.q)
    lng = _ln_gammas(ctx, [v for n in range(1, n_max + 1) for v in (float(n), 2.0 * n)])
    rows = []
    for n in range(1, n_max + 1):
        mid = 2.0 * lng[float(n)] - lng[2.0 * n]
        lower = 2.0 * p.q * (n - 1) * lnq / (1.0 - p.q)
        rows.append(_row(n, None, mid, min(mid - lower, -mid)))
    params = {"q": p.q, "n_max": n_max}
    return _finish("c-666", params, {"n_max": n_max}, rows, tol)


# ---------------------------------------------------------------------------
# duplication identity and the exponentially corrected ratio square

def psi_duplication_residual(p: QParam | EvalContext, x: float) -> ResidualCheck:
    """|psi_q(2x) - ln(1+q) - psi_{q^2}(x)/2 - psi_{q^2}(x+1/2)/2| with its
    combined error budget.

    Both sides come from independent series, so a passing residual
    certifies the duplication identity at this point.
    """
    return _duplication_residuals(EvalContext.of(p), [x])[0]


def _duplication_residuals(ctx: EvalContext, xs: Sequence[float]) -> list[ResidualCheck]:
    """psi_duplication_residual at every x of xs, each base's psi values
    evaluated in one grid pass."""
    _require_sub_unit(ctx.p, "the duplication identity")
    xa = _check_points(xs)
    half = ctx.squared()
    lhs = _psi_orders(ctx.p, {0: 2.0 * xa}, ctx.trunc)[:2]
    rhs = _psi_orders(half.p, {0: np.concatenate([xa, xa + 0.5])}, half.trunc)[:2]
    # per x: psi(2x), its err_bound, psi_{q^2} at x and x+1/2, their err_bounds
    cols = np.concatenate([np.stack(lhs), np.stack(rhs).reshape(4, xa.size)]).T.tolist()
    c = math.log1p(ctx.p.q)
    out = []
    for left, e0, r1, r2, e1, e2 in cols:
        residual = abs(left - c - 0.5 * r1 - 0.5 * r2)
        budget = e0 + 0.5 * e1 + 0.5 * e2 + _fp_allowance(left, c, r1, r2)
        out.append(ResidualCheck(residual, budget))
    return out


def verify_psi_duplication(
    p: QParam | EvalContext,
    grid: np.ndarray | None = None,
) -> VerifyReport:
    """Sweep the duplication residual; margin is budget - residual and the
    pass rule is margin >= 0, so every point must meet its own error
    budget with no extra slack."""
    ctx = EvalContext.of(p)
    if grid is None:
        grid = _default_grid()
    xs = [float(x) for x in np.asarray(grid, dtype=np.float64).ravel()]
    rows = [
        _row(None, x, rc.residual, rc.budget - rc.residual)
        for x, rc in zip(xs, _duplication_residuals(ctx, xs))
    ]
    return _finish(
        "psi-duplication",
        {"q": ctx.p.q},
        _grid_summary(grid),
        rows,
        0.0,
        notes=("margin is error budget minus residual",),
    )


# every g_beta claim and formula is stated for 0 < q < 1 only
_G_BETA = "the corrected ratio square"


def _g_beta_weight(ctx: EvalContext, beta: float | None) -> float:
    """beta as given, or beta_star(q) when None; it must be finite."""
    _require_sub_unit(ctx.p, _G_BETA)
    return beta_star(ctx) if beta is None else _check_real("beta", beta)


def beta_star(p: QParam | EvalContext) -> float:
    """Threshold -13 ln(q) / (6 (1 - q^2)) above which the corrected ratio
    square is certified monotone, for 0 < q < 1."""
    p = EvalContext.of(p).p
    _require_sub_unit(p, "beta_star")
    return -13.0 * math.log(p.q) / (6.0 * (1.0 - p.q * p.q))


def ln_g_beta(p: QParam | EvalContext, beta: float, x: float) -> float:
    """Direct log of the exponentially corrected ratio square:
    -ln(1+q) + 2[lnG_{q^2}(x+1/2) - lnG_{q^2}(x+1)] + beta(1-q^2)q^{2x}/(2(1-q^{2x}))
    + psi_q(2x).

    Deliberately avoids the duplication substitution so finite differences
    of this value cross-check g_beta_log_deriv.
    """
    ctx = EvalContext.of(p)
    p = ctx.p
    _require_sub_unit(p, _G_BETA)
    x = _check_x(x)
    half = ctx.squared()
    e = math.exp(2.0 * x * math.log(p.q))
    frac = e / (1.0 - e)
    return (
        -math.log1p(p.q)
        + 2.0 * (half.ln_gamma(x + 0.5).value - half.ln_gamma(x + 1.0).value)
        + 0.5 * beta * (1.0 - p.q * p.q) * frac
        + ctx.psi(0, 2.0 * x).value
    )


def g_beta_log_deriv(p: QParam | EvalContext, beta: float, n: int, x: float) -> float:
    """n-th derivative of ln g_beta, assembled analytically.

    Uses the duplication identity to trade psi_q(2x) for half-argument
    psi_{q^2} terms, and the digamma recurrence to express the derivative
    of q^{2x}/(1-q^{2x}) through psi_{q^2} differences:

        2 psi^(n-1)(x+1/2) - 2 psi^(n-1)(x+1)
        + psi^(n)(x)/2 + psi^(n)(x+1/2)/2
        - beta (1-q^2)/2 * [psi^(n)(x+1) - psi^(n)(x)] / ln(q^2)

    with every psi taken at base q^2 and psi^(0) the digamma; g_beta_provider's
    d at (n, x), after the regime check, which comes before the order and x
    checks here.
    """
    _require_sub_unit(EvalContext.of(p).p, _G_BETA)
    return g_beta_provider(p, beta).d(n, x)


def _g_beta_d_grid(
    ctx: EvalContext, beta: float
) -> Callable[[Sequence[int], np.ndarray], np.ndarray]:
    """The d_grid of ln g_beta at ctx's q, for from_grid: the formula of
    g_beta_log_deriv over (order, x) arrays."""
    p, half = ctx.p, ctx.squared()
    ln_q2 = 2.0 * math.log(p.q)
    # the grouping of 0.5 * beta * (1 - q^2) * dfrac, taken once
    weight = 0.5 * beta * (1.0 - p.q * p.q)

    def d_grid(orders: Sequence[int], xa: np.ndarray) -> np.ndarray:
        _require_sub_unit(p, _G_BETA)
        # psi^(n) at x, x+1/2 and x+1, and psi^(n-1) at x+1/2 and x+1
        m = xa.size
        shifts = np.concatenate([xa, xa + 0.5, xa + 1.0])
        points = {k: shifts if k in orders else shifts[m:] for n in orders for k in (n, n - 1)}
        rows = _order_rows(half, points)
        n_x, n_xh, n_x1 = np.split(np.array([rows[n] for n in orders]), 3, axis=1)
        m_xh, m_x1 = np.split(np.array([rows[n - 1][-2 * m :] for n in orders]), 2, axis=1)
        dfrac = -(n_x1 - n_x) / ln_q2
        return 2.0 * (m_xh - m_x1) + 0.5 * n_x + 0.5 * n_xh + weight * dfrac

    return d_grid


def g_beta_provider(p: QParam | EvalContext, beta: float) -> LogDerivProvider:
    ctx = EvalContext.of(p)
    name = f"g_beta(q={ctx.p.q:g}, beta={beta:g})"
    return LogDerivProvider.from_grid(_g_beta_d_grid(ctx, beta), 0.0, math.inf, name)


def verify_g_beta_lcm(
    p: QParam | EvalContext,
    beta: float | None = None,
    grid: np.ndarray | None = None,
    n_orders: int = N_MAX,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Alternating-sign certification for ln g_beta; beta defaults to the
    threshold beta_star(q), the smallest certified value.

    The duplication identity is re-certified on a subsample of the grid
    first, since the analytic derivatives lean on it; a gate failure
    fails the claim without running the sweep.
    """
    ctx = EvalContext.of(p)
    if grid is None:
        grid = _default_grid()
    b = _g_beta_weight(ctx, beta)
    params = {"q": ctx.p.q, "beta": b}
    xs = np.asarray(grid, dtype=np.float64).ravel()
    gate = xs[:: max(1, xs.size // 8)]
    gate_xs = [float(x) for x in gate]
    for x, rc in zip(gate_xs, _duplication_residuals(ctx, gate_xs)):
        if not rc.passed:
            # judged as psi-duplication judges it: no slack on the budget
            return _finish(
                "g-beta-lcm",
                params,
                _grid_summary(grid),
                [_row(None, x, rc.residual, rc.budget - rc.residual)],
                0.0,
                notes=("duplication gate failed; sweep not run",),
            )
    cm = certify_lcm(g_beta_provider(ctx, b), grid, n_orders, tol)
    notes = (f"duplication gate passed on {gate.size} points",)
    return replace(cm, claim_id="g-beta-lcm", params=params, notes=notes + cm.notes)


def phi_series_coefficient(beta: float, p: QParam | EvalContext, n: int) -> float:
    """Coefficient c_n = -beta(1-q^2)/(2 ln q) - 1 - 2^{-n} + 1/((n+1) 2^{n-1})
    from the series whose nonnegativity drives the g_beta certification."""
    _check_count("n", n, 1)
    p = EvalContext.of(p).p
    _require_sub_unit(p, _G_BETA)
    q = p.q
    return (
        -beta * (1.0 - q * q) / (2.0 * math.log(q))
        - 1.0
        - 0.5**n
        + 1.0 / ((n + 1) * 2 ** (n - 1))
    )


def verify_phi_coeff(
    p: QParam | EvalContext,
    beta: float | None = None,
    n_max: int = 200,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """c_n >= 0 for n = 1..n_max; beta defaults to beta_star(q), where the
    minimum sits exactly at zero (index n = 2)."""
    ctx = EvalContext.of(p)
    _check_count("n_max", n_max, 1)
    b = _g_beta_weight(ctx, beta)
    rows = []
    for n in range(1, n_max + 1):
        c_n = phi_series_coefficient(b, ctx, n)
        rows.append(_row(n, None, c_n, c_n))
    return _finish("phi-coeff", {"q": ctx.p.q, "beta": b}, {"n_max": n_max}, rows, tol)


# ---------------------------------------------------------------------------
# right of the digamma zero: reciprocal monotonicity and mean inequalities

def inv_digamma_provider(p: QParam | EvalContext) -> tuple[LogDerivProvider, float]:
    """Provider for ln(1/psi_q) on (x0, inf), plus the located x0.

    Derivatives of ln psi_q come from psi_q and its analytic derivatives
    through the log-derivative triangle; the sign flip gives 1/psi_q.
    """
    ctx = EvalContext.of(p)

    def d_grid(orders: Sequence[int], xa: np.ndarray) -> np.ndarray:
        top = max(orders)
        u = log_derivatives(list(_order_rows(ctx, {k: xa for k in range(top + 1)}).values()))
        return -np.array([u[n - 1] for n in orders])

    x0 = ctx.zero().x0
    name = f"inv_digamma(q={ctx.p.q:g})"
    return LogDerivProvider.from_grid(d_grid, x0, math.inf, name), x0


def verify_inv_digamma_lcm(
    p: QParam | EvalContext,
    grid: np.ndarray | None = None,
    n_orders: int = 4,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Alternating-sign certification for ln(1/psi_q) right of the zero.

    The grid must clear x0 by ZERO_MARGIN; the default covers
    [x0 + 0.1, 20].
    """
    ctx = EvalContext.of(p)
    provider, x0 = inv_digamma_provider(ctx)
    if grid is None:
        grid = make_grid(x0 + 0.1, DEFAULT_X_MAX, DEFAULT_POINTS, DEFAULT_SPACING)
    xs = np.asarray(grid, dtype=np.float64).ravel()
    if float(xs.min()) < x0 + ZERO_MARGIN:
        raise DomainError(
            f"grid reaches {float(xs.min()):.6g}, inside the {ZERO_MARGIN:g} margin of x0 = {x0:.6g}"
        )
    cm = certify_lcm(provider, xs, n_orders, tol)
    notes = (f"zero located at x0 = {x0!r}",)
    params = {"q": ctx.p.q, "x0": x0}
    return replace(cm, claim_id="t34-inv-psi", params=params, notes=notes + cm.notes)


def verify_ineq_1(
    p: QParam | EvalContext,
    a: float,
    x: float,
    y: float,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """psi(x)^{1/a} psi(y)^{1-1/a} <= psi(x/a + (1-1/a)y) for x, y > x0, a > 1.

    Checked in log space at the single point (x, y); the mixed argument is
    a convex combination, so it stays right of the zero automatically.
    """
    ctx = EvalContext.of(p)
    _check_mean_exponent(a)
    x0 = ctx.zero().x0
    for name, v in (("x", x), ("y", y)):
        if not _check_real(name, v) > x0:
            raise DomainError(f"{name} = {v} is not right of the digamma zero {x0:.6g}")
    rows = [_ineq_1_row(a, x, y, _log_psi(ctx, [_mean_mix(a, x, y), x, y]))]
    params = {"q": ctx.p.q, "a": a, "x": x, "y": y, "x0": x0}
    return _finish("c-ineq-1", params, {"points": 1}, rows, tol)


def _check_mean_exponent(a: float) -> None:
    if not _check_real("a", a) > 1.0:
        raise DomainError(f"a must exceed 1, got {a}")


def _mean_mix(a: float, x: float, y: float) -> float:
    return x / a + (1.0 - 1.0 / a) * y


def _ineq_1_row(a: float, x: float, y: float, log_psi: dict[float, float]) -> dict:
    margin = log_psi[_mean_mix(a, x, y)] - (log_psi[x] / a + (1.0 - 1.0 / a) * log_psi[y])
    return _row(None, x, margin, margin, extra={"y": y})


def verify_ineq_010(
    p: QParam | EvalContext,
    a: float,
    u: float,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """psi(2)^{a-1} <= psi(u+1)^a / psi(a(u-1)+2) for a > 1, in log space.

    All three psi arguments must sit right of the zero so the real powers
    exist; u and the derived argument a(u-1)+2 are both checked.
    """
    ctx = EvalContext.of(p)
    _check_mean_exponent(a)
    x0 = ctx.zero().x0
    if not _check_real("u", u) > 1.0 - 2.0 / a:
        raise DomainError(f"u = {u} violates u > 1 - 2/a = {1.0 - 2.0 / a:.6g}")
    arg = a * (u - 1.0) + 2.0
    if not (u + 1.0 > x0 and arg > x0):
        raise DomainError(
            f"psi arguments u+1 = {u + 1.0:.6g}, a(u-1)+2 = {arg:.6g} must clear x0 = {x0:.6g}"
        )
    rows = [_ineq_010_row(a, u, _log_psi(ctx, [u + 1.0, arg, 2.0]))]
    params = {"q": ctx.p.q, "a": a, "u": u, "x0": x0}
    return _finish("c-ineq-010", params, {"points": 1}, rows, tol)


def _ineq_010_row(a: float, u: float, log_psi: dict[float, float]) -> dict:
    margin = a * log_psi[u + 1.0] - log_psi[a * (u - 1.0) + 2.0] - (a - 1.0) * log_psi[2.0]
    return _row(None, u, margin, margin)


def verify_remark_ineq(
    p: QParam | EvalContext,
    n_max: int = 20,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """psi(2)^2 psi(2n) <= [ln(q)/(1-q) gamma_q - ln(q) H_{n,q}]^2 for
    n = 1..n_max, 0 < q < 1.

    The bracket is evaluated exactly as stated, from the q-analogue of the
    Euler-Mascheroni constant and the q-harmonic numbers; a cross-check
    confirms it reproduces psi(n+1) before the margins are trusted.
    """
    ctx = EvalContext.of(p)
    p = ctx.p
    _require_sub_unit(p, "this bound")
    _check_count("n_max", n_max, 1)
    lnq = math.log(p.q)
    # psi at n + 1 and 2n for each n, in one grid pass; n = 1 gives psi(2)
    psi = ctx.psi_grid((0, v) for n in range(1, n_max + 1) for v in (float(n + 1), 2.0 * n))
    gamma_q = q_euler_mascheroni(p, ctx.trunc)
    psi2 = psi[0].value
    notes: tuple[str, ...] = ()
    rows = []
    for n, direct, at_2n in zip(range(1, n_max + 1), psi[0::2], psi[1::2]):
        inner = lnq / (1.0 - p.q) * gamma_q - lnq * q_harmonic(p, n)
        drift = abs(inner - direct.value)
        allowance = direct.err_bound + _fp_allowance(inner, direct.value)
        if drift > allowance and not notes:
            notes = (f"bracket identity drift {drift:.3e} at n={n} exceeds {allowance:.3e}",)
        lhs = psi2 * psi2 * at_2n.value
        margin = inner * inner - lhs
        rows.append(_row(n, None, margin, margin))
    return _finish("remark-harmonic", {"q": p.q, "n_max": n_max}, {"n_max": n_max}, rows, tol, notes)


def verify_gamma_lcm_and_superadd(
    p: QParam | EvalContext,
    grid_x: np.ndarray | None = None,
    grid_lcm: np.ndarray | None = None,
    n_orders: int = N_MAX,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Two-part claim: ln Gamma_q alternates signs on (0, x0), and
    Gamma_q(x+1) Gamma_q(y+1) <= Gamma_q(x+y+2) over (0,1)^2 in log space.

    Pass grid_x with zero points to skip the pair part, or grid_lcm with
    zero points to skip the monotonicity part.
    """
    ctx = EvalContext.of(p)
    z = ctx.zero()
    if grid_lcm is None:
        grid_lcm = make_grid(DEFAULT_X_MIN, z.x0 - ZERO_MARGIN, DEFAULT_POINTS, DEFAULT_SPACING)
    if grid_x is None:
        grid_x = make_grid(0.0, 1.0, 12, "linear")
    lcm_xs = np.asarray(grid_lcm, dtype=np.float64).ravel()
    pair_xs = [float(v) for v in np.asarray(grid_x, dtype=np.float64).ravel()]
    rows: list[dict] = []
    notes: tuple[str, ...] = ()
    if lcm_xs.size:
        if float(lcm_xs.max()) >= z.x0:
            raise DomainError(
                f"monotonicity grid reaches {float(lcm_xs.max()):.6g}, not left of x0 = {z.x0:.6g}"
            )
        cm = certify_lcm(ln_gamma_provider(ctx), lcm_xs, n_orders, tol)
        # scan order: the first failing point never follows the worst one
        rows.extend(r for r in (cm.counterexample, cm.worst_point) if r is not None)
        notes = notes + (f"monotonicity part: orders 1..{n_orders} on (0, x0), x0 = {z.x0!r}",)
    if pair_xs:
        if not all(0.0 < v < 1.0 for v in pair_xs):
            raise DomainError("pair grid must lie inside (0, 1)")
        points = [x + 1.0 for x in pair_xs] + [x + y + 2.0 for x in pair_xs for y in pair_xs]
        lng = _ln_gammas(ctx, points)
        rows.extend(_superadd_row(lng, x, y) for x in pair_xs for y in pair_xs)
        notes = notes + (f"superadditivity part: {len(pair_xs) ** 2} pairs in (0,1)^2",)
    params = {"q": ctx.p.q, "x0": z.x0}
    summary = {
        "lcm_points": int(lcm_xs.size),
        "pair_points": len(pair_xs),
    }
    return _finish("gamma-lcm-superadd", params, summary, rows, tol, notes)


def _superadd_row(lng: dict[float, float], x: float, y: float) -> dict:
    margin = lng[x + y + 2.0] - lng[x + 1.0] - lng[y + 1.0]
    return _row(None, x, margin, margin, extra={"y": y})


# ---------------------------------------------------------------------------
# claim registry


@dataclass(frozen=True)
class ClaimArgs:
    """run_claim's keyword arguments as a claim handler receives them, with
    the sweep defaults; x switches a handler to single-point mode."""

    x: float | None = None
    x_min: float | None = DEFAULT_X_MIN
    x_max: float = DEFAULT_X_MAX
    points: int = DEFAULT_POINTS
    spacing: str = DEFAULT_SPACING
    a: float | None = None
    b: float | None = None
    alpha: float | None = None
    beta: float | None = None
    n_max: int = 20
    orders: int = N_MAX
    tol: float = DEFAULT_TOL

    def grid(self) -> np.ndarray:
        if self.x is not None:
            return np.asarray([_check_real("x", self.x)], dtype=np.float64)
        return make_grid(self.x_min, self.x_max, self.points, self.spacing)


@dataclass(frozen=True)
class Claim:
    """One registry entry: run(ctx, args) sweeps the claim at ctx's q,
    evaluating through ctx, or checks one point when args.x is set;
    defaults holds the claim's own defaults.  sub_unit_only marks a claim
    stated for 0 < q < 1 only.  order_arg is the run_claim argument that
    pins a report row's n_order on a re-run."""

    run: Callable[[EvalContext, ClaimArgs], VerifyReport]
    defaults: ClaimArgs = ClaimArgs()
    sub_unit_only: bool = False
    order_arg: str = "orders"

    def supports(self, p: QParam) -> bool:
        """Whether the claim is stated at this q."""
        return not self.sub_unit_only or p.regime is Regime.SUB_UNIT


def _run_ratio_lcm(ctx: EvalContext, o: ClaimArgs) -> VerifyReport:
    spec = RatioSpec(o.a, o.b, o.alpha, o.beta)
    return verify_theorem_ratio_lcm(spec, ctx, o.grid(), o.orders, o.tol)


def _run_ineq_555(ctx: EvalContext, o: ClaimArgs) -> VerifyReport:
    x1 = 1.0
    if o.x is not None:
        grid = o.grid()
    else:
        _check_count("points", o.points, 2)
        grid = x1 + np.geomspace(1e-4, max(o.x_max - x1, 1e-3), o.points)
    return verify_ineq_555(RatioSpec(o.a, o.b, o.alpha, o.beta), ctx, x1, grid, o.tol)


def _run_inv_digamma(ctx: EvalContext, o: ClaimArgs) -> VerifyReport:
    if o.x is not None:
        return verify_inv_digamma_lcm(ctx, o.grid(), o.orders, o.tol)
    x0 = ctx.zero().x0
    lo = x0 + 0.1 if o.x_min is None else o.x_min
    clipped = lo < x0 + ZERO_MARGIN
    if clipped:
        lo = x0 + 0.1
    if not lo < o.x_max:
        raise DomainError(f"x range ({lo:.6g}, {o.x_max:.6g}) empty right of x0 = {x0:.6g}")
    report = verify_inv_digamma_lcm(ctx, make_grid(lo, o.x_max, o.points, o.spacing), o.orders, o.tol)
    if clipped:
        report = replace(report, notes=report.notes + ("x range clipped right of the digamma zero",))
    return report


def _run_ineq_1(ctx: EvalContext, o: ClaimArgs) -> VerifyReport:
    if o.x is not None:
        return verify_ineq_1(ctx, o.a, o.x, o.x if o.b is None else o.b, o.tol)
    x0 = ctx.zero().x0
    base = make_grid(max(o.x_min, x0 + 0.1), o.x_max, o.points, o.spacing)
    # pairs grow quadratically, so sweep 8 points evenly spaced in index
    if base.size > 8:
        base = base[np.linspace(0, base.size - 1, 8).round().astype(int)]
    xs = [float(v) for v in base]
    pairs = [(xi, yj) for xi in xs for yj in xs if xi != yj]
    # before the mixed points divide by a
    _check_mean_exponent(o.a)
    log_psi = _log_psi(ctx, xs + [_mean_mix(o.a, x, y) for x, y in pairs])
    rows = [_ineq_1_row(o.a, x, y, log_psi) for x, y in pairs]
    params = {"q": ctx.p.q, "a": o.a, "x0": x0}
    summary = {"pairs": len(rows), "lo": xs[0], "hi": xs[-1]}
    return _finish(
        "c-ineq-1", params, summary, rows, o.tol,
        notes=("pair sweep over an 8-point subgrid right of the zero",),
    )


def _run_ineq_010(ctx: EvalContext, o: ClaimArgs) -> VerifyReport:
    if o.x is not None:
        return verify_ineq_010(ctx, o.a, o.x, o.tol)
    # before the grid filter divides by a
    _check_mean_exponent(o.a)
    x0 = ctx.zero().x0
    candidates = [float(v) for v in o.grid()]
    kept, points = [], [2.0]
    for u in candidates:
        arg = o.a * (u - 1.0) + 2.0
        if u > 1.0 - 2.0 / o.a and u + 1.0 > x0 + ZERO_MARGIN and arg > x0 + ZERO_MARGIN:
            kept.append(u)
            points += (u + 1.0, arg)
    if not kept:
        raise DomainError(
            f"no grid point in [{candidates[0]:.6g}, {candidates[-1]:.6g}] has u > 1 - 2/a = "
            f"{1.0 - 2.0 / o.a:.6g} and u + 1, a(u-1)+2 clear of x0 = {x0:.6g} by {ZERO_MARGIN:g}"
        )
    log_psi = _log_psi(ctx, points)
    rows = [_ineq_010_row(o.a, u, log_psi) for u in kept]
    excluded = len(candidates) - len(kept)
    notes = ()
    if excluded:
        notes = (f"{excluded} grid points precondition-excluded",)
    params = {"q": ctx.p.q, "a": o.a, "x0": x0}
    summary = {"candidates": len(candidates), "kept": len(kept)}
    return _finish("c-ineq-010", params, summary, rows, o.tol, notes)


def _run_gamma_lcm_superadd(ctx: EvalContext, o: ClaimArgs) -> VerifyReport:
    if o.x is None:
        return verify_gamma_lcm_and_superadd(ctx, None, None, o.orders, o.tol)
    if o.b is None:
        return verify_gamma_lcm_and_superadd(ctx, np.empty(0), o.grid(), o.orders, o.tol)
    # single ordered pair (x, b) of the superadditivity part
    xv, yv = _check_real("x", o.x), _check_real("y", o.b)
    if not (0.0 < xv < 1.0 and 0.0 < yv < 1.0):
        raise DomainError(f"pair ({xv}, {yv}) must lie inside (0, 1)^2")
    rows = [_superadd_row(_ln_gammas(ctx, [xv + yv + 2.0, xv + 1.0, yv + 1.0]), xv, yv)]
    return _finish(
        "gamma-lcm-superadd", {"q": ctx.p.q}, {"pair_points": 1}, rows, o.tol,
        notes=("single superadditivity pair",),
    )


# the order of this table is CLAIM_IDS
CLAIMS: dict[str, Claim] = {
    "t31-ratio-lcm": Claim(_run_ratio_lcm, ClaimArgs(a=1.0, b=2.0, alpha=2.0, beta=1.0)),
    "c-555": Claim(_run_ineq_555, ClaimArgs(a=1.0, b=2.0, alpha=2.0, beta=1.0)),
    "c-666": Claim(lambda ctx, o: verify_ineq_666(ctx, o.n_max, o.tol),
                   sub_unit_only=True, order_arg="n_max"),
    "g-beta-lcm": Claim(
        lambda ctx, o: verify_g_beta_lcm(ctx, o.beta, o.grid(), o.orders, o.tol),
        sub_unit_only=True,
    ),
    "phi-coeff": Claim(lambda ctx, o: verify_phi_coeff(ctx, o.beta, o.n_max, o.tol),
                       ClaimArgs(n_max=200), sub_unit_only=True, order_arg="n_max"),
    # x_min None: the sweep starts at x0 + 0.1
    "t34-inv-psi": Claim(_run_inv_digamma, ClaimArgs(x_min=None, orders=4)),
    "c-ineq-1": Claim(_run_ineq_1, ClaimArgs(a=2.0)),
    "c-ineq-010": Claim(_run_ineq_010, ClaimArgs(a=2.0)),
    "remark-harmonic": Claim(lambda ctx, o: verify_remark_ineq(ctx, o.n_max, o.tol),
                             sub_unit_only=True, order_arg="n_max"),
    "gamma-lcm-superadd": Claim(_run_gamma_lcm_superadd),
    "psi-duplication": Claim(lambda ctx, o: verify_psi_duplication(ctx, o.grid()),
                             sub_unit_only=True),
}

CLAIM_IDS = tuple(CLAIMS)


def run_claim(claim_id: str, p: QParam | EvalContext, **overrides) -> VerifyReport:
    """Run one registered claim with sweep defaults.

    p is the q parameter, evaluated at the default truncation, or an
    EvalContext at that q, which carries its own truncation and which
    several claim runs share so that the digamma zero is solved once.
    The keyword arguments are the ClaimArgs fields; one given as None
    keeps the claim's default, and an unknown name with a value raises
    TypeError.  x switches to single-point mode.  For the paired claims
    (c-ineq-1 and the superadditivity part of gamma-lcm-superadd) the
    second coordinate rides in b when x is given.  Claims indexed by an integer use n_max;
    derivative sweeps use orders.  tol must be finite and >= 0.
    """
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise DomainError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    args = replace(claim.defaults, **{k: v for k, v in overrides.items() if v is not None})
    if not 0.0 <= args.tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {args.tol}")
    return claim.run(EvalContext.of(p), args)


def rerun_kwargs(rep: VerifyReport, row: dict) -> dict:
    """run_claim keyword arguments, besides claim_id and q, that re-check
    one row of rep as a single point of the same claim."""
    kwargs = {k: rep.params[k] for k in ("a", "b", "alpha", "beta") if k in rep.params}
    if row.get("x") is not None:
        kwargs["x"] = row["x"]
    if "y" in row.get("extra", {}):
        # a paired row's second coordinate rides in b
        kwargs["b"] = row["extra"]["y"]
    if row.get("n_order") is not None:
        kwargs[CLAIMS[rep.claim_id].order_arg] = row["n_order"]
    return kwargs
