"""Numerical certification of monotonicity and inequality claims for the
q-gamma family.

Each verifier checks one claim over a grid and returns a VerifyReport
carrying the worst margin, the first counterexample if any, and notes on
branch choices or excluded points.  Wherever a claim involves products or
powers of gamma values the comparison happens in log space.  The CLAIMS
registry maps the stable claim-id strings onto these verifiers and regimes.
Every evaluator value goes through one EvalContext per verification, so a
claim run solves for the digamma zero once and computes each value once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    QParam,
    Regime,
    ResidualCheck,
    Truncation,
    _fp_allowance,
)
from .deriv import (
    N_MAX,
    EvalContext,
    LogDerivProvider,
    certify_lcm,
    ln_gamma_provider,
    log_derivatives,
    make_grid,
    ratio_provider,
)
from .roots import digamma_zero, q_euler_mascheroni, q_harmonic  # noqa: F401 (kept importable here)

__all__ = [
    "BALANCE_TOL",
    "DEFAULT_TOL",
    "TIGHT_MARGIN",
    "ZERO_MARGIN",
    "CLAIM_IDS",
    "CLAIMS",
    "Claim",
    "ClaimArgs",
    "RatioSpec",
    "VerifyReport",
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
# a passing margin below this is flagged as tight rather than comfortable
TIGHT_MARGIN = 1e-6
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
        for name, v in (("a", self.a), ("b", self.b), ("alpha", self.alpha), ("beta", self.beta)):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
        if not 0.0 < self.a < self.b:
            raise DomainError(f"need 0 < a < b, got a={self.a}, b={self.b}")

    def balanced(self) -> bool:
        return abs(self.alpha * self.a - self.beta * self.b) <= BALANCE_TOL


@dataclass(frozen=True)
class VerifyReport:
    """Per-claim verdict.

    worst_point and counterexample are row dicts with keys n_order, x,
    value, margin (n_order or x may be None when the claim is not indexed
    that way); extra pair coordinates ride in an "extra" sub-dict.
    passed is exactly (worst_margin >= -tol) over the examined points.
    """

    claim_id: str
    params: dict
    grid_summary: dict
    passed: bool
    worst_margin: float
    worst_point: dict | None
    counterexample: dict | None
    notes: tuple[str, ...]
    tol: float


def _finish(
    claim_id: str,
    params: dict,
    grid_summary: dict,
    rows: list[dict],
    tol: float,
    notes: tuple[str, ...] = (),
) -> VerifyReport:
    """Fold margin rows into a report; rows are scanned in append order."""
    notes = tuple(notes)
    if not rows:
        return VerifyReport(
            claim_id=claim_id,
            params=params,
            grid_summary=grid_summary,
            passed=True,
            worst_margin=0.0,
            worst_point=None,
            counterexample=None,
            notes=notes + ("no points examined",),
            tol=tol,
        )
    worst = min(rows, key=lambda r: r["margin"])
    counter = next((r for r in rows if r["margin"] < -tol), None)
    passed = counter is None
    if passed and worst["margin"] < TIGHT_MARGIN:
        notes = notes + (f"tight margin {worst['margin']:.3e}",)
    return VerifyReport(
        claim_id=claim_id,
        params=params,
        grid_summary=grid_summary,
        passed=passed,
        worst_margin=worst["margin"],
        worst_point=dict(worst),
        counterexample=dict(counter) if counter is not None else None,
        notes=notes,
        tol=tol,
    )


def _row(n_order, x, value, margin, extra=None) -> dict:
    r = {"n_order": n_order, "x": x, "value": value, "margin": margin}
    if extra:
        r["extra"] = dict(extra)
    return r


def _cm_rows(cm) -> list[dict]:
    """Summary and violation rows from a certify_lcm sweep; value is the
    raw log-derivative, margin its sign-adjusted version."""
    sign_w = -1.0 if cm.worst_order % 2 else 1.0
    rows = [_row(cm.worst_order, cm.worst_x, sign_w * cm.worst_margin, cm.worst_margin)]
    if cm.violation is not None:
        n, x, margin = cm.violation
        if (n, x) != (cm.worst_order, cm.worst_x):
            sign_v = -1.0 if n % 2 else 1.0
            rows.insert(0, _row(n, x, sign_v * margin, margin))
    return rows


def _grid_summary(grid: np.ndarray) -> dict:
    xs = np.asarray(grid, dtype=np.float64).ravel()
    return {"lo": float(xs.min()), "hi": float(xs.max()), "points": int(xs.size)}


def _default_grid() -> np.ndarray:
    return make_grid(DEFAULT_X_MIN, DEFAULT_X_MAX, DEFAULT_POINTS, DEFAULT_SPACING)


def _half_base(p: QParam, trunc: Truncation | None) -> EvalContext:
    """Context at base q^2, where the duplication identity lands."""
    return EvalContext(QParam(p.q * p.q, allow_near_one=p.allow_near_one), trunc)


def _log_psi(ctx: EvalContext, x: float) -> float:
    v = ctx.psi(0, x).value
    if v <= 0.0:
        raise DomainError(f"psi_q({x}) = {v:.6g} is not positive; point left of the zero")
    return math.log(v)


# ---------------------------------------------------------------------------
# ratio of gamma powers: monotonicity and the derived two-sided bound

def verify_theorem_ratio_lcm(
    spec: RatioSpec,
    p: QParam,
    grid: np.ndarray | None = None,
    n_orders: int = N_MAX,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Log-complete-monotonicity of Gamma_q(ax)^alpha / Gamma_q(bx)^beta.

    Balanced exponents with alpha >= 0 take the sufficiency branch and are
    expected to pass.  Anything else takes the necessity scan, which hunts
    for a sign violation and is expected to find one when 0 < q < 1; for
    q > 1 the necessity direction is not asserted, so unbalanced input is
    reported as out of scope rather than scanned.
    """
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
    provider = ratio_provider(p, spec.a, spec.b, spec.alpha, spec.beta, trunc)
    cm = certify_lcm(provider, grid, n_orders, tol)
    if sufficiency:
        notes = ("sufficiency branch: balanced exponents with alpha >= 0, expected pass",)
    else:
        notes = ("necessity branch: unbalanced exponents, expecting a violation",)
        if cm.passed:
            notes = notes + ("no violation on this grid; widen it or raise the order cap",)
    return _finish("t31-ratio-lcm", params, _grid_summary(grid), _cm_rows(cm), tol, notes)


def ratio_log_middle(
    spec: RatioSpec, p: QParam, x1: float, x: float, trunc: Truncation | None = None
) -> float:
    """Log of the normalized ratio appearing in the two-sided bound:
    alpha [lnG(ax) - lnG(ax1)] - beta [lnG(bx) - lnG(bx1)]."""
    return _ratio_log_middle(spec, EvalContext(p, trunc), x1, x)


def _ratio_log_middle(spec: RatioSpec, ctx: EvalContext, x1: float, x: float) -> float:
    lng = ctx.ln_gamma
    return spec.alpha * (lng(spec.a * x).value - lng(spec.a * x1).value) - spec.beta * (
        lng(spec.b * x).value - lng(spec.b * x1).value
    )


def verify_ineq_555(
    spec: RatioSpec,
    p: QParam,
    x1: float = 1.0,
    grid: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Two-sided bound for the normalized ratio at balanced exponents.

    In log space: alpha a (x - x1) [psi(a x1) - psi(b x1)] <= ln(middle) <= 0
    for every grid x > x1, each side with slack tol.
    """
    if not spec.balanced():
        raise DomainError("the two-sided bound needs balanced exponents (alpha a = beta b)")
    if spec.alpha < 0.0 or spec.beta < 0.0:
        raise DomainError("the two-sided bound needs alpha, beta >= 0")
    if not (isinstance(x1, (int, float)) and math.isfinite(x1) and x1 > 0.0):
        raise DomainError(f"x1 must be a positive real, got {x1!r}")
    ctx = EvalContext(p, trunc)
    if grid is None:
        grid = x1 + np.geomspace(1e-4, 10.0, DEFAULT_POINTS)
    xs = [float(v) for v in np.asarray(grid, dtype=np.float64).ravel()]
    if any(v <= x1 for v in xs):
        raise DomainError("every grid point must lie strictly right of x1")
    slope = spec.alpha * spec.a * (ctx.psi(0, spec.a * x1).value - ctx.psi(0, spec.b * x1).value)
    rows = []
    for x in xs:
        mid = _ratio_log_middle(spec, ctx, x1, x)
        lower = slope * (x - x1)
        rows.append(_row(None, x, mid, min(mid - lower, -mid)))
    params = {
        "q": p.q, "a": spec.a, "b": spec.b, "alpha": spec.alpha, "beta": spec.beta, "x1": x1,
    }
    return _finish("c-555", params, _grid_summary(np.asarray(xs)), rows, tol)


def verify_ineq_666(
    p: QParam,
    n_max: int = 20,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """exp[2q(n-1) ln(q)/(1-q)] <= Gamma_q(n)^2 / Gamma_q(2n) <= 1 for
    integers n = 1..n_max, checked in log space."""
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("this bound is stated for 0 < q < 1")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise DomainError(f"n_max must be an int >= 1, got {n_max!r}")
    ctx = EvalContext(p, trunc)
    lnq = math.log(p.q)
    rows = []
    for n in range(1, n_max + 1):
        mid = 2.0 * ctx.ln_gamma(float(n)).value - ctx.ln_gamma(2.0 * n).value
        lower = 2.0 * p.q * (n - 1) * lnq / (1.0 - p.q)
        rows.append(_row(n, None, mid, min(mid - lower, -mid)))
    params = {"q": p.q, "n_max": n_max}
    return _finish("c-666", params, {"n_max": n_max}, rows, tol)


# ---------------------------------------------------------------------------
# duplication identity and the exponentially corrected ratio square

def psi_duplication_residual(
    p: QParam, x: float, trunc: Truncation | None = None
) -> ResidualCheck:
    """|psi_q(2x) - ln(1+q) - psi_{q^2}(x)/2 - psi_{q^2}(x+1/2)/2| with its
    combined error budget.

    Both sides come from independent series, so a passing residual
    certifies the duplication identity at this point.
    """
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("the duplication identity is certified for 0 < q < 1")
    half = _half_base(p, trunc)
    lhs = EvalContext(p, trunc).psi(0, 2.0 * x)
    r1 = half.psi(0, x)
    r2 = half.psi(0, x + 0.5)
    c = math.log1p(p.q)
    residual = abs(lhs.value - c - 0.5 * r1.value - 0.5 * r2.value)
    budget = (
        lhs.err_bound
        + 0.5 * r1.err_bound
        + 0.5 * r2.err_bound
        + _fp_allowance(lhs.value, c, r1.value, r2.value)
    )
    return ResidualCheck(residual, budget)


def verify_psi_duplication(
    p: QParam,
    grid: np.ndarray | None = None,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Sweep the duplication residual; margin is budget - residual and the
    pass rule is margin >= 0, so every point must meet its own error
    budget with no extra slack."""
    if grid is None:
        grid = _default_grid()
    rows = []
    for x in np.asarray(grid, dtype=np.float64).ravel():
        rc = psi_duplication_residual(p, float(x), trunc)
        rows.append(_row(None, float(x), rc.residual, rc.budget - rc.residual))
    return _finish(
        "psi-duplication",
        {"q": p.q},
        _grid_summary(grid),
        rows,
        0.0,
        notes=("margin is error budget minus residual",),
    )


def beta_star(p: QParam) -> float:
    """Threshold -13 ln(q) / (6 (1 - q^2)) above which the corrected ratio
    square is certified monotone, for 0 < q < 1."""
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("beta_star takes 0 < q < 1")
    return -13.0 * math.log(p.q) / (6.0 * (1.0 - p.q * p.q))


def ln_g_beta(p: QParam, beta: float, x: float, trunc: Truncation | None = None) -> float:
    """Direct log of the exponentially corrected ratio square:
    -ln(1+q) + 2[lnG_{q^2}(x+1/2) - lnG_{q^2}(x+1)] + beta(1-q^2)q^{2x}/(2(1-q^{2x}))
    + psi_q(2x).

    Deliberately avoids the duplication substitution so finite differences
    of this value cross-check g_beta_log_deriv.
    """
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("the corrected ratio square is stated for 0 < q < 1")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    half = _half_base(p, trunc)
    e = math.exp(2.0 * x * math.log(p.q))
    frac = e / (1.0 - e)
    return (
        -math.log1p(p.q)
        + 2.0 * (half.ln_gamma(x + 0.5).value - half.ln_gamma(x + 1.0).value)
        + 0.5 * beta * (1.0 - p.q * p.q) * frac
        + EvalContext(p, trunc).psi(0, 2.0 * x).value
    )


def g_beta_log_deriv(
    p: QParam, beta: float, n: int, x: float, trunc: Truncation | None = None
) -> float:
    """n-th derivative of ln g_beta, assembled analytically.

    Uses the duplication identity to trade psi_q(2x) for half-argument
    psi_{q^2} terms, and the digamma recurrence to express the derivative
    of q^{2x}/(1-q^{2x}) through psi_{q^2} differences:

        2 psi^(n-1)(x+1/2) - 2 psi^(n-1)(x+1)
        + psi^(n)(x)/2 + psi^(n)(x+1/2)/2
        - beta (1-q^2)/2 * [psi^(n)(x+1) - psi^(n)(x)] / ln(q^2)

    with every psi taken at base q^2 and psi^(0) the digamma.
    """
    return _g_beta_log_deriv(p, _half_base(p, trunc), beta, n, x)


def _g_beta_log_deriv(p: QParam, half: EvalContext, beta: float, n: int, x: float) -> float:
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("the corrected ratio square is stated for 0 < q < 1")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"derivative order must be an int >= 1, got {n!r}")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    psi = half.psi
    ln_q2 = 2.0 * math.log(p.q)
    dfrac = -(psi(n, x + 1.0).value - psi(n, x).value) / ln_q2
    return (
        2.0 * (psi(n - 1, x + 0.5).value - psi(n - 1, x + 1.0).value)
        + 0.5 * psi(n, x).value
        + 0.5 * psi(n, x + 0.5).value
        + 0.5 * beta * (1.0 - p.q * p.q) * dfrac
    )


def g_beta_provider(p: QParam, beta: float, trunc: Truncation | None = None) -> LogDerivProvider:
    half = _half_base(p, trunc)

    def d(n: int, x: float) -> float:
        return _g_beta_log_deriv(p, half, beta, n, x)

    return LogDerivProvider(d=d, lo=0.0, hi=math.inf, name=f"g_beta(q={p.q:g}, beta={beta:g})")


def verify_g_beta_lcm(
    p: QParam,
    beta: float | None = None,
    grid: np.ndarray | None = None,
    n_orders: int = N_MAX,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Alternating-sign certification for ln g_beta; beta defaults to the
    threshold beta_star(q), the smallest certified value.

    The duplication identity is re-certified on a subsample of the grid
    first, since the analytic derivatives lean on it; a gate failure
    fails the claim without running the sweep.
    """
    if grid is None:
        grid = _default_grid()
    b = beta_star(p) if beta is None else float(beta)
    params = {"q": p.q, "beta": b}
    xs = np.asarray(grid, dtype=np.float64).ravel()
    gate = xs[:: max(1, xs.size // 8)]
    for x in gate:
        rc = psi_duplication_residual(p, float(x), trunc)
        if not rc.passed:
            return _finish(
                "g-beta-lcm",
                params,
                _grid_summary(grid),
                [_row(None, float(x), rc.residual, rc.budget - rc.residual)],
                tol,
                notes=("duplication gate failed; sweep not run",),
            )
    cm = certify_lcm(g_beta_provider(p, b, trunc), grid, n_orders, tol)
    notes = (f"duplication gate passed on {gate.size} points",)
    return _finish("g-beta-lcm", params, _grid_summary(grid), _cm_rows(cm), tol, notes)


def phi_series_coefficient(beta: float, p: QParam, n: int) -> float:
    """Coefficient c_n = -beta(1-q^2)/(2 ln q) - 1 - 2^{-n} + 1/((n+1) 2^{n-1})
    from the series whose nonnegativity drives the g_beta certification."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be an int >= 1, got {n!r}")
    q = p.q
    return (
        -beta * (1.0 - q * q) / (2.0 * math.log(q))
        - 1.0
        - 0.5**n
        + 1.0 / ((n + 1) * 2 ** (n - 1))
    )


def verify_phi_coeff(
    p: QParam,
    beta: float | None = None,
    n_max: int = 200,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """c_n >= 0 for n = 1..n_max; beta defaults to beta_star(q), where the
    minimum sits exactly at zero (index n = 2)."""
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise DomainError(f"n_max must be an int >= 1, got {n_max!r}")
    b = beta_star(p) if beta is None else float(beta)
    rows = []
    for n in range(1, n_max + 1):
        c_n = phi_series_coefficient(b, p, n)
        rows.append(_row(n, None, c_n, c_n))
    return _finish("phi-coeff", {"q": p.q, "beta": b}, {"n_max": n_max}, rows, tol)


# ---------------------------------------------------------------------------
# right of the digamma zero: reciprocal monotonicity and mean inequalities

def inv_digamma_provider(
    p: QParam, trunc: Truncation | None = None
) -> tuple[LogDerivProvider, float]:
    """Provider for ln(1/psi_q) on (x0, inf), plus the located x0.

    Derivatives of ln psi_q come from psi_q and its analytic derivatives
    through the log-derivative triangle; the sign flip gives 1/psi_q.
    """
    provider = _inv_digamma_provider(EvalContext(p, trunc))
    return provider, provider.lo


def _inv_digamma_provider(ctx: EvalContext) -> LogDerivProvider:
    def d(n: int, x: float) -> float:
        values = [ctx.psi(k, x).value for k in range(0, n + 1)]
        return -log_derivatives(values)[n - 1]

    name = f"inv_digamma(q={ctx.p.q:g})"
    return LogDerivProvider(d=d, lo=ctx.zero().x0, hi=math.inf, name=name)


def verify_inv_digamma_lcm(
    p: QParam,
    grid: np.ndarray | None = None,
    n_orders: int = 4,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Alternating-sign certification for ln(1/psi_q) right of the zero.

    The grid must clear x0 by ZERO_MARGIN; the default covers
    [x0 + 0.1, 20].
    """
    return _verify_inv_digamma_lcm(EvalContext(p, trunc), grid, n_orders, tol)


def _verify_inv_digamma_lcm(
    ctx: EvalContext, grid: np.ndarray | None, n_orders: int, tol: float
) -> VerifyReport:
    provider = _inv_digamma_provider(ctx)
    x0 = provider.lo
    if grid is None:
        grid = make_grid(x0 + 0.1, DEFAULT_X_MAX, DEFAULT_POINTS, DEFAULT_SPACING)
    xs = np.asarray(grid, dtype=np.float64).ravel()
    if float(xs.min()) < x0 + ZERO_MARGIN:
        raise DomainError(
            f"grid reaches {float(xs.min()):.6g}, inside the {ZERO_MARGIN:g} margin of x0 = {x0:.6g}"
        )
    cm = certify_lcm(provider, xs, n_orders, tol)
    return _finish(
        "t34-inv-psi",
        {"q": ctx.p.q, "x0": x0},
        _grid_summary(xs),
        _cm_rows(cm),
        tol,
        notes=(f"zero located at x0 = {x0!r}",),
    )


def verify_ineq_1(
    p: QParam,
    a: float,
    x: float,
    y: float,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """psi(x)^{1/a} psi(y)^{1-1/a} <= psi(x/a + (1-1/a)y) for x, y > x0, a > 1.

    Checked in log space at the single point (x, y); the mixed argument is
    a convex combination, so it stays right of the zero automatically.
    """
    ctx = EvalContext(p, trunc)
    rows = [_ineq_1_row(ctx, a, x, y)]
    params = {"q": p.q, "a": a, "x": x, "y": y, "x0": ctx.zero().x0}
    return _finish("c-ineq-1", params, {"points": 1}, rows, tol)


def _ineq_1_row(ctx: EvalContext, a: float, x: float, y: float) -> dict:
    if not a > 1.0:
        raise DomainError(f"a must exceed 1, got {a}")
    x0 = ctx.zero().x0
    for name, v in (("x", x), ("y", y)):
        if not v > x0:
            raise DomainError(f"{name} = {v} is not right of the digamma zero {x0:.6g}")
    mix = x / a + (1.0 - 1.0 / a) * y
    margin = _log_psi(ctx, mix) - (_log_psi(ctx, x) / a + (1.0 - 1.0 / a) * _log_psi(ctx, y))
    return _row(None, x, margin, margin, extra={"y": y})


def verify_ineq_010(
    p: QParam,
    a: float,
    u: float,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """psi(2)^{a-1} <= psi(u+1)^a / psi(a(u-1)+2) for a > 1, in log space.

    All three psi arguments must sit right of the zero so the real powers
    exist; u and the derived argument a(u-1)+2 are both checked.
    """
    ctx = EvalContext(p, trunc)
    rows = [_ineq_010_row(ctx, a, u)]
    params = {"q": p.q, "a": a, "u": u, "x0": ctx.zero().x0}
    return _finish("c-ineq-010", params, {"points": 1}, rows, tol)


def _ineq_010_row(ctx: EvalContext, a: float, u: float) -> dict:
    if not a > 1.0:
        raise DomainError(f"a must exceed 1, got {a}")
    x0 = ctx.zero().x0
    if not u > 1.0 - 2.0 / a:
        raise DomainError(f"u = {u} violates u > 1 - 2/a = {1.0 - 2.0 / a:.6g}")
    arg = a * (u - 1.0) + 2.0
    if not (u + 1.0 > x0 and arg > x0):
        raise DomainError(
            f"psi arguments u+1 = {u + 1.0:.6g}, a(u-1)+2 = {arg:.6g} must clear x0 = {x0:.6g}"
        )
    margin = a * _log_psi(ctx, u + 1.0) - _log_psi(ctx, arg) - (a - 1.0) * _log_psi(ctx, 2.0)
    return _row(None, u, margin, margin)


def verify_remark_ineq(
    p: QParam,
    n_max: int = 20,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """psi(2)^2 psi(2n) <= [ln(q)/(1-q) gamma_q - ln(q) H_{n,q}]^2 for
    n = 1..n_max, 0 < q < 1.

    The bracket is evaluated exactly as stated, from the q-analogue of the
    Euler-Mascheroni constant and the q-harmonic numbers; a cross-check
    confirms it reproduces psi(n+1) before the margins are trusted.
    """
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("this bound is stated for 0 < q < 1")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise DomainError(f"n_max must be an int >= 1, got {n_max!r}")
    ctx = EvalContext(p, trunc)
    lnq = math.log(p.q)
    gamma_q = q_euler_mascheroni(p, ctx.trunc)
    psi2 = ctx.psi(0, 2.0).value
    notes: tuple[str, ...] = ()
    rows = []
    for n in range(1, n_max + 1):
        inner = lnq / (1.0 - p.q) * gamma_q - lnq * q_harmonic(p, n)
        direct = ctx.psi(0, float(n + 1))
        drift = abs(inner - direct.value)
        allowance = direct.err_bound + _fp_allowance(inner, direct.value)
        if drift > allowance and not notes:
            notes = (f"bracket identity drift {drift:.3e} at n={n} exceeds {allowance:.3e}",)
        lhs = psi2 * psi2 * ctx.psi(0, 2.0 * n).value
        margin = inner * inner - lhs
        rows.append(_row(n, None, margin, margin))
    return _finish("remark-harmonic", {"q": p.q, "n_max": n_max}, {"n_max": n_max}, rows, tol, notes)


def verify_gamma_lcm_and_superadd(
    p: QParam,
    grid_x: np.ndarray | None = None,
    grid_lcm: np.ndarray | None = None,
    n_orders: int = N_MAX,
    tol: float = DEFAULT_TOL,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Two-part claim: ln Gamma_q alternates signs on (0, x0), and
    Gamma_q(x+1) Gamma_q(y+1) <= Gamma_q(x+y+2) over (0,1)^2 in log space.

    Pass grid_x with zero points to skip the pair part, or grid_lcm with
    zero points to skip the monotonicity part.
    """
    ctx = EvalContext(p, trunc)
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
        cm = certify_lcm(ln_gamma_provider(p, trunc), lcm_xs, n_orders, tol)
        rows.extend(_cm_rows(cm))
        notes = notes + (f"monotonicity part: orders 1..{n_orders} on (0, x0), x0 = {z.x0!r}",)
    if pair_xs:
        if not all(0.0 < v < 1.0 for v in pair_xs):
            raise DomainError("pair grid must lie inside (0, 1)")
        rows.extend(_superadd_row(ctx, x, y) for x in pair_xs for y in pair_xs)
        notes = notes + (f"superadditivity part: {len(pair_xs) ** 2} pairs in (0,1)^2",)
    params = {"q": p.q, "x0": z.x0}
    summary = {
        "lcm_points": int(lcm_xs.size),
        "pair_points": len(pair_xs),
    }
    return _finish("gamma-lcm-superadd", params, summary, rows, tol, notes)


def _superadd_row(ctx: EvalContext, x: float, y: float) -> dict:
    lng = ctx.ln_gamma
    margin = lng(x + y + 2.0).value - lng(x + 1.0).value - lng(y + 1.0).value
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
    trunc: Truncation | None = None

    def grid(self) -> np.ndarray:
        if self.x is not None:
            return np.asarray([float(self.x)], dtype=np.float64)
        return make_grid(self.x_min, self.x_max, self.points, self.spacing)


@dataclass(frozen=True)
class Claim:
    """One registry entry: run(p, args) sweeps the claim, or checks one
    point when args.x is set; defaults holds the claim's own defaults.
    sub_unit_only marks a claim stated for 0 < q < 1 only.  order_arg is
    the run_claim argument that pins a report row's n_order on a re-run."""

    run: Callable[[QParam, ClaimArgs], VerifyReport]
    defaults: ClaimArgs = ClaimArgs()
    sub_unit_only: bool = False
    order_arg: str = "orders"

    def supports(self, p: QParam) -> bool:
        """Whether the claim is stated at this q."""
        return not self.sub_unit_only or p.regime is Regime.SUB_UNIT


def _run_ratio_lcm(p: QParam, o: ClaimArgs) -> VerifyReport:
    spec = RatioSpec(o.a, o.b, o.alpha, o.beta)
    return verify_theorem_ratio_lcm(spec, p, o.grid(), o.orders, o.tol, o.trunc)


def _run_ineq_555(p: QParam, o: ClaimArgs) -> VerifyReport:
    x1 = 1.0
    if o.x is not None:
        grid = o.grid()
    else:
        grid = x1 + np.geomspace(1e-4, max(o.x_max - x1, 1e-3), o.points)
    return verify_ineq_555(RatioSpec(o.a, o.b, o.alpha, o.beta), p, x1, grid, o.tol, o.trunc)


def _run_inv_digamma(p: QParam, o: ClaimArgs) -> VerifyReport:
    if o.x is not None:
        return verify_inv_digamma_lcm(p, o.grid(), o.orders, o.tol, o.trunc)
    ctx = EvalContext(p, o.trunc)
    x0 = ctx.zero().x0
    lo = x0 + 0.1 if o.x_min is None else o.x_min
    clipped = lo < x0 + ZERO_MARGIN
    if clipped:
        lo = x0 + 0.1
    if not lo < o.x_max:
        raise DomainError(f"x range ({lo:.6g}, {o.x_max:.6g}) empty right of x0 = {x0:.6g}")
    report = _verify_inv_digamma_lcm(ctx, make_grid(lo, o.x_max, o.points, o.spacing), o.orders, o.tol)
    if clipped:
        report = replace(report, notes=report.notes + ("x range clipped right of the digamma zero",))
    return report


def _run_ineq_1(p: QParam, o: ClaimArgs) -> VerifyReport:
    if o.x is not None:
        y = float(o.b) if o.b is not None else float(o.x)
        return verify_ineq_1(p, o.a, float(o.x), y, o.tol, o.trunc)
    ctx = EvalContext(p, o.trunc)
    x0 = ctx.zero().x0
    base = make_grid(max(o.x_min, x0 + 0.1), o.x_max, o.points, o.spacing)
    # pairs grow quadratically, so sweep 8 points evenly spaced in index
    if base.size > 8:
        base = base[np.linspace(0, base.size - 1, 8).round().astype(int)]
    xs = [float(v) for v in base]
    rows = [_ineq_1_row(ctx, o.a, xi, yj) for xi in xs for yj in xs if xi != yj]
    params = {"q": p.q, "a": o.a, "x0": x0}
    summary = {"pairs": len(rows), "lo": xs[0], "hi": xs[-1]}
    return _finish(
        "c-ineq-1", params, summary, rows, o.tol,
        notes=("pair sweep over an 8-point subgrid right of the zero",),
    )


def _run_ineq_010(p: QParam, o: ClaimArgs) -> VerifyReport:
    if o.x is not None:
        return verify_ineq_010(p, o.a, float(o.x), o.tol, o.trunc)
    ctx = EvalContext(p, o.trunc)
    x0 = ctx.zero().x0
    candidates = [float(v) for v in o.grid()]
    kept = []
    for u in candidates:
        arg = o.a * (u - 1.0) + 2.0
        if u > 1.0 - 2.0 / o.a and u + 1.0 > x0 + ZERO_MARGIN and arg > x0 + ZERO_MARGIN:
            kept.append(u)
    excluded = len(candidates) - len(kept)
    rows = [_ineq_010_row(ctx, o.a, u) for u in kept]
    notes = ()
    if excluded:
        notes = (f"{excluded} grid points precondition-excluded",)
    params = {"q": p.q, "a": o.a, "x0": x0}
    summary = {"candidates": len(candidates), "kept": len(kept)}
    return _finish("c-ineq-010", params, summary, rows, o.tol, notes)


def _run_gamma_lcm_superadd(p: QParam, o: ClaimArgs) -> VerifyReport:
    if o.x is None:
        return verify_gamma_lcm_and_superadd(p, None, None, o.orders, o.tol, o.trunc)
    if o.b is None:
        return verify_gamma_lcm_and_superadd(p, np.empty(0), o.grid(), o.orders, o.tol, o.trunc)
    # single ordered pair (x, b) of the superadditivity part
    xv, yv = float(o.x), float(o.b)
    if not (0.0 < xv < 1.0 and 0.0 < yv < 1.0):
        raise DomainError(f"pair ({xv}, {yv}) must lie inside (0, 1)^2")
    rows = [_superadd_row(EvalContext(p, o.trunc), xv, yv)]
    return _finish(
        "gamma-lcm-superadd", {"q": p.q}, {"pair_points": 1}, rows, o.tol,
        notes=("single superadditivity pair",),
    )


# the order of this table is CLAIM_IDS
CLAIMS: dict[str, Claim] = {
    "t31-ratio-lcm": Claim(_run_ratio_lcm, ClaimArgs(a=1.0, b=2.0, alpha=2.0, beta=1.0)),
    "c-555": Claim(_run_ineq_555, ClaimArgs(a=1.0, b=2.0, alpha=2.0, beta=1.0)),
    "c-666": Claim(lambda p, o: verify_ineq_666(p, o.n_max, o.tol, o.trunc),
                   sub_unit_only=True, order_arg="n_max"),
    "g-beta-lcm": Claim(
        lambda p, o: verify_g_beta_lcm(p, o.beta, o.grid(), o.orders, o.tol, o.trunc),
        sub_unit_only=True,
    ),
    "phi-coeff": Claim(lambda p, o: verify_phi_coeff(p, o.beta, o.n_max, o.tol),
                       ClaimArgs(n_max=200), sub_unit_only=True, order_arg="n_max"),
    # x_min None: the sweep starts at x0 + 0.1
    "t34-inv-psi": Claim(_run_inv_digamma, ClaimArgs(x_min=None, orders=4)),
    "c-ineq-1": Claim(_run_ineq_1, ClaimArgs(a=2.0)),
    "c-ineq-010": Claim(_run_ineq_010, ClaimArgs(a=2.0)),
    "remark-harmonic": Claim(lambda p, o: verify_remark_ineq(p, o.n_max, o.tol, o.trunc),
                             sub_unit_only=True, order_arg="n_max"),
    "gamma-lcm-superadd": Claim(_run_gamma_lcm_superadd),
    "psi-duplication": Claim(lambda p, o: verify_psi_duplication(p, o.grid(), o.trunc),
                             sub_unit_only=True),
}

CLAIM_IDS = tuple(CLAIMS)


def run_claim(
    claim_id: str,
    p: QParam,
    *,
    x: float | None = None,
    x_min: float | None = None,
    x_max: float | None = None,
    points: int | None = None,
    spacing: str | None = None,
    a: float | None = None,
    b: float | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    n_max: int | None = None,
    orders: int | None = None,
    tol: float | None = None,
    trunc: Truncation | None = None,
) -> VerifyReport:
    """Run one registered claim with sweep defaults.

    x switches to single-point mode.  For the paired claims (c-ineq-1 and
    the superadditivity part of gamma-lcm-superadd) the second coordinate
    rides in b when x is given.  Claims indexed by an integer use n_max;
    derivative sweeps use orders.  tol must be finite and >= 0.
    """
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise DomainError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    given = dict(
        x=x, x_min=x_min, x_max=x_max, points=points, spacing=spacing, a=a, b=b, alpha=alpha,
        beta=beta, n_max=n_max, orders=orders, tol=tol, trunc=trunc,
    )
    args = replace(claim.defaults, **{k: v for k, v in given.items() if v is not None})
    if not 0.0 <= args.tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {args.tol}")
    return claim.run(p, args)


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
