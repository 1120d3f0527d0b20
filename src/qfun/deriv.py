"""Derivative plumbing for the monotonicity certifiers.

An EvalContext computes each q-polygamma value, each ln Gamma_q value and
the digamma zero for one (q, truncation) at most once.  A LogDerivProvider
packages analytic derivatives of ln f for some positive function f.
certify_lcm sweeps such a provider over a grid and checks the
alternating-sign pattern that defines logarithmic complete monotonicity,
reporting the first violation and the worst margin seen.  Central finite
differences of the next-lower derivative give an independent check on each
analytic formula at matched accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalResult,
    QParam,
    Truncation,
    UnsupportedOrder,
    ln_q_gamma,
    q_digamma,
    q_polygamma,
)
from .roots import ZeroResult, digamma_zero

__all__ = [
    "N_MAX",
    "GRID_PULL",
    "EvalContext",
    "LogDerivProvider",
    "CMReport",
    "make_grid",
    "finite_diff",
    "default_step",
    "log_derivatives",
    "certify_lcm",
    "ln_gamma_provider",
    "ratio_provider",
]

# certification sweeps check alternating signs up to this derivative order
N_MAX = 6

# endpoints are pulled inward by this relative amount so open-interval
# domains (like x just above a zero) are never sampled at the boundary
GRID_PULL = 1e-6

# central stencils, O(h^2); keys are multiples of h
_STENCILS: dict[int, dict[int, float]] = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


class EvalContext:
    """Evaluator results for one (QParam, Truncation), each computed once.

    psi(k, x) is the order-k q-polygamma with psi(0, x) the q-digamma, and
    ln_gamma(x) is ln Gamma_q.  Each EvalResult is kept whole under its
    exact (k, x) key, so a repeated point returns the identical result.
    zero() solves for the digamma zero on first use.  Create one per
    verification and drop it afterwards: it holds every value it computed.
    """

    def __init__(self, p: QParam, trunc: Truncation | None = None) -> None:
        self.p = p
        self.trunc = trunc or DEFAULT_TRUNCATION
        self._results: dict[tuple[int, float], EvalResult] = {}
        self._zero: ZeroResult | None = None

    def psi(self, k: int, x: float) -> EvalResult:
        r = self._results.get((k, x))
        if r is None:
            r = q_digamma(self.p, x, self.trunc) if k == 0 else q_polygamma(self.p, x, k, self.trunc)
            self._results[k, x] = r
        return r

    def ln_gamma(self, x: float) -> EvalResult:
        # ln Gamma_q is the antiderivative of psi^(0), so it is kept as order -1
        r = self._results.get((-1, x))
        if r is None:
            r = ln_q_gamma(self.p, x, self.trunc)
            self._results[-1, x] = r
        return r

    def zero(self) -> ZeroResult:
        if self._zero is None:
            self._zero = digamma_zero(self.p, trunc=self.trunc)
        return self._zero


@dataclass(frozen=True)
class LogDerivProvider:
    """Analytic derivatives of ln f on the open interval (lo, hi).

    d(n, x) returns the n-th derivative of ln f at x, n >= 1.
    """

    d: Callable[[int, float], float]
    lo: float
    hi: float
    name: str


@dataclass(frozen=True)
class CMReport:
    """Outcome of one alternating-sign sweep.

    margin at (n, x) is (-1)^n d(n, x); the pattern holds when every margin
    is >= -tol.  violation is the first offending (order, x, margin) in
    ascending order-then-x, or None; worst_order and worst_x locate the
    global minimum margin.
    """

    name: str
    orders_checked: int
    grid: tuple[float, ...]
    worst_margin: float
    worst_order: int
    worst_x: float
    violation: tuple[int, float, float] | None
    passed: bool
    tol: float


def make_grid(
    lo: float, hi: float, points: int = 64, spacing: str = "geometric"
) -> np.ndarray:
    """Evaluation grid on (lo, hi), endpoints pulled inward by GRID_PULL."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi, got ({lo}, {hi})")
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    if spacing == "linear":
        pad = GRID_PULL * (hi - lo)
        return np.linspace(lo + pad, hi - pad, points)
    if spacing == "geometric":
        if lo <= 0.0:
            raise DomainError("geometric spacing needs lo > 0")
        llo, lhi = math.log(lo), math.log(hi)
        pad = GRID_PULL * (lhi - llo)
        return np.exp(np.linspace(llo + pad, lhi - pad, points))
    raise DomainError(f"spacing must be 'linear' or 'geometric', got {spacing!r}")


def default_step(x: float, n: int) -> float:
    """Step size for the order-n stencil at x; grows with the order since
    higher stencils divide by h^n."""
    return max(1e-5, 1e-5 * abs(x)) * 10.0 ** (n - 1)


def finite_diff(
    f: Callable[[float], float],
    x: float,
    n: int = 1,
    h: float | None = None,
    lo: float = -math.inf,
    hi: float = math.inf,
) -> float:
    """Central O(h^2) approximation to f^(n)(x), n in 1..4.

    Raises DomainError if a stencil point would leave (lo, hi).
    """
    if n not in _STENCILS:
        raise UnsupportedOrder(f"finite_diff supports orders {sorted(_STENCILS)}, got {n}")
    step = default_step(x, n) if h is None else h
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")
    stencil = _STENCILS[n]
    for k in stencil:
        if not lo < x + k * step < hi:
            raise DomainError(
                f"stencil point {x + k * step!r} outside ({lo}, {hi}) for order {n} at x={x}"
            )
    acc = math.fsum(w * f(x + k * step) for k, w in stencil.items())
    return acc / step**n


def log_derivatives(values: Sequence[float]) -> list[float]:
    """Derivatives of ln f from derivatives of f at one point.

    values is (f, f', ..., f^(N)) with f > 0; returns [(ln f)', ..., (ln f)^(N)]
    via the recursion (ln f)^(n) = B_n - sum_{m=1}^{n-1} C(n-1, m-1) (ln f)^(m) B_{n-m}
    with B_k = f^(k)/f.
    """
    if len(values) < 2:
        raise DomainError("need at least (f, f') to form a log-derivative")
    f0 = values[0]
    if not f0 > 0.0:
        raise DomainError(f"ln f needs f > 0, got f = {f0!r}")
    b = [v / f0 for v in values]
    u: list[float] = [b[1]]
    for n in range(2, len(values)):
        acc = b[n]
        for m in range(1, n):
            acc -= math.comb(n - 1, m - 1) * u[m - 1] * b[n - m]
        u.append(acc)
    return u


def certify_lcm(
    provider: LogDerivProvider,
    grid: np.ndarray,
    n_orders: int = N_MAX,
    tol: float = 1e-9,
) -> CMReport:
    """Check (-1)^n (ln f)^(n) >= -tol for n = 1..n_orders over the grid.

    Sweeps ascending order then ascending x, so the reported violation is
    the lowest-order, leftmost one.
    """
    if n_orders < 1:
        raise DomainError(f"n_orders must be >= 1, got {n_orders}")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
    xs = [float(x) for x in np.asarray(grid, dtype=np.float64).ravel()]
    if not xs:
        raise DomainError("empty grid")
    for x in xs:
        if not provider.lo < x < provider.hi:
            raise DomainError(
                f"grid point {x!r} outside provider domain ({provider.lo}, {provider.hi})"
            )
    worst = math.inf
    worst_order, worst_x = 1, xs[0]
    violation: tuple[int, float, float] | None = None
    for n in range(1, n_orders + 1):
        sign = -1.0 if n % 2 else 1.0
        for x in xs:
            margin = sign * provider.d(n, x)
            if margin < worst:
                worst = margin
                worst_order, worst_x = n, x
            if violation is None and margin < -tol:
                violation = (n, x, margin)
    return CMReport(
        name=provider.name,
        orders_checked=n_orders,
        grid=tuple(xs),
        worst_margin=worst,
        worst_order=worst_order,
        worst_x=worst_x,
        violation=violation,
        passed=violation is None,
        tol=tol,
    )


def ln_gamma_provider(p: QParam, trunc: Truncation | None = None) -> LogDerivProvider:
    """ln Gamma_q and its derivatives: d(1) is the q-digamma, d(n) for
    n >= 2 the order n-1 q-polygamma."""
    ctx = EvalContext(p, trunc)

    def d(n: int, x: float) -> float:
        if n < 1:
            raise UnsupportedOrder(f"derivative order must be >= 1, got {n}")
        return ctx.psi(n - 1, x).value

    return LogDerivProvider(d=d, lo=0.0, hi=math.inf, name=f"ln_q_gamma(q={p.q:g})")


def ratio_provider(
    p: QParam,
    a: float,
    b: float,
    alpha: float,
    beta: float,
    trunc: Truncation | None = None,
) -> LogDerivProvider:
    """ln of Gamma_q(a x)^alpha / Gamma_q(b x)^beta.

    The n-th log-derivative is alpha a^n psi^(n-1)(a x) - beta b^n psi^(n-1)(b x),
    with psi^(0) the q-digamma.
    """
    if not (0.0 < a < b):
        raise DomainError(f"need 0 < a < b, got a={a}, b={b}")
    ctx = EvalContext(p, trunc)

    def d(n: int, x: float) -> float:
        if n < 1:
            raise UnsupportedOrder(f"derivative order must be >= 1, got {n}")
        return (
            alpha * a**n * ctx.psi(n - 1, a * x).value
            - beta * b**n * ctx.psi(n - 1, b * x).value
        )

    name = f"gamma_ratio(q={p.q:g}, a={a:g}, b={b:g}, alpha={alpha:g}, beta={beta:g})"
    return LogDerivProvider(d=d, lo=0.0, hi=math.inf, name=name)
