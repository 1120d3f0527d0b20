"""Derivative plumbing for the monotonicity certifiers.

An EvalContext computes each q-polygamma and ln Gamma_q value read by key,
and the digamma zero, for one (q, truncation) at most once, a whole grid of
q-polygamma or ln Gamma_q values in one pass.  It is the one carrier of the
truncation: a provider takes p as a QParam, evaluated at the default
truncation, or as an EvalContext(p, trunc).  A LogDerivProvider packages
analytic derivatives of ln f for some positive function f.  The library
providers are stated by their formula alone through from_grid, which
checks the orders and every point before the formula shifts or scales it;
they hand the grid pass one float array of points per order, the points
their formula reads at that order, and store nothing in the context.
certify_lcm sweeps such a provider over a grid and checks the
alternating-sign pattern that defines logarithmic complete monotonicity,
reporting the first violation and the worst margin seen; _verdict is the
one rule that picks both, for it and for theorems' reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalResult,
    QParam,
    Truncation,
    UnsupportedOrder,
    _check_count,
    _check_points,
    _check_psi_order,
    _check_x,
    _ln_gamma_rows,
    _psi_orders,
    _psi_point,
    ln_q_gamma,
)
from .roots import ZeroResult, digamma_zero

__all__ = [
    "N_MAX",
    "GRID_PULL",
    "EvalContext",
    "LogDerivProvider",
    "CMReport",
    "make_grid",
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


def _check_key(x: float) -> None:
    """_check_x for an x that is not a float, before it is looked up: True
    and False equal and hash like the stored keys 1.0 and 0.0."""
    if type(x) is not float:
        _check_x(x)


class EvalContext:
    """The evaluator results read by key for one (QParam, Truncation), each
    computed once.

    psi(k, x) is the order-k q-polygamma with psi(0, x) the q-digamma, and
    ln_gamma(x) is ln Gamma_q.  Every value that psi, psi_grid, ln_gamma or
    ln_gamma_grid hands out is kept as its EvalResult under its exact key,
    (k, float(x)) or x, so a repeated point returns the identical result.
    A provider sweep hands its points to the grid pass and keeps nothing
    here.  zero() solves for the digamma zero on first use, and
    squared() is the context at base q^2.  Create one per verification, or
    one per q for the claim runs of one invocation, and drop it afterwards:
    it holds every value read by key.
    """

    def __init__(self, p: QParam, trunc: Truncation | None = None) -> None:
        self.p = p
        self.trunc = trunc or DEFAULT_TRUNCATION
        self._results: dict[tuple[int, float], EvalResult] = {}
        self._ln_gammas: dict[float, EvalResult] = {}
        self._zero: ZeroResult | None = None
        self._squared: EvalContext | None = None

    @classmethod
    def of(cls, p: QParam | EvalContext) -> EvalContext:
        """p itself when it is a context, or else a new context at p with
        the default truncation.

        Every public verifier and provider resolves its p argument here, so
        a caller sets another truncation by passing EvalContext(p, trunc).
        """
        return p if isinstance(p, EvalContext) else cls(p)

    def psi(self, k: int, x: float) -> EvalResult:
        """psi^(k)(x), for an int order 0 <= k <= 8, checked whether or not
        the key is stored."""
        _check_psi_order(k)
        _check_key(x)
        key = k, float(x)
        r = self._results.get(key)
        if r is None:
            r = self._results[key] = _psi_point(self.p, k, _check_x(x), self.trunc)
        return r

    def psi_grid(self, keys: Iterable[tuple[int, float]]) -> list[EvalResult]:
        """psi(k, x) for every (k, x) of keys, in their order.

        The missing keys of every order are evaluated in one pass, each
        bit-identical to a one-point evaluation, and stored under the keys
        psi reads, so psi(k, x) then returns the identical result.  The
        pass takes them order-major: orders as they first appear among
        keys, and each order's points as they first appear; a term cap
        raises NonConvergent for the first key in that order that reaches
        it.  Every key's order is checked first, as psi checks it, and then
        every x that is not a float.
        """
        keys = list(keys)
        for k, _ in keys:
            _check_psi_order(k)
        for _, x in keys:
            _check_key(x)
        keys = [(k, float(x)) for k, x in keys]
        results = self._results
        # orders as they first appear among keys, each with its missing points
        missing: dict[int, list[float]] = {k: [] for k, _ in keys}
        for k, x in dict.fromkeys(keys):
            if (k, x) not in results:
                missing[k].append(x)
        missing = {k: xs for k, xs in missing.items() if xs}
        if missing:
            values, errs, terms = (a.tolist() for a in _psi_orders(self.p, missing, self.trunc))
            new = [(k, x) for k, xs in missing.items() for x in xs]
            results.update(zip(new, map(EvalResult, values, errs, terms)))
        return [results[key] for key in keys]

    def ln_gamma(self, x: float) -> EvalResult:
        _check_key(x)
        r = self._ln_gammas.get(x)
        if r is None:
            r = ln_q_gamma(self.p, x, self.trunc)
            self._ln_gammas[x] = r
        return r

    def ln_gamma_grid(self, xs: Iterable[float]) -> list[EvalResult]:
        """ln_gamma(x) for every x of xs, in their order.

        The missing points are evaluated in one pass, each bit-identical to
        ln_q_gamma, and stored under the keys ln_gamma reads.
        """
        xs = list(xs)
        for x in xs:
            _check_key(x)
        results = self._ln_gammas
        missing = [x for x in dict.fromkeys(xs) if x not in results]
        results.update(zip(missing, _ln_gamma_rows(self.p, missing, self.trunc)))
        return [results[x] for x in xs]

    def zero(self) -> ZeroResult:
        if self._zero is None:
            self._zero = digamma_zero(self.p, trunc=self.trunc)
        return self._zero

    def squared(self) -> "EvalContext":
        """The context at base q^2 and the same truncation, where the
        duplication identity lands; made on first use, dropped with this one."""
        if self._squared is None:
            q2 = QParam(self.p.q * self.p.q, allow_near_one=self.p.allow_near_one)
            self._squared = EvalContext(q2, self.trunc)
        return self._squared


@dataclass(frozen=True)
class LogDerivProvider:
    """Analytic derivatives of ln f on the open interval (lo, hi).

    d(n, x) returns the n-th derivative of ln f at x, n >= 1.  d_grid, when
    set, takes (orders, xs) and returns d(n, x) for every n of orders and x
    of xs as a float array of shape (len(orders), len(xs)); certify_lcm
    calls it once per sweep.  from_grid states a provider by its formula
    alone, a d_grid that takes the points as a float array: the provider's
    d_grid checks the orders (_check_orders) and then every point
    (_check_points) before it calls the formula, and d is its one-point
    case.
    """

    d: Callable[[int, float], float]
    lo: float
    hi: float
    name: str
    d_grid: Callable[[Sequence[int], Sequence[float]], np.ndarray] | None = None

    @classmethod
    def from_grid(
        cls,
        d_grid: Callable[[Sequence[int], np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        name: str,
    ) -> LogDerivProvider:
        """A provider stated by its formula d_grid, for formulas on x > 0:
        every point must be finite and > 0, whatever lo and hi are."""

        def checked(orders: Sequence[int], xs: Sequence[float]) -> np.ndarray:
            _check_orders(orders)
            return d_grid(orders, _check_points(xs))

        def d(n: int, x: float) -> float:
            return float(checked([n], [x])[0, 0])

        return cls(d=d, lo=lo, hi=hi, name=name, d_grid=checked)


def _order_rows(ctx: EvalContext, points: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """psi^(k) at the float array points[k] for every order k, from one
    _psi_orders pass at ctx, as one row of values per order."""
    values = _psi_orders(ctx.p, points, ctx.trunc)[0]
    ends = np.cumsum([xs.size for xs in points.values()])
    return dict(zip(points, np.split(values, ends[:-1])))


def _check_orders(orders: Sequence[int]) -> None:
    """Log-derivatives start at order 1, and an order is an int."""
    for n in orders:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise UnsupportedOrder(f"derivative order must be an int >= 1, got {n!r}")


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
    _check_count("points", points, 2)
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


def log_derivatives(values: Sequence) -> list:
    """Derivatives of ln f from derivatives of f.

    values is (f, f', ..., f^(N)) with f > 0, each a float at one point or
    an array over points; returns [(ln f)', ..., (ln f)^(N)] alike, via the
    recursion (ln f)^(n) = B_n - sum_{m=1}^{n-1} C(n-1, m-1) (ln f)^(m) B_{n-m}
    with B_k = f^(k)/f, taken per point.
    """
    if len(values) < 2:
        raise DomainError("need at least (f, f') to form a log-derivative")
    f0 = values[0]
    low = np.ravel(f0)
    low = low[~(low > 0.0)]
    if low.size:
        raise DomainError(f"ln f needs f > 0, got f = {low[0].item()!r}")
    b = [v / f0 for v in values]
    u: list = [b[1]]
    for n in range(2, len(values)):
        acc = b[n]
        for m in range(1, n):
            acc = acc - math.comb(n - 1, m - 1) * u[m - 1] * b[n - m]
        u.append(acc)
    return u


def _verdict(margins: np.ndarray, tol: float) -> tuple[int, int | None]:
    """The indices of the worst margin and the first failing one among
    margins, a float array in scan order.  The worst is the first NaN, else
    the first least margin; a margin fails when it is not >= -tol, NaN
    included, and the second index is None when none fails."""
    below = np.flatnonzero(~(margins >= -tol))
    return int(np.argmin(margins)), (int(below[0]) if below.size else None)


def certify_lcm(
    provider: LogDerivProvider,
    grid: np.ndarray,
    n_orders: int = N_MAX,
    tol: float = 1e-9,
) -> CMReport:
    """Check (-1)^n (ln f)^(n) >= -tol for n = 1..n_orders over the grid.

    The margins of all orders are one array, from the provider's d_grid or
    else from d in ascending order then grid order, and are reduced in that
    order: the reported violation is the lowest-order, leftmost one, and
    the worst margin the first of the least ones.  A margin that is not
    >= -tol fails, NaN included, and a NaN margin is then the worst.
    """
    _check_count("n_orders", n_orders, 1)
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
    orders = range(1, n_orders + 1)
    if provider.d_grid is None:
        d = np.array([[provider.d(n, x) for x in xs] for n in orders], dtype=np.float64)
    else:
        d = np.asarray(provider.d_grid(orders, xs), dtype=np.float64)
        if d.shape != (n_orders, len(xs)):
            raise ValueError(f"d_grid returned shape {d.shape}, expected {(n_orders, len(xs))}")
    signs = np.array([-1.0 if n % 2 else 1.0 for n in orders])
    margins = (signs[:, None] * d).ravel()
    i, j = _verdict(margins, tol)
    violation = None if j is None else (j // len(xs) + 1, xs[j % len(xs)], float(margins[j]))
    return CMReport(
        name=provider.name,
        orders_checked=n_orders,
        grid=tuple(xs),
        worst_margin=float(margins[i]),
        worst_order=i // len(xs) + 1,
        worst_x=xs[i % len(xs)],
        violation=violation,
        passed=violation is None,
        tol=tol,
    )


def ln_gamma_provider(p: QParam | EvalContext) -> LogDerivProvider:
    """ln Gamma_q and its derivatives: d(1) is the q-digamma, d(n) for
    n >= 2 the order n-1 q-polygamma."""
    ctx = EvalContext.of(p)

    def d_grid(orders: Sequence[int], xa: np.ndarray) -> np.ndarray:
        rows = _order_rows(ctx, {n - 1: xa for n in orders})
        return np.array([rows[n - 1] for n in orders])

    return LogDerivProvider.from_grid(d_grid, 0.0, math.inf, f"ln_q_gamma(q={ctx.p.q:g})")


def ratio_provider(
    p: QParam | EvalContext,
    a: float,
    b: float,
    alpha: float,
    beta: float,
) -> LogDerivProvider:
    """ln of Gamma_q(a x)^alpha / Gamma_q(b x)^beta.

    The n-th log-derivative is alpha a^n psi^(n-1)(a x) - beta b^n psi^(n-1)(b x),
    with psi^(0) the q-digamma.
    """
    ctx = EvalContext.of(p)
    if not (0.0 < a < b):
        raise DomainError(f"need 0 < a < b, got a={a}, b={b}")

    def d_grid(orders: Sequence[int], xa: np.ndarray) -> np.ndarray:
        # per x, psi^(n-1) at a x and then at b x
        ab = np.stack([a * xa, b * xa], axis=1).ravel()
        rows = _order_rows(ctx, {n - 1: ab for n in orders})
        psi = np.array([rows[n - 1] for n in orders])
        c_a = np.array([[alpha * a**n] for n in orders])
        c_b = np.array([[beta * b**n] for n in orders])
        return c_a * psi[:, 0::2] - c_b * psi[:, 1::2]

    name = f"gamma_ratio(q={ctx.p.q:g}, a={a:g}, b={b:g}, alpha={alpha:g}, beta={beta:g})"
    return LogDerivProvider.from_grid(d_grid, 0.0, math.inf, name)
