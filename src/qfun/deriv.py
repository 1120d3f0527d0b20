"""Derivative plumbing for the monotonicity certifiers.

An EvalContext evaluates the q-polygammas and ln Gamma_q at one
(q, truncation), a whole grid of them in one pass, and solves for the
digamma zero once; it keeps no value, so each sweep reads what its own
grid call returns.  It is the one carrier of the truncation: a provider
takes p as a QParam, evaluated at the default truncation, or as an
EvalContext(p, trunc).  A LogDerivProvider packages analytic derivatives
of ln f for some positive function f.  The library providers are stated
by their formula alone through from_grid, which checks the orders and
every point before the formula shifts or scales it; they hand the grid
pass one float array of points per order, the points their formula reads
at that order.
certify_lcm sweeps such a provider over a grid and checks the
alternating-sign pattern that defines logarithmic complete monotonicity.
It returns a VerifyReport, the one report type of qfun, which every claim
of theorems returns too: _verdict forms every report from its margins in
scan order, with the worst point and the first counterexample.
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
    _check_psi_order,
    _check_real,
    _check_x,
    _psi_point,
    ln_q_gamma,
)
from .roots import ZeroResult, digamma_zero
from .rows import _check_points, _ln_gamma_rows, _psi_orders

__all__ = [
    "N_MAX",
    "GRID_PULL",
    "EvalContext",
    "LogDerivProvider",
    "VerifyReport",
    "TIGHT_MARGIN",
    "make_grid",
    "log_derivatives",
    "certify_lcm",
    "ln_gamma_provider",
    "ratio_provider",
]

# certification sweeps check alternating signs up to this derivative order
N_MAX = 6

# a passing margin below this is flagged as tight rather than comfortable
TIGHT_MARGIN = 1e-6

# endpoints are pulled inward by this relative amount so open-interval
# domains (like x just above a zero) are never sampled at the boundary
GRID_PULL = 1e-6


class EvalContext:
    """The evaluators at one (QParam, Truncation), with the digamma zero
    solved once.

    psi(k, x) is the order-k q-polygamma with psi(0, x) the q-digamma, and
    ln_gamma(x) is ln Gamma_q; psi_grid and ln_gamma_grid evaluate many
    points in one pass.  Each call evaluates afresh and keeps nothing, so a
    sweep reads the values its own call returns.  zero() solves for the
    digamma zero on first use, and squared() is the context at base q^2;
    both are kept, so the claim runs that share a context at one q solve
    for the zero once.
    """

    __slots__ = ("p", "trunc", "_zero", "_squared", "__weakref__")

    def __init__(self, p: QParam, trunc: Truncation | None = None) -> None:
        self.p = p
        self.trunc = trunc or DEFAULT_TRUNCATION
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
        """psi^(k)(x), for an int order 0 <= k <= 8."""
        _check_psi_order(k)
        return _psi_point(self.p, k, _check_x(x), self.trunc)

    def psi_grid(self, keys: Iterable[tuple[int, float]]) -> list[EvalResult]:
        """psi(k, x) for every (k, x) of keys, in their order.

        Each distinct key is evaluated once, in one pass, bit-identical to
        a one-point evaluation; a repeated key hands out one result.  The
        pass takes the keys order-major: orders as they first appear among
        keys, and each order's points as they first appear; a term cap
        raises NonConvergent for the first key in that order that reaches
        it.  Every key's order is checked first, as psi checks it, and then
        every x that is not a float.
        """
        keys = list(keys)
        for k, _ in keys:
            _check_psi_order(k)
        # before repeated keys merge: True equals and hashes like 1.0
        keys = [(k, x if type(x) is float else _check_x(x)) for k, x in keys]
        points: dict[int, list[float]] = {k: [] for k, _ in keys}
        for k, x in dict.fromkeys(keys):
            points[k].append(x)
        values, errs, terms = (a.tolist() for a in _psi_orders(self.p, points, self.trunc))
        passed = [(k, x) for k, xs in points.items() for x in xs]
        results = dict(zip(passed, map(EvalResult, values, errs, terms)))
        return [results[key] for key in keys]

    def ln_gamma(self, x: float) -> EvalResult:
        return ln_q_gamma(self.p, x, self.trunc)

    def ln_gamma_grid(self, xs: Iterable[float]) -> list[EvalResult]:
        """ln_gamma(x) for every x of xs, in their order: each distinct point
        once, in one pass, bit-identical to ln_q_gamma, once every x that is
        not a float is checked."""
        xs = [x if type(x) is float else _check_x(x) for x in xs]
        distinct = list(dict.fromkeys(xs))
        results = dict(zip(distinct, _ln_gamma_rows(self.p, distinct, self.trunc)))
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
class VerifyReport:
    """Per-claim verdict, from _verdict.

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


def _row(n_order, x, value, margin, extra=None) -> dict:
    r = {"n_order": n_order, "x": x, "value": value, "margin": margin}
    if extra:
        r["extra"] = dict(extra)
    return r


def _grid_summary(grid: Sequence[float] | np.ndarray) -> dict:
    xs = np.asarray(grid, dtype=np.float64).ravel()
    return {"lo": float(xs.min()), "hi": float(xs.max()), "points": int(xs.size)}


def _check_tol(tol: float) -> None:
    """DomainError unless tol is a real in [0, inf)."""
    # a non-finite float fails the range test, any other non-real _check_real
    if isinstance(tol, float) and not math.isfinite(tol) or _check_real("tol", tol) < 0.0:
        raise DomainError(f"tol must be finite and >= 0, got {tol}")


def make_grid(
    lo: float, hi: float, points: int = 64, spacing: str = "geometric"
) -> np.ndarray:
    """Evaluation grid on (lo, hi), endpoints pulled inward by GRID_PULL."""
    lo, hi = _check_real("lo", lo), _check_real("hi", hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo}, {hi})")
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


def _verdict(
    claim_id: str,
    params: dict,
    grid_summary: dict,
    margins: np.ndarray,
    row: Callable[[int], dict],
    tol: float,
    notes: tuple[str, ...] = (),
) -> VerifyReport:
    """The report on margins, a float array in scan order, after notes.

    The worst point is the first NaN margin, else the first least one; a
    margin fails when it is not >= -tol, NaN included, and the first that
    fails is the counterexample.  row(i) is the row dict at index i, read
    for those two indices only.  An empty margins array passes with a note
    that no point was examined; a pass whose worst margin is below
    TIGHT_MARGIN is noted as tight.
    """
    notes = tuple(notes)
    worst = counter = None
    if margins.size:
        i = int(np.argmin(margins))
        worst = row(i)
        below = np.flatnonzero(~(margins >= -tol))
        if below.size:
            j = int(below[0])
            # a copy of the same row compares equal to it even at a NaN margin
            counter = dict(worst) if j == i else row(j)
    if worst is None:
        notes = notes + ("no points examined",)
    elif counter is None and worst["margin"] < TIGHT_MARGIN:
        notes = notes + (f"tight margin {worst['margin']:.3e}",)
    return VerifyReport(
        claim_id=claim_id,
        params=params,
        grid_summary=grid_summary,
        passed=counter is None,
        worst_margin=0.0 if worst is None else worst["margin"],
        worst_point=worst,
        counterexample=counter,
        notes=notes,
        tol=tol,
    )


def certify_lcm(
    provider: LogDerivProvider,
    grid: np.ndarray,
    n_orders: int = N_MAX,
    tol: float = 1e-9,
) -> VerifyReport:
    """Check (-1)^n (ln f)^(n) >= -tol for n = 1..n_orders over the grid.

    The margins of all orders are one array, from the provider's d_grid or
    else from d in ascending order then grid order, and _verdict reduces it
    in that order: the counterexample is the lowest-order, leftmost
    violation, and the worst point the first of the least margins.  A
    margin that is not >= -tol fails, NaN included, and a NaN margin is
    then the worst.  The report's claim_id is the provider's name, its
    params are empty, and a row's value is d(n, x) and its margin
    (-1)^n d(n, x).
    """
    _check_count("n_orders", n_orders, 1)
    _check_tol(tol)
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

    def row(i: int) -> dict:
        n, k = divmod(i, len(xs))
        return _row(n + 1, xs[k], float(d[n, k]), float(margins[i]))

    return _verdict(provider.name, {}, _grid_summary(xs), margins, row, tol)


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
    for name, v in (("a", a), ("b", b), ("alpha", alpha), ("beta", beta)):
        _check_real(name, v)
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
