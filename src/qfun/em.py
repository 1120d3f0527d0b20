"""Euler-Maclaurin sums for the q-polygammas and ln Gamma_q near q = 1.

Where a series of qfun.core provably cannot stop within its switch (the
Lambert series within core._EM_REACH terms, the product series within
core._LOGPROD_SWITCH), core's switch tests take the value from here
instead: a few terms summed directly, the tail integral in closed form or
by Gauss-Legendre, and Euler-Maclaurin corrections with a certified
remainder.  core imports this module inside the first call that computes
such a sum, so an evaluation that never needs one never compiles it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .core import EvalResult, NonConvergent, QParam, Truncation, _psi_offsets, _psi_parts

__all__: list[str] = []

# the Euler-Maclaurin sums take their first terms directly (_em_shift), up
# to y0 = x + M >= _EM_SHIFT when |ln q| <= 0.5, where Euler-Maclaurin at
# y0 gains a factor of about (k + 2N)^2 / (2 pi y0)^2 per correction order
# N; for |ln q| > 0.5 the direct part runs until p^M < e^-46.  At most
# _EM_ORDERS orders are taken
_EM_SHIFT = 20
_EM_ORDERS = 20


def _ln_gamma_em(
    p: QParam, x: float, pre: float, t: Truncation, target: Callable[[float], float]
) -> EvalResult:
    """ln Gamma_q(x) = pre + sum_{j >= 0} G(x + j), with pre from
    _ln_gamma_parts and G(y) = L(y + 1 - x) - L(y) (see _dl), by _em_sum.
    The shift takes both x + M and 1 + M to _EM_SHIFT.  The integral of G
    over [y0, inf) is that of L over [1 + M, x + M]: summing the two L
    parts apart would cancel two sums of about pi^2 / (6 |ln q|) each.  Every
    G^(i)(y) = int_0^{1-x} D^{i+1} L(y + s) ds keeps one sign on [y0, inf).
    """
    lam = abs(math.log(p.q))
    m = _em_shift(lam, min(x, 1.0))
    a, b = 1.0 + m, x + m

    def parts() -> list[float]:
        direct = math.fsum(_dl(0, lam, j + 1.0) - _dl(0, lam, x + j) for j in range(m))
        return [pre, direct, _l_integral(lam, a, b)]

    return _em_sum(
        parts, lambda i: _dl(i, lam, a) - _dl(i, lam, b), m, t, target, f"q={p.q}, x={x}"
    )


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, float], ...]:
    """The (node, weight) pairs of 16-point Gauss-Legendre on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # on first use: 4 ms to import

    return tuple(zip(*(a.tolist() for a in leggauss(16))))


def _l_integral(lam: float, a: float, b: float) -> float:
    """The integral of L(y) = ln(1 - e^{-lam y}) over [a, b], a, b > 0, by
    _gauss_legendre on the panels [c, 2c], the last one shorter.  L is
    singular only on Re y = 0, three half-widths left of a panel's centre,
    so a panel's error falls like (3 + sqrt 8)^-32.  Past lam y = 750, where
    L is below e^-750, no panel is taken."""
    lo, hi = min(a, b), min(max(a, b), 750.0 / lam)
    nodes = _gauss_legendre()
    panels = []
    while lo < hi:
        c = min(2.0 * lo, hi)
        half, mid = 0.5 * (c - lo), 0.5 * (c + lo)
        panels.append(half * math.fsum(w * _dl(0, lam, mid + half * s) for s, w in nodes))
        lo = c
    return math.fsum(panels) if a <= b else -math.fsum(panels)


@functools.cache
def _eulerian(s: int) -> tuple[float, ...]:
    """The coefficients of the Eulerian polynomial A_s, which has
    Li_{-s}(u) = u A_s(u) / (1 - u)^{s+1}: A_0 = A_1 = 1 and
    A(n, i) = (i+1) A(n-1, i) + (n-i) A(n-1, i-1), exact in ints."""
    row = [1]
    for n in range(2, s + 1):
        prev = [0, *row, 0]
        row = [(i + 1) * prev[i + 1] + (n - i) * prev[i] for i in range(n)]
    return tuple(map(float, row))


@functools.cache
def _em_weights() -> tuple[float, ...]:
    """B_{2i} / (2i)! for i = 1.._EM_ORDERS, from the exact Bernoulli
    numbers of sum_{j <= m} C(m+1, j) B_j = 0."""
    from fractions import Fraction  # on first use: it costs 2.5 ms to import

    b = [Fraction(1)]
    for m in range(1, 2 * _EM_ORDERS + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(float(b[2 * i] / math.factorial(2 * i)) for i in range(1, _EM_ORDERS + 1))


def _dl(m: int, lam: float, y: float) -> float:
    """D^m L(y) for m >= 0, with L(y) = ln(1 - p^y) and ln p = -lam: L
    itself, accurate for p^y near 0 and near 1, and for m >= 1
    -(ln p)^m Li_{1-m}(p^y) = (-1)^{m+1} w^m u A_{m-1}(u) with u = p^y and
    w = lam / (1 - u).  A_{m-1} has positive coefficients, so nothing
    cancels near u = 1.  Raises OverflowError where w^m overflows and
    ZeroDivisionError where lam y underflows to 0, at a subnormal y."""
    a = -lam * y
    if not m:
        return math.log(-math.expm1(a)) if a > -math.log(2.0) else math.log1p(-math.exp(a))
    u = math.exp(a)
    poly = 0.0
    for c in _eulerian(m - 1):
        poly = poly * u + c
    v = (lam / -math.expm1(a)) ** m * u * poly
    return v if m % 2 else -v


def _em_shift(lam: float, y: float) -> int:
    """The M terms of a sum over y, y + 1, ... at base e^-lam taken before
    Euler-Maclaurin: up to y + M >= _EM_SHIFT, or for lam > 0.5 until
    lam M > 46."""
    return math.ceil(46.0 / lam) if lam > 0.5 else max(0, math.ceil(_EM_SHIFT - y))


def _em_sum(
    parts: Callable[[], list[float]],
    dg: Callable[[int], float],
    m: int,
    t: Truncation,
    target: Callable[[float], float],
    where: str,
) -> EvalResult:
    """A value fsum(parts()) + sum_{j >= 0} g(y0 + j), where parts() holds
    the m terms summed directly up to y0, the closed-form part and the
    integral of g over [y0, inf), and dg(i) is g^(i)(y0).  Euler-Maclaurin
    adds g(y0) / 2 - sum_{i=1}^{N} B_{2i} / (2i)! g^(2i-1)(y0) + R_N.
    Where every g^(i) keeps one sign on [y0, inf),
    |R_N| <= 2 zeta(2N) / (2 pi)^{2N} |g^(2N-1)(y0)| (Johansson, Numer.
    Algorithms 69, 2015), which is the size of the last order taken; that
    bound is err_bound, and N grows until it meets target(value).  terms
    is M + N, counted against t.max_terms.  Raises NonConvergent where the
    bound cannot meet the target within _EM_ORDERS orders or the term cap,
    or the value overflows.
    """
    try:
        values = [*parts(), 0.5 * dg(0)]
        for n, weight in enumerate(_em_weights()[: max(0, t.max_terms - m)], 1):
            values.append(-weight * dg(2 * n - 1))
            value = math.fsum(values)
            err = abs(values[-1])
            if err <= target(value) and math.isfinite(value):
                return EvalResult(value, err, m + n)
    except (OverflowError, ZeroDivisionError):
        pass
    raise NonConvergent(
        f"Euler-Maclaurin bound above the tail target within {_EM_ORDERS} orders and the "
        f"term cap {t.max_terms} ({where})"
    )


def _psi_em(p: QParam, k: int, x: float, t: Truncation) -> EvalResult:
    """psi^(k)(x) = h + e - sum_{j >= 0} D^{k+1} L(x + j) (see
    _psi_offsets and _dl), for any q and 0 <= k <= 8, with O(10^2) work, by
    _em_sum with g = -D^{k+1} L, whose integral over [y0, inf) is
    D^k L(y0); every D^m L keeps one sign on [y0, inf)."""
    lam = abs(math.log(p.q))
    h, e = _psi_offsets(p, k, x, _psi_parts(p, 0)[3])
    m = _em_shift(lam, x)
    y0 = x + m

    def parts() -> list[float]:
        start = h - math.fsum(_dl(k + 1, lam, x + j) for j in range(m)) + e
        return [start, _dl(k, lam, y0)]

    return _em_sum(
        parts, lambda i: -_dl(k + 1 + i, lam, y0), m, t, t.target,
        f"q={p.q}, x={x}, order={k}",
    )
