"""Zero location for the q-digamma, plus the q-harmonic constants tied to it.

The q-digamma is strictly increasing and concave on (0, inf) in both
regimes, tends to -inf at 0+ and to a positive limit (or +inf) at infinity,
so it has exactly one positive zero.  The locator brackets that zero and
bisects a fixed number of steps, then polishes with damped Newton steps that
never leave the bracket.  A safeguarded Newton search finds the zero first,
so the bisection evaluates only the midpoints near it: every other midpoint
takes the branch its evaluation would have taken, and the result is the
plain bisection's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    DEFAULT_TRUNCATION,
    DomainError,
    NonConvergent,
    QParam,
    Regime,
    Truncation,
    _check_count,
    _fp_allowance,
    _psi_point,
    q_digamma,
)

__all__ = ["BracketError", "ZeroResult", "digamma_zero", "q_euler_mascheroni", "q_harmonic"]

_BRACKET_EXPANSIONS = 60
# Newton steps the locate search may take; from the bracket midpoint it
# needs about six, and running out only makes the bisection evaluate more
_LOCATE_STEPS = 10

# digamma_zero's default bound on the residual |psi_q(x0)|
DEFAULT_ZERO_TOL = 1e-12


class BracketError(ArithmeticError):
    """Could not enclose a sign change while expanding the search bracket."""


@dataclass(frozen=True)
class ZeroResult:
    """Located zero with the residual |psi_q(x0)|, the number of q-digamma
    evaluations made, and the final bracket."""

    x0: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def digamma_zero(
    p: QParam,
    tol: float = DEFAULT_ZERO_TOL,
    trunc: Truncation | None = None,
    bisect_steps: int = 40,
    newton_steps: int = 10,
) -> ZeroResult:
    """Unique positive zero of the q-digamma.

    tol bounds the residual |psi_q(x0)|; the error in x0 itself is about
    tol / psi_q'(x0).  Raises NonConvergent if the residual still exceeds
    tol after the bisection and Newton budget.

    The zero is bracketed in [lo, hi] (from [1, 2], doubling outward), the
    bracket is bisected bisect_steps times, and the last midpoint polished
    by at most newton_steps damped Newton steps.  The result is that of
    evaluating every midpoint, bit for bit, but a midpoint m whose sign is
    not in doubt is not evaluated: _locate first finds [a, b] with computed
    psi(a) < 0 < psi(b), then m <= a - w becomes lo and m >= b + w becomes
    hi.  iterations counts the q-digamma evaluations made, each point once.
    They and the psi' evaluations are those of q_digamma and q_polygamma,
    bit for bit, and share one table of the series denominators 1 - q^k.

    Why the window w = 2E / s is safe.  psi is increasing and concave
    (psi'' < 0 in both regimes), so psi' >= psi'(hi) >= s on [lo, hi],
    where s is q_polygamma(p, hi, 1) less its err_bound and rounding
    allowance.  A computed psi(x) lies within err_bound(x) + allowance of
    the true one; the stop rule keeps err_bound(x) <= target(|psi(x)|), and
    |psi(x)| <= F = max(|psi(lo)|, |psi(hi)|) on the bracket, so
    E = target(F) + allowance(psi(lo), psi(hi)) bounds that error
    throughout (the second-order terms, E inside |psi(x)| and the rounding
    of a - w, sit inside the allowance's constant part unless rel_tol is
    near 1).  So for m <= a - w the computed psi(m) <= psi(a) + 2E - s w
    < 0, and for m >= b + w it is > 0: the branch its evaluation would
    take.  When s <= 0 nothing is skipped.  _locate only chooses a and b,
    so if it stops early fewer midpoints are skipped, never a wrong one.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    _check_count("bisect_steps", bisect_steps, 0)
    _check_count("newton_steps", newton_steps, 0)
    t = trunc or DEFAULT_TRUNCATION
    values: dict[float, float] = {}
    dens: list = []  # the shared denominators, filled by the first sums

    def f(x: float) -> float:
        if x not in values:
            values[x] = _psi_point(p, 0, x, t, dens).value
        return values[x]

    def slope(x: float) -> float:
        return _psi_point(p, 1, x, t, dens).value

    lo, hi = 1.0, 2.0
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(_BRACKET_EXPANSIONS):
        if f_lo < 0.0:
            break
        lo *= 0.5
        f_lo = f(lo)
    for _ in range(_BRACKET_EXPANSIONS):
        if f_hi > 0.0:
            break
        hi *= 2.0
        f_hi = f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(f"no sign change found for q={p.q} in ({lo:.3e}, {hi:.3e})")

    # locate no finer than the bisection resolves, and skip midpoints only
    # outside the window the error bounds certify (see above)
    width = math.ldexp(hi - lo, -bisect_steps)
    window = math.inf
    if width < hi - lo:
        d = _psi_point(p, 1, hi, t, dens)
        s = d.value - d.err_bound - _fp_allowance(d.value)
        if s > 0.0:
            err = t.target(max(-f_lo, f_hi)) + _fp_allowance(f_lo, f_hi)
            window = 2.0 * err / s
    a, b = lo, hi
    width = max(window, width)
    if width < hi - lo:
        a, b = _locate(f, slope, lo, hi, width)

    x, fx = 0.5 * (lo + hi), None
    for _ in range(bisect_steps):
        x = 0.5 * (lo + hi)
        if x <= a - window:
            lo, fx = x, None
            continue
        if x >= b + window:
            hi, fx = x, None
            continue
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
        step = fx / slope(x)
        candidate = x - step
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
    residual = abs(fx)
    if residual > tol:
        raise NonConvergent(
            f"digamma zero residual {residual:.3e} above tol {tol:.3e} for q={p.q}"
        )
    return ZeroResult(x, residual, len(values), (lo, hi))


def _locate(
    f: Callable[[float], float],
    slope: Callable[[float], float],
    lo: float,
    hi: float,
    width: float,
) -> tuple[float, float]:
    """A sub-bracket [a, b] of [lo, hi] with f(a) < 0 < f(b), narrowed by
    safeguarded Newton steps until b - a <= width or _LOCATE_STEPS run out.

    Once a step is at most width / 2, the iterate is as close to the zero
    as the values can place it, and the next point is width / 2 past it on
    the side whose end is still far, so the two ends close in from both
    sides.  A step that leaves (a, b) is replaced by the midpoint.
    """
    a, b = lo, hi
    x = 0.5 * (a + b)
    for _ in range(_LOCATE_STEPS):
        fx = f(x)
        if fx < 0.0:
            a = x
        elif fx > 0.0:
            b = x
        else:
            return x, x
        if b - a <= width:
            break
        d = slope(x)
        step = fx / d if d > 0.0 else math.inf
        x -= step
        if abs(step) <= 0.5 * width:
            x += 0.5 * width if b - x > x - a else -0.5 * width
        if not a < x < b:
            x = 0.5 * (a + b)
    return a, b


def q_euler_mascheroni(p: QParam, trunc: Truncation | None = None) -> float:
    """q-analogue of the Euler-Mascheroni constant for 0 < q < 1.

    Normalized so that psi_q(1) = ln(q)/(1-q) * gamma_q, which sends
    gamma_q to the classical constant as q -> 1-.
    """
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("q_euler_mascheroni takes 0 < q < 1")
    psi1 = q_digamma(p, 1.0, trunc).value
    return psi1 * (1.0 - p.q) / math.log(p.q)


def q_harmonic(p: QParam, n: int) -> float:
    """q-harmonic number H_{n,q} = sum_{j=1}^{n} q^j / (1 - q^j), 0 < q < 1.

    Finite sum, so the only error is rounding; satisfies
    psi_q(n+1) = psi_q(1) - ln(q) * H_{n,q}.
    """
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError("q_harmonic takes 0 < q < 1")
    _check_count("n", n, 0)
    lnq = math.log(p.q)
    return math.fsum(-math.exp(j * lnq) / math.expm1(j * lnq) for j in range(1, n + 1))
