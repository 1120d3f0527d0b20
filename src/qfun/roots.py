"""Zero location for the q-digamma, plus the q-harmonic constants tied to it.

The q-digamma is strictly increasing on (0, inf) in both regimes, tends to
-inf at 0+ and to a positive limit (or +inf) at infinity, so it has exactly
one positive zero.  The locator brackets that zero, bisects to safety, then
polishes with damped Newton steps that never leave the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TRUNCATION,
    DomainError,
    NonConvergent,
    QParam,
    Regime,
    Truncation,
    q_digamma,
    q_polygamma,
)

__all__ = ["BracketError", "ZeroResult", "digamma_zero", "q_euler_mascheroni", "q_harmonic"]

_BRACKET_EXPANSIONS = 60

# digamma_zero's default bound on the residual |psi_q(x0)|
DEFAULT_ZERO_TOL = 1e-12


class BracketError(ArithmeticError):
    """Could not enclose a sign change while expanding the search bracket."""


@dataclass(frozen=True)
class ZeroResult:
    """Located zero with the residual |psi_q(x0)| and the final bracket."""

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
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    t = trunc or DEFAULT_TRUNCATION

    def f(x: float) -> float:
        return q_digamma(p, x, t).value

    lo, hi = 1.0, 2.0
    f_lo, f_hi = f(lo), f(hi)
    evals = 2
    for _ in range(_BRACKET_EXPANSIONS):
        if f_lo < 0.0:
            break
        lo *= 0.5
        f_lo = f(lo)
        evals += 1
    for _ in range(_BRACKET_EXPANSIONS):
        if f_hi > 0.0:
            break
        hi *= 2.0
        f_hi = f(hi)
        evals += 1
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(f"no sign change found for q={p.q} in ({lo:.3e}, {hi:.3e})")

    x, fx = 0.5 * (lo + hi), None
    for _ in range(bisect_steps):
        x = 0.5 * (lo + hi)
        fx = f(x)
        evals += 1
        if fx == 0.0:
            lo = hi = x
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x

    if fx is None:
        fx = f(x)
        evals += 1
    for _ in range(newton_steps):
        if abs(fx) <= tol:
            break
        slope = q_polygamma(p, x, 1, t).value
        step = fx / slope
        candidate = x - step
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        x = candidate
        fx = f(x)
        evals += 1
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
    return ZeroResult(x, residual, evals, (lo, hi))


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
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a non-negative int, got {n!r}")
    lnq = math.log(p.q)
    return math.fsum(-math.exp(j * lnq) / math.expm1(j * lnq) for j in range(1, n + 1))
