"""Zero location for the q-digamma, plus the q-harmonic constants tied to it.

The q-digamma is strictly increasing and concave on (0, inf) in both
regimes, tends to -inf at 0+ and to a positive limit (or +inf) at infinity,
so it has exactly one positive zero.  The locator brackets that zero and
bisects a fixed number of steps, then polishes with damped Newton steps that
never leave the bracket.  A safeguarded Newton search finds the zero first,
so the bisection evaluates only the midpoints near it: every other midpoint
takes the branch its evaluation would have taken, and the result is the
plain bisection's, bit for bit.  Near q = 1, where each Lambert sum takes
thousands to millions of terms, the bracket's signs and the search come
from the Euler-Maclaurin sum instead, and the Lambert series runs only at
the midpoints near the zero and in the Newton polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalResult,
    NonConvergent,
    QParam,
    Truncation,
    _check_count,
    _fp_allowance,
    _psi_point,
    _require_sub_unit,
    q_digamma,
)
from .em import _psi_em

__all__ = ["BracketError", "ZeroResult", "digamma_zero", "q_euler_mascheroni", "q_harmonic"]

_BRACKET_EXPANSIONS = 60
# Newton steps the locate search may take; from the bracket midpoint it
# needs about six, and running out only makes the bisection evaluate more
_LOCATE_STEPS = 10
# zero solves take their signs from _psi_em where a Lambert sum at
# x = 1 takes more than about this many terms (_em_guided).  Measured on a
# shared 2-vCPU VM at x = 1.46: _psi_em gives psi or psi' in 31-40 us at
# any q, a Lambert sum takes 25-33 us up to 192 terms, 42-52 us at 448
# and 56-67 us at 960.  A guided solve makes about 14 _psi_em and 2
# Lambert sums where another makes about 14 Lambert sums; whole solves
# break even near 300-400 terms (|ln q| = 0.08-0.1, 0.5-0.7 ms either way)
# and at 600 terms take 0.69 ms guided against 0.74-0.82 ms
_GUIDE_TERMS = 400

# digamma_zero's default bound on the residual |psi_q(x0)|
DEFAULT_ZERO_TOL = 1e-12


class BracketError(ArithmeticError):
    """Could not enclose a sign change while expanding the search bracket."""


@dataclass(frozen=True)
class ZeroResult:
    """Located zero with the residual |psi_q(x0)|, the number of Lambert
    q-digamma evaluations made, and the final bracket."""

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
    not in doubt is not evaluated: _locate first finds [a, b] around the
    zero, then m <= a - w becomes lo and m >= b + w becomes hi.
    iterations counts the Lambert q-digamma evaluations made, each point
    once.  They and the Lambert psi' evaluations of the Newton polish are
    those of q_digamma and q_polygamma, bit for bit.

    The error bound E.  A computed Lambert psi(y) on [lo, hi] lies within
    E = target(F) + allowance(psi(lo), psi(hi)) of the true psi(y)
    (_lambert_error): the stop rule keeps err_bound(y) <= target(|psi(y)|),
    and |psi(y)| <= F = max(|psi(lo)|, |psi(hi)|) on the bracket; the
    allowance covers the rounding inside a sum, which at q > 1 runs at
    ln p = -ln q taken from q (core._psi_parts).  The second-order terms,
    E inside |psi(y)| and the rounding of a - w, sit inside the
    allowance's constant part unless rel_tol is near 1.

    Where the Lambert sums are long (_em_guided: near q = 1), the signs
    that choose the bracket and the locate's iterates and slopes come from
    _psi_em instead, and the Lambert series runs only at the points
    that the plain loop evaluates near the zero.  An Euler-Maclaurin value
    v with bound e stands in for the Lambert sign at a bracket end only
    where |v| > e + E: the Lambert value lies within E of psi and psi
    within e of v (the allowance covers the rounding of both sums).  Where
    it does not, the end takes its Lambert value.  No Lambert sum is taken
    at a point near the zero that is not a midpoint: where a computed value
    is exactly 0.0, the stop target falls to abs_tol, and at q = 1 - 1e-4,
    x = 1.4616301623549381 the sum takes 4,849,600 terms (44 ms) against
    458k-524k at the neighbouring midpoints.

    Why the skipped midpoints are safe.  psi is increasing and concave
    (psi'' < 0 in both regimes), so psi' falls, and a lower bound s on
    psi'(c) bounds psi' from below on (0, c].  _locate ends with a <= b,
    and the signs it found there bound the true psi: psi(a) <= R and
    psi(b) >= -R, with R = 0 when guided (|v| > e + allowance(v) gives the
    true sign) and R = E otherwise (a computed sign, or a computed 0.0
    where a = b); an end still at lo or hi skips no midpoint.  Take
    w = (E + R) / s, with s taken at a point c >= b + w: _locate takes the
    slope point nearest past b + w, else hi.  As s is strictly below psi',
    every m <= a - w has psi(m) < psi(a) - s w <= -E, so its computed
    psi(m) < 0, and every m >= b + w has computed psi(m) > 0: the branch
    its evaluation would take.  When s <= 0 nothing is skipped.  _locate
    only chooses a and b, so if it stops early fewer midpoints are skipped,
    never a wrong one.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    _check_count("bisect_steps", bisect_steps, 0)
    _check_count("newton_steps", newton_steps, 0)
    t = trunc or DEFAULT_TRUNCATION
    values: dict[float, float] = {}

    def f(x: float) -> float:
        if x not in values:
            values[x] = _psi_point(p, 0, x, t).value
        return values[x]

    def slope(x: float) -> EvalResult:
        return _psi_point(p, 1, x, t)

    # the evaluator choice.  ends gives a bracket end's value, with the
    # Lambert sign; probe and probe_slope feed _locate, whose signs bound
    # the true psi to within R = E, or R = 0 when guided, so the window is
    # (E + R) / s = factor E / s
    ends, probe, probe_slope, factor = f, f, slope, 2.0
    if _em_guided(p, t):

        def em(k: int, x: float) -> EvalResult | None:
            try:
                return _psi_em(p, k, x, t)
            except NonConvergent:
                return None

        def ends(x: float) -> float:
            r = em(0, x)
            if r is not None and abs(r.value) > r.err_bound + _lambert_error(t, r.value):
                return r.value
            return f(x)

        def probe(x: float) -> float | None:
            r = em(0, x)
            if r is None or abs(r.value) <= r.err_bound + _fp_allowance(r.value):
                return None
            return r.value

        def probe_slope(x: float) -> EvalResult | None:
            return em(1, x)

        factor = 1.0

    lo, hi = 1.0, 2.0
    f_lo, f_hi = ends(lo), ends(hi)
    for _ in range(_BRACKET_EXPANSIONS):
        if f_lo < 0.0:
            break
        lo *= 0.5
        f_lo = ends(lo)
    for _ in range(_BRACKET_EXPANSIONS):
        if f_hi > 0.0:
            break
        hi *= 2.0
        f_hi = ends(hi)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(f"no sign change found for q={p.q} in ({lo:.3e}, {hi:.3e})")

    # locate no finer than the bisection resolves, and skip midpoints only
    # outside the window the error bounds certify (see above)
    a, b, window = lo, hi, math.inf
    width = math.ldexp(hi - lo, -bisect_steps)
    if width < hi - lo:
        margin = factor * _lambert_error(t, f_lo, f_hi)
        a, b, window = _locate(probe, probe_slope, lo, hi, width, margin)

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
        step = fx / slope(x).value
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


def _em_guided(p: QParam, t: Truncation) -> bool:
    """Whether a zero solve at p and t takes its signs from _psi_em:
    where -ln(t.target(1)) / |ln q|, about the terms of a Lambert sum at
    x = 1, exceeds _GUIDE_TERMS."""
    return -math.log(t.target(1.0)) > _GUIDE_TERMS * abs(math.log(p.q))


def _lambert_error(t: Truncation, *values: float) -> float:
    """E: a bound on |computed - true| for the Lambert q-digamma on a
    bracket whose ends have the values given (see digamma_zero): the stop
    target at their largest magnitude, and the rounding allowance."""
    return t.target(max(abs(v) for v in values)) + _fp_allowance(*values)


def _locate(
    f: Callable[[float], float | None],
    slope: Callable[[float], EvalResult | None],
    lo: float,
    hi: float,
    width: float,
    margin: float,
) -> tuple[float, float, float]:
    """(a, b, w): a sub-bracket [a, b] of [lo, hi] with f(a) < 0 < f(b)
    (a = b where f is 0.0), narrowed by safeguarded Newton steps until
    b - a <= max(width, w) or _LOCATE_STEPS run out, and the window
    w = margin / s.

    f(x) is None where its sign is not certain.  s is the lower bound
    value - err_bound - allowance on psi' at the point c nearest past
    b + w where slope was taken (slope may give None), else at hi; w is
    inf where that bound is <= 0.  Once a step is at most half the width,
    or f(x) is None, the iterate is as close to the zero as the values can
    place it, and the next point is half the width past it on the side
    whose end is still far, so the two ends close in from both sides.  A
    step that leaves (a, b) is replaced by the midpoint.
    """
    bounds: dict[float, float] = {}  # a lower bound on psi' where slope was taken

    def take(x: float) -> float:
        d = slope(x)
        if d is None:
            return 0.0
        bounds[x] = d.value - d.err_bound - _fp_allowance(d.value)
        return d.value

    def window() -> float:
        """margin / s at the slope point c nearest past b + that, else 0.0."""
        for c in sorted(c for c in bounds if c > b):
            s = bounds[c]
            if s > 0.0 and c >= b + margin / s:
                return margin / s
        return 0.0

    a, b = lo, hi
    x = 0.5 * (a + b)
    for _ in range(_LOCATE_STEPS):
        fx = f(x)
        if fx is not None:
            if fx < 0.0:
                a = x
            elif fx > 0.0:
                b = x
            else:
                a = b = x
        near = max(width, window())
        if b - a <= near:
            break
        step = 0.0
        if fx is not None:
            d = take(x)
            step = fx / d if d > 0.0 else math.inf
        x -= step
        if abs(step) <= 0.5 * near:
            x += 0.5 * near if b - x > x - a else -0.5 * near
        if not a < x < b:
            x = 0.5 * (a + b)
    w = window()
    if not w:  # psi'(hi) bounds psi' on the whole bracket
        take(hi)
        s = bounds.get(hi, 0.0)
        w = margin / s if s > 0.0 else math.inf
    return a, b, w


def q_euler_mascheroni(p: QParam, trunc: Truncation | None = None) -> float:
    """q-analogue of the Euler-Mascheroni constant for 0 < q < 1.

    Normalized so that psi_q(1) = ln(q)/(1-q) * gamma_q, which sends
    gamma_q to the classical constant as q -> 1-.
    """
    _require_sub_unit(p, "q_euler_mascheroni")
    psi1 = q_digamma(p, 1.0, trunc).value
    return psi1 * (1.0 - p.q) / math.log(p.q)


def q_harmonic(p: QParam, n: int) -> float:
    """q-harmonic number H_{n,q} = sum_{j=1}^{n} q^j / (1 - q^j), 0 < q < 1.

    Finite sum, so the only error is rounding; satisfies
    psi_q(n+1) = psi_q(1) - ln(q) * H_{n,q}.
    """
    _require_sub_unit(p, "q_harmonic")
    _check_count("n", n, 0)
    lnq = math.log(p.q)
    return math.fsum(-math.exp(j * lnq) / math.expm1(j * lnq) for j in range(1, n + 1))
