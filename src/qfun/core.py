"""Evaluation core for the q-gamma / q-digamma family.

Every series here is truncated against an analytic tail majorant, never on
consecutive-term smallness, and each evaluator returns the majorant at the
stopping index alongside the value.  Sub-unit q (0 < q < 1) is the native
regime; super-unit q evaluates its own product/series forms so the classical
inversion identities remain genuine cross-checks rather than definitions.

This module holds the one-point evaluators and what they run on every
call.  The grid passes (qfun.rows) and the Euler-Maclaurin sums (qfun.em)
live apart, so a fresh interpreter that evaluates one point compiles
neither: qfun.em loads inside the first call that computes such a sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "NonConvergent",
    "UnsupportedOrder",
    "Regime",
    "QParam",
    "Truncation",
    "EvalResult",
    "ResidualCheck",
    "DEFAULT_TRUNCATION",
    "MAX_DERIV_ORDER",
    "NEAR_ONE_GUARD",
    "q_gamma",
    "ln_q_gamma",
    "q_digamma",
    "q_polygamma",
    "q_bracket",
    "gamma_inversion_residual",
    "digamma_inversion_residual",
]

NEAR_ONE_GUARD = 1e-4
MAX_DERIV_ORDER = 8

# exp() overflows just above this; q_gamma refuses to silently return inf
_LN_MAX = 709.0
# below this exponent exp() underflows to 0.0, which is an honest bound here
_LN_TINY = -745.0
# the Lambert sums hold x ln q at or above this (_x_ln): below it every
# term q^{kx} underflows to 0.0, and k x ln q stays finite for any k < 1e304
_XL_FLOOR = -1e4

_CHUNK_START = 64
_CHUNK_LIMIT = 65536
# no term array holds more than this many terms (64 KiB): a longer chunk is
# summed block by block.  Fresh 512 KiB arrays page-faulted on every chunk
# of the one-point sums, and 512 KiB grid blocks kept about 1.4 MB more
# resident over 1,500 certification sweeps and ran no faster
_BLOCK_TERMS = 8192
# psi^(k) leaves the Lambert series for the Euler-Maclaurin sum (_psi_em)
# only where the series provably cannot stop within this many terms, so
# every sum that it finishes within them keeps its bits: the last chunk
# end at or below 2^21, as the chunks of 64 to 65,536 terms end at
# 131,008, then 30 more of 65,536 follow
_EM_REACH = 131_008 + 30 * _CHUNK_LIMIT
# ln Gamma_q leaves the product series for _ln_gamma_em only where the
# series provably cannot stop within this many terms, the end of the
# 8,192-term chunk
_LOGPROD_SWITCH = 16_320


class DomainError(ValueError):
    """Argument outside the function's domain."""


class NonConvergent(ArithmeticError):
    """Term cap reached before the tail majorant met the truncation target."""


class UnsupportedOrder(ValueError):
    """Derivative order outside the supported range."""


def _check_count(name: str, n: int, lo: int) -> None:
    """Raise DomainError unless n is an int (not a bool) and n >= lo."""
    if not isinstance(n, int) or isinstance(n, bool) or n < lo:
        raise DomainError(f"{name} must be an int >= {lo}, got {n!r}")


class Regime(Enum):
    SUB_UNIT = "sub_unit"
    SUPER_UNIT = "super_unit"


@dataclass(frozen=True)
class QParam:
    """Deformation parameter with its regime guard.

    q must be a positive real other than 1.  Values with |q - 1| < 1e-4 are
    rejected by default because series term counts scale like 1/|ln q|
    there; pass allow_near_one=True to evaluate close to the classical
    limit.  No evaluator needs a raised term cap there: psi^(k) switches to
    an Euler-Maclaurin sum where the Lambert series would need more than
    2,097,088 terms (the last chunk end at or below 2^21), and ln Gamma_q
    and Gamma_q where the product series would need more than 16,320.
    """

    q: float
    allow_near_one: bool = False

    def __post_init__(self) -> None:
        q = self.q
        if not isinstance(q, (int, float)) or isinstance(q, bool) or not math.isfinite(q):
            raise DomainError(f"q must be a finite real, got {q!r}")
        if q <= 0.0:
            raise DomainError(f"q must be positive, got {q}")
        if q == 1.0:
            raise DomainError("q = 1 is the classical limit; it is not evaluable here")
        if abs(q - 1.0) < NEAR_ONE_GUARD and not self.allow_near_one:
            raise DomainError(
                f"|q - 1| = {abs(q - 1.0):.3e} is inside the near-one guard "
                f"({NEAR_ONE_GUARD:g}); pass allow_near_one=True to override"
            )
        object.__setattr__(self, "q", float(q))

    @property
    def regime(self) -> Regime:
        return Regime.SUB_UNIT if self.q < 1.0 else Regime.SUPER_UNIT

    def inverted(self) -> "QParam":
        """The parameter for 1/q; used by the super-unit derivative route."""
        return QParam(1.0 / self.q, allow_near_one=self.allow_near_one)


def _require_sub_unit(p: QParam, subject: str) -> None:
    """Raise DomainError unless 0 < q < 1, the one regime subject is stated for."""
    if p.regime is not Regime.SUB_UNIT:
        raise DomainError(f"{subject} is stated for 0 < q < 1, got q = {p.q!r}")


@dataclass(frozen=True)
class Truncation:
    """Stopping policy for the series engines.

    Summation stops once the tail majorant drops below
    max(rel_tol * |value assembled so far|, abs_tol).
    """

    rel_tol: float = 1e-13
    abs_tol: float = 1e-300
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not (0.0 <= self.abs_tol < math.inf):
            raise DomainError(f"abs_tol must be finite and >= 0, got {self.abs_tol}")
        _check_count("max_terms", self.max_terms, 1)

    def target(self, value_estimate: float) -> float:
        return max(self.rel_tol * abs(value_estimate), self.abs_tol)


DEFAULT_TRUNCATION = Truncation()


@dataclass(frozen=True)
class EvalResult:
    """A value, the tail majorant at the stopping index, and the term count.

    err_bound covers truncation only; floating-point rounding rides on top
    and is accounted for separately by the identity-residual checks.
    """

    value: float
    err_bound: float
    terms: int


@dataclass(frozen=True)
class ResidualCheck:
    """An identity residual next to its error budget.

    The budget combines the truncation bounds of each side with a small
    floating-point allowance proportional to the operand magnitudes.
    """

    residual: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget


def _check_real(name: str, v: float) -> float:
    """v as a float; DomainError unless it is an int (not a bool) or a float,
    finite, and in the double range."""
    # a range check, not math.isfinite, so an int too large for a float
    # fails here rather than raising OverflowError
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        try:
            shown = repr(v)
        except ValueError:  # an int with too many digits to print
            shown = f"{'a negative' if v < 0 else 'an'} int of {v.bit_length()} bits"
        raise DomainError(f"{name} must be a finite real, got {shown}")
    return float(v)


def _check_x(x: float) -> float:
    v = _check_real("x", x)
    if v <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return v


def _fp_allowance(*magnitudes: float) -> float:
    return 1e-13 * (1.0 + math.fsum(abs(m) for m in magnitudes))


def _x_ln(x, lnp: float):
    """x ln p of the Lambert terms p^{kx} = e^{k x ln p}, 0 < p < 1, for a
    float x or a float array, with x held at or below _XL_FLOOR / ln p.
    Past that point every term and tail majorant is 0.0, held or not, so
    every value keeps its bits, and no k x ln p overflows."""
    cap = _XL_FLOOR / lnp
    return (np.minimum(x, cap) if type(x) is np.ndarray else min(x, cap)) * lnp


def _tail_factors(n: int, last_k: int) -> tuple[float, float]:
    """The factors of the order-n tail majorant after term last_k that
    depend on n and last_k alone: ((last_k + 2) / (last_k + 1))^n and
    n ln(last_k + 1)."""
    return ((last_k + 2) / (last_k + 1)) ** n, n * math.log(last_k + 1)


def _lambert_tail(lnp: float, base: float, x: float, n: int, last_k: int) -> float:
    """Majorant for sum_{k > last_k} k^n p^{kx} / (1 - p^k), 0 < p < 1,
    with ln p = lnp and p = base.

    Uses 1 - p^k >= 1 - p and the term-ratio envelope
    ((k+1)/k)^n p^x <= rho, evaluated at k = last_k + 1.
    rows._lambert_tails is this majorant over rows, with the same float
    operations per row: the two change together.
    """
    grow, log_k = _tail_factors(n, last_k)
    log_r = _x_ln(x, lnp)
    rho = grow * math.exp(log_r)
    if rho >= 1.0:
        return math.inf
    log_first = log_k + (last_k + 1) * log_r
    return 0.0 if log_first < _LN_TINY else math.exp(log_first) / ((1.0 - base) * (1.0 - rho))


def _lambert_block(lnp: float, x: float, n: int) -> Callable[..., float]:
    """The block function of the sum of k^n p^{kx} / (1 - p^k) over k >= 1,
    0 < p < 1, ln p = lnp, for _chunk_sum.  Every ufunc works in place.
    Dividing by p^k - 1 and negating the block sum gives the bits of
    dividing by 1 - p^k, since rounding is symmetric in sign, and saves a
    pass."""
    xl = _x_ln(x, lnp)

    def block(k: np.ndarray, num: np.ndarray, den: np.ndarray) -> float:
        np.multiply(k, xl, out=num)
        np.exp(num, out=num)
        if n:
            num *= np.power(k, n, out=den)
        np.multiply(k, lnp, out=den)
        num /= np.expm1(den, out=den)
        return -float(np.add.reduce(num))

    return block


def _chunk_sum(
    block: Callable[[np.ndarray, np.ndarray, np.ndarray], float],
    tail: Callable[[int], float],
    t: Truncation,
    target: Callable[[float], float],
    where: str,
) -> tuple[float, float, int]:
    """The chunk loop of a one-point series sum over k >= 1; returns
    (partial, tail, terms).

    Chunks of 64 terms, doubling to _CHUNK_LIMIT, are summed in blocks of
    at most _BLOCK_TERMS.  block(k, u, v) sums the terms at the indices k,
    with work arrays u and v; blocks of one length reuse all three.  The
    partial is math.fsum of the block sums, and the sum stops at the first
    chunk end k1 with tail(k1) <= target(partial), where tail(k1) bounds
    the terms after k1 times the caller's scale.  A tail infinite after the
    cap is so at every chunk end, since it falls as k grows: then the
    NonConvergent, which names where, is raised at once.
    """
    sums: list[float] = []
    k = u = v = None
    k0, size = 1, _CHUNK_START
    stops = tail(t.max_terms) < math.inf
    while stops and k0 <= t.max_terms:
        k1 = min(k0 + size - 1, t.max_terms)
        for b0 in range(k0, k1 + 1, _BLOCK_TERMS):
            m = min(_BLOCK_TERMS, k1 + 1 - b0)
            if k is not None and k.size == m:
                k += m  # the last block ended at b0 - 1
            else:
                k = np.arange(b0, b0 + m, dtype=np.float64)
                u, v = np.empty(m), np.empty(m)
            sums.append(block(k, u, v))
        partial = math.fsum(sums)
        bound = tail(k1)
        if bound <= target(partial):
            return partial, bound, k1
        k0 = k1 + 1
        size = min(size * 2, _CHUNK_LIMIT)
    raise NonConvergent(f"term cap {t.max_terms} reached before the tail target ({where})")


def _em_past_switch(
    tail: float,
    target: Callable[[float], float],
    head: float,
    e: float,
    em_of: Callable[[], EvalResult],
) -> EvalResult | None:
    """em_of()'s Euler-Maclaurin result where it proves that a series sum
    cannot stop within its switch, else None.

    tail is the scaled tail majorant at the last chunk end within the
    switch, as the series' stop test takes it; the majorant falls as the
    chunk end grows.  Every term has one sign, so the assembled value runs
    monotonically from head to value - e, and the Euler-Maclaurin value
    plus its bound, and 1e-9 of that for rounding, caps the stop target at
    every chunk end.  Where tail is above the target at that cap, no chunk
    end within the switch stops the sum.  Every cap is at least |head|, so
    where tail meets the target there, em_of() is not computed; where
    em_of() raises NonConvergent, the series runs.
    """
    if tail <= target(abs(head) * (1.0 + 1e-9)):
        return None
    try:
        em = em_of()
    except NonConvergent:
        return None
    cap = (max(abs(head), abs(em.value - e)) + em.err_bound) * (1.0 + 1e-9)
    return em if tail > target(cap) else None


def _logprod_tail(lnp: float, base: float, x: float, next_j: int) -> float:
    """Majorant for sum_{j >= next_j} |ln(1-p^{j+1}) - ln(1-p^{j+x})|, with
    ln p = lnp and p = base.

    With m = min(1, x): |p^x - p| <= p^m and 1 - p^{j+x} >= 1 - p^m give the
    per-term bound D_j = p^{j+m}/(1-p^m); |ln(1+d)| <= 2|d| once D_j <= 1/2.
    rows._logprod_tails is this majorant over rows, with the same float
    operations per row: the two change together.
    """
    m = min(1.0, x)
    one_minus_pm = -math.expm1(m * lnp)
    log_d = (next_j + m) * lnp - math.log(one_minus_pm)
    if log_d > math.log(0.5):
        return math.inf
    if log_d < _LN_TINY:
        return 0.0
    return 2.0 * math.exp(log_d) / (1.0 - base)


def _logprod_block(lnp: float, x: float) -> Callable[..., float]:
    """The block function of the sum of ln(1-p^{j+1}) - ln(1-p^{j+x}) over
    j >= 0, 0 < p < 1, ln p = lnp, for _chunk_sum, with j = k - 1, exact.
    Every ufunc works in place."""

    def block(k: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
        np.multiply(k, lnp, out=a)  # (j + 1) ln p
        np.subtract(k, 1.0, out=b)
        b += x
        b *= lnp
        for u in (a, b):
            np.expm1(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
        a -= b
        return float(np.add.reduce(a))

    return block


def _ln_gamma_parts(p: QParam, x: float, fn: str = "ln_q_gamma") -> tuple[float, float, float]:
    """(closed-form prefactor, ln p, p) for ln Gamma_q, with p the base of
    the product series: q for q < 1, and 1/q for q > 1 with ln p = -ln q
    taken from q, not from the rounded 1/q (only a tail's 1 - p reads p).
    Raises DomainError where x |ln q| is below the normal range: there
    x ln q rounds to 0 or to a subnormal of few significant bits.  Raises
    OverflowError, naming the evaluator fn, where the prefactor is not
    finite: it is the one part that can leave the double range, since the
    product series stays below 2 / |ln q| + 710 in size."""
    q = p.q
    lnq = math.log(q)
    if x * abs(lnq) < sys.float_info.min:
        raise DomainError(f"x = {x!r} is too small for ln Gamma_q: x |ln q| is not normal")
    if p.regime is Regime.SUB_UNIT:
        pre, lnp, base = (1.0 - x) * math.log1p(-q), lnq, q
    else:
        pre = (1.0 - x) * math.log(q - 1.0) + 0.5 * x * (x - 1.0) * lnq
        lnp, base = -lnq, 1.0 / q
    if not math.isfinite(pre):
        raise OverflowError(f"{fn} overflows the double range at x = {x!r}")
    return pre, lnp, base


def ln_q_gamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """Natural log of the q-gamma function at x > 0.

    Sub-unit q sums the log of the defining product directly.  Super-unit q
    sums its own product form, which carries the explicit q^{x(x-1)/2}
    prefactor; the two regimes share no closed-form shortcut, so the
    inversion residual stays a meaningful consistency check.  Where the
    product series provably cannot stop within 16,320 terms, an
    Euler-Maclaurin sum takes its place, as in q_digamma.  Raises
    OverflowError, before any sum, when the value is not finite, as at
    q = 2 past x = 1.9e154, where that prefactor leaves the double range.
    """
    t = trunc or DEFAULT_TRUNCATION
    return _ln_gamma_point(p, _check_x(x), t, t.target, "ln_q_gamma")


def _ln_gamma_point(
    p: QParam, x: float, t: Truncation, target: Callable[[float], float], fn: str
) -> EvalResult:
    """ln Gamma_q at one checked x, stopping where the tail meets
    target(value): by _ln_gamma_em where _ln_gamma_em_instead says so, else
    by the product series, summed by _chunk_sum.  fn names the evaluator
    in its OverflowError (see _ln_gamma_parts)."""
    pre, lnp, base = parts = _ln_gamma_parts(p, x, fn)
    em = _ln_gamma_em_instead(p, x, parts, t, target)
    if em is not None:
        return em
    s, tail, terms = _chunk_sum(
        _logprod_block(lnp, x), lambda k: _logprod_tail(lnp, base, x, k), t,
        lambda s: target(pre + s), f"q={p.q}, x={x}",
    )
    return EvalResult(pre + s, tail, terms)


def _ln_gamma_em_instead(
    p: QParam,
    x: float,
    parts: tuple[float, float, float],
    t: Truncation,
    target: Callable[[float], float],
) -> EvalResult | None:
    """_ln_gamma_em's ln Gamma_q(x) where the product series provably
    cannot stop within _LOGPROD_SWITCH terms at target, else None (see
    _em_past_switch): parts is _ln_gamma_parts(p, x), and target is
    ln_q_gamma's t.target or q_gamma's log-scale one.  Every product term
    has the sign of 1 - x, so the assembled value runs from pre to the
    value."""
    pre, lnp, base = parts

    def em_of() -> EvalResult:
        from .em import _ln_gamma_em  # on the first Euler-Maclaurin sum

        return _ln_gamma_em(p, x, pre, t, target)

    return _em_past_switch(_logprod_tail(lnp, base, x, _LOGPROD_SWITCH), target, pre, 0.0, em_of)


def q_gamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """q-gamma function at x > 0.

    Evaluated as exp of the log form with an absolute truncation target on
    the log scale, so err_bound stays relative on the gamma scale; at that
    target, the log form chooses its sum as ln_q_gamma does.  Raises
    OverflowError when the value exceeds the double range.
    """
    t = trunc or DEFAULT_TRUNCATION
    log_target = max(0.5 * t.rel_tol, t.abs_tol)
    r = _ln_gamma_point(p, _check_x(x), t, lambda value: log_target, "q_gamma")
    ln_value, tail, terms = r.value, r.err_bound, r.terms
    if ln_value > _LN_MAX:
        raise OverflowError(f"q_gamma overflows the double range: ln value = {ln_value:.6g}")
    value = math.exp(ln_value)
    err = value * math.expm1(tail) if tail < 1.0 else math.inf
    return EvalResult(value, err, terms)


def q_digamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """q-digamma (logarithmic derivative of the q-gamma) at x > 0.

    Sub-unit q: -ln(1-q) + ln q * sum_{k>=1} q^{kx}/(1-q^k), tail bounded by
    |ln q| q^{(K+1)x} / ((1-q)(1-q^x)).  Super-unit q uses the mirrored
    series -ln(q-1) + ln q [x - 1/2 - sum_{k>=1} q^{-kx}/(1-q^{-k})].
    Where that series provably cannot stop within _EM_REACH terms (near q = 1,
    or at tiny x), a shift plus Euler-Maclaurin sum takes its place, with
    its certified remainder as err_bound.
    """
    return _psi_point(p, 0, _check_x(x), trunc or DEFAULT_TRUNCATION)


def q_polygamma(p: QParam, x: float, n: int, trunc: Truncation | None = None) -> EvalResult:
    """n-th derivative of the q-digamma at x > 0, for 1 <= n <= 8.

    Sub-unit q: (ln q)^{n+1} sum_{k>=1} k^n q^{kx}/(1-q^k), the term-by-term
    derivative of the digamma series.  The sum runs over all k; a finite
    upper limit tied to n (which sometimes appears in print) is not the
    derivative and would break the sign pattern (-1)^{n+1}.  Super-unit q
    transfers derivatives from 1/q; only n = 1 picks up the extra ln q from
    the linear term relating the two regimes.  The Euler-Maclaurin sum
    replaces the series where q_digamma's does.
    """
    x = _check_x(x)
    if not isinstance(n, int) or isinstance(n, bool):
        raise UnsupportedOrder(f"derivative order must be an int, got {n!r}")
    if not 1 <= n <= MAX_DERIV_ORDER:
        raise UnsupportedOrder(f"derivative order {n} outside 1..{MAX_DERIV_ORDER}")
    return _psi_point(p, n, x, trunc or DEFAULT_TRUNCATION)


def _check_psi_order(k: int) -> None:
    """Raise UnsupportedOrder unless k is an int (not a bool) in 0..8."""
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= MAX_DERIV_ORDER:
        raise UnsupportedOrder(f"psi order must be an int in 0..{MAX_DERIV_ORDER}, got {k!r}")


def _psi_parts(p: QParam, top: int) -> tuple[float, float, list[float], float]:
    """(ln p, p, scale_of, head) of psi^(k) up to order top: psi^(k) is
    scale_of[k] = (ln p)^{k+1} times the Lambert sum at base p, plus head
    for k = 0, which at q > 1 also takes ln q (x - 1/2).  p is q for q < 1;
    q > 1 transfers the series from p = 1/q with ln p = -ln q taken from q,
    not from the rounded 1/q (only a tail's 1 - p reads p)."""
    q = p.q
    if p.regime is Regime.SUB_UNIT:
        lnp, base, head = math.log(q), q, -math.log1p(-q)
    else:
        lnp, base, head = -math.log(q), 1.0 / q, -math.log(q - 1.0)
    return lnp, base, [lnp ** (k + 1) for k in range(top + 1)], head


def _psi_offsets(p: QParam, k: int, x: float, head: float) -> tuple[float, float]:
    """(h, e) with psi^(k)(x) = h + e + the series part: h is head at k = 0,
    with ln q (x - 1/2) at q > 1, and the offset that the Lambert stop
    target is taken at; e is the ln q that only k = 1 at q > 1 picks up from
    the linear term relating the regimes.  Raises q_digamma's OverflowError
    where h leaves the double range, at q > 1 past x = 1.8e308 / ln q."""
    if p.regime is Regime.SUB_UNIT:
        return (0.0 if k else head), 0.0
    lnq = math.log(p.q)
    h = 0.0 if k else head + lnq * (x - 0.5)
    if h == math.inf:
        raise OverflowError(f"q_digamma overflows the double range at x = {x!r}")
    return h, (lnq if k == 1 else 0.0)


def _psi_point(p: QParam, k: int, x: float, t: Truncation) -> EvalResult:
    """psi^(k)(x) at one checked order k and point x: by _psi_em where the
    Lambert sum provably cannot stop within _EM_REACH terms, else by
    _psi_lambert."""
    em = _em_instead(p, k, x, t)
    return em if em is not None else _psi_lambert(p, k, x, t)


def _psi_lambert(p: QParam, k: int, x: float, t: Truncation) -> EvalResult:
    """psi^(k)(x) by the Lambert series, summed by _chunk_sum, and float
    arithmetic, without the per-call cost of the row arrays.  The stop test
    takes the scale into the tail and the head into the target."""
    lnp, base, scale_of, head = _psi_parts(p, k)
    h, e = _psi_offsets(p, k, x, head)
    scale = scale_of[k]
    s, err, terms = _chunk_sum(
        _lambert_block(lnp, x, k), lambda k1: abs(scale) * _lambert_tail(lnp, base, x, k, k1), t,
        lambda partial: t.target(h + scale * partial), f"q={p.q}, x={x}, order={k}",
    )
    value = h + scale * s if k == 0 else scale * s
    if e:
        value += e
    return EvalResult(value, err, terms)


def _em_instead(p: QParam, k: int, x: float, t: Truncation) -> EvalResult | None:
    """_psi_em's psi^(k)(x) where the Lambert sum provably cannot stop
    within _EM_REACH terms, else None (see _em_past_switch).  The tail is
    the Lambert stop test's at that chunk end, and the assembled value
    runs from h to the value less e (see _psi_offsets)."""
    lnp, base, scale_of, head = _psi_parts(p, k)
    h, e = _psi_offsets(p, k, x, head)
    tail = abs(scale_of[k]) * _lambert_tail(lnp, base, x, k, _EM_REACH)

    def em_of() -> EvalResult:
        from .em import _psi_em  # on the first Euler-Maclaurin sum

        return _psi_em(p, k, x, t)

    return _em_past_switch(tail, t.target, h, e, em_of)


def q_bracket(p: QParam, x: float) -> float:
    """q-bracket [x]_q = (1-q^x)/(1-q), the ratio Gamma_q(x+1)/Gamma_q(x).
    Raises OverflowError where the value leaves the double range."""
    x = _check_x(x)
    lnq = math.log(p.q)
    try:
        value = math.expm1(x * lnq) / math.expm1(lnq)
    except OverflowError:  # q^x itself leaves the range
        value = math.inf
    if value == math.inf:
        raise OverflowError(f"q_bracket overflows the double range at x = {x!r}")
    return value


def gamma_inversion_residual(
    p: QParam, x: float, trunc: Truncation | None = None
) -> ResidualCheck:
    """|ln Gamma_q(x) - (x-1)(x-2)/2 * ln q - ln Gamma_{1/q}(x)| for q > 1.

    Both sides come from their own product series, so the residual measures
    consistency of the two regime implementations.
    """
    if p.regime is not Regime.SUPER_UNIT:
        raise DomainError("the inversion residual takes q > 1")
    x = _check_x(x)
    lhs = ln_q_gamma(p, x, trunc)
    rhs = ln_q_gamma(p.inverted(), x, trunc)
    shift = 0.5 * (x - 1.0) * (x - 2.0) * math.log(p.q)
    residual = abs(lhs.value - shift - rhs.value)
    budget = lhs.err_bound + rhs.err_bound + _fp_allowance(lhs.value, rhs.value, shift)
    return ResidualCheck(residual, budget)


def digamma_inversion_residual(
    p: QParam, x: float, trunc: Truncation | None = None
) -> ResidualCheck:
    """|psi_q(x) - (2x-3)/2 * ln q - psi_{1/q}(x)| for q > 1, each side by
    its own series."""
    if p.regime is not Regime.SUPER_UNIT:
        raise DomainError("the inversion residual takes q > 1")
    x = _check_x(x)
    lhs = q_digamma(p, x, trunc)
    rhs = q_digamma(p.inverted(), x, trunc)
    shift = 0.5 * (2.0 * x - 3.0) * math.log(p.q)
    residual = abs(lhs.value - shift - rhs.value)
    budget = lhs.err_bound + rhs.err_bound + _fp_allowance(lhs.value, rhs.value, shift)
    return ResidualCheck(residual, budget)
