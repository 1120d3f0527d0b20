"""Evaluation core for the q-gamma / q-digamma family.

Every series here is truncated against an analytic tail majorant, never on
consecutive-term smallness, and each evaluator returns the majorant at the
stopping index alongside the value.  Sub-unit q (0 < q < 1) is the native
regime; super-unit q evaluates its own product/series forms so the classical
inversion identities remain genuine cross-checks rather than definitions.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

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
    "q_psi_grid",
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
# the Euler-Maclaurin sums take their first terms directly (_em_shift), up
# to y0 = x + M >= _EM_SHIFT when |ln q| <= 0.5, where Euler-Maclaurin at
# y0 gains a factor of about (k + 2N)^2 / (2 pi y0)^2 per correction order
# N; for |ln q| > 0.5 the direct part runs until p^M < e^-46.  At most
# _EM_ORDERS orders are taken
_EM_SHIFT = 20
_EM_ORDERS = 20


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


def _check_x(x: float) -> float:
    # a range check, not math.isfinite, so an int too large for a float
    # fails here rather than raising OverflowError
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= sys.float_info.max:
        raise DomainError(f"x must be a finite real, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return float(x)


def _fp_allowance(*magnitudes: float) -> float:
    return 1e-13 * (1.0 + math.fsum(abs(m) for m in magnitudes))


def _base_rounding(p: QParam, x: float) -> float:
    """A bound on the error that rounding the base 1/q adds to the Lambert
    q-digamma at every y >= x, for q > 1; 0.0 for q < 1, whose base is q.

    The head takes lam = ln q from q, but the series part -lam S(lam') sums
    at the rounded base b, with S(l) = sum_{k>=1} e^{-kyl} / (1 - e^{-kl})
    and lam' - lam = -ln(bq), so |lam' - lam| is |bq - 1| (at most half an
    ulp) to first order.  The error is then lam |S'(lam)| |bq - 1| (the next
    order is |bq - 1| / lam times smaller).  With r = e^{-y lam}, the bounds
    k / (1 - e^{-kl}) <= (1 + kl) / l and t e^{-t} / (1 - e^{-t})^2 <= 1/t
    give lam |S'| <= y r/(1-r) (1 + lam/(1-r)) - ln(1-r) / lam, which falls
    as y grows.  At q = 1.0001 and y = 1.46 it is 2.9e-12, within 4 % of
    the error that the two sums show, against about 1e-15 for rounding
    inside the sum.
    """
    if p.regime is Regime.SUB_UNIT:
        return 0.0
    # base * q - 1, exact in ints and rounded once
    (nb, db), (nq, dq) = (1.0 / p.q).as_integer_ratio(), p.q.as_integer_ratio()
    eta = abs(nb * nq - db * dq) / (db * dq)
    lam = math.log(p.q)
    one_r = -math.expm1(-x * lam)
    slope = x * (1.0 - one_r) / one_r * (1.0 + lam / one_r) - math.log(one_r) / lam
    return eta * slope


def _tail_factors(n: int, last_k: int) -> tuple[float, float]:
    """The factors of the order-n tail majorant after term last_k that
    depend on n and last_k alone: ((last_k + 2) / (last_k + 1))^n and
    n ln(last_k + 1)."""
    return ((last_k + 2) / (last_k + 1)) ** n, n * math.log(last_k + 1)


def _lambert_tail(q: float, x: float, n: int, last_k: int) -> float:
    """Majorant for sum_{k > last_k} k^n q^{kx} / (1 - q^k), 0 < q < 1.

    Uses 1 - q^k >= 1 - q and the term-ratio envelope
    ((k+1)/k)^n q^x <= rho, evaluated at k = last_k + 1.  _lambert_tails
    is this majorant over rows, with the same float operations per row:
    the two change together.
    """
    grow, log_k = _tail_factors(n, last_k)
    log_r = x * math.log(q)
    rho = grow * math.exp(log_r)
    if rho >= 1.0:
        return math.inf
    log_first = log_k + (last_k + 1) * log_r
    return 0.0 if log_first < _LN_TINY else math.exp(log_first) / ((1.0 - q) * (1.0 - rho))


def _lambert_tails(
    q: float, ns: np.ndarray, last_k: int, xl: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """The _lambert_tail majorants of rows given as their orders ns, x ln q
    and q^x, with the same float operations per row: the two change
    together.  Each order's _tail_factors are taken once; the
    exponential stays math.exp per row, since np.exp rounds some arguments
    differently, and a call per row would cost more than the arithmetic.
    """
    grow, log_k = np.array([_tail_factors(n, last_k) for n in range(int(ns.max()) + 1)]).T
    rho = grow[ns] * r
    log_first = log_k[ns] + (last_k + 1) * xl
    diverges = rho >= 1.0
    out = np.where(diverges, math.inf, 0.0)
    big = ~diverges & ~(log_first < _LN_TINY)
    if big.any():
        first = np.array([math.exp(v) for v in log_first[big].tolist()])
        out[big] = first / ((1.0 - q) * (1.0 - rho[big]))
    return out


def _lambert_block(q: float, x: float, n: int) -> Callable[..., float]:
    """The block function of the sum of k^n q^{kx} / (1 - q^k) over k >= 1,
    0 < q < 1, for _chunk_sum.  Every ufunc works in place.  Dividing by
    q^k - 1 and negating the block sum gives the bits of dividing by
    1 - q^k, since rounding is symmetric in sign, and saves a pass."""
    lnq = math.log(q)
    xl = x * lnq

    def block(k: np.ndarray, num: np.ndarray, den: np.ndarray) -> float:
        np.multiply(k, xl, out=num)
        np.exp(num, out=num)
        if n:
            num *= np.power(k, n, out=den)
        np.multiply(k, lnq, out=den)
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


def _chunk_rows(
    count: int,
    trunc: Truncation,
    offsets: Sequence[float],
    scales: Sequence[float],
    chunk: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    tails: Callable[[int, np.ndarray], np.ndarray],
    where: Callable[[int], str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk loop of a grid pass over count rows; returns the arrays
    (partial, tail, terms).  The first row that reaches the term cap
    raises _chunk_sum's NonConvergent, naming where(row).

    Every row sums its terms k = 1, 2, ... in the chunks of the one-point
    sums (64 terms, doubling to _CHUNK_LIMIT) and leaves once
    |scales[i]| * tail meets the truncation target at its assembled value
    offsets[i] + scales[i] * partial, so a row's result does not depend on
    the other rows: per element the float operations are those of the
    one-point sum.  Each row's block sum runs along its contiguous axis, and
    its partial is math.fsum of its block sums, which for one block is that
    sum and for two the float sum of both.  The partials, tails and the
    stop test are arrays over the rows still active.  chunk(k) takes the
    term indices of a block, at most _BLOCK_TERMS of them, and returns the
    map from an array of row indices to those rows' terms; tails(k1, rows)
    gives the rows' tail majorants after term k1, which fall as k1 grows.
    A chunk longer than a block is summed block by block, and the rows are
    grouped so no temporary holds more than _BLOCK_TERMS terms.  A row
    whose tail is infinite after the cap cannot stop at any chunk end: it
    is never summed.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    abs_scales = np.abs(scales)
    rel_tol, abs_tol = trunc.rel_tol, trunc.abs_tol
    partials = np.zeros(count)
    tails_out = np.zeros(count)
    terms = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    # block sums of the active rows, one array per block so far
    sums: list[np.ndarray] = []
    k0 = 1
    size = _CHUNK_START
    while active.size and k0 <= trunc.max_terms:
        k1 = min(k0 + size - 1, trunc.max_terms)
        tail = tails(k1, active)
        if k0 == 1 and tail.max() == math.inf:
            # only a row infinite here can be infinite after the cap
            doomed = tail == math.inf
            doomed[doomed] = tails(trunc.max_terms, active[doomed]) == math.inf
            active, tail = active[~doomed], tail[~doomed]
            if not active.size:
                break
        for b0 in range(k0, k1 + 1, _BLOCK_TERMS):
            m = min(_BLOCK_TERMS, k1 + 1 - b0)
            terms_of = chunk(np.arange(b0, b0 + m, dtype=np.float64))
            step = _BLOCK_TERMS // m
            groups = [
                np.add.reduce(terms_of(active[g : g + step]), 1)
                for g in range(0, active.size, step)
            ]
            sums.append(groups[0] if len(groups) == 1 else np.concatenate(groups))
        if len(sums) == 1:
            partial = sums[0]
        elif len(sums) == 2:
            partial = sums[0] + sums[1]
        else:
            partial = np.array([math.fsum(row) for row in zip(*(s.tolist() for s in sums))])
        # Truncation.target, elementwise
        target = np.maximum(rel_tol * np.abs(offsets[active] + scales[active] * partial), abs_tol)
        done = abs_scales[active] * tail <= target
        if done.any():
            rows = active[done]
            partials[rows] = partial[done]
            tails_out[rows] = tail[done]
            terms[rows] = k1
            keep = ~done
            active = active[keep]
            sums = [s[keep] for s in sums]
        k0 = k1 + 1
        size = min(size * 2, _CHUNK_LIMIT)
    capped = np.flatnonzero(terms == 0)
    if capped.size:
        raise NonConvergent(
            f"term cap {trunc.max_terms} reached before the tail target ({where(capped[0])})"
        )
    return partials, tails_out, terms


def _lambert_rows(
    q: float,
    ns: np.ndarray,
    xs: np.ndarray,
    trunc: Truncation,
    offsets: np.ndarray,
    scales: np.ndarray,
    shown_q: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked sums of k^n q^{kx} / (1 - q^k) over k >= 1, one row per
    order n of ns and x of xs, for 0 < q < 1; returns the arrays (partial,
    tail, terms).

    The caller assembles row i's value as offsets[i] + scales[i] * partial;
    the stop rule therefore compares |scales[i]| * tail against the
    truncation target taken at that assembled value (see _chunk_rows).
    Each chunk takes 1 - q^k once and k^n once per order present.  Raises
    _psi_lambert's NonConvergent, naming shown_q, for the first row that
    reaches the term cap.
    """
    lnq = math.log(q)
    xl = xs * lnq  # x * ln q of each row
    r = np.array([math.exp(v) for v in xl.tolist()])
    top = int(ns.max())
    orders = sorted(set(ns.tolist()) - {0})

    def chunk(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        den = -np.expm1(k * lnq)
        # k^n for every order present, made once per chunk while the table
        # is no larger than a block; k^0 = 1 leaves a term's bits as they are
        powers = None
        if orders and (top + 1) * k.size <= _BLOCK_TERMS:
            powers = np.ones((top + 1, k.size))
            for n in orders:
                powers[n] = k**n
        # a block of long chunks has few rows, summed a group of them at a
        # time: k^n once per order among them, kept for every group
        made: dict[int, np.ndarray] = {}

        def terms_of(rows: np.ndarray) -> np.ndarray:
            # in place: fewer live arrays than the one-x expression
            # k^n q^{kx} / (1 - q^k), and the same roundings
            terms = np.multiply.outer(xl[rows], k)
            np.exp(terms, out=terms)
            if powers is not None:
                terms *= powers[ns[rows]]
            elif orders:
                for j, n in enumerate(ns[rows].tolist()):
                    if n:
                        if n not in made:
                            made[n] = k**n
                        terms[j] *= made[n]
            terms /= den
            return terms

        return terms_of

    return _chunk_rows(
        len(xs), trunc, offsets, scales, chunk,
        lambda k1, rows: _lambert_tails(q, ns[rows], k1, xl[rows], r[rows]),
        lambda i: f"q={shown_q}, x={float(xs[i])}, order={int(ns[i])}",
    )


def _logprod_tail(q: float, x: float, next_j: int) -> float:
    """Majorant for sum_{j >= next_j} |ln(1-q^{j+1}) - ln(1-q^{j+x})|.

    With m = min(1, x): |q^x - q| <= q^m and 1 - q^{j+x} >= 1 - q^m give the
    per-term bound D_j = q^{j+m}/(1-q^m); |ln(1+d)| <= 2|d| once D_j <= 1/2.
    _logprod_tails is this majorant over rows, with the same float
    operations per row: the two change together.
    """
    lnq = math.log(q)
    m = min(1.0, x)
    one_minus_qm = -math.expm1(m * lnq)
    log_d = (next_j + m) * lnq - math.log(one_minus_qm)
    if log_d > math.log(0.5):
        return math.inf
    if log_d < _LN_TINY:
        return 0.0
    return 2.0 * math.exp(log_d) / (1.0 - q)


def _logprod_tails(q: float, xs: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
    """The _logprod_tail majorants of the rows at the points xs, as the map
    from (next_j, row indices) to those rows' majorants, with the same float
    operations per row: the two change together.  m and ln(1 - q^m) are
    taken once per row; the exponential stays math.exp per row in range, as
    in _lambert_tails."""
    lnq = math.log(q)
    m = np.minimum(1.0, xs)
    log_gap = np.array([math.log(-math.expm1(v * lnq)) for v in m.tolist()])

    def tails(next_j: int, rows: np.ndarray) -> np.ndarray:
        log_d = (next_j + m[rows]) * lnq - log_gap[rows]
        above = log_d > math.log(0.5)
        out = np.where(above, math.inf, 0.0)
        mid = ~above & ~(log_d < _LN_TINY)
        if mid.any():
            out[mid] = 2.0 * np.array([math.exp(v) for v in log_d[mid].tolist()]) / (1.0 - q)
        return out

    return tails


def _logprod_block(q: float, x: float) -> Callable[..., float]:
    """The block function of the sum of ln(1-q^{j+1}) - ln(1-q^{j+x}) over
    j >= 0, 0 < q < 1, for _chunk_sum, with j = k - 1, exact.  Every ufunc
    works in place."""
    lnq = math.log(q)

    def block(k: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
        np.multiply(k, lnq, out=a)  # (j + 1) ln q
        np.subtract(k, 1.0, out=b)
        b += x
        b *= lnq
        for u in (a, b):
            np.expm1(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
        a -= b
        return float(np.add.reduce(a))

    return block


def _logprod_rows(
    q: float,
    xs: Sequence[float],
    trunc: Truncation,
    offsets: Sequence[float],
    shown_q: float,
) -> list[tuple[float, float, int]]:
    """The product series at base q at every x of xs in one chunk loop (see
    _chunk_rows), each row stopping at the target of offsets[i] plus its
    partial; a single x takes _chunk_sum.  The first x that reaches the
    term cap raises NonConvergent, naming shown_q."""
    if len(xs) == 1:
        x, offset = xs[0], offsets[0]
        return [_chunk_sum(
            _logprod_block(q, x), lambda k: _logprod_tail(q, x, k), trunc,
            lambda s: trunc.target(offset + s), f"q={shown_q}, x={x}",
        )]
    lnq = math.log(q)
    xa = np.asarray(xs, dtype=np.float64)

    def chunk(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        j = k - 1.0  # the j of _logprod_block, exact
        log_a = np.log(-np.expm1((j + 1.0) * lnq))
        return lambda rows: log_a - np.log(-np.expm1(np.add.outer(xa[rows], j) * lnq))

    partials, tails, terms = _chunk_rows(
        len(xs), trunc, offsets, np.ones(len(xs)), chunk, _logprod_tails(q, xa),
        lambda i: f"q={shown_q}, x={xs[i]}",
    )
    return list(zip(partials.tolist(), tails.tolist(), terms.tolist()))


def _ln_gamma_parts(p: QParam, x: float) -> tuple[float, float]:
    """(closed-form prefactor, base of the product series) for ln Gamma_q.
    Raises DomainError where x |ln q| is below the normal range: there
    x ln q rounds to 0 or to a subnormal of few significant bits."""
    q = p.q
    if x * abs(math.log(q)) < sys.float_info.min:
        raise DomainError(f"x = {x!r} is too small for ln Gamma_q: x |ln q| is not normal")
    if p.regime is Regime.SUB_UNIT:
        return (1.0 - x) * math.log1p(-q), q
    pre = (1.0 - x) * math.log(q - 1.0) + 0.5 * x * (x - 1.0) * math.log(q)
    return pre, 1.0 / q


def ln_q_gamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """Natural log of the q-gamma function at x > 0.

    Sub-unit q sums the log of the defining product directly.  Super-unit q
    sums its own product form, which carries the explicit q^{x(x-1)/2}
    prefactor; the two regimes share no closed-form shortcut, so the
    inversion residual stays a meaningful consistency check.  Where the
    product series provably cannot stop within 16,320 terms, an
    Euler-Maclaurin sum takes its place, as in q_digamma.  Raises
    OverflowError when the value is not finite, as at q = 2 past
    x = 1.9e154, where that prefactor leaves the double range.
    """
    return _ln_gamma_rows(p, [x], trunc or DEFAULT_TRUNCATION)[0]


def _ln_gamma_rows(p: QParam, xs: Sequence[float], t: Truncation) -> list[EvalResult]:
    """ln Gamma_q at every x of xs, each as ln_q_gamma takes it: by
    _ln_gamma_em where _ln_gamma_em_instead says so, the others around one
    _logprod_rows pass.  Each result is bit-identical to a one-point
    ln_q_gamma, whatever the other points.  The first x in the order given
    that reaches the term cap raises ln_q_gamma's NonConvergent, and else
    the first whose value is not finite raises its OverflowError."""
    xs = [_check_x(x) for x in xs]
    parts = [_ln_gamma_parts(p, x) for x in xs]
    out = [_ln_gamma_em_instead(p, x, xp, t, t.target) for x, xp in zip(xs, parts)]
    product = [i for i, r in enumerate(out) if r is None]
    if product:
        pres = [parts[i][0] for i in product]
        rows = _logprod_rows(parts[0][1], [xs[i] for i in product], t, pres, p.q)
        for i, pre, (s, tail, terms) in zip(product, pres, rows):
            out[i] = EvalResult(pre + s, tail, terms)
    for x, r in zip(xs, out):
        if not math.isfinite(r.value):
            raise OverflowError(f"ln_q_gamma overflows the double range at x = {x!r}")
    return out


def _ln_gamma_em_instead(
    p: QParam,
    x: float,
    parts: tuple[float, float],
    t: Truncation,
    target: Callable[[float], float],
) -> EvalResult | None:
    """_ln_gamma_em's ln Gamma_q(x) where the product series provably
    cannot stop within _LOGPROD_SWITCH terms at target, else None (see
    _em_past_switch): parts is _ln_gamma_parts(p, x), and target is
    ln_q_gamma's t.target or q_gamma's log-scale one.  Every product term
    has the sign of 1 - x, so the assembled value runs from pre to the
    value."""
    pre, base = parts
    return _em_past_switch(
        _logprod_tail(base, x, _LOGPROD_SWITCH), target, pre, 0.0,
        lambda: _ln_gamma_em(p, x, pre, t, target),
    )


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


def q_gamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """q-gamma function at x > 0.

    Evaluated as exp of the log form with an absolute truncation target on
    the log scale, so err_bound stays relative on the gamma scale; at that
    target, the log form chooses its sum as ln_q_gamma does.  Raises
    OverflowError when the value exceeds the double range.
    """
    x = _check_x(x)
    t = trunc or DEFAULT_TRUNCATION
    log_target = max(0.5 * t.rel_tol, t.abs_tol)
    pre, base = parts = _ln_gamma_parts(p, x)
    em = _ln_gamma_em_instead(p, x, parts, t, lambda value: log_target)
    if em is None:
        s, tail, terms = _chunk_sum(
            _logprod_block(base, x), lambda k: _logprod_tail(base, x, k), t,
            lambda s: log_target, f"q={p.q}, x={x}",
        )
        ln_value = pre + s
    else:
        ln_value, tail, terms = em.value, em.err_bound, em.terms
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


def q_psi_grid(
    p: QParam, k: int, xs: Sequence[float], trunc: Truncation | None = None
) -> list[EvalResult]:
    """psi^(k) at every x of xs in one pass, for 0 <= k <= 8, with psi^(0)
    the q-digamma (q_digamma and q_polygamma are its one-point cases).

    The points share one chunk loop and each stops on its own tail
    majorant, so every result is bit-identical to a one-point evaluation,
    whatever the other points; a point that the one-point evaluation takes
    by Euler-Maclaurin is taken so here too.  Raises NonConvergent for the first x, in
    the order given, that reaches the term cap.
    """
    rows = _psi_orders(p, {k: list(xs)}, trunc or DEFAULT_TRUNCATION)
    return list(map(EvalResult, *(a.tolist() for a in rows)))


def _check_psi_order(k: int) -> None:
    """Raise UnsupportedOrder unless k is an int (not a bool) in 0..8."""
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= MAX_DERIV_ORDER:
        raise UnsupportedOrder(f"psi order must be an int in 0..{MAX_DERIV_ORDER}, got {k!r}")


def _psi_orders(
    p: QParam, points: dict[int, Sequence[float] | np.ndarray], t: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi^(k)(x) for every order k of points and every x of points[k], in
    one pass, order-major, as the arrays (value, err_bound, terms); the
    multi-order case of q_psi_grid, with its checks and its guarantees.  A
    term cap raises NonConvergent for the first key, in that order, that
    reaches it.

    Each order's points are a float array, as a provider sweep hands them
    over, or a list of points of any type.  They are checked as one array:
    each a float, finite and > 0.  Where that fails, _check_x takes them
    one by one, each order's points before the order itself, so the first
    bad key raises what a one-point call would.
    """
    parts = list(points.values())
    if parts and all(type(pts) is np.ndarray for pts in parts):
        a = np.concatenate(parts)
    else:
        xs = [x for pts in parts for x in pts]
        a = np.array(xs, dtype=np.float64) if set(map(type, xs)) <= {float} else None
    if a is not None and ((a > 0.0) & (a < math.inf)).all():
        for k in points:
            _check_psi_order(k)
    else:
        xs = []
        for k, pts in points.items():
            xs += map(_check_x, pts.tolist() if type(pts) is np.ndarray else pts)
            _check_psi_order(k)
        a = np.array(xs, dtype=np.float64)
    ks = np.repeat(np.array(list(points), dtype=np.int64), [len(pts) for pts in parts])
    return _psi_rows(p, ks, a, t)


def _psi_parts(p: QParam, top: int) -> tuple[float, list[float], float]:
    """(base, scale_of, head) of psi^(k) up to order top: psi^(k) is
    scale_of[k] times the Lambert sum at base, plus head for k = 0, which
    at q > 1 also takes ln q (x - 1/2)."""
    q = p.q
    lnq = math.log(q)
    # psi^(0) has its own head and the ln q of its regime; super-unit q
    # transfers the derivatives from 1/q
    if p.regime is Regime.SUB_UNIT:
        base, scale0, head = q, lnq, -math.log1p(-q)
    else:
        base, scale0, head = 1.0 / q, -lnq, -math.log(q - 1.0)
    return base, [scale0] + [math.log(base) ** (k + 1) for k in range(1, top + 1)], head


def _psi_offsets(p: QParam, k: int, x: float, head: float) -> tuple[float, float]:
    """(h, e) with psi^(k)(x) = h + e + the series part: h is head at k = 0,
    with ln q (x - 1/2) at q > 1, and the offset that the Lambert stop
    target is taken at; e is the ln q that only k = 1 at q > 1 picks up from
    the linear term relating the regimes."""
    if p.regime is Regime.SUB_UNIT:
        return (0.0 if k else head), 0.0
    lnq = math.log(p.q)
    return (0.0 if k else head + lnq * (x - 0.5)), (lnq if k == 1 else 0.0)


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
    base, scale_of, head = _psi_parts(p, k)
    h, e = _psi_offsets(p, k, x, head)
    scale = scale_of[k]
    s, err, terms = _chunk_sum(
        _lambert_block(base, x, k), lambda k1: abs(scale) * _lambert_tail(base, x, k, k1), t,
        lambda partial: t.target(h + scale * partial), f"q={p.q}, x={x}, order={k}",
    )
    value = h + scale * s if k == 0 else scale * s
    if e:
        value += e
    return EvalResult(value, err, terms)


def _lambert_may_pass(lnb: float, ks, xs):
    """Whether the Lambert sum at base e^lnb may take more than _EM_REACH
    terms, for orders ks at points xs (floats or arrays): False where its
    tail majorant at term _EM_REACH underflows to 0, so that it stops there
    at the latest and _em_instead returns None.  _psi_rows' prefilter over
    its rows; the float operations are _lambert_tail's."""
    return ks * math.log(_EM_REACH + 1) + (_EM_REACH + 1) * (xs * lnb) >= _LN_TINY


def _em_instead(p: QParam, k: int, x: float, t: Truncation) -> EvalResult | None:
    """_psi_em's psi^(k)(x) where the Lambert sum provably cannot stop
    within _EM_REACH terms, else None (see _em_past_switch).  The tail is
    the Lambert stop test's at that chunk end, and the assembled value
    runs from h to the value less e (see _psi_offsets)."""
    base, scale_of, head = _psi_parts(p, k)
    h, e = _psi_offsets(p, k, x, head)
    tail = abs(scale_of[k]) * _lambert_tail(base, x, k, _EM_REACH)
    return _em_past_switch(tail, t.target, h, e, lambda: _psi_em(p, k, x, t))


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
    h, e = _psi_offsets(p, k, x, _psi_parts(p, 0)[2])
    m = _em_shift(lam, x)
    y0 = x + m

    def parts() -> list[float]:
        start = h - math.fsum(_dl(k + 1, lam, x + j) for j in range(m)) + e
        return [start, _dl(k, lam, y0)]

    return _em_sum(
        parts, lambda i: -_dl(k + 1 + i, lam, y0), m, t, t.target,
        f"q={p.q}, x={x}, order={k}",
    )


def _psi_rows(
    p: QParam, ks: np.ndarray, xs: np.ndarray, t: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi^(k)(x) at every checked order k of ks and point x of xs, int and
    float arrays, as the arrays (value, err_bound, terms), each row as
    _psi_point takes it: a row whose Lambert sum provably cannot stop
    within _EM_REACH terms by _psi_em, the others by one _lambert_rows
    pass, or a single point by _psi_point."""
    k_arr = np.asarray(ks, dtype=np.int64)
    x_arr = np.asarray(xs, dtype=np.float64)
    if x_arr.size == 1:
        r = _psi_point(p, int(k_arr[0]), float(x_arr[0]), t)
        return np.array([r.value]), np.array([r.err_bound]), np.array([r.terms])
    if not x_arr.size:
        return x_arr, x_arr, k_arr
    base = _psi_parts(p, 0)[0]
    may_pass = _lambert_may_pass(math.log(base), k_arr, x_arr)
    if not may_pass.any():
        return _psi_lambert_rows(p, k_arr, x_arr, t)
    n = x_arr.size
    values, errs, terms = np.empty(n), np.empty(n), np.empty(n, dtype=np.int64)
    lambert = np.ones(n, dtype=bool)
    for i in np.flatnonzero(may_pass).tolist():
        em = _em_instead(p, int(k_arr[i]), float(x_arr[i]), t)
        if em is not None:
            lambert[i] = False
            values[i], errs[i], terms[i] = em.value, em.err_bound, em.terms
    if lambert.any():
        rows = _psi_lambert_rows(p, k_arr[lambert], x_arr[lambert], t)
        values[lambert], errs[lambert], terms[lambert] = rows
    return values, errs, terms


def _psi_lambert_rows(
    p: QParam, ks: np.ndarray, xs: np.ndarray, t: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi^(k)(x) at every checked order k of ks and point x of xs, as the
    arrays (value, err_bound, terms), each regime's series assembled around
    one _lambert_rows pass."""
    lnq = math.log(p.q)
    sub_unit = p.regime is Regime.SUB_UNIT
    base, scale_of, head = _psi_parts(p, int(ks.max()))
    scales = np.array(scale_of)[ks]
    if not sub_unit:
        head = head + lnq * (xs - 0.5)
    heads = np.where(ks == 0, head, 0.0)
    partials, tails, terms = _lambert_rows(base, ks, xs, t, heads, scales, p.q)
    values = scales * partials
    values = np.where(ks == 0, heads + values, values)
    if not sub_unit:
        # only n = 1 picks up the ln q of the linear term relating the regimes
        values = np.where(ks == 1, values + lnq, values)
    return values, np.abs(scales) * tails, terms


def q_bracket(p: QParam, x: float) -> float:
    """q-bracket [x]_q = (1-q^x)/(1-q), the ratio Gamma_q(x+1)/Gamma_q(x)."""
    x = _check_x(x)
    lnq = math.log(p.q)
    return math.expm1(x * lnq) / math.expm1(lnq)


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
