"""Evaluation core for the q-gamma / q-digamma family.

Every series here is truncated against an analytic tail majorant, never on
consecutive-term smallness, and each evaluator returns the majorant at the
stopping index alongside the value.  Sub-unit q (0 < q < 1) is the native
regime; super-unit q evaluates its own product/series forms so the classical
inversion identities remain genuine cross-checks rather than definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

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
# a grid pass blocks its rows so each temporary holds at most this many
# terms (64 KiB); 512 KiB blocks kept about 1.4 MB more resident over 1,500
# certification sweeps and ran no faster
_BLOCK_TERMS = 8192


class DomainError(ValueError):
    """Argument outside the function's domain."""


class NonConvergent(ArithmeticError):
    """Term cap reached before the tail majorant met the truncation target."""


class UnsupportedOrder(ValueError):
    """Derivative order outside the supported range."""


class Regime(Enum):
    SUB_UNIT = "sub_unit"
    SUPER_UNIT = "super_unit"


@dataclass(frozen=True)
class QParam:
    """Deformation parameter with its regime guard.

    q must be a positive real other than 1.  Values with |q - 1| < 1e-4 are
    rejected by default because term counts scale like 1/|ln q| there; pass
    allow_near_one=True (and, if needed, a raised term cap) to evaluate
    close to the classical limit.
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
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")

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
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise DomainError(f"x must be a finite real, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return float(x)


def _fp_allowance(*magnitudes: float) -> float:
    return 1e-13 * (1.0 + math.fsum(abs(m) for m in magnitudes))


def _lambert_tails(
    q: float, n: int, last_k: int, rows: Iterable[tuple[float, float]]
) -> list[float]:
    """Majorants for sum_{k > last_k} k^n q^{kx} / (1 - q^k), 0 < q < 1, one
    per row given as its (x ln q, q^x).

    Uses 1 - q^k >= 1 - q and the term-ratio envelope
    ((k+1)/k)^n q^x <= rho, evaluated at k = last_k + 1.  The factors that
    depend on last_k alone are taken once for all rows.
    """
    grow = ((last_k + 2) / (last_k + 1)) ** n
    log_k = n * math.log(last_k + 1)
    out = []
    for log_r, r in rows:
        rho = grow * r
        if rho >= 1.0:
            out.append(math.inf)
            continue
        log_first = log_k + (last_k + 1) * log_r
        out.append(0.0 if log_first < _LN_TINY else math.exp(log_first) / ((1.0 - q) * (1.0 - rho)))
    return out


def _lambert_tail(q: float, x: float, n: int, last_k: int) -> float:
    """The _lambert_tails majorant at one x."""
    log_r = x * math.log(q)
    return _lambert_tails(q, n, last_k, [(log_r, math.exp(log_r))])[0]


def _lambert_sum(
    q: float, x: float, n: int, trunc: Truncation, offset: float, scale: float
) -> tuple[float, float, int]:
    """Chunked sum of k^n q^{kx} / (1 - q^k) over k >= 1, for 0 < q < 1.

    The caller assembles the final value as offset + scale * partial; the
    stop rule therefore compares |scale| * tail against the truncation
    target taken at that assembled value.
    """
    lnq = math.log(q)
    chunk_sums: list[float] = []
    k0 = 1
    chunk = _CHUNK_START
    while k0 <= trunc.max_terms:
        k1 = min(k0 + chunk - 1, trunc.max_terms)
        k = np.arange(k0, k1 + 1, dtype=np.float64)
        num = np.exp(k * (x * lnq))
        if n:
            num = num * k**n
        den = -np.expm1(k * lnq)
        chunk_sums.append(float(np.sum(num / den)))
        partial = math.fsum(chunk_sums)
        tail = _lambert_tail(q, x, n, k1)
        if abs(scale) * tail <= trunc.target(offset + scale * partial):
            return partial, tail, k1
        k0 = k1 + 1
        chunk = min(chunk * 2, _CHUNK_LIMIT)
    raise NonConvergent(
        f"term cap {trunc.max_terms} reached before the tail target (q={q}, x={x}, order={n})"
    )


def _chunk_rows(
    row_args: np.ndarray,
    trunc: Truncation,
    offsets: Sequence[float],
    scale: float,
    chunk: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    tails: Callable[[int, list[int]], list[float]],
) -> list:
    """The chunk loop of a grid pass, one row per entry of row_args; returns
    (partial, tail, terms) per row, or None for a row that reached the term
    cap.

    Every row sums its terms k = 1, 2, ... in the chunks of the one-point
    sums (64 terms, doubling to _CHUNK_LIMIT) and leaves once |scale| * tail
    meets the truncation target at its assembled value offsets[i] + scale *
    partial, so a row's result does not depend on the other rows: per
    element the float operations are those of the one-point sum, and each
    row's chunk sum runs along its contiguous axis.  chunk(k) takes a
    chunk's term indices and returns the map from a block of row_args to the
    block's terms; tails(k1, rows) gives those rows' tail majorants after
    term k1.  Rows are blocked so no temporary holds more than _BLOCK_TERMS
    terms, or one row's chunk.
    """
    abs_scale = abs(scale)
    rel_tol, abs_tol = trunc.rel_tol, trunc.abs_tol
    chunk_sums: list[list[float]] = [[] for _ in range(len(row_args))]
    out: list = [None] * len(row_args)
    active = list(range(len(row_args)))
    k0 = 1
    size = _CHUNK_START
    while active and k0 <= trunc.max_terms:
        k1 = min(k0 + size - 1, trunc.max_terms)
        terms_of = chunk(np.arange(k0, k1 + 1, dtype=np.float64))
        rows = max(1, _BLOCK_TERMS // (k1 - k0 + 1))
        finished = False
        for b in range(0, len(active), rows):
            block = active[b : b + rows]
            sums = np.add.reduce(terms_of(row_args[b : b + rows]), 1).tolist()
            for i, s, tail in zip(block, sums, tails(k1, block)):
                acc = chunk_sums[i]
                acc.append(s)
                partial = math.fsum(acc)
                # Truncation.target, inlined: this runs per row and chunk
                if abs_scale * tail <= max(rel_tol * abs(offsets[i] + scale * partial), abs_tol):
                    out[i] = (partial, tail, k1)
                    finished = True
        if finished:
            keep = [j for j, i in enumerate(active) if out[i] is None]
            active = [active[j] for j in keep]
            row_args = row_args[keep]
        k0 = k1 + 1
        size = min(size * 2, _CHUNK_LIMIT)
    return out


def _lambert_rows(
    q: float,
    xs: Sequence[float],
    n: int,
    trunc: Truncation,
    offsets: Sequence[float],
    scale: float,
) -> list[tuple[float, float, int]]:
    """Chunked sums of k^n q^{kx} / (1 - q^k) over k >= 1, one row per x,
    for 0 < q < 1; returns (partial, tail, terms) per row.

    The caller assembles row i's value as offsets[i] + scale * partial; the
    stop rule therefore compares |scale| * tail against the truncation
    target taken at that assembled value (see _chunk_rows).  Each row's
    x ln q and q^x are taken once, so its stop test calls no Python
    function.  A single x takes _lambert_sum, the same sum without the
    per-chunk cost of broadcasting over rows.
    """
    if len(xs) == 1:
        return [_lambert_sum(q, xs[0], n, trunc, offsets[0], scale)]
    lnq = math.log(q)
    xl = np.multiply(xs, lnq)  # x * ln q of each row
    ratios = [(v, math.exp(v)) for v in xl.tolist()]

    def chunk(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        den = -np.expm1(k * lnq)

        def terms_of(xl_block: np.ndarray) -> np.ndarray:
            # in place, with k^n made per block: fewer live arrays than the
            # one-x expression k^n q^{kx} / (1 - q^k), and the same roundings
            terms = np.exp(np.multiply.outer(xl_block, k))
            if n:
                terms *= k**n
            terms /= den
            return terms

        return terms_of

    out = _chunk_rows(
        xl, trunc, offsets, scale, chunk,
        lambda k1, rows: _lambert_tails(q, n, k1, [ratios[i] for i in rows]),
    )
    if None in out:
        raise NonConvergent(
            f"term cap {trunc.max_terms} reached before the tail target "
            f"(q={q}, x={xs[out.index(None)]}, order={n})"
        )
    return out


def _logprod_tail(q: float, x: float, next_j: int) -> float:
    """Majorant for sum_{j >= next_j} |ln(1-q^{j+1}) - ln(1-q^{j+x})|.

    With m = min(1, x): |q^x - q| <= q^m and 1 - q^{j+x} >= 1 - q^m give the
    per-term bound D_j = q^{j+m}/(1-q^m); |ln(1+d)| <= 2|d| once D_j <= 1/2.
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


def _logprod_sum(
    q: float,
    x: float,
    trunc: Truncation,
    offset: float,
    stop_target: float | None = None,
) -> tuple[float, float, int]:
    """Chunked sum of ln(1-q^{j+1}) - ln(1-q^{j+x}) over j >= 0, 0 < q < 1.

    stop_target, when given, is an absolute target on the log scale; the
    exponentiated gamma uses it so its bound stays relative on the gamma
    scale even when |ln value| is large.
    """
    lnq = math.log(q)
    chunk_sums: list[float] = []
    j0 = 0
    chunk = _CHUNK_START
    while j0 < trunc.max_terms:
        j1 = min(j0 + chunk - 1, trunc.max_terms - 1)
        j = np.arange(j0, j1 + 1, dtype=np.float64)
        a = -np.expm1((j + 1.0) * lnq)
        b = -np.expm1((j + x) * lnq)
        chunk_sums.append(float(np.sum(np.log(a) - np.log(b))))
        partial = math.fsum(chunk_sums)
        tail = _logprod_tail(q, x, j1 + 1)
        if stop_target is not None:
            target = max(stop_target, trunc.abs_tol)
        else:
            target = trunc.target(offset + partial)
        if tail <= target:
            return partial, tail, j1 + 1
        j0 = j1 + 1
        chunk = min(chunk * 2, _CHUNK_LIMIT)
    raise NonConvergent(
        f"term cap {trunc.max_terms} reached before the tail target (q={q}, x={x})"
    )


def _logprod_rows(
    q: float, xs: Sequence[float], trunc: Truncation, offsets: Sequence[float]
) -> list[tuple[float, float, int]]:
    """_logprod_sum at every x of xs in one chunk loop (see _chunk_rows),
    each row stopping at its own target; a single x takes _logprod_sum."""
    if len(xs) == 1:
        return [_logprod_sum(q, xs[0], trunc, offsets[0])]
    lnq = math.log(q)

    def chunk(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        j = k - 1.0  # the j of _logprod_sum, exact
        log_a = np.log(-np.expm1((j + 1.0) * lnq))
        return lambda x_block: log_a - np.log(-np.expm1(np.add.outer(x_block, j) * lnq))

    out = _chunk_rows(
        np.asarray(xs, dtype=np.float64), trunc, offsets, 1.0, chunk,
        lambda k1, rows: [_logprod_tail(q, xs[i], k1) for i in rows],
    )
    if None in out:
        raise NonConvergent(
            f"term cap {trunc.max_terms} reached before the tail target "
            f"(q={q}, x={xs[out.index(None)]})"
        )
    return out


def _ln_gamma_parts(p: QParam, x: float) -> tuple[float, float]:
    """(closed-form prefactor, base of the product series) for ln Gamma_q."""
    q = p.q
    if p.regime is Regime.SUB_UNIT:
        return (1.0 - x) * math.log1p(-q), q
    pre = (1.0 - x) * math.log(q - 1.0) + 0.5 * x * (x - 1.0) * math.log(q)
    return pre, 1.0 / q


def ln_q_gamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """Natural log of the q-gamma function at x > 0.

    Sub-unit q sums the log of the defining product directly.  Super-unit q
    sums its own product form, which carries the explicit q^{x(x-1)/2}
    prefactor; the two regimes share no closed-form shortcut, so the
    inversion residual stays a meaningful consistency check.
    """
    return _ln_gamma_rows(p, [x], trunc or DEFAULT_TRUNCATION)[0]


def _ln_gamma_rows(p: QParam, xs: Sequence[float], t: Truncation) -> list[EvalResult]:
    """ln Gamma_q at every x of xs around one _logprod_rows pass; each
    result is bit-identical to a one-point ln_q_gamma, whatever the other
    points, and the first x in the order given that reaches the term cap
    raises ln_q_gamma's NonConvergent."""
    xs = [_check_x(x) for x in xs]
    if not xs:
        return []
    pres, bases = zip(*(_ln_gamma_parts(p, x) for x in xs))
    rows = _logprod_rows(bases[0], xs, t, pres)
    return [EvalResult(pre + s, tail, terms) for pre, (s, tail, terms) in zip(pres, rows)]


def q_gamma(p: QParam, x: float, trunc: Truncation | None = None) -> EvalResult:
    """q-gamma function at x > 0.

    Evaluated as exp of the log form with an absolute truncation target on
    the log scale, so err_bound stays relative on the gamma scale.  Raises
    OverflowError when the value exceeds the double range.
    """
    x = _check_x(x)
    t = trunc or DEFAULT_TRUNCATION
    pre, base = _ln_gamma_parts(p, x)
    s, tail, terms = _logprod_sum(base, x, t, offset=pre, stop_target=0.5 * t.rel_tol)
    ln_value = pre + s
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
    """
    return _psi_rows(p, 0, [_check_x(x)], trunc or DEFAULT_TRUNCATION)[0]


def q_polygamma(p: QParam, x: float, n: int, trunc: Truncation | None = None) -> EvalResult:
    """n-th derivative of the q-digamma at x > 0, for 1 <= n <= 8.

    Sub-unit q: (ln q)^{n+1} sum_{k>=1} k^n q^{kx}/(1-q^k), the term-by-term
    derivative of the digamma series.  The sum runs over all k; a finite
    upper limit tied to n (which sometimes appears in print) is not the
    derivative and would break the sign pattern (-1)^{n+1}.  Super-unit q
    transfers derivatives from 1/q; only n = 1 picks up the extra ln q from
    the linear term relating the two regimes.
    """
    x = _check_x(x)
    if not isinstance(n, int) or isinstance(n, bool):
        raise UnsupportedOrder(f"derivative order must be an int, got {n!r}")
    if not 1 <= n <= MAX_DERIV_ORDER:
        raise UnsupportedOrder(f"derivative order {n} outside 1..{MAX_DERIV_ORDER}")
    return _psi_rows(p, n, [x], trunc or DEFAULT_TRUNCATION)[0]


def q_psi_grid(
    p: QParam, k: int, xs: Sequence[float], trunc: Truncation | None = None
) -> list[EvalResult]:
    """psi^(k) at every x of xs in one pass, for 0 <= k <= 8, with psi^(0)
    the q-digamma (q_digamma and q_polygamma are its one-point cases).

    The points share one chunk loop and each stops on its own tail
    majorant, so every result is bit-identical to a one-point evaluation,
    whatever the other points.  Raises NonConvergent for the first x, in
    the order given, that reaches the term cap.
    """
    xs = [_check_x(x) for x in xs]
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= MAX_DERIV_ORDER:
        raise UnsupportedOrder(f"psi order must be an int in 0..{MAX_DERIV_ORDER}, got {k!r}")
    return _psi_rows(p, k, xs, trunc or DEFAULT_TRUNCATION)


def _psi_rows(p: QParam, k: int, xs: list[float], t: Truncation) -> list[EvalResult]:
    """psi^(k) at checked points: each regime's series assembled around one
    _lambert_rows pass."""
    q = p.q
    lnq = math.log(q)
    sub_unit = p.regime is Regime.SUB_UNIT
    if k == 0:
        if sub_unit:
            heads = [-math.log1p(-q)] * len(xs)
            base, scale = q, lnq
        else:
            heads = [-math.log(q - 1.0) + lnq * (x - 0.5) for x in xs]
            base, scale = 1.0 / q, -lnq
        rows = _lambert_rows(base, xs, 0, t, heads, scale)
        return [
            EvalResult(head + scale * s, abs(scale) * tail, terms)
            for head, (s, tail, terms) in zip(heads, rows)
        ]
    # super-unit q transfers the derivatives from 1/q
    base = q if sub_unit else 1.0 / q
    scale = math.log(base) ** (k + 1)
    rows = _lambert_rows(base, xs, k, t, [0.0] * len(xs), scale)
    out = [EvalResult(scale * s, abs(scale) * tail, terms) for s, tail, terms in rows]
    if not sub_unit and k == 1:
        # only n = 1 picks up the ln q of the linear term relating the regimes
        out = [EvalResult(r.value + lnq, r.err_bound, r.terms) for r in out]
    return out


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
