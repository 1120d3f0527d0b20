"""Grid passes: the q-polygammas and ln Gamma_q at many points at once.

Each pass runs one chunk loop over rows, one row per (order, x) key, and
stops every row on its own tail majorant, so every result is bit-identical
to the one-point evaluation of qfun.core at that key, whatever the other
rows.  The certification sweeps of qfun.deriv and qfun.theorems hand their
points here; `import qfun` loads this module only when one of them, or
q_psi_grid, is first used.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_TRUNCATION,
    EvalResult,
    NonConvergent,
    QParam,
    Regime,
    Truncation,
    _BLOCK_TERMS,
    _CHUNK_LIMIT,
    _CHUNK_START,
    _EM_REACH,
    _LN_NEGLIGIBLE,
    _LN_TINY,
    _check_psi_order,
    _check_x,
    _em_instead,
    _ln_gamma_em_instead,
    _ln_gamma_parts,
    _logprod_tail,
    _psi_offsets,
    _psi_parts,
    _tail_factors,
    _x_ln,
)

__all__ = ["q_psi_grid"]


def _check_points(xs: Sequence[float] | np.ndarray) -> np.ndarray:
    """xs as a float array, each point checked as _check_x checks it.

    Where every point is a float, finite and > 0, xs is taken as it is (a
    float array is returned itself).  Otherwise _check_x takes the points
    one by one, so an int or a NumPy float converts and the first bad point
    raises its one-point error.
    """
    if type(xs) is np.ndarray:
        if xs.dtype == np.float64 and ((xs > 0.0) & (xs < math.inf)).all():
            return xs
        xs = xs.tolist()
    if not all(type(x) is float and 0.0 < x < math.inf for x in xs):
        xs = [_check_x(x) for x in xs]
    return np.array(xs, dtype=np.float64)


def _lambert_tails(
    base: float, ns: np.ndarray, last_k: int, xl: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """The core._lambert_tail majorants at base p = base of rows given as
    their orders ns, x ln p and p^x, with the same float operations per
    row: the two change together.  Each order's _tail_factors are taken
    once; the exponential stays math.exp per row, since np.exp rounds some
    arguments differently, and a call per row would cost more than the
    arithmetic.
    """
    grow, log_k = np.array([_tail_factors(n, last_k) for n in range(int(ns.max()) + 1)]).T
    rho = grow[ns] * r
    log_first = log_k[ns] + (last_k + 1) * xl
    diverges = rho >= 1.0
    out = np.where(diverges, math.inf, 0.0)
    big = ~diverges & ~(log_first < _LN_TINY)
    if big.any():
        first = np.array([math.exp(v) for v in log_first[big].tolist()])
        out[big] = first / ((1.0 - base) * (1.0 - rho[big]))
    return out


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
    lnp: float,
    base: float,
    ns: np.ndarray,
    xs: np.ndarray,
    trunc: Truncation,
    offsets: np.ndarray,
    scales: np.ndarray,
    shown_q: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked sums of k^n p^{kx} / (1 - p^k) over k >= 1, one row per
    order n of ns and x of xs, for 0 < p < 1 with ln p = lnp and p = base;
    returns the arrays (partial, tail, terms).

    The caller assembles row i's value as offsets[i] + scales[i] * partial;
    the stop rule therefore compares |scales[i]| * tail against the
    truncation target taken at that assembled value (see _chunk_rows).
    Each chunk takes 1 - p^k once and k^n once per order present.  Raises
    _psi_lambert's NonConvergent, naming shown_q, for the first row that
    reaches the term cap.
    """
    xl = _x_ln(xs, lnp)  # x * ln p of each row
    r = np.array([math.exp(v) for v in xl.tolist()])
    top = int(ns.max())
    orders = sorted(set(ns.tolist()) - {0})

    def chunk(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        # past _LN_NEGLIGIBLE every 1 - p^k is 1.0, and dividing is skipped
        den = None if k[0] * lnp <= _LN_NEGLIGIBLE else -np.expm1(k * lnp)
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
            # k^n p^{kx} / (1 - p^k), and the same roundings
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
            if den is not None:
                terms /= den
            return terms

        return terms_of

    return _chunk_rows(
        len(xs), trunc, offsets, scales, chunk,
        lambda k1, rows: _lambert_tails(base, ns[rows], k1, xl[rows], r[rows]),
        lambda i: f"q={shown_q}, x={float(xs[i])}, order={int(ns[i])}",
    )


def _logprod_rows(
    lnp: float,
    base: float,
    xs: Sequence[float],
    trunc: Truncation,
    offsets: Sequence[float],
    shown_q: float,
) -> list[tuple[float, float, int]]:
    """The product series at base p = base, ln p = lnp, at every x of xs in
    one chunk loop (see _chunk_rows), each row stopping at the target of
    offsets[i] plus its partial, on the core._logprod_tail majorant of its
    x.  The first x that reaches the term cap raises NonConvergent, naming
    shown_q.  A group of rows whose terms are all ln 1 - ln 1 = 0.0, past
    _LN_NEGLIGIBLE as in core._logprod_block, gets one column of zeros."""
    xa = np.asarray(xs, dtype=np.float64)

    def chunk(k: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        j = k - 1.0  # the j of core._logprod_block, exact
        past = k[0] * lnp <= _LN_NEGLIGIBLE
        log_a = 0.0 if past else np.log(-np.expm1((j + 1.0) * lnp))  # past: ln 1 throughout

        def terms_of(rows: np.ndarray) -> np.ndarray:
            x = xa[rows]
            if past and (x.min() + j[0]) * lnp <= _LN_NEGLIGIBLE:
                return np.zeros((rows.size, 1))
            return log_a - np.log(-np.expm1(np.add.outer(x, j) * lnp))

        return terms_of

    def tails(next_j: int, rows: np.ndarray) -> np.ndarray:
        return np.array([_logprod_tail(lnp, base, x, next_j) for x in xa[rows].tolist()])

    partials, tails_out, terms = _chunk_rows(
        len(xs), trunc, offsets, np.ones(len(xs)), chunk, tails,
        lambda i: f"q={shown_q}, x={xs[i]}",
    )
    return list(zip(partials.tolist(), tails_out.tolist(), terms.tolist()))


def _ln_gamma_rows(p: QParam, xs: Sequence[float], t: Truncation) -> list[EvalResult]:
    """ln Gamma_q at every x of xs, each as ln_q_gamma takes it: by
    _ln_gamma_em where _ln_gamma_em_instead says so, the others around one
    _logprod_rows pass.  Each result is bit-identical to a one-point
    ln_q_gamma, whatever the other points.  The first x in the order given
    whose value is not finite raises ln_q_gamma's OverflowError before any
    sum (see _ln_gamma_parts), and else the first x that reaches the term
    cap raises its NonConvergent."""
    xs = _check_points(xs).tolist()
    parts = [_ln_gamma_parts(p, x) for x in xs]
    out = [_ln_gamma_em_instead(p, x, xp, t, t.target) for x, xp in zip(xs, parts)]
    product = [i for i, r in enumerate(out) if r is None]
    if product:
        pres = [parts[i][0] for i in product]
        rows = _logprod_rows(*parts[0][1:], [xs[i] for i in product], t, pres, p.q)
        for i, pre, (s, tail, terms) in zip(product, pres, rows):
            out[i] = EvalResult(pre + s, tail, terms)
    return out


def q_psi_grid(
    p: QParam, k: int, xs: Sequence[float], trunc: Truncation | None = None
) -> list[EvalResult]:
    """psi^(k) at every x of xs in one pass, for 0 <= k <= 8, with psi^(0)
    the q-digamma (q_digamma and q_polygamma are its one-point cases).

    The points share one chunk loop and each stops on its own tail
    majorant, so every result is bit-identical to a one-point evaluation,
    whatever the other points; a point that the one-point evaluation takes
    by Euler-Maclaurin is taken so here too.  Raises, before any sum,
    q_digamma's OverflowError for the first x whose value leaves the double
    range, and else NonConvergent for the first x, in the order given, that
    reaches the term cap.
    """
    rows = _psi_orders(p, {k: list(xs)}, trunc or DEFAULT_TRUNCATION)
    return list(map(EvalResult, *(a.tolist() for a in rows)))


def _psi_orders(
    p: QParam, points: dict[int, Sequence[float] | np.ndarray], t: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi^(k)(x) for every order k of points and every x of points[k], in
    one pass, order-major, as the arrays (value, err_bound, terms); the
    multi-order case of q_psi_grid, with its checks and its guarantees.  A
    term cap raises NonConvergent for the first key, in that order, that
    reaches it.

    Each order's points are a float array, as a provider sweep hands them
    over, or a list of points of any type.  _check_points checks each
    order's points before the order itself, so the first bad key raises
    what a one-point call would.
    """
    parts = []
    for k, pts in points.items():
        parts.append(_check_points(pts))
        _check_psi_order(k)
    a = np.concatenate(parts) if parts else np.empty(0)
    ks = np.repeat(np.array(list(points), dtype=np.int64), [x.size for x in parts])
    return _psi_rows(p, ks, a, t)


def _lambert_may_pass(lnp: float, ks, xs):
    """Whether the Lambert sum at base e^lnp may take more than _EM_REACH
    terms, for orders ks at points xs (floats or arrays): False where its
    tail majorant at term _EM_REACH underflows to 0, so that it stops there
    at the latest and _em_instead returns None.  _psi_rows' prefilter over
    its rows; the float operations are _lambert_tail's."""
    return ks * math.log(_EM_REACH + 1) + (_EM_REACH + 1) * _x_ln(xs, lnp) >= _LN_TINY


def _psi_rows(
    p: QParam, ks: np.ndarray, xs: np.ndarray, t: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi^(k)(x) at every checked order k of ks and point x of xs, int and
    float arrays, as the arrays (value, err_bound, terms), each row as
    core._psi_point takes it: a row whose Lambert sum provably cannot stop
    within _EM_REACH terms by _psi_em, the others, however few, by one
    _lambert_rows pass.  Before any sum, the first row whose head is not
    finite raises q_digamma's OverflowError."""
    k_arr = np.asarray(ks, dtype=np.int64)
    x_arr = np.asarray(xs, dtype=np.float64)
    if not x_arr.size:
        return x_arr, x_arr, k_arr
    lnp, _, _, head = _psi_parts(p, 0)
    heads = _psi_heads(p, k_arr, x_arr, head)
    may_pass = _lambert_may_pass(lnp, k_arr, x_arr)
    if not may_pass.any():
        return _psi_lambert_rows(p, k_arr, x_arr, heads, t)
    n = x_arr.size
    values, errs, terms = np.empty(n), np.empty(n), np.empty(n, dtype=np.int64)
    lambert = np.ones(n, dtype=bool)
    for i in np.flatnonzero(may_pass).tolist():
        em = _em_instead(p, int(k_arr[i]), float(x_arr[i]), t)
        if em is not None:
            lambert[i] = False
            values[i], errs[i], terms[i] = em.value, em.err_bound, em.terms
    if lambert.any():
        rows = _psi_lambert_rows(p, k_arr[lambert], x_arr[lambert], heads[lambert], t)
        values[lambert], errs[lambert], terms[lambert] = rows
    return values, errs, terms


def _psi_heads(p: QParam, ks: np.ndarray, xs: np.ndarray, head: float) -> np.ndarray:
    """The h of core._psi_offsets at every row, with its float operations,
    given the head of _psi_parts.  At q > 1 the first row whose h leaves
    the double range raises q_digamma's OverflowError, as a one-point call
    at that x does."""
    if p.regime is Regime.SUB_UNIT:
        return np.where(ks == 0, head, 0.0)
    with np.errstate(over="ignore"):
        heads = np.where(ks == 0, head + math.log(p.q) * (xs - 0.5), 0.0)
    over = np.flatnonzero(heads == math.inf)
    if over.size:
        _psi_offsets(p, 0, float(xs[over[0]]), head)  # raises its OverflowError
    return heads


def _psi_lambert_rows(
    p: QParam, ks: np.ndarray, xs: np.ndarray, heads: np.ndarray, t: Truncation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi^(k)(x) at every checked order k of ks and point x of xs, with
    the heads of _psi_heads, as the arrays (value, err_bound, terms), each
    regime's series assembled around one _lambert_rows pass."""
    lnp, base, scale_of, _ = _psi_parts(p, int(ks.max()))
    scales = np.array(scale_of)[ks]
    partials, tails, terms = _lambert_rows(lnp, base, ks, xs, t, heads, scales, p.q)
    values = scales * partials
    values = np.where(ks == 0, heads + values, values)
    if p.regime is not Regime.SUB_UNIT:
        # only n = 1 picks up the ln q of the linear term relating the regimes
        values = np.where(ks == 1, values + math.log(p.q), values)
    return values, np.abs(scales) * tails, terms
