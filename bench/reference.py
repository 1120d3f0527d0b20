"""Independent references that the benchmark checks qfun's outputs against.

Nothing here is timed.  The q-polygamma reference never sums qfun's
Lambert series.  It differentiates L(y) = ln(1 - p^y), p = min(q, 1/q),
in high precision with mpmath.diff, and sums psi^(n)(x) = pre - sum_j
D^{n+1} L(x + j) over j >= 0: the first terms directly up to
y0 = x + M >= EM_SHIFT, the rest by Euler-Maclaurin at y0.

Euler-Maclaurin at y0 converges like (ln p / 2 pi)^(2 EM_TERMS).  For
|ln p| > 0.5 the direct part instead runs until p^j < 1e-20, where the
tail no longer matters.

A check passes when |qfun - reference| stays within the returned
err_bound plus ROUND_REL times the magnitudes the value is assembled
from.  Those magnitudes include the closed-form head that the series is
added to, because near q = 1 the head and the series cancel.
"""

from __future__ import annotations

import math

import mpmath as mp

from qfun import QParam, q_bracket

# Rounding allowance, relative to the magnitudes a value is assembled from.
# The worst ratio seen over 1500 near-one ln_q_gamma recurrences was 2.1e-14;
# over the polygamma references it was below 1e-15.
ROUND_REL = 1e-12
EM_SHIFT = 20
EM_TERMS = 8
DPS = 20


def psi_ref(q: float, x: float, n: int) -> float:
    """n-th derivative of the q-digamma at x (n = 0 is the digamma)."""
    abs_ln_p = abs(math.log(q))
    if abs_ln_p <= 0.5:
        m = max(0, math.ceil(EM_SHIFT - x))
    else:
        m = math.ceil(46.0 / abs_ln_p)
    with mp.workdps(DPS):
        qm, xm = mp.mpf(q), mp.mpf(x)
        ln_p = -abs(mp.log(qm))

        def big_l(y):
            return mp.log(-mp.expm1(y * ln_p))

        direct = mp.diff(lambda y: mp.fsum(big_l(y + j) for j in range(m)), xm, n + 1) if m else 0
        d = list(mp.diffs(big_l, xm + m, n + 2 * EM_TERMS))
        tail = -d[n] + d[n + 1] / 2 - mp.fsum(
            mp.bernoulli(2 * k) / mp.factorial(2 * k) * d[n + 2 * k]
            for k in range(1, EM_TERMS + 1)
        )
        if q < 1.0:
            pre = -mp.log(1 - qm) if n == 0 else 0
        elif n == 0:
            pre = -mp.log(qm - 1) + (xm - mp.mpf(1) / 2) * mp.log(qm)
        else:
            pre = mp.log(qm) if n == 1 else 0
        return float(pre - direct - tail)


def psi_head(q: float, x: float, n: int) -> float:
    """Magnitude of the closed-form part of psi^(n)_q(x)."""
    if q < 1.0:
        return abs(math.log1p(-q)) if n == 0 else 0.0
    if n == 0:
        return abs(math.log(q - 1.0)) + abs((x - 0.5) * math.log(q))
    return abs(math.log(q)) if n == 1 else 0.0


def psi_error(q: float, x: float, n: int, value: float, err_bound: float) -> str | None:
    ref = psi_ref(q, x, n)
    budget = err_bound + ROUND_REL * (abs(value) + psi_head(q, x, n))
    if abs(value - ref) <= budget:
        return None
    return f"psi^({n}) at q={q!r}, x={x!r}: {value!r} vs reference {ref!r}, budget {budget:.3e}"


def _ln_gamma_head(q: float, x: float) -> float:
    """Magnitude of the closed-form prefactor of ln Gamma_q(x)."""
    if q < 1.0:
        return abs((1.0 - x) * math.log1p(-q))
    return abs((1.0 - x) * math.log(q - 1.0) + 0.5 * x * (x - 1.0) * math.log(q))


def recurrence_error(p: QParam, x: float, r0, r1, log_scale: bool) -> str | None:
    """Check Gamma_q(x+1) = [x]_q Gamma_q(x) from r0 at x and r1 at x + 1.

    log_scale: r0 and r1 are ln_q_gamma results; otherwise q_gamma results,
    whose relative rounding is the absolute rounding of the log.
    """
    q = p.q
    bracket = q_bracket(p, x)
    mag = 1.0 + 2.0 * (_ln_gamma_head(q, x) + _ln_gamma_head(q, x + 1.0)) + abs(math.log(bracket))
    if log_scale:
        resid = abs(r1.value - r0.value - math.log(bracket))
        budget = r0.err_bound + r1.err_bound + ROUND_REL * (mag + abs(r0.value) + abs(r1.value))
    else:
        resid = abs(r1.value - bracket * r0.value)
        mag += abs(math.log(r0.value)) + abs(math.log(r1.value))
        budget = r1.err_bound + bracket * r0.err_bound + ROUND_REL * mag * r1.value
    if resid <= budget:
        return None
    kind = "ln_q_gamma" if log_scale else "q_gamma"
    return f"{kind} recurrence at q={q!r}, x={x!r}: residual {resid:.3e} > budget {budget:.3e}"


def ratio_margin_ref(q: float, a: float, b: float, alpha: float, beta: float,
                     n: int, x: float) -> tuple[float, float]:
    """(-1)^n (ln Gamma_q(ax)^alpha / Gamma_q(bx)^beta)^(n) and its rounding budget."""
    t1 = alpha * a**n * psi_ref(q, a * x, n - 1)
    t2 = beta * b**n * psi_ref(q, b * x, n - 1)
    mag = abs(t1) + abs(t2) + (abs(alpha) * a**n + abs(beta) * b**n) * psi_head(q, x, n - 1)
    return (-1.0) ** n * (t1 - t2), ROUND_REL * mag


def g_beta_margin_ref(q: float, beta: float, n: int, x: float) -> tuple[float, float]:
    """(-1)^n (ln g_beta)^(n) at base q, from the duplication form that
    qfun.theorems.g_beta_log_deriv documents, with every psi at base q^2."""
    q2 = q * q
    c = 0.5 * beta * (1.0 - q2) / (2.0 * math.log(q))
    terms = (
        2.0 * psi_ref(q2, x + 0.5, n - 1),
        -2.0 * psi_ref(q2, x + 1.0, n - 1),
        (0.5 + c) * psi_ref(q2, x, n),
        0.5 * psi_ref(q2, x + 0.5, n),
        -c * psi_ref(q2, x + 1.0, n),
    )
    mag = math.fsum(abs(t) for t in terms) + 4.0 * psi_head(q2, x, n - 1)
    return (-1.0) ** n * math.fsum(terms), ROUND_REL * mag
