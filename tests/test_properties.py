"""Exact identities under Hypothesis, on both sides of q = 1.

The draws are derandomized, so the suite stays deterministic: Hypothesis
takes the same examples on every run and keeps no example database.  Each
residual is bounded by the err_bounds of its evaluations plus a stated
rounding allowance with no 1 / |ln q| factor; a grid pass equals its
one-point evaluation exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import (
    EvalContext,
    QParam,
    Truncation,
    ln_q_gamma,
    q_digamma,
    q_polygamma,
    q_psi_grid,
)

CAP = Truncation(max_terms=100_000_000)

near_one = st.builds(
    lambda side, log_d: QParam(1.0 + side * math.exp(log_d), allow_near_one=True),
    st.sampled_from((-1.0, 1.0)),
    st.floats(math.log(1e-5), math.log(1e-2)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(p=near_one, x=st.floats(0.05, 20.0))
def test_digamma_recurrence_near_one(p, x):
    # psi_q(x+1) - psi_q(x) = d/dx ln [x]_q = -ln q q^x / (1 - q^x), in
    # both regimes; x and x + 1 may fall on the two sides of the
    # Lambert/Euler-Maclaurin switch
    lnq = math.log(p.q)
    rhs = -lnq / math.expm1(-x * lnq)
    a, b = q_digamma(p, x, CAP), q_digamma(p, x + 1.0, CAP)
    allowance = 1e-14 * (abs(a.value) + abs(b.value) + abs(rhs) + 1.0)
    assert abs(b.value - a.value - rhs) <= a.err_bound + b.err_bound + allowance


def side_of_one(lo: float, hi: float) -> st.SearchStrategy[QParam]:
    """q = 1 -+ d on either side, with d log-uniform in [lo, hi]."""
    return st.builds(
        lambda side, log_d: QParam(1.0 + side * math.exp(log_d), allow_near_one=True),
        st.sampled_from((-1.0, 1.0)),
        st.floats(math.log(lo), math.log(hi)),
    )


# three draws in four with |q - 1| in [1e-4, 1e-1], the rest out to 0.99
both_regimes = st.one_of(
    side_of_one(1e-4, 1e-1), side_of_one(1e-4, 1e-1), side_of_one(1e-4, 1e-1),
    side_of_one(1e-1, 0.99),
)


def outcome(evaluate):
    """evaluate()'s result, or the type and text of the error it raises."""
    try:
        return evaluate()
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


# x log-uniform in [1e-3, 50]
points = st.floats(math.log(1e-3), math.log(50.0)).map(math.exp)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(p=both_regimes, x=points, k=st.integers(0, 8))
def test_one_row_grid_passes_equal_the_point_evaluations(p, x, k):
    # value, err_bound and terms, or the same error; near q = 1 the rows
    # run past k |ln q| = 40, where the kernels take 1 - q^k as 1.0
    point = outcome(lambda: q_digamma(p, x) if k == 0 else q_polygamma(p, x, k))
    assert outcome(lambda: q_psi_grid(p, k, [x])[0]) == point
    point = outcome(lambda: ln_q_gamma(p, x))
    assert outcome(lambda: EvalContext(p).ln_gamma_grid([x])[0]) == point
