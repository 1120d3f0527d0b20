"""Exact identities under Hypothesis, on both sides of q = 1.

The draws are derandomized, so the suite stays deterministic: Hypothesis
takes the same examples on every run and keeps no example database.  Each
residual is bounded by the err_bounds of its evaluations plus a stated
rounding allowance with no 1 / |ln q| factor.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qfun import QParam, Truncation, q_digamma

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
