"""One-point sums past 16,320 terms, pinned to values of the blocked sums.

Up to 16,320 terms (the chunks of 64 to 8,192 terms) a blocked sum does the
float operations of a whole-chunk one, bit for bit.  Past that, a chunk of
more than 8,192 terms is summed in blocks, each block's sum rounded on its
own and the partial taken as math.fsum of them all.  The cases are a seeded
draw of psi^(0..8), ln_q_gamma and q_gamma at |q - 1| in [1e-4, 1e-2]: the
first few of each kind whose sum takes more than 16,320 and at most
2,000,000 terms.  tests/long_sums_reference.json holds them with the
results of capture() below, so every row holds blocked sums, summed at
ln p taken from q.  The comparison still allows the value to move at the
rounding level, but not the term count or the tail bound.  To re-capture
it after an intended change of the term counts or bounds, run this file
with python and say why they changed.

At every pinned ln_gamma and gamma point the public ln_q_gamma and q_gamma
take the Euler-Maclaurin sum, since the product series cannot stop within
16,320 terms there.  Those pins are therefore checked against the product
series alone, summed by the one-point chunk loop core._chunk_sum, which
still backs the fallback, and the public results against the pins within
both err_bounds and ROUNDING.
"""

import json
import math
import random
import sys
from pathlib import Path

from qfun import (
    DEFAULT_TRUNCATION,
    EvalResult,
    QParam,
    ln_q_gamma,
    q_digamma,
    q_gamma,
    q_polygamma,
)
from qfun import core

REFERENCE = Path(__file__).with_name("long_sums_reference.json")
SEED = 20151119
KINDS = [f"psi{n}" for n in range(9)] + ["ln_gamma", "gamma"]
PER_KIND = 4
TERMS = (16_320, 2_000_000)
# rounding of the product series beyond both err_bounds, relative to
# 1 + |pre| on the log scale (see tests/test_ln_gamma_em.py); at these pins
# it reached 1.2e-14
ROUNDING = 1e-12


def draw(seed: int = SEED):
    """Endless seeded (kind, q, x): kinds in turn, |q - 1| log-uniform in
    [1e-4, 1e-2] on both sides of 1, x log-uniform in [0.05, 20]."""
    rng = random.Random(seed)
    i = 0
    while True:
        d = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
        q = 1.0 + rng.choice((-1.0, 1.0)) * d
        x = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        yield KINDS[i % len(KINDS)], q, x
        i += 1


def evaluate(kind: str, q: float, x: float):
    p = QParam(q, allow_near_one=True)
    if kind == "ln_gamma":
        return ln_q_gamma(p, x)
    if kind == "gamma":
        return q_gamma(p, x)
    n = int(kind[3:])
    return q_polygamma(p, x, n) if n else q_digamma(p, x)


def series(kind: str, q: float, x: float):
    """The sum that a case pins: the public psi^(n), and ln_q_gamma and
    q_gamma by the product series alone, at their default targets."""
    if kind not in ("ln_gamma", "gamma"):
        return evaluate(kind, q, x)
    t = DEFAULT_TRUNCATION
    pre, lnp, base = core._ln_gamma_parts(QParam(q, allow_near_one=True), x)

    def target(s):
        return max(0.5 * t.rel_tol, t.abs_tol) if kind == "gamma" else t.target(pre + s)

    s, tail, terms = core._chunk_sum(
        core._logprod_block(lnp, x), lambda k: core._logprod_tail(lnp, base, x, k), t, target,
        f"q={q}, x={x}",
    )
    if kind == "ln_gamma":
        return EvalResult(pre + s, tail, terms)
    value = math.exp(pre + s)
    return EvalResult(value, value * math.expm1(tail), terms)


def test_long_sums_match_the_reference():
    ref = json.loads(REFERENCE.read_text("utf-8"))
    assert ref["seed"] == SEED
    cases = ref["cases"]
    assert sorted({c["kind"] for c in cases}) == sorted(KINDS)
    drawn = draw()
    index = 0
    for c in cases:
        while index <= c["index"]:
            want_inputs = next(drawn)
            index += 1
        assert (c["kind"], c["q"], c["x"]) == want_inputs
        assert TERMS[0] < c["terms"] <= TERMS[1]
        got = series(c["kind"], c["q"], c["x"])
        assert (got.terms, got.err_bound) == (c["terms"], c["err_bound"]), c
        assert abs(got.value - c["value"]) <= c["err_bound"] + 1e-14 * abs(c["value"]), c


def test_public_gamma_results_agree_with_the_pinned_product_sums():
    cases = json.loads(REFERENCE.read_text("utf-8"))["cases"]
    cases = [c for c in cases if c["kind"] in ("ln_gamma", "gamma")]
    assert len(cases) == 8
    for c in cases:
        got = evaluate(c["kind"], c["q"], c["x"])
        assert got.terms < 40, c
        pre = core._ln_gamma_parts(QParam(c["q"], allow_near_one=True), c["x"])[0]
        allowance = ROUNDING * (1.0 + abs(pre))
        if c["kind"] == "gamma":
            allowance *= c["value"]
        budget = got.err_bound + c["err_bound"] + allowance
        assert abs(got.value - c["value"]) <= budget, (c, got)


def capture() -> list[dict]:
    cases: list[dict] = []
    taken = dict.fromkeys(KINDS, 0)
    for index, (kind, q, x) in enumerate(draw()):
        if taken[kind] == PER_KIND:
            if all(n == PER_KIND for n in taken.values()):
                return cases
            continue
        try:
            r = series(kind, q, x)
        except OverflowError:
            continue
        if TERMS[0] < r.terms <= TERMS[1]:
            taken[kind] += 1
            cases.append({"index": index, "kind": kind, "q": q, "x": x, "value": r.value,
                          "err_bound": r.err_bound, "terms": r.terms})
    return cases


if __name__ == "__main__":
    captured_at = sys.argv[1] if len(sys.argv) > 1 else ""
    ref = {"captured_at": captured_at, "seed": SEED, "cases": capture()}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", "utf-8")
    print(len(ref["cases"]), "cases")
