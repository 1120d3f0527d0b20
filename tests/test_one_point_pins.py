"""Seeded one-point results pinned to the bit.

q_digamma, q_polygamma for k = 1..8, ln_q_gamma and q_gamma are evaluated
at seeded points in both regimes, |q - 1| log-uniform in [1e-3, 0.9] on
either side of 1 and x log-uniform in [0.01, 50].  Each result is spelt as
its value, err_bound and terms, with float.hex for every float, or as the
type and message of what it raised; the same points under a 64-term cap
add the NonConvergent messages.  The lines of each kind are hashed, and
DIGESTS pins the hashes, so a change to how the one-point sums run must
leave every bit of them as it was: in particular q_gamma's, whose series
stops at a log-scale target.  To re-capture after an intended change of
output, run this file with python and say why the results changed.  Last
re-captured when the q > 1 series moved from the log of the rounded base
1/q to ln p = -ln q: only q > 1 results moved, none of them in its term
count.
"""

import hashlib
import math
import random

from qfun import QParam, Truncation, ln_q_gamma, q_digamma, q_gamma, q_polygamma

SEED = 20260115
PER_KIND = 24
KINDS = [f"psi{n}" for n in range(9)] + ["ln_gamma", "gamma"]
CAPPED = Truncation(max_terms=64)

DIGESTS = {
    "psi0": "dc8cf1948f4f1f1d9a46b1400a1167f628b27a6ec41e6f68a6c26b968d004241",
    "psi1": "71652c9dc91e136dd82b1aff7635753afe5e1d4f179317bcd6855a7811385d4b",
    "psi2": "96832f1cd2f63e526bd22a919ccbc640db0a418e8b3fbab9a7d9fc5d93ae88bc",
    "psi3": "f91f61d518a11501785beddd49a6e372536d7ef9fe2d0fb34870da9a143e91f3",
    "psi4": "39e0431dae7564c23cfc375b402d192d59314b34e8a804fb3dbd5b4c5979a6da",
    "psi5": "28c603aa19d39399feb923d51a45367ab2196d38f1ccf6a301dad0867a4df606",
    "psi6": "da9949a14b908821f6597b3b298ccd881399505effdc963b728f83fe5928b203",
    "psi7": "99f6c0a4e3f1e264735908db523e8643d44e8433f785340d69bf1d35a223d62c",
    "psi8": "451840e28986983149698c75a69293b23440ddc135ce62bfa34493976b773dd9",
    "ln_gamma": "cbc03f36d40e111698b252f25f222a96f508986a66ead0a475efc93737961c3a",
    "gamma": "f494d6c60f15a4c2aca391b461b417a7c7c10be34bbf65eba61852d82466f8a1",
}


def points(kind: str, seed: int = SEED, count: int = PER_KIND):
    """count seeded (q, x) for kind: |q - 1| log-uniform in [1e-3, 0.9],
    alternating below and above 1, and x log-uniform in [0.01, 50]."""
    rng = random.Random(f"{seed}:{kind}")
    for i in range(count):
        d = math.exp(rng.uniform(math.log(1e-3), math.log(0.9)))
        x = math.exp(rng.uniform(math.log(0.01), math.log(50.0)))
        yield (1.0 - d if i % 2 else 1.0 + d), x


def evaluate(kind: str, q: float, x: float, trunc: Truncation | None = None):
    p = QParam(q)
    if kind == "ln_gamma":
        return ln_q_gamma(p, x, trunc)
    if kind == "gamma":
        return q_gamma(p, x, trunc)
    n = int(kind[3:])
    return q_polygamma(p, x, n, trunc) if n else q_digamma(p, x, trunc)


def spelt(kind: str, q: float, x: float, trunc: Truncation | None = None) -> str:
    try:
        r = evaluate(kind, q, x, trunc)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{r.value.hex()} {r.err_bound.hex()} {r.terms}"


def digest(kind: str) -> str:
    h = hashlib.sha256()
    for q, x in points(kind):
        for trunc in (None, CAPPED):
            h.update(f"{q.hex()} {x.hex()} {spelt(kind, q, x, trunc)}\n".encode("utf-8"))
    return h.hexdigest()


def test_points_cover_both_regimes_and_the_cap():
    for kind in KINDS:
        qs = [q for q, _ in points(kind)]
        assert any(q < 1.0 for q in qs) and any(q > 1.0 for q in qs), kind
        capped = [spelt(kind, q, x, CAPPED) for q, x in points(kind)]
        assert any(s.startswith("NonConvergent: term cap 64") for s in capped), kind


def test_one_point_results_match_the_pins():
    assert {kind: digest(kind) for kind in KINDS} == DIGESTS


if __name__ == "__main__":
    for kind in KINDS:
        print(f'    "{kind}": "{digest(kind)}",')
