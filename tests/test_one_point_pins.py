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
output, run this file with python and say why the results changed.
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
    "psi0": "3135664655ec38477ce78057eb08d969d66ebde1ee00798b593e35d9beee8a2a",
    "psi1": "47f4ce4a723dd7eac51b94982861b71bbeb1d90aa961fb808f5fa2c4bc55d65f",
    "psi2": "85fdb3fc19c6d96726db2f4f0f8b23f562c7fa1da2e6375e081069960df0b2dc",
    "psi3": "056d9fe5fcb9b4d05e2711a0229777af79bf9b4c590efb63ed869deb3fc399e9",
    "psi4": "9a37420376d6cb80f658bf31f9a414f50371c2cd777316ed3d4aec792d5bca86",
    "psi5": "75d6f9230fb090f2f4cd10bee43c8c927e5f960ad068e929569b1f24ce112faa",
    "psi6": "89f45d266eb8663393025ffaef1c9b898732fc118486deee46322498bca717cb",
    "psi7": "fa923afc08488e5584d92e56b4c0b252b3adc85bc87e07fe8fe50d94f667c758",
    "psi8": "386e1ca7a9d4a14c87f54a0a996b342b72929239d1751c56a9e7dd7b00fb1585",
    "ln_gamma": "e1547e7d8dea2acc1158ebfe663640615867580452d0287e2c7f22dcbcda9436",
    "gamma": "4c4ae707ddafd3a74ea268dc579059408ffdac422aa30bc6c1567d59bac74783",
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
