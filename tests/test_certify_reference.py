"""Seeded certification reports pinned to a digest.

The reports of verify_theorem_ratio_lcm (balanced and unbalanced specs) and
verify_g_beta_lcm at seeded q in [0.15, 0.85] are rendered with repr, which
spells every float exactly, and hashed.  tests/certify_reference.json holds
the digest; a change to how the sweeps evaluate or reduce their margins
must leave every bit of every report as it was.  To re-capture it after an
intended change of output, run this file with python and say why the
reports changed.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from qfun import QParam, RatioSpec, beta_star, verify_g_beta_lcm, verify_theorem_ratio_lcm

REFERENCE = Path(__file__).with_name("certify_reference.json")
SEED = 20151018
COUNT = 200
Q_RANGE = (0.15, 0.85)


def reports(seed: int = SEED, count: int = COUNT):
    """count seeded reports: in each eight, three balanced ratio specs,
    three unbalanced ones and two g-beta weights in [beta*, beta* + 1]."""
    rng = random.Random(seed)
    kinds = ["balanced"] * 3 + ["unbalanced"] * 3 + ["g-beta"] * 2
    for i in range(count):
        kind = kinds[i % len(kinds)]
        q = rng.uniform(*Q_RANGE)
        p = QParam(q)
        if kind == "g-beta":
            yield verify_g_beta_lcm(p, beta=beta_star(p) + rng.random())
            continue
        a = rng.uniform(0.5, 1.5)
        if kind == "balanced":
            b = a * rng.uniform(1.5, 3.0)
            alpha = rng.uniform(0.3, 2.0)
            spec = RatioSpec(a, b, alpha, alpha * a / b)
        else:
            b = a * rng.choice([1.5, 2.0, 2.5, 3.0])
            alpha = rng.uniform(0.3, 1.2)
            spec = RatioSpec(a, b, alpha, alpha * rng.uniform(1.3, 2.5))
        yield verify_theorem_ratio_lcm(spec, p)


def digest(seed: int = SEED, count: int = COUNT) -> str:
    h = hashlib.sha256()
    for rep in reports(seed, count):
        h.update(repr(rep).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def test_seeded_certifications_match_the_reference():
    ref = json.loads(REFERENCE.read_text("utf-8"))
    assert (ref["seed"], ref["count"]) == (SEED, COUNT)
    assert digest() == ref["sha256"]


if __name__ == "__main__":
    captured_at = sys.argv[1] if len(sys.argv) > 1 else ""
    ref = {"captured_at": captured_at, "seed": SEED, "count": COUNT, "sha256": digest()}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", "utf-8")
    print(ref["sha256"])
