"""Run the whole claim registry and read the margins.

Every registered monotonicity or inequality claim is executed at q = 0.5
and at q = 2 where the registry says its statement holds, printing the
worst margin and any counterexample.  The q > 1 runs of the ratio claims
are the interesting ones: the sub-unit statements do not survive there,
and the reports show exactly where they break.
"""

from qfun import QParam, run_claim
from qfun.theorems import CLAIMS


def show(rep):
    mark = "pass" if rep.passed else "FAIL"
    print(f"  [{mark}] worst margin {rep.worst_margin:+.3e}", end="")
    if rep.worst_point is not None:
        wp = rep.worst_point
        loc = []
        if wp.get("n_order") is not None:
            loc.append(f"n={wp['n_order']}")
        if wp.get("x") is not None:
            loc.append(f"x={wp['x']:.6g}")
        if loc:
            print(f" at {' '.join(loc)}", end="")
    print()
    if rep.counterexample is not None:
        ce = rep.counterexample
        print(f"         counterexample: n={ce.get('n_order')} x={ce.get('x')} "
              f"margin={ce['margin']:.3e}")
    for note in rep.notes:
        print(f"         note: {note}")


def main():
    for q in (0.5, 2.0):
        p = QParam(q)
        print(f"== q = {q} ==")
        for claim_id, claim in CLAIMS.items():
            print(f"{claim_id}:")
            if claim.supports(p):
                show(run_claim(claim_id, p))
            else:
                print("  [skip] stated for 0 < q < 1 only")
        print()


if __name__ == "__main__":
    main()
