"""Where the q-digamma crosses zero.

The function psi_q has a single positive zero x0(q), always inside (1, 2).
This script tracks it across both regimes and watches it drift toward the
classical digamma zero 1.46163... as q approaches 1.
"""

from qfun import QParam, Truncation, digamma_zero, q_digamma, q_euler_mascheroni

CLASSICAL_ZERO = 1.4616321449683623


def main():
    print("== x0(q) across the parameter range ==")
    print(f"{'q':>8}  {'x0':>18}  {'residual':>10}  iters")
    for q in (0.05, 0.2, 0.5, 0.8, 0.95, 2.0, 5.0, 20.0):
        z = digamma_zero(QParam(q))
        print(f"{q:8.2f}  {z.x0:18.15f}  {z.residual:10.1e}  {z.iterations:5d}")

    print()
    print("== sign change around the zero at q = 0.5 ==")
    p = QParam(0.5)
    z = digamma_zero(p)
    for dx in (-0.2, -0.05, 0.0, 0.05, 0.2):
        v = q_digamma(p, z.x0 + dx).value
        print(f"psi(x0{dx:+.2f}) = {v:+.3e}")

    print()
    print("== q -> 1 recovers the classical zero ==")
    t = Truncation(rel_tol=1e-12, max_terms=10_000_000)
    for q in (0.9, 0.99, 0.999, 0.9999):
        z = digamma_zero(QParam(q, allow_near_one=True), tol=1e-10, trunc=t)
        print(f"q={q:<7} x0={z.x0:.10f}  gap to classical {abs(z.x0 - CLASSICAL_ZERO):.2e}"
              f"  iters {z.iterations}")
    print("(near q = 1 the Euler-Maclaurin sum picks the bracket and locates the zero,")
    print(" so iters, the Lambert q-digamma evaluations, falls to a few)")

    print()
    print("== the q-Euler-Mascheroni constant rides along ==")
    for q in (0.5, 0.9, 0.9999):
        g = q_euler_mascheroni(QParam(q, allow_near_one=True), trunc=t)
        print(f"q={q:<7} gamma_q = {g:.12f}")
    print("(classical gamma = 0.577215664902)")


if __name__ == "__main__":
    main()
