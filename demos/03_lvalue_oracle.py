#!/usr/bin/env python3
"""Check the divisibility criterion against direct L-value computation.

S_p = 2 p^{1/4} L(E_p, 1) / Omega_E should be a nonnegative integer, zero
exactly when the criterion predicts rank 2.  Nothing here touches the
recurrences: the Dirichlet coefficients a_n come from complex multiplication
(the quartic Hecke character of Z[i] summed over the lattice points of each
norm), the conductor from the closed rule for y^2 = x^3 + A x (Tate's
algorithm is its reference in the tests), L(1) from the exponential sum.
"""

from rankcrit import scan, sp

verdicts = {v.p: v.divisible for v in scan("Ep", 2, 250)}

print(f"{'p':>5} {'criterion':>10} {'S_p':>14} {'rounded':>8} {'residual':>10}")
for p, divisible in sorted(verdicts.items()):
    rep = sp(p, tol=1e-8)
    print(
        f"{p:>5} {str(divisible):>10} {rep.s_real:>14.9f} {rep.s_rounded:>8} "
        f"{rep.residual:>10.2e}"
    )
    agree = (rep.s_rounded == 0) == divisible
    if not agree:
        raise SystemExit(f"criterion and oracle disagree at p={p}")

print()
print("All oracle values concordant with the divisibility criterion.")
