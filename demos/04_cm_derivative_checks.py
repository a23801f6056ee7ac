#!/usr/bin/env python3
"""High-precision verification of the CM derivative identities.

The squared order-N Maass-Shimura derivative of theta2 at z = i equals a
closed form in f_N(0) and the period Omega_E; the eta-type series at
z = omega do the same for the x, y, z constants and Omega_A.  Working
precision is 256 bits; agreement lands far below the 1e-18 target.  Each
identity takes all its indices at once: one pass over the series gives
every derivative order.
"""

from rankcrit import verify_eta_identity, verify_theta2_identity

print("square family (theta2 at i):")
for r in verify_theta2_identity(range(9), 256):
    print(
        f"  N={r.N} k={r.k:>2}  {r.constant:<22} value={float(r.numeric):.6e}  "
        f"rel_err={float(r.rel_error):.2e}"
    )

print()
print("cube family (eta-type series at omega):")
by_case = {case: verify_eta_identity(range(5), case, 256) for case in ("x", "y", "z")}
for N in range(5):
    for case, reports in by_case.items():
        r = reports[N]
        print(
            f"  N={N} case={case} k={r.k:>2} order={r.order:>2}  "
            f"{r.constant:<22} rel_err={float(r.rel_error):.2e}"
        )

print()
print("E2*(z) = E2(z) - 3/(pi y) vanishes at both CM points:")
from rankcrit import e2star

print(f"  |E2*(i)|     = {float(abs(e2star('i', 256))):.3e}")
print(f"  |E2*(omega)| = {float(abs(e2star('omega', 256))):.3e}")
