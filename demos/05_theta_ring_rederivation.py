#!/usr/bin/env python3
"""Re-derive the f family inside the theta-constant polynomial ring.

Iterating the weight-raising derivation on th2 (with the weight-4 Eisenstein
combination th2^8 + th2^4 th4^4 + th4^8 as correction term) and collapsing
each row by th4^4 = (1+t) th2^4 reproduces the univariate f recurrence.
The two routes share no code, so agreement validates both.
"""

from rankcrit import generate, normalize_to_t, render, rs_derivation, vz_sequence
from rankcrit.recurrences import F_E
from rankcrit.symbolic import TH2

print("derivation images of the generators:")
print(f"  d(th2) = {rs_derivation(TH2)}")

print()
seq = vz_sequence(12)
for n in (0, 1, 2, 5, 9, 12):
    via_ring = normalize_to_t(seq[n], n)
    via_recurrence = generate(F_E, n)
    status = "match" if via_ring == via_recurrence else "MISMATCH"
    shown = render(via_ring)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    print(f"  n={n:>2}: {status}  f_n = {shown}")

print()
print("bivariate row F_2 (weight 9/2, theta-degree 9):")
print(f"  {seq[2]}")
