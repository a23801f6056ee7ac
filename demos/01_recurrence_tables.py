#!/usr/bin/env python3
"""Generate the five recurrence polynomial families and print their first rows.

The f family attaches to y^2 = x^3 + p*x, the a/x/y/z families to
x^3 + y^3 = p.  Each family follows a two-term recurrence mixing the
derivative of the current row with scalar multiples of the last two rows;
only the constant terms matter for the rank criteria, but the full rows are
cheap at this size.
"""

from rankcrit import FAMILIES, generate_all, render

for key in "faxyz":
    family = FAMILIES[key]
    print(f"--- family {key} ---")
    for n, poly in enumerate(generate_all(family, 9)):
        print(f"  {key}_{n}(t) = {render(poly)}")
    print()

# The a and x families test the same primes; their constant terms differ,
# but divisibility by p agrees (and in fact |a_3N(0)| = |x_3N(0)| here).
from rankcrit import A_VZ, X_A, generate

for n in (0, 3, 6, 9):
    a0 = generate(A_VZ, n)[0]
    x0 = generate(X_A, n)[0]
    print(f"n={n}: a_n(0) = {a0:>8d}   x_n(0) = {x0:>8d}")
