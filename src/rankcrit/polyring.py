"""Dense univariate polynomials as plain coefficient tuples.

A polynomial is a tuple of coefficients ascending by degree with no trailing
zeros; the zero polynomial is ``()``.  Coefficients are ints (residues mod p
are ints in ``[0, p)``); ``fractions.Fraction`` coefficients work as well.
"""

from __future__ import annotations

from typing import Iterable


def trim(coeffs: Iterable) -> tuple:
    """The canonical tuple: coefficients with trailing zeros dropped."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def dot(pairs: Iterable[tuple[tuple, tuple]], p: int | None = None) -> tuple:
    """Sum of the products a*b over the (a, b) pairs, each coefficient reduced mod p if p is given.

    The outer loop runs over the nonzero coefficients of ``a``, so put the
    short polynomial of each pair first.
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    out = [0] * max((len(a) + len(b) - 1 for a, b in pairs), default=0)
    for a, b in pairs:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
    if p is not None:
        out = [c % p for c in out]
    return trim(out)


def constant_term(a: tuple):
    return a[0] if a else 0


def derivative(a: tuple) -> tuple:
    return tuple(k * a[k] for k in range(1, len(a)))


def _term(c, k: int) -> str:
    var = "t" if k == 1 else f"t^{k}"
    if k == 0:
        return f"{c}"
    if c == 1:
        return var
    return f"{c}*{var}"


def render(a: tuple) -> str:
    """Human-readable form: ``c_k*t^k + ... + c_0``, highest degree first."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        if not parts:
            parts.append(("-" if negative else "") + _term(mag, k))
        else:
            parts.append((" - " if negative else " + ") + _term(mag, k))
    return "".join(parts)
