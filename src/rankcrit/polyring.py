"""Dense univariate polynomials as plain coefficient tuples.

A polynomial is a tuple of coefficients ascending by degree with no trailing
zeros; the zero polynomial is ``()``.  Coefficients are ints (residues mod p
are ints in ``[0, p)``); ``fractions.Fraction`` coefficients work as well.
The recurrence steps themselves live in :mod:`rankcrit.recurrences`.
"""

from __future__ import annotations

import sys
from typing import Iterable


def trim(coeffs: Iterable) -> tuple:
    """The canonical tuple: coefficients with trailing zeros dropped."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def constant_term(a: tuple):
    return a[0] if a else 0


def _term(c, k: int) -> str:
    var = "t" if k == 1 else f"t^{k}"
    if k == 0:
        return f"{c}"
    if c == 1:
        return var
    return f"{c}*{var}"


def render(a: tuple) -> str:
    """Human-readable form: ``c_k*t^k + ... + c_0``, highest degree first.

    Coefficients of any size print in full: CPython's limit on the digits of
    an int-to-str conversion is lifted for the call and then restored.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _render(a)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _render(a)
    finally:
        set_limit(limit)


def _render(a: tuple) -> str:
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
