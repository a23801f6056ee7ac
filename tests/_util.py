from functools import cache
from itertools import islice
from typing import NamedTuple

from rankcrit._primality import is_prime
from rankcrit.polyring import constant_term, trim
from rankcrit.recurrences import FAMILIES, iter_family


def primes_leq(hi: int) -> list[int]:
    return [n for n in range(2, hi + 1) if is_prime(n)]


# How far the shared exact walk of each family goes: x and y to the row-length gate at
# n = 2000, a to the a/x constant-term identity at n = 600, f and z to the window-bound
# check at n = 300.
WALK_DEPTH = {"f": 300, "a": 600, "x": 2000, "y": 2000, "z": 300}


class Walk(NamedTuple):
    lengths: tuple[int, ...]   # len(F_n)
    terms: tuple               # F_n(0)


@cache
def exact_walk(key: str) -> Walk:
    """len(F_n) and F_n(0) for n = 0 .. WALK_DEPTH[key] from one exact walk of the family
    (over Q for z), cached so that no test walks a family twice."""
    lengths, terms = [], []
    for poly in islice(iter_family(FAMILIES[key]), WALK_DEPTH[key] + 1):  # one row at a time
        lengths.append(len(poly))
        terms.append(constant_term(poly))
    return Walk(tuple(lengths), tuple(terms))


def dot(pairs) -> tuple:
    """Sum of the products a*b over the (a, b) pairs, in exact arithmetic.

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
    return trim(out)


def derivative(a: tuple) -> tuple:
    return tuple(k * a[k] for k in range(1, len(a)))


def dot_step(family, n: int, prev: tuple, cur: tuple) -> tuple:
    """Stored F_{n+1} over Z from (F_{n-1}, F_n), multiplied out as written:
    D * F_n' + P_n * F_n + s_n * M * F_{n-1}.  The reference for the tap step."""
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    scaled_prev_poly = tuple(prev_scalar * c for c in prev_poly)
    return dot(((d_poly, derivative(cur)), (cur_poly, cur), (scaled_prev_poly, prev)))


ONE = (1,)


def add(a, b, p=None):
    return reduce(dot(((ONE, a), (ONE, b))), p)


def mul(a, b, p=None):
    return reduce(dot(((a, b),)), p)


def reduce(a, p=None):
    """a mod p, or a itself when p is None."""
    return trim(a if p is None else (c % p for c in a))


def rand_poly(rng, p=None, max_deg=8, bound=10 ** 6):
    return reduce([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))], p)
