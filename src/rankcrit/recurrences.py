"""The five recurrence polynomial families f, a, x, y, z.

Each family is a two-term recurrence

    F_{n+1} = D(t) * F_n' + (linear-in-n polynomial) * F_n + (scalar) * M(t) * F_{n-1}

with integer coefficients.  Polynomials are coefficient tuples (see
:mod:`rankcrit.polyring`); one step serves exact generation over Z and, when
a prime p is given, generation mod p, which avoids the huge exact
coefficients.  The constant terms F_N(0) mod p drive the rank criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

from ._primality import is_prime
from .polyring import constant_term, derivative, dot, trim


@dataclass(frozen=True)
class RecurrenceFamily:
    key: str                 # one-letter CLI name: f, a, x, y, z
    tag: str                 # F_E, A_VZ, X_A, Y_A, Z_A
    seeds: tuple[tuple, tuple]   # (F_0, F_1) as stored
    # step_coeffs(n) -> (D, P_cur, scalar_prev, M) with
    # F_{n+1} = D*F_n' + P_cur*F_n + scalar_prev * M * F_{n-1}
    step_coeffs: Callable[[int], tuple[tuple, tuple, int, tuple]]
    # The family is stored as scale * F_n so that every stored coefficient is an integer.
    scale: int = 1

    def __repr__(self):
        return f"RecurrenceFamily({self.tag})"


# --- family F_E:  f_{n+1} = -12(t+1)(t+2) f_n' + (4n+1)(2t+3) f_n - 2n(2n-1)(t^2+3t+3) f_{n-1}

def _coeffs_f(n):
    return (-24, -36, -12), (3 * (4 * n + 1), 2 * (4 * n + 1)), -2 * n * (2 * n - 1), (3, 3, 1)


# --- family A_VZ:  a_{n+1} = -(1-8t^3) a_n' - (16n+3) t^2 a_n - 4n(2n-1) t a_{n-1}

def _coeffs_a(n):
    return (-1, 0, 0, 8), (0, 0, -(16 * n + 3)), -4 * n * (2 * n - 1), (0, 1)


# --- family X_A:  x_{n+1} = -2(1-8t^3) x_n' - 8n t^2 x_n - n(2n-1) t x_{n-1}

def _coeffs_x(n):
    return (-2, 0, 0, 16), (0, 0, -8 * n), -n * (2 * n - 1), (0, 1)


# --- family Y_A:  y_{n+1} = -2(1-8t^3) y_n' - 8n t^2 y_n - n(2n+1) t y_{n-1}

def _coeffs_y(n):
    return (-2, 0, 0, 16), (0, 0, -8 * n), -n * (2 * n + 1), (0, 1)


# --- family Z_A:  z_{n+1} = -(t-1)(9t-1) z_n' + ((6t-2)n + 2) z_n - 2n(2n+1) t z_{n-1}
# with z_0 = 1/2, z_1 = 1.  The recurrence is linear, so w_n = 2 z_n satisfies it
# with the integer seeds w_0 = 1, w_1 = 2; the family is stored as w.

def _coeffs_z(n):
    return (-1, 10, -9), (2 - 2 * n, 6 * n), -2 * n * (2 * n + 1), (0, 1)


F_E = RecurrenceFamily("f", "F_E", ((1,), (3, 2)), _coeffs_f)
A_VZ = RecurrenceFamily("a", "A_VZ", ((1,), (0, 0, -3)), _coeffs_a)
X_A = RecurrenceFamily("x", "X_A", ((1,), ()), _coeffs_x)
Y_A = RecurrenceFamily("y", "Y_A", ((1,), ()), _coeffs_y)
Z_A = RecurrenceFamily("z", "Z_A", ((1,), (2,)), _coeffs_z, scale=2)

FAMILIES = {fam.key: fam for fam in (F_E, A_VZ, X_A, Y_A, Z_A)}


def step(family: RecurrenceFamily, n: int, prev: tuple, cur: tuple, p: int | None = None) -> tuple:
    """F_{n+1} from (F_{n-1}, F_n), reduced mod p if p is given; requires n >= 1."""
    if n < 1:
        raise ValueError("step index n must be >= 1")
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    scaled_prev_poly = tuple(prev_scalar * c for c in prev_poly)
    return dot(((d_poly, derivative(cur)), (cur_poly, cur), (scaled_prev_poly, prev)), p)


def _stored(family: RecurrenceFamily, p: int | None) -> Iterator[tuple]:
    """The stored polynomials scale * F_0, scale * F_1, ..., reduced mod p if p is given."""
    prev, cur = family.seeds
    if p is not None:
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        prev, cur = trim(c % p for c in prev), trim(c % p for c in cur)
    yield prev
    yield cur
    n = 1
    while True:
        prev, cur = cur, step(family, n, prev, cur, p)
        n += 1
        yield cur


def _unscaled(family: RecurrenceFamily, poly: tuple, p: int | None) -> tuple:
    """F_n from its stored form scale * F_n: Fractions over Q, residues mod p."""
    if family.scale == 1:
        return poly
    if p is None:
        return tuple(Fraction(c, family.scale) for c in poly)
    inverse = pow(family.scale, -1, p)
    return tuple(c * inverse % p for c in poly)


def _nth(family: RecurrenceFamily, N: int, p: int | None) -> tuple:
    if N < 0:
        raise ValueError("index N must be >= 0")
    return _unscaled(family, next(islice(_stored(family, p), N, None)), p)


def iter_family(family: RecurrenceFamily, p: int | None = None) -> Iterator[tuple]:
    """Yield F_0, F_1, F_2, ... keeping only a two-element window; mod p if p is given.

    Coefficients are ints, except for the z family over Q, whose coefficients
    are Fractions.  A modulus that is not an odd prime raises ValueError on
    the first ``next``.
    """
    return (_unscaled(family, poly, p) for poly in _stored(family, p))


def generate(family: RecurrenceFamily, N: int, p: int | None = None) -> tuple:
    """F_N over Z (over Q for z), or mod p if p is given (seeds for N in {0, 1})."""
    return _nth(family, N, p)


def generate_all(family: RecurrenceFamily, N: int, p: int | None = None) -> list[tuple]:
    """[F_0 ... F_N]; full-history variant used for table emission."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    return list(islice(iter_family(family, p), N + 1))


def constant_term_mod(family: RecurrenceFamily, N: int, p: int) -> int:
    """F_N(0) mod p for an odd prime p, computed entirely in mod-p arithmetic."""
    return constant_term(_nth(family, N, p))
