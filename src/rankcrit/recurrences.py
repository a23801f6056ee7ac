"""The five recurrence polynomial families f, a, x, y, z.

Each family is a two-term recurrence

    F_{n+1} = D(t) * F_n' + (linear-in-n polynomial) * F_n + (scalar) * M(t) * F_{n-1}

with integer coefficients.  Exact generation over Z steps coefficient tuples
of plain ints (see :mod:`rankcrit.polyring`) by the tap rule

    F_{n+1}[j] = sum_d (P_n[d] + D[d+1] * (j - d)) * F_n[j - d]
                 + s_n * sum_e M[e] * F_{n-1}[j - e],

which folds the derivative into the taps on F_n (d runs from -1, with
P_n[-1] = 0), so F_n' is never built.  Every tap with a nonzero multiplier
is one C-level ``map(mul, ...)`` of an arithmetic progression in j (a
constant for the taps on F_{n-1}) against the shifted coefficients, and
the taps are summed lazily by ``map(add, ...)``.  Generation mod p, which
avoids the huge exact coefficients, steps int64 numpy arrays of residues
instead, for primes p below ``_P_MAX``.  The constant terms F_N(0) mod p
drive the rank criteria; ``constant_term_mod`` steps only the coefficients
that can reach F_N(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, mul
from typing import Callable, Iterator

import numpy as np

from ._primality import is_prime
from .polyring import trim


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


# The mod-p step sums, for each output coefficient, at most len(D) + len(P) + len(M)
# <= _MAX_TERMS products of two residues, each at most (p-1)^2, before its one
# `% p`; _MAX_TERMS * (p-1)^2 < 2^63 holds exactly when p < _P_MAX (about 1.01e9).
_MAX_TERMS = 9
_P_MAX = math.isqrt((2**63 - 1) // _MAX_TERMS) + 2

_BLOCK = 1024        # steps per batch of multipliers, so memory follows the polynomials, not N
_UNCUT = 2**62       # a width that cuts nothing


def _check_fits(p: int) -> None:
    if p >= _P_MAX:
        raise OverflowError(f"modulus {p} is not below {_P_MAX}: int64 residues would overflow")


def _multipliers(family: RecurrenceFamily, p: int, ns: np.ndarray) -> list[tuple[int, list, list]]:
    """D, P_n and s_n * M mod p at the step indices ns, each as (offset, kernels, live).

    ``kernels[i]`` is the multiplier at step ``ns[i]`` from t^offset up
    (columns that vanish at every step are cut off): a plain int when one
    column is left, else an int64 array stored reversed for ``np.correlate``.
    ``live[i]`` says whether it is nonzero.  Every coefficient is a polynomial
    of degree <= 2 in n, so it is interpolated from n = 0, 1, 2.
    """
    samples = []
    for n in (0, 1, 2):
        d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
        samples.append((d_poly, cur_poly, tuple(prev_scalar * c for c in prev_poly)))
    n = (ns % p)[:, None]
    out = []
    for v0, v1, v2 in zip(*samples):
        c2 = [(a - 2 * b + c) // 2 for a, b, c in zip(v0, v1, v2)]
        c1 = [b - a - q for a, b, q in zip(v0, v1, c2)]
        rows = (np.array(v0) % p + np.array(c1) % p * n % p + np.array(c2) % p * (n * n % p) % p) % p
        cols = np.flatnonzero(rows.any(axis=0))
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, 1)
        if hi - lo == 1:
            kernels = rows[:, lo].tolist()
        else:
            kernels = list(np.ascontiguousarray(rows[:, lo:hi][:, ::-1]))
        out.append((lo, kernels, rows.any(axis=1).tolist()))
    return out


def _step_mod(mults, i: int, prev: np.ndarray, cur: np.ndarray, weights: np.ndarray, p: int,
              width: int) -> np.ndarray:
    """Stored F_{n+1} mod p, its coefficients below ``width`` only, from F_{n-1} and
    F_n (int64 residues) and the multipliers ``mults`` of step n at index i."""
    deriv = cur[1:width + 1]
    deriv = deriv * weights[:len(deriv)] % p
    parts = []
    for (off, kernels, live), x in zip(mults, (deriv, cur, prev)):
        if live[i] and len(x) and off < width:
            x, k = x[:width - off], kernels[i]
            # np.correlate with the kernel reversed is np.convolve without its wrapper's cost
            parts.append((off, k * x if type(k) is int else np.correlate(x, k, "full")))
    size = min(width, max((off + len(c) for off, c in parts), default=0))
    out = np.zeros(size, np.int64)
    for off, c in parts:
        out[off:off + len(c)] += c[:size - off]
    out %= p
    return out


def step(family: RecurrenceFamily, n: int, prev: tuple, cur: tuple, p: int | None = None) -> tuple:
    """F_{n+1} from (F_{n-1}, F_n), reduced mod p if p is given; requires n >= 1."""
    if n < 1:
        raise ValueError("step index n must be >= 1")
    if p is not None:
        _check_fits(p)
        mults = _multipliers(family, p, np.array([n]))
        prev, cur = (np.array([c % p for c in poly], np.int64) for poly in (prev, cur))
        return trim(_step_mod(mults, 0, prev, cur, np.arange(1, len(cur) + 1) % p, p, _UNCUT).tolist())
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    # taps (d, a, b), ascending in d: F_{n+1}[j] += (a + b*j) * source[j - d]
    cur_taps = []
    if cur:
        for d in range(-1, max(len(cur_poly), len(d_poly) - 1)):
            b = d_poly[d + 1] if d + 1 < len(d_poly) else 0
            a = (cur_poly[d] if 0 <= d < len(cur_poly) else 0) - b * d
            if a or b:
                cur_taps.append((d, a, b))
    prev_taps = [(e, prev_scalar * m, 0) for e, m in enumerate(prev_poly) if m] if prev and prev_scalar else []
    size = max(len(cur) + cur_taps[-1][0] if cur_taps else 0, len(prev) + prev_taps[-1][0] if prev_taps else 0)
    terms = _tap_products(cur, cur_taps, size) + _tap_products(prev, prev_taps, size)
    if not terms:
        return ()
    total = terms[0]
    for term in terms[1:]:
        total = map(add, total, term)
    return trim(total)


def _tap_products(source: tuple, taps: list, size: int) -> list:
    """Per tap (d, a, b), the lazy sequence (a + b*j) * source[j - d] for 0 <= j < size."""
    if not taps:
        return []
    lo = max(taps[-1][0], 0)
    padded = (0,) * lo + tuple(source) + (0,) * (size - taps[0][0] - len(source))
    return [map(mul, range(a, a + b * size, b) if b else repeat(a, size), padded[lo - d:])
            for d, a, b in taps]


def _stored_exact(family: RecurrenceFamily) -> Iterator[tuple]:
    """The stored polynomials scale * F_0, scale * F_1, ... over Z."""
    prev, cur = family.seeds
    yield prev
    yield cur
    n = 1
    while True:
        prev, cur = cur, step(family, n, prev, cur)
        n += 1
        yield cur


def _stored_mod(family: RecurrenceFamily, p: int, N: int | None = None) -> Iterator[np.ndarray]:
    """The stored polynomials scale * F_n mod p as int64 arrays.

    Given N, it stops at F_N and step n keeps only coefficients 0..N-n-1 of
    F_{n+1}, the ones that can still reach F_N(0): coefficient j of F_{n+1}
    needs coefficients <= j + 1 of F_n and <= j of F_{n-1}.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    _check_fits(p)
    prev, cur = (np.array(seed, np.int64) % p for seed in family.seeds)
    weights = np.arange(1, 2) % p  # weights[k] = (k + 1) mod p, grown with F_n: F_n'[k] = weights[k] * F_n[k + 1]
    yield prev
    yield cur
    n = 1
    while N is None or n < N:
        stop = n + _BLOCK if N is None else min(n + _BLOCK, N)
        mults = _multipliers(family, p, np.arange(n, stop))
        for i in range(stop - n):
            if len(cur) > len(weights):
                weights = np.arange(1, 2 * len(cur) + 1) % p
            prev, cur = cur, _step_mod(mults, i, prev, cur, weights, p, _UNCUT if N is None else N - n - i)
            yield cur
        n = stop


def _unscaled(family: RecurrenceFamily, poly: tuple, p: int | None) -> tuple:
    """F_n from its stored form scale * F_n: Fractions over Q, residues mod p."""
    if family.scale == 1:
        return poly
    if p is None:
        return tuple(Fraction(c, family.scale) for c in poly)
    inverse = pow(family.scale, -1, p)
    return tuple(c * inverse % p for c in poly)


def iter_family(family: RecurrenceFamily, p: int | None = None) -> Iterator[tuple]:
    """Yield F_0, F_1, F_2, ... keeping only a two-element window; mod p if p is given.

    Coefficients are ints, except for the z family over Q, whose coefficients
    are Fractions.  A modulus that is not an odd prime raises ValueError on
    the first ``next``, one at or above ``_P_MAX`` OverflowError.
    """
    if p is None:
        return (_unscaled(family, poly, None) for poly in _stored_exact(family))
    return (_unscaled(family, trim(poly.tolist()), p) for poly in _stored_mod(family, p))


def generate(family: RecurrenceFamily, N: int, p: int | None = None) -> tuple:
    """F_N over Z (over Q for z), or mod p if p is given (seeds for N in {0, 1})."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    if p is None:
        stored = next(islice(_stored_exact(family), N, None))
    else:
        stored = trim(next(islice(_stored_mod(family, p), N, None)).tolist())
    return _unscaled(family, stored, p)


def generate_all(family: RecurrenceFamily, N: int, p: int | None = None) -> list[tuple]:
    """[F_0 ... F_N]; full-history variant used for table emission."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    return list(islice(iter_family(family, p), N + 1))


def constant_term_mod(family: RecurrenceFamily, N: int, p: int) -> int:
    """F_N(0) mod p for an odd prime p below ``_P_MAX``, stepping only the
    coefficients that can reach it; OverflowError for p >= ``_P_MAX``."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    last = next(islice(_stored_mod(family, p, N), N, None))
    return int(last[0]) * pow(family.scale, -1, p) % p if len(last) else 0
