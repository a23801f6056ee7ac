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
the taps are summed lazily by ``map(add, ...)``.

The exact walk stores each F_n only on its lattice.  The a, x and y
families have coefficients only at exponents j = 2n (mod 3), so they keep
every third coefficient, c_n[i] = F_n[r_n + 3i] with r_n = 2n mod 3.  With
stride k and drift r_n = drift*n mod k, a tap (d, a, b) from F_m becomes
the compressed tap (delta, a + b*r_{n+1}, b*k) with
delta = (d + r_m - r_{n+1}) / k, which the same kernel applies to the c_m;
a nonzero tap with a non-integer delta is refused (ValueError), never
dropped.  Each row is expanded once, as it is yielded.

A single exact f_N is walked in v = 2t + 3.  There D = -12(t+1)(t+2) is
-3(v^2 - 1), d/dt = 2 d/dv and M = t^2 + 3t + 3 is (v^2 + 3)/4, so
H_n(v) = 2^n f_n((v - 3)/2) satisfies

    H_{n+1} = -12(v^2 - 1) H_n' + 2(4n+1) v H_n - 2n(2n-1)(v^2 + 3) H_{n-1},

with H_0 = 1, H_1 = 2v.  H_n has the parity of n (stride 2, drift 1) and
its step has 4 taps instead of 6.  ``_from_v`` converts row N once:
f_N(t) = H_N(2t + 3) / 2^N, by a Taylor shift of H(3x) on additions only.
``iter_family`` and ``generate_all`` yield every row, so they walk f in t,
where no row needs converting.

Generation mod p and the constant terms F_N(0) mod p that drive the rank
criteria are the numpy kernel of :mod:`rankcrit._modp`, which loads at the first
mod-p call (see ``_lazy``), so ``import rankcrit`` compiles only the exact walks.
``constant_term_mod``, ``constant_terms_mod`` and ``paired_constant_terms_mod``
are read from there on their first use here (PEP 562).  The bound ``_P_MAX``
and its check ``_check_fits`` are here, where ``criteria`` and ``_modp`` both read them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import islice, repeat
from operator import add, mul
from typing import Callable, Iterator, NamedTuple

from ._lazy import lazy_import
from .polyring import trim

_modp = lazy_import("rankcrit._modp")  # the mod-p kernel, executed at its first call


class RecurrenceFamily(NamedTuple):
    key: str                 # one-letter CLI name: f, a, x, y, z
    tag: str                 # F_E, A_VZ, X_A, Y_A, Z_A (H_E: F_E in v = 2t + 3)
    seeds: tuple[tuple, tuple]   # (F_0, F_1) as stored
    # step_coeffs(n) -> (D, P_cur, scalar_prev, M) with
    # F_{n+1} = D*F_n' + P_cur*F_n + scalar_prev * M * F_{n-1}
    step_coeffs: Callable[[int], tuple[tuple, tuple, int, tuple]]
    # The family is stored as scale * F_n so that every stored coefficient is an integer.
    scale: int = 1
    # F_n has coefficients only at exponents j = drift * n (mod stride); the exact walk
    # stores only those.
    stride: int = 1
    drift: int = 0
    # The same family in v = 2t + 3, walked (and converted by _from_v) for a single
    # exact F_N.
    in_v: RecurrenceFamily | None = None

    def __repr__(self):
        return f"RecurrenceFamily({self.tag})"


# --- family F_E:  f_{n+1} = -12(t+1)(t+2) f_n' + (4n+1)(2t+3) f_n - 2n(2n-1)(t^2+3t+3) f_{n-1}

def _coeffs_f(n):
    return (-24, -36, -12), (3 * (4 * n + 1), 2 * (4 * n + 1)), -2 * n * (2 * n - 1), (3, 3, 1)


# --- F_E in v = 2t + 3:  H_n(v) = 2^n f_n((v - 3)/2) has the parity of n and satisfies
# H_{n+1} = -12(v^2-1) H_n' + 2(4n+1) v H_n - 2n(2n-1)(v^2+3) H_{n-1}, H_0 = 1, H_1 = 2v

def _coeffs_f_v(n):
    return (12, 0, -12), (0, 2 * (4 * n + 1)), -2 * n * (2 * n - 1), (3, 0, 1)


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


H_E = RecurrenceFamily("f", "H_E", ((1,), (0, 2)), _coeffs_f_v, stride=2, drift=1)
F_E = RecurrenceFamily("f", "F_E", ((1,), (3, 2)), _coeffs_f, in_v=H_E)
A_VZ = RecurrenceFamily("a", "A_VZ", ((1,), (0, 0, -3)), _coeffs_a, stride=3, drift=2)
X_A = RecurrenceFamily("x", "X_A", ((1,), ()), _coeffs_x, stride=3, drift=2)
Y_A = RecurrenceFamily("y", "Y_A", ((1,), ()), _coeffs_y, stride=3, drift=2)
Z_A = RecurrenceFamily("z", "Z_A", ((1,), (2,)), _coeffs_z, scale=2)

FAMILIES = {fam.key: fam for fam in (F_E, A_VZ, X_A, Y_A, Z_A)}


# The mod-p step (``_modp``) sums, for each output coefficient, at most _MAX_TERMS products
# of a tap reduced mod p and a residue, each at most (p-1)^2, before its one `% p`;
# _MAX_TERMS * (p-1)^2 <= _INT64_MAX holds exactly when p < _P_MAX (about 1.01e9).  The
# products are the nonzero taps of one region: at most 8 for f, 4 for a, x and y and 6
# for z, and on the transposed chain of ``_both_ends`` at most 9, 5 and 7.
_INT64_MAX = 2**63 - 1
_MAX_TERMS = 9
_P_MAX = math.isqrt(_INT64_MAX // _MAX_TERMS) + 2


def _check_fits(p: int) -> None:
    if p >= _P_MAX:
        raise OverflowError(f"modulus {p} is not below {_P_MAX}: int64 residues would overflow")


def _quadratic(v0: int, v1: int, v2: int) -> tuple[int, int, int]:
    """(c0, c1, c2) with c0 + c1*n + c2*n(n-1)/2 = v_n at n = 0, 1, 2."""
    return v0, v1 - v0, v0 - 2 * v1 + v2


def _dense_taps(family: RecurrenceFamily, n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The taps of step n on dense polynomials, {(lag, d): (a, b)} for
    F_{n+1}[j] += (a + b*j) * F_{n-lag}[j - d]."""
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    taps = {(1, e): (prev_scalar * m, 0) for e, m in enumerate(prev_poly)}
    for d in range(-1, max(len(cur_poly), len(d_poly) - 1)):
        b = d_poly[d + 1] if d + 1 < len(d_poly) else 0
        taps[0, d] = ((cur_poly[d] if 0 <= d < len(cur_poly) else 0) - b * d, b)
    return taps


@cache
def _tap_plan(family: RecurrenceFamily, stride: int, drift: int) -> tuple[tuple[tuple, tuple], ...]:
    """Per class of n mod stride, the taps (delta, a, b) on F_n and on F_{n-1}
    of the step on the lattice j = drift*n (mod stride), with a and b as
    ``_quadratic`` triples in n.

    F_m is stored as c_m[i] = F_m[r_m + stride*i] with r_m = drift*m mod
    stride.  A dense tap (d, a, b) from F_m to F_{n+1} becomes the tap
    (delta, a + b*r_{n+1}, b*stride) with delta = (d + r_m - r_{n+1}) / stride.
    A nonzero tap for which that is not an integer would leave the lattice:
    ValueError.  Every coefficient is a polynomial of degree <= 2 in n, so
    the taps are interpolated from n = 0, 1, 2.
    """
    samples = [_dense_taps(family, n) for n in (0, 1, 2)]
    plan = [([], []) for _ in range(stride)]
    for lag, d in sorted(set().union(*samples)):
        values = [sample.get((lag, d), (0, 0)) for sample in samples]
        a, b = (_quadratic(*(v[i] for v in values)) for i in (0, 1))
        if not any(a + b):
            continue
        for c, taps in enumerate(plan):
            r_next = drift * (c + 1) % stride
            delta, off = divmod(d + drift * (c - lag) % stride - r_next, stride)
            if off:
                raise ValueError(f"{family!r}: the tap on F_(n-{lag}) at shift {d} leaves the lattice "
                                 f"{drift}*n mod {stride} for n = {c} mod {stride}")
            taps[lag].append((delta, tuple(x + y * r_next for x, y in zip(a, b)), tuple(y * stride for y in b)))
    return tuple((tuple(cur), tuple(prev)) for cur, prev in plan)  # cached, so immutable


def _taps_at(plan: tuple, n: int) -> tuple[list, list]:
    """The nonzero taps (delta, a, b) on F_n and on F_{n-1} at step n."""
    m = n * (n - 1) // 2
    out = ([], [])
    for taps, kept in zip(plan[n % len(plan)], out):
        for d, (a0, a1, a2), (b0, b1, b2) in taps:
            a, b = a0 + a1 * n + a2 * m, b0 + b1 * n + b2 * m
            if a or b:
                kept.append((d, a, b))
    return out


def _tap_step(prev: tuple, cur: tuple, cur_taps: list, prev_taps: list) -> tuple:
    """The stored F_{n+1}[i] = sum over taps (delta, a, b) of (a + b*i) * source[i - delta],
    the sources F_n and F_{n-1}, each with its taps ascending in delta."""
    cur_taps = cur_taps if cur else []
    prev_taps = prev_taps if prev else []
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


def _on_lattice(family: RecurrenceFamily, n: int) -> tuple:
    """Seed n of the family on its lattice: the coefficients at t^(r + stride*i), r = drift*n."""
    k, r = family.stride, family.drift * n % family.stride
    seed = family.seeds[n]
    if any(c for j, c in enumerate(seed) if j % k != r):
        raise ValueError(f"{family!r}: seed {n} leaves the lattice {family.drift}*n mod {k}")
    return seed[r::k]


def _stored_exact(family: RecurrenceFamily) -> Iterator[tuple]:
    """The stored polynomials scale * F_0, scale * F_1, ... over Z.

    The walk keeps only the coefficients on the family's lattice and
    expands each row it yields."""
    k, drift = family.stride, family.drift
    plan = _tap_plan(family, k, drift)
    prev, cur = _on_lattice(family, 0), _on_lattice(family, 1)
    yield family.seeds[0]
    yield family.seeds[1]
    n = 1
    while True:
        prev, cur = cur, _tap_step(prev, cur, *_taps_at(plan, n))
        n += 1
        if k == 1 or not cur:
            yield cur
        else:
            r = drift * n % k
            out = [0] * (r + k * (len(cur) - 1) + 1)
            out[r::k] = cur
            yield tuple(out)


def _from_v(h: tuple, N: int) -> tuple:
    """f_N(t) = H_N(2t + 3) / 2^N from the coefficients of H_N(v).

    G(x) = H(3x) is shifted to G(x + 1) = sum c_j x^j by Horner rows of
    additions only (von zur Gathen and Gerhard, "Fast algorithms for Taylor
    shifts", ISSAC 1997).  H(2t + 3) = G(2t/3 + 1), so coefficient j of f_N
    is c_j * 2^j / (3^j * 2^N) = c_j / (3^j * 2^(N-j)); ArithmeticError if a
    division leaves a remainder.
    """
    g, power = [], 1
    for c in h:
        g.append(c * power)
        power *= 3
    row = ()
    for c in reversed(g):  # row <- row * (x + 1) + c
        row = tuple(map(add, (*row, 0), (c, *row)))
    out, power = [], 1
    for j, c in enumerate(row):
        q, rem = divmod(c, power << (N - j))
        if rem:
            raise ArithmeticError(f"coefficient {j} of H_{N}(2t + 3) is not divisible by 3^{j} * 2^{N - j}")
        out.append(q)
        power *= 3
    return trim(out)


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
    return (_unscaled(family, trim(poly.tolist()), p) for poly in _modp._stored_mod(family, p))


def generate(family: RecurrenceFamily, N: int, p: int | None = None) -> tuple:
    """F_N over Z (over Q for z), or mod p if p is given (seeds for N in {0, 1})."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    if p is None:
        if family.in_v:
            stored = _from_v(next(islice(_stored_exact(family.in_v), N, None)), N)
        else:
            stored = next(islice(_stored_exact(family), N, None))
    else:
        stored = trim(next(islice(_modp._stored_mod(family, p), N, None)).tolist())
    return _unscaled(family, stored, p)


def generate_all(family: RecurrenceFamily, N: int, p: int | None = None) -> list[tuple]:
    """[F_0 ... F_N]; full-history variant used for table emission."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    return list(islice(iter_family(family, p), N + 1))


def __getattr__(name: str):
    """The public functions of the mod-p kernel, read from ``_modp`` (PEP 562)."""
    if name in ("constant_term_mod", "constant_terms_mod", "paired_constant_terms_mod"):
        return getattr(_modp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
