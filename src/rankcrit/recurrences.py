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

Generation mod p, which avoids the huge exact coefficients, steps int64
numpy arrays of residues instead, for primes p below ``_P_MAX``.  The
constant terms F_N(0) mod p drive the rank criteria.  ``constant_terms_mod``
steps only the coefficients that can reach F_N(0), and it steps a batch of
targets (N, p) of one family in lockstep: their windows sit end to end in
one int64 vector with a modulus per element, so each numpy pass of a step
serves every prime, and a scan makes N_max steps instead of sum N_p.  One
step costs 20-25 us of numpy call overhead whatever its width, so a
criterion scan of Ep 2..500 went from 25.6 to 5.8 ms and Ep 2..3000 from
1.39 to 0.38 s (2-vCPU VM).  ``constant_term_mod`` is a batch of one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, repeat
from operator import add, mul
from typing import Callable, Iterator

import numpy as np

from ._primality import is_prime
from .polyring import trim


@dataclass(frozen=True)
class RecurrenceFamily:
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


# The mod-p step sums, for each output coefficient, at most len(D) + len(P) + len(M)
# <= _MAX_TERMS products of two residues, each at most (p-1)^2, before its one
# `% p`; _MAX_TERMS * (p-1)^2 < 2^63 holds exactly when p < _P_MAX (about 1.01e9).
_MAX_TERMS = 9
_P_MAX = math.isqrt((2**63 - 1) // _MAX_TERMS) + 2

# A lockstep batch of several primes shares its taps, so they stay exact integers: an
# output coefficient sums at most one product |tap| * (p-1) per tap, which fits in int64
# while _tap_sum(N_max - 1) * (max p - 1) <= _INT64_MAX (``_fits``; for f to about
# p = 1.3e6).
_INT64_MAX = 2**63 - 1

_BLOCK = 1024        # steps per batch of multipliers, so memory follows the polynomials, not N
_HORIZON = 32        # a lockstep layout holds F_n .. F_max(3n/2, 32): laying out costs about 5 short steps
_BATCH_N = 1 << 20   # sum of N over a lockstep batch, which bounds its vectors (a few MB each)
_UNCUT = 2**62       # a width that cuts nothing


def _check_fits(p: int) -> None:
    if p >= _P_MAX:
        raise OverflowError(f"modulus {p} is not below {_P_MAX}: int64 residues would overflow")


def _check_modulus(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    _check_fits(p)


def _tap_sum(family: RecurrenceFamily, n: int) -> int:
    """The sum of |coefficients| of D, P_n and s_n * M, the taps of step n."""
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    return sum(map(abs, d_poly)) + sum(map(abs, cur_poly)) + abs(prev_scalar) * sum(map(abs, prev_poly))


def _fits(family: RecurrenceFamily, N: int, p: int) -> bool:
    """Whether exact taps step F_N mod primes up to p without leaving int64.

    Every tap of these families grows in size with n, so step N - 1 bounds
    them all."""
    return N < 2 or _tap_sum(family, N - 1) * (p - 1) <= _INT64_MAX


def _multipliers(family: RecurrenceFamily, ns: np.ndarray, p: int | None = None) -> list[tuple[int, list, list]]:
    """D, P_n and s_n * M at the step indices ns, each as (offset, kernels, live);
    reduced mod p if p is given, else exact.

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
    n = (ns if p is None else ns % p)[:, None]
    out = []
    for v0, v1, v2 in zip(*samples):
        c2 = [(a - 2 * b + c) // 2 for a, b, c in zip(v0, v1, v2)]
        c1 = [b - a - q for a, b, q in zip(v0, v1, c2)]
        if p is None:
            rows = np.array(v0) + np.array(c1) * n + np.array(c2) * (n * n)
        else:
            rows = (np.array(v0) % p + np.array(c1) % p * n % p + np.array(c2) % p * (n * n % p) % p) % p
        cols = np.flatnonzero(rows.any(axis=0))
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, 1)
        if hi - lo == 1:
            kernels = rows[:, lo].tolist()
        else:
            kernels = list(np.ascontiguousarray(rows[:, lo:hi][:, ::-1]))
        out.append((lo, kernels, rows.any(axis=1).tolist()))
    return out


def _step_mod(mults, i: int, prev: np.ndarray, cur: np.ndarray, weights: np.ndarray, mod: np.ndarray,
              width: int) -> np.ndarray:
    """Stored F_{n+1}, its coefficients below ``width`` only, from F_{n-1} and F_n
    (int64 residues) and the multipliers ``mults`` of step n at index i.

    Element j is reduced mod ``mod[j]`` and F_n'[j] is ``weights[j] * F_n[j + 1]``,
    so one call steps every window of a lockstep batch."""
    deriv = cur[1:width + 1]
    deriv = deriv * weights[:len(deriv)] % mod[:len(deriv)]
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
    out %= mod[:size]
    return out


def step(family: RecurrenceFamily, n: int, prev: tuple, cur: tuple, p: int | None = None) -> tuple:
    """F_{n+1} from (F_{n-1}, F_n), reduced mod p if p is given; requires n >= 1.

    The polynomials are dense: over Z this is the tap kernel at stride 1."""
    if n < 1:
        raise ValueError("step index n must be >= 1")
    if p is not None:
        _check_fits(p)
        mults = _multipliers(family, np.array([n]), p)
        prev, cur = (np.array([c % p for c in poly], np.int64) for poly in (prev, cur))
        mod = np.full(len(prev) + len(cur) + _MAX_TERMS, p)
        return trim(_step_mod(mults, 0, prev, cur, np.arange(1, len(cur) + 1) % p, mod, _UNCUT).tolist())
    return _tap_step(prev, cur, *_taps_at(_tap_plan(family, 1, 0), n))


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


def _stored_mod(family: RecurrenceFamily, p: int) -> Iterator[np.ndarray]:
    """The stored polynomials scale * F_n mod p as int64 arrays."""
    _check_modulus(p)
    prev, cur = (np.array(seed, np.int64) % p for seed in family.seeds)
    weights = np.arange(1, 2) % p  # weights[k] = (k + 1) mod p, grown with F_n: F_n'[k] = weights[k] * F_n[k + 1]
    mod = np.full(len(weights) + _MAX_TERMS, p)  # longer than the next F_n
    yield prev
    yield cur
    n = 1
    while True:
        mults = _multipliers(family, np.arange(n, n + _BLOCK), p)
        for i in range(_BLOCK):
            if len(cur) > len(weights):
                weights = np.arange(1, 2 * len(cur) + 1) % p
                mod = np.full(len(weights) + _MAX_TERMS, p)
            prev, cur = cur, _step_mod(mults, i, prev, cur, weights, mod, _UNCUT)
            yield cur
        n += _BLOCK


# --- F_N(0) mod p for many targets (N, p) of one family at once.
#
# Coefficient j of F_{n+1} needs coefficients <= j + 1 of F_n and <= j of F_{n-1}, so
# F_N(0) needs only the window of F_m below N - m + 1.  A lockstep batch lays the
# windows of its targets end to end in one int64 vector, sorted by N, each followed by a
# gap of zeros as wide as the largest tap shift.  Every element carries its own modulus
# (1 in a gap, so each step clears the gaps) and derivative weight, and one
# ``_step_mod`` call steps every window.  An inner window is given the room its target
# needs until the next layout (``_slots``): values past its current window are never
# read by it, and the gap keeps them from its neighbour.  The last window follows its
# width, as a lone one does.  A finished window leaves the vector on the left.  A
# layout made at F_n holds the windows up to F_max(3n/2, _HORIZON) and is rebuilt
# there, which drops the room that shrinking windows no longer need.


def _length_bounds(family: RecurrenceFamily, N: int) -> np.ndarray:
    """L[m] >= len(F_m) for m = 0..N, non-decreasing: F_{n+1} is no longer than
    D * F_n', P_n * F_n and M * F_{n-1}."""
    d_poly, cur_poly, _, prev_poly = family.step_coeffs(1)
    grow, reach = max(len(d_poly) - 2, len(cur_poly) - 1), len(prev_poly) - 1
    out = [len(seed) for seed in family.seeds]
    while len(out) <= N:
        out.append(max(out[-1] + grow, out[-2] + reach))
    return np.maximum.accumulate(out[:N + 1])


def _slots(lengths: np.ndarray, Ns, n, end):
    """Per target N, the widest window min(L[m], N - m + 1) of F_m over
    n <= m <= min(N, end): the coefficients of F_n .. F_end that the target
    needs."""
    # the windows grow with L[m] up to the first m with L[m] >= N - m + 1, then shrink
    cross = np.minimum(np.searchsorted(lengths + np.arange(len(lengths)), Ns + 1), Ns)
    end = np.minimum(Ns, end)
    top = np.maximum(cross, n)
    grow = np.where(cross > n, lengths[np.minimum(cross - 1, end)], 0)
    return np.maximum(grow, np.where(top <= end, Ns + 1 - top, 0))


def _layout(ps: np.ndarray, slots: np.ndarray, gap: int):
    """Windows of the given widths end to end, each followed by ``gap`` zeros:
    (starts, moduli, weights, segment of each element, index in it, in a window).

    Element j is reduced mod ``moduli[j]``, 1 in a gap, and F'[j] is
    ``weights[j] * F[j + 1]``: the index of element j + 1 in its window mod p."""
    sizes = slots + gap
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(len(seg)) - starts[seg]
    inside = k < slots[seg]
    p = ps[seg]
    return starts, np.where(inside, p, 1), np.where(inside, k % p, 0)[1:], seg, k, inside


def _moved(poly: np.ndarray, old_starts: np.ndarray, old_widths: np.ndarray, layout, size: int) -> np.ndarray:
    """The windows of ``poly``, laid out at ``old_starts`` with ``old_widths``, in a
    new layout cut at ``size``."""
    _, _, _, seg, k, inside = layout
    seg, k = seg[:size], k[:size]
    src = old_starts[seg] + k
    take = inside[:size] & (k < old_widths[seg]) & (src < len(poly))
    out = np.zeros(size, np.int64)
    out[take] = poly[src[take]]
    return out


def _lockstep(family: RecurrenceFamily, targets: list[tuple[int, int]]) -> list[int]:
    """Stored F_N(0) mod p for targets (N, p) sorted by N, every N >= 2, stepped
    together; the taps are exact, or reduced mod p for a target that steps alone."""
    keys = [N for N, _ in targets]
    Ns, ps = np.array(keys), np.array([p for _, p in targets])
    N_last = keys[-1]
    lone = targets[0][1] if len(targets) == 1 else None
    d_poly, cur_poly, _, prev_poly = family.step_coeffs(1)
    gap = max(len(d_poly) - 2, len(cur_poly) - 1, len(prev_poly) - 1)
    lengths = None if lone else _length_bounds(family, N_last)

    def relayout(n: int, first: int, polys: list) -> tuple:
        """Lay out the windows of targets first.. for F_n .. F_end and move each (poly,
        starts, widths) of ``polys`` into it: (starts, slots, moduli, weights, moved,
        end, or 0 when no inner window is left)."""
        inner, end = Ns[first:-1], min(max(n + n // 2, _HORIZON), N_last)
        slots = np.append(_slots(lengths, inner, n, end) if len(inner) else [], N_last - n + 1).astype(np.int64)
        starts, moduli, weights, *_ = layout = _layout(ps[first:], slots, gap)
        moved = [_moved(poly, old, widths, layout, starts[-1] + min(max(len(poly) - old[-1], 0), slots[-1]))
                 for poly, old, widths in polys]
        return starts, slots, moduli, weights, moved, end if len(inner) else 0

    seeds = [((np.array(seed, np.int64) % ps[:, None]).ravel(), np.arange(len(ps)) * len(seed),
              np.full(len(ps), len(seed))) for seed in family.seeds]
    starts, slots, moduli, weights, (prev, cur), due = relayout(1, 0, seeds)
    last = int(starts[-1])
    out, first, n = [], 0, 1
    while n < N_last:
        block = np.arange(n, min(n + _BLOCK, N_last))
        mults = _multipliers(family, block, lone)
        for i in range(len(block)):
            prev, cur = cur, _step_mod(mults, i, prev, cur, weights, moduli, last + N_last - n)
            n += 1
            if n == keys[first]:
                done = bisect_right(keys, n, first) - first
                out += [int(cur[s]) if s < len(cur) else 0 for s in starts[:done]]
                if n == N_last:
                    break
                first, cut = first + done, int(starts[done])
                starts, slots = starts[done:] - cut, slots[done:]
                prev, cur, moduli, weights = prev[cut:], cur[cut:], moduli[cut:], weights[cut:]
                last = int(starts[-1])
            if n == due:
                starts, slots, moduli, weights, (prev, cur), due = relayout(
                    n, first, [(prev, starts, slots), (cur, starts, slots)])
                last = int(starts[-1])
    return out


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
        if family.in_v:
            stored = _from_v(next(islice(_stored_exact(family.in_v), N, None)), N)
        else:
            stored = next(islice(_stored_exact(family), N, None))
    else:
        stored = trim(next(islice(_stored_mod(family, p), N, None)).tolist())
    return _unscaled(family, stored, p)


def generate_all(family: RecurrenceFamily, N: int, p: int | None = None) -> list[tuple]:
    """[F_0 ... F_N]; full-history variant used for table emission."""
    if N < 0:
        raise ValueError("index N must be >= 0")
    return list(islice(iter_family(family, p), N + 1))


def _batches(family: RecurrenceFamily, targets: list[tuple[int, int]]) -> list[list[int]]:
    """The indices of the targets with N >= 2 in lockstep batches, each sorted by N.

    Taken in order of p, a batch grows while its exact taps fit int64
    (``_fits``) and its sum of N stays within ``_BATCH_N``; a target that
    fits with no other steps alone."""
    batches, top, total = [], 0, 0
    for i in sorted(range(len(targets)), key=lambda i: targets[i][1]):
        N, p = targets[i]
        if N < 2:
            continue
        if batches and total + N <= _BATCH_N and _fits(family, max(top, N), p):
            batches[-1].append(i)
            top, total = max(top, N), total + N
        else:
            batches.append([i])
            top, total = N, N
    return [sorted(batch, key=lambda i: targets[i][0]) for batch in batches]


def constant_terms_mod(family: RecurrenceFamily, targets) -> list[int]:
    """F_N(0) mod p for every target (N, p), in the order given.

    The targets are stepped in lockstep batches: one window kernel steps a
    whole batch, so a scan makes N_max steps instead of one per prime and
    step.  ValueError for N < 0 or a modulus that is not an odd prime,
    OverflowError for p >= ``_P_MAX``, both before any array exists.
    """
    targets = [(N, p) for N, p in targets]
    for N, p in targets:
        if N < 0:
            raise ValueError("index N must be >= 0")
        _check_modulus(p)
    out = [family.seeds[N][0] % p if N < 2 and family.seeds[N] else 0 for N, p in targets]
    for batch in _batches(family, targets):
        for i, residue in zip(batch, _lockstep(family, [targets[i] for i in batch])):
            out[i] = residue
    return [r * pow(family.scale, -1, p) % p for r, (_, p) in zip(out, targets)]


def constant_term_mod(family: RecurrenceFamily, N: int, p: int) -> int:
    """F_N(0) mod p for an odd prime p below ``_P_MAX``, stepping only the
    coefficients that can reach it; OverflowError for p >= ``_P_MAX``."""
    return constant_terms_mod(family, [(N, p)])[0]
