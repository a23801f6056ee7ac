"""The mod-p layer of the recurrence families: generation mod p and the constant
terms F_N(0) mod p that the rank criteria test, on one numpy kernel.

It is loaded at its first mod-p call (``recurrences`` takes it from ``_lazy``), so
``import rankcrit``, ``poly`` on Z and the verification routes compile none of it.
The families, their exact walks and the bound ``_P_MAX`` that ``step`` checks too
live in :mod:`rankcrit.recurrences`.

Generation mod p, which avoids the huge exact coefficients, steps numpy
arrays of residues instead, for primes p below ``_P_MAX``, through one
kernel (``_step_mod``) whose passes can step two chains.  The constant terms F_N(0) mod p
drive the rank criteria, and only the coefficients that can reach F_N(0) are
stepped.  ``constant_terms_mod`` steps a batch of targets (N, p) of one family
in lockstep: their windows sit end to end in one vector with a modulus
per element, so each numpy pass of a step serves every prime, and a scan
makes N_max steps instead of sum N_p.  ``paired_constant_terms_mod`` puts the
a- and x-windows of an Ap batch in one vector (a_n = 2^n alpha_n, and alpha_n
steps by x's taps), N_max steps for both paths.  A target alone
(``constant_term_mod``) goes from both ends, F up from its seeds and the
transposed chain down from F_N(0) = <e_0, F_N>, and meets in the middle:
about N/2 passes instead of N (``_both_ends``).  At p near 1000 a pass is
call overhead, numpy calls on short vectors and the Python that sizes the
step and places the products, so halving the passes pays (a verdict at Ep 1201
or Ap 1063 ran about 1.35x faster than one window stepped N times), and so does
pairing a and x (the Ap 2..500 scan about 1.8x faster than one path at a time).
For the same reason ``_step_mod`` adds every product in place through a view
of its output, with no ``__setitem__`` of the view onto itself, and calls
numpy's undispatched correlate (``_correlate``).

Every pass reduces its output once; the elementwise work before that is cut
two ways.  F_n', a derivative weight times a residue, meets the D taps
unreduced: always in a lockstep batch, whose bound ``_fits`` counts it, and for
residue taps (a lone target, ``generate(family, N, p)``) while p < ``_P_UNREDUCED``,
about 1.01e6.  And each window, and each row of ``generate(family, N, p)``, is
only as wide as ``_length_bounds`` allows: floor(n/2) + 1 for x and y, whose rows
are images of modular forms of weight 2n in Q[E4, E6], against 2n + 1 for a.

At scan widths a pass costs per element, not per call, so a lockstep batch
steps float64 residues, reduced by rint against the reciprocal moduli.  They are
exact integers while every sum stays within ``_F64_MAX`` (the proof is there), so
a target joins a batch only while that holds (``_fits``), and a scan prime past
the bound, Ep p > 104561 or paired Ap p > 272539, steps alone.  At widths 1000
to 20000 (2-vCPU VM) float64 ``np.correlate`` with a four-column kernel costs
1.5-2.4 ns an element against 5.8-6.7 ns on int64, and the float64 reduction,
four ufuncs, 1.9-4.3 ns against 4.0-4.9 ns for int64's `%`.  Lone targets and
``generate(family, N, p)``, whose vectors are narrow, stay on int64.

A batch lays its windows out anew five or six times in a scan of 2..500, as
they shrink.  Its schedule depends only on the targets (``_slot_table``), and
each layout is built when it is due, in about thirty numpy calls: the moduli,
1/m and tilts repeat one value per window and gap, the derivative weights are
each element's index in its window mod p, and F_{n-1} and F_n move into it by
one gather (``_moved``).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Iterator

from ._lazy import lazy_import
from ._primality import is_prime
from .recurrences import (A_VZ, X_A, Y_A, _INT64_MAX, _MAX_TERMS, RecurrenceFamily, _check_fits, _quadratic,
                          _stored_exact)

np = lazy_import("numpy")  # loaded at the first kernel call: see _lazy

# An int64 step sums at most _MAX_TERMS products of a tap and a residue per output
# coefficient (see ``recurrences``).  The D taps act on F_n', a derivative weight times a
# residue; left unreduced, it makes their products up to (p-1)^3, and
# _MAX_TERMS * (p-1)^3 <= _INT64_MAX holds exactly when p < _P_UNREDUCED (1008207), so
# ``_both_ends`` and ``_stored_mod`` skip the `% p` of F_n' below it and keep it from there
# up to _P_MAX.  Those two always step int64 residues (0 <= r < p), so these bounds stay
# theirs up to _P_MAX; only a lockstep batch, with exact taps, steps float64 (``_F64_MAX``).
_P_UNREDUCED = int((_INT64_MAX // _MAX_TERMS) ** (1 / 3)) + 2  # cube root 1008205.52, so the float floor is exact

# A lockstep batch of several primes shares its taps, so they stay exact integers, and it
# steps float64 residues, F_n' unreduced.  An output coefficient sums at most one product
# |tap| * (m-1) per tap, m the modulus of its element; each D tap multiplies F_n', a weight
# times a residue, up to (m-1)^2; and an alpha window adds one product of two residues
# (``_ALPHA_TILT``).  So |x| <= S(m-1) with S = _tap_sum(N_max - 1) + sum|D| (max p - 2)
# [+ max p - 1], and a target joins a batch only while S (max p - 1) <= _F64_MAX (``_fits``:
# Ep batches up to p = 104561, paired Ap batches up to p = 272539; the F_n' term moves
# neither).  A target past that steps alone (``_both_ends``, on int64).
#
# Within _F64_MAX these sums are exact in float64, and each is reduced by
# r = x - rint(x * fl(1/m)) * m instead of `% m`.  That is exact.  Every element and
# partial sum is an integer with |x| <= S(m-1) <= 2^52 (an element of a gap, m = 1, sums
# products of its left neighbour only), so float64 holds it; so is F_n', a weight times a
# residue, each |.| <= m - 1: the weight is the index k < N_max <= S of its element in a
# window of F_n, times the factor of an alpha window, reduced as a residue.  With
# u = 2^-53, fl(1/m) = (1 + d1)/m and the product rounds by 1 + d2, |d1|, |d2| <= u, so
# |x * fl(1/m) - x/m| <= (|x|/m)(2u + u^2) <= (1 + u)/m < 1/2 for m >= 3: k = rint(...)
# is within 1/2 + 1/2 of x/m, so |x - k m| < m.  Then k m, within |x| + m - 1 < 2^53, and
# r = x - k m are exact, r is congruent to x, and |r| <= m - 1, the residue bound
# ``_fits`` assumes.  For m = 1, fl(1/m) = 1 and r = 0 exactly, which clears the gaps.
# (At a limit of 2^53 - 1, k m can pass 2^53, where float64 holds only even integers:
# m = 103217, x = 9007199254693525 gives r = -51607, not -51608.)  Lone targets and
# ``generate(family, N, p)`` stay on int64: on their narrow vectors the four ufuncs of
# the reduction cost more than the cheaper float64 correlate saves.
_F64_MAX = 2**52

_BLOCK = 1024        # steps per batch of multipliers, so memory follows the polynomials, not N
_HORIZON = 32        # a lockstep layout holds F_n .. F_max(3n/2, 32)
_BATCH_N = 1 << 20   # sum of N over the windows of a lockstep batch, which bounds its vectors (a few MB each)

# a_n = 2^n alpha_n, and alpha_n follows x's recurrence with D/4 and one extra term
# -(3/2) t^2 alpha_n: divide a's step by 2^(n+1), with D_a = D_x / 2, P_a = 2 P_x - 3 t^2 and
# s_a M = 4 s_x M.  So an a-window and an x-window share every tap of a lockstep batch.
_ALPHA_D = Fraction(1, 4)            # the factor on alpha_n'
_ALPHA_TILT = (2, Fraction(-3, 2))   # the extra term, as (exponent, coefficient)


def _check_modulus(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    _check_fits(p)


def _tap_sum(family: RecurrenceFamily, n: int) -> int:
    """The sum of |coefficients| of D, P_n and s_n * M, the taps of step n."""
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    return sum(map(abs, d_poly)) + sum(map(abs, cur_poly)) + abs(prev_scalar) * sum(map(abs, prev_poly))


def _fits(family: RecurrenceFamily, N: int, p: int, alpha: bool = False) -> bool:
    """Whether a lockstep batch steps F_N mod primes up to p, exact taps on float64
    residues, with every sum within ``_F64_MAX``: each tap on the unreduced F_n'
    multiplies a product of two residues, and ``alpha`` adds the term of an alpha window,
    a residue times a residue.

    Every tap of these families grows in size with n, so step N - 1 bounds
    them all."""
    d_sum = sum(map(abs, family.step_coeffs(0)[0]))
    return N < 2 or (_tap_sum(family, N - 1) + d_sum * (p - 2) + (p - 1 if alpha else 0)) * (p - 1) <= _F64_MAX


def _polys(family: RecurrenceFamily, n: int, transposed: bool = False) -> list[tuple[int, tuple]]:
    """The multipliers of step n as (lowest exponent, coefficients): D on F_n', P_n on
    F_n and s_n M on F_{n-1}.  Transposed, those of u_n = A_n^T u_{n+1} + B_{n+1}^T u_{n+2}
    on the reversed chain of ``_both_ends``: D, P_n^T from t^-1 up and s_{n+1} M."""
    d_poly, cur_poly, prev_scalar, prev_poly = family.step_coeffs(n)
    if transposed:
        prev_scalar = family.step_coeffs(n + 1)[2]
        d = (*d_poly, 0)
        cur_poly = (d[0], *((cur_poly[i] if i < len(cur_poly) else 0) - i * d[i + 1]
                            for i in range(max(len(cur_poly), len(d_poly) - 1))))
    return [(0, d_poly), (-1 if transposed else 0, cur_poly), (0, tuple(prev_scalar * c for c in prev_poly))]


@cache
def _columns(family: RecurrenceFamily, transposed: bool = False) -> tuple:
    """The multipliers of ``_polys(family, n, transposed)`` as a table built once per
    orientation: D as (lowest exponent, coefficients), the same at every step; the
    columns of P_n and s_n M side by side as three tuples (c0, c1, c2), column j at step n
    being c0[j] + c1[j]*n + c2[j]*n(n-1)/2 (``_quadratic``, from n = 0, 1, 2); and per
    multiplier its (lowest exponent, first column, width).  One D serves every region of
    a pass, so a D that depends on n is a ValueError."""
    samples = [_polys(family, n, transposed) for n in (0, 1, 2)]
    if len({sample[0] for sample in samples}) > 1:
        raise ValueError(f"{family!r}: the multiplier of F_n' depends on n")
    polys = [[v for _, v in triple] for triple in list(zip(*samples))[1:]]
    widths = [max(map(len, triple)) for triple in polys]
    cols = tuple(zip(*(_quadratic(*(v[j] if j < len(v) else 0 for v in triple))
                       for triple, width in zip(polys, widths) for j in range(width))))
    spans = tuple((base, first, width) for (base, _), width, first in zip(samples[0][1:], widths, (0, widths[0])))
    return samples[0][0], cols, spans  # cached, so immutable


def _multipliers(family: RecurrenceFamily, ns: np.ndarray, p: int | None = None,
                 transposed: bool = False) -> list[tuple[int, list]]:
    """The tap on F_n' as (offset, kernel), the same at every step, and the taps on F_n
    and F_{n-1} at the step indices ns as (offset, kernels), evaluated from the table of
    ``_columns(family, transposed)``; reduced mod p if p is given, else exact.

    ``kernels[i]`` is the multiplier at step ``ns[i]`` from t^offset up (columns that
    vanish at every step are cut off): a plain int when one column is left, else an array
    stored reversed for ``np.correlate``, int64 for residue taps and float64 for exact
    ones, which only a lockstep batch steps.
    """
    (d_base, d_poly), cols, spans = _columns(family, transposed)
    d_row = np.array([d_poly], np.int64)
    c0, c1, c2 = np.array(cols, np.int64) if p is None else np.array(cols, np.int64) % p
    n = (ns if p is None else ns % p)[:, None]
    pair = n * (n - 1) // 2
    if p is None:
        # exact while ``_fits``, whose bound counts every tap
        d_row, rows = d_row.astype(np.float64), (c0 + c1 * n + c2 * pair).astype(np.float64)
    else:
        # every factor is a residue below p, so each row sums at most (p-1) + 2(p-1)^2
        # <= _MAX_TERMS (p-1)^2 <= _INT64_MAX (p < _P_MAX) before its one `% p`
        d_row %= p
        rows = c0 + c1 * n + c2 * (pair % p)
        rows %= p
    d_off, (d_kernel,) = _cut(d_base, d_row)
    return [(d_off, d_kernel), *(_cut(base, rows[:, first:first + width]) for base, first, width in spans)]


def _cut(base: int, rows: np.ndarray) -> tuple[int, list]:
    """(offset, kernels) of the multipliers ``rows`` (one row a step, from t^base up),
    with the columns that vanish in every row cut off: a kernel of one column as an int,
    of several as an array of the dtype of ``rows``."""
    cols = np.flatnonzero(rows.any(axis=0))
    lo, hi = (int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, 1)
    if hi - lo == 1:
        return base + lo, rows[:, lo].astype(np.int64, copy=False).tolist()
    return base + lo, list(np.ascontiguousarray(rows[:, lo:hi][:, ::-1]))


def _step_mod(d_tap: tuple, taps: tuple, cur: np.ndarray, weights: np.ndarray, mod: np.ndarray, hi: int,
              shift: int = 0, tilt: tuple | None = None, reduce_derivative: bool = True,
              inv: np.ndarray | None = None) -> np.ndarray:
    """Stored F_{n+1} below position ``hi`` of a vector of windows, from F_n (``cur``)
    and the taps: int64 residues, or with ``inv`` float64 ones.

    Element j of the result is reduced mod ``mod[j]``: to 0 <= r < mod[j] on int64, and
    with ``inv`` (float64 1 / ``mod``) to an integral |r| <= mod[j] - 1 by ``_reduce``,
    exact while every sum stays within ``_F64_MAX``.  The vector moves ``shift``
    places to the right a step (0 or 1), so F_n'[j - 1] is ``weights[j] * cur[j - shift]``,
    ``weights[j]`` being congruent to the index of element j in its window, and ``d_tap`` =
    (offset, kernel) acts on it.  Each of ``taps``, (source, position, kernel), is a slice of
    F_n or F_{n-1} whose product lands at that position, so the regions of one vector can
    step with taps of their own.  ``tilt`` = (offset, c) adds c[j] to the one-column kernel of
    the tap of ``taps`` that lands at that offset, element by element.  On int64 (``_both_ends``,
    ``_stored_mod``), F_n' is reduced before its tap unless ``reduce_derivative`` is False,
    for taps reduced mod p < ``_P_UNREDUCED``; a float64 step (a lockstep batch) passes
    False, its bound ``_fits`` counting the unreduced F_n'.

    The step is as long as its longest product, at most ``hi``, read off the operand
    lengths; the D product is the output when it starts at 0 and covers the step, and
    each tap's product is added in place, through a view of the output, as it is
    computed (cut only when it runs past the step).
    """
    d_pos, d_kernel = d_tap
    deriv = cur[1 - shift:hi + 1 - shift]
    width = len(deriv)
    d_end = size = 0
    if width:
        d_end = size = d_pos + width if type(d_kernel) is int else d_pos + width + len(d_kernel) - 1
    for x, pos, kernel in taps:
        end = len(x)
        if end:
            end += pos if type(kernel) is int else pos + len(kernel) - 1
            if end > size:
                size = end
    if size > hi:
        size = hi
    if width:
        deriv = deriv * weights[1:width + 1]
        if reduce_derivative:
            deriv %= mod[1:width + 1]
        # np.correlate with the kernel reversed is np.convolve without its wrapper's cost
        c = d_kernel * deriv if type(d_kernel) is int else _correlate(deriv, d_kernel, "full")
        if d_pos == 0 and d_end >= size:
            out = c[:size]  # the D product covers the step
        else:
            out = np.zeros(size, cur.dtype)
            if d_end <= size:
                view = out[d_pos:d_end]
                view += c
            elif d_pos < size:
                view = out[d_pos:]
                view += c[:size - d_pos]
    else:
        out = np.zeros(size, cur.dtype)
    for x, pos, kernel in taps:
        if len(x) and pos < size:
            if type(kernel) is not int:
                c = _correlate(x, kernel, "full")
            elif tilt is not None and pos == tilt[0]:
                c = (tilt[1][pos:pos + len(x)] + kernel) * x
            else:
                c = kernel * x
            end = pos + len(c)
            if end <= size:
                view = out[pos:end]
                view += c
            else:
                view = out[pos:]
                view += c[:size - pos]
    if inv is None:
        out %= mod[:size]
    else:
        _reduce(out, mod[:size], inv[:size])
    return out


def _reduce(x: np.ndarray, mod: np.ndarray, inv: np.ndarray) -> None:
    """x - rint(x * inv) * mod in place, for float64 x within ``_F64_MAX``, mod and
    inv = 1 / mod: an integral residue |r| <= mod - 1, 0 where mod is 1."""
    q = x * inv
    np.rint(q, out=q)
    q *= mod
    x -= q


def _bind_correlate(a: np.ndarray, v: np.ndarray, mode: str) -> np.ndarray:
    """``np.correlate(a, v, mode)``.  The first call rebinds ``_correlate`` to numpy's
    undispatched implementation (``np.correlate._implementation``, which skips the
    ``__array_function__`` dispatch of every call), or to ``np.correlate`` itself where
    numpy has none; so numpy still loads at the first kernel call, not at import."""
    global _correlate
    _correlate = getattr(np.correlate, "_implementation", np.correlate)
    return _correlate(a, v, mode)


_correlate = _bind_correlate


def _stored_mod(family: RecurrenceFamily, p: int) -> Iterator[np.ndarray]:
    """The stored polynomials scale * F_n mod p as int64 arrays, F_n cut at
    ``_length_bounds(family, n)[n]`` elements."""
    _check_modulus(p)
    prev, cur = (np.array(seed, np.int64) % p for seed in family.seeds)
    weights = np.arange(2) % p  # weights[k] = k mod p, grown with F_n: F_n'[k - 1] = weights[k] * F_n[k]
    mod = np.full(len(weights) + _MAX_TERMS, p)  # longer than the next F_n
    reduce_derivative = p >= _P_UNREDUCED
    yield prev
    yield cur
    n = 1
    while True:
        d_tap, (cur_off, cur_kernels), (prev_off, prev_kernels) = _multipliers(family, np.arange(n, n + _BLOCK), p)
        # F_{n+1} is cut at L[n+1], for x and y at floor((n+1)/2) + 1
        bounds = _length_bounds(family, n + _BLOCK)[n + 1:].tolist()
        for cur_kernel, prev_kernel, hi in zip(cur_kernels, prev_kernels, bounds):
            if len(cur) >= len(weights):
                weights = np.arange(2 * len(cur) + 1) % p
                mod = np.full(len(weights) + _MAX_TERMS, p)
            taps = ((cur[:hi - cur_off], cur_off, cur_kernel), (prev[:hi - prev_off], prev_off, prev_kernel))
            prev, cur = cur, _step_mod(d_tap, taps, cur, weights, mod, hi, reduce_derivative=reduce_derivative)
            yield cur
        n += _BLOCK


# --- F_N(0) mod p for many targets (N, p) at once.
#
# Coefficient j of F_{n+1} needs coefficients <= j + 1 of F_n and <= j of F_{n-1}, so
# F_N(0) needs only the window of F_m below N - m + 1.  A lockstep batch lays the
# windows of its targets end to end in one vector, sorted by N, each followed by a
# gap of zeros as wide as the largest tap shift.  Every element carries its own modulus
# (1 in a gap, so each step clears the gaps) and derivative weight, and one
# ``_step_mod`` call steps every window.  An inner window is given the room its target
# needs until the next layout (``_slots``): values past its current window are never
# read by it, and the gap keeps them from its neighbour.  The last window follows its
# width, as a lone one does.  A finished window leaves the vector on the left.  A
# layout made at F_n holds the windows up to F_max(3n/2, _HORIZON) and is rebuilt
# there, which drops the room that shrinking windows no longer need.
#
# The schedule depends only on the targets: ``_slot_table`` gives the slot of each window
# in each layout from one ``_slots`` call per length bound.  Each layout is built when it
# is due.  Its moduli, 1/m and tilts, one value per window and one per gap, are a single
# ``np.repeat``; its weights are each element's index in its window (times the factor of
# an alpha window) mod its modulus, 0 in a gap; and F_{n-1} and F_n move into it through
# one gather (``_moved``), each window copying what it had and reading the rest of its
# slot and its gap from the zero after its old slot.
#
# A target that steps alone goes from both ends instead (``_both_ends``).


def _length_bounds(family: RecurrenceFamily, N: int) -> np.ndarray:
    """L[m] >= len(F_m) for m = 0..N, non-decreasing.

    For x and y, L[m] = floor(m/2) + 1.  Let phi send E4 -> 288t and E6 -> 1728, and let
    theta be the derivation of Q[E4, E6] with theta E4 = -E6/3 and theta E6 = -E4^2/2
    (Ramanujan's Serre derivative).  On E4^a E6^b, of weight w = 4a + 6b, theta gives
    -a/3 E4^(a-1) E6^(b+1) - b/2 E4^(a+2) E6^(b-1), whose image is phi(E4^a E6^b) times
    -2a/t - 24b t^2; so for every Q of weight w,

        phi(theta Q) = -2(1 - 8t^3) phi(Q)' - 4w t^2 phi(Q).

    Zagier's recursion P_{n+1} = theta P_n - n(n+k-1)/144 E4 P_{n-1}, with P_0 = 1 and
    P_1 = 0 ("Elliptic modular forms and their applications", section 5), keeps P_n of
    weight 2n, since E4 has weight 4; phi maps it onto
    phi(P_{n+1}) = -2(1 - 8t^3) phi(P_n)' - 8n t^2 phi(P_n) - 2n(n+k-1) t phi(P_{n-1}),
    which is x's step at k = 1/2 and y's step at k = 3/2, from the same seeds.  So x_n
    and y_n are phi(P_n), and a monomial E4^a E6^b of weight 2n has 4a <= 2n: deg x_n,
    deg y_n <= floor(n/2).  (The lengths are exactly n/2 + 1 for even n and (n-1)/2 for
    odd n >= 3; the tests check that to n = 2000, nothing here proves it.)

    For the other families, F_{n+1} is no longer than D * F_n', P_n * F_n and
    M * F_{n-1}, so its length grows by at most g a step and 2g over two, with
    g = max(len(D) - 2, len(P) - 1, ceil((len(M) - 1) / 2));
    L[m] = max(len(F_0) + g m, len(F_1) + g (m - 1)) bounds it."""
    m = np.arange(N + 1)
    if family is X_A or family is Y_A:
        return m // 2 + 1
    d_poly, cur_poly, _, prev_poly = family.step_coeffs(1)
    g = max(len(d_poly) - 2, len(cur_poly) - 1, len(prev_poly) // 2, 0)
    out = np.maximum(len(family.seeds[0]) + g * m, len(family.seeds[1]) + g * (m - 1))
    out[0] = len(family.seeds[0])
    return out


def _slots(lengths: np.ndarray, Ns, n, end):
    """Per target N, the widest window min(L[m], N - m + 1) of F_m over
    n <= m <= min(N, end): the coefficients of F_n .. F_end that the target
    needs.  With n and end columns, one row per layout."""
    # the windows grow with L[m] up to the first m with L[m] >= N - m + 1, then shrink
    cross = np.minimum(np.searchsorted(lengths + np.arange(len(lengths)), Ns + 1), Ns)
    end = np.minimum(Ns, end)
    top = np.maximum(cross, n)
    grow = np.where(cross > n, lengths[np.minimum(cross - 1, end)], 0)
    return np.maximum(grow, np.where(top <= end, Ns + 1 - top, 0))


def _slot_table(family: RecurrenceFamily, windows: list[tuple[int, int, bool]]) -> tuple[list[int], np.ndarray]:
    """The steps n at which a lockstep batch of ``windows`` (N, p, alpha), sorted by N,
    lays its windows out, and per layout and window the slot the window gets there.

    A layout made at F_n holds F_n .. F_end with end = min(max(n + n//2, _HORIZON), N_last):
    the batch lays out at F_1, then at each end while the layout before has an inner
    window.  An inner window gets what ``_slots`` gives its target over F_n .. F_end
    (with a's length bounds for an alpha window, which holds a's rows, scaled), a
    finished one 0 or 1, and the last window follows its width, N_last - n + 1, as a
    lone one does."""
    keys = [N for N, _, _ in windows]
    Ns, N_last = np.array(keys), keys[-1]
    points, ends = [1], [min(_HORIZON, N_last)]
    while ends[-1] < N_last and bisect_right(keys, points[-1]) < len(keys) - 1:
        points.append(ends[-1])
        ends.append(min(max(ends[-1] + ends[-1] // 2, _HORIZON), N_last))
    ns, ends = np.array(points)[:, None], np.array(ends)[:, None]
    table = _slots(_length_bounds(family, N_last), Ns, ns, ends)
    if any(alpha for *_, alpha in windows):
        is_alpha = np.array([alpha for *_, alpha in windows])
        table = np.where(is_alpha, _slots(_length_bounds(A_VZ, N_last), Ns, ns, ends), table)
    table[:, -1] = N_last + 1 - ns[:, 0]
    return points, table


def _pairs(a, b) -> np.ndarray:
    """a[..., 0], b[..., 0], a[..., 1], b[..., 1], ... along the last axis of a, as int64;
    b broadcasts."""
    a = np.asarray(a)
    out = np.empty((*a.shape[:-1], 2 * a.shape[-1]), np.int64)
    out[..., 0::2], out[..., 1::2] = a, b
    return out


def _moved(polys: list, old_starts: np.ndarray, old_widths: np.ndarray, slots: np.ndarray, sizes: np.ndarray,
           offset: np.ndarray) -> list:
    """Each of ``polys``, its windows at ``old_starts`` and ``old_widths`` wide, moved by one
    gather into a layout of ``slots``, each followed by its gap (``sizes`` long in all),
    where ``offset`` is the index of each element in its window.

    A window keeps its first min(old, new) values, and the rest of its slot and its gap
    read the element after its old window, which must hold 0 for every window but the
    last.  The last window stays as long as it is in each poly, cut at its slot."""
    index = np.where(offset < np.minimum(old_widths, slots).repeat(sizes), offset, old_widths.repeat(sizes))
    index += old_starts.repeat(sizes)
    start, slot, last = len(offset) - int(sizes[-1]), int(slots[-1]), int(old_starts[-1])
    return [poly[index[:start + min(max(len(poly) - last, 0), slot)]] for poly in polys]


def _residue(c: Fraction, p: int) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def _alpha(p: int) -> tuple[list[tuple], int, int]:
    """The seeds alpha_0, alpha_1 mod p of an alpha window, the factor on its derivative
    weights and the coefficient of its extra term."""
    half = pow(2, -1, p)
    seeds = [tuple(c * pow(half, n, p) % p for c in seed) for n, seed in enumerate(A_VZ.seeds)]
    return seeds, _residue(_ALPHA_D, p), _residue(_ALPHA_TILT[1], p)


def _lockstep(family: RecurrenceFamily, windows: list[tuple[int, int, bool]]) -> list[int]:
    """Stored F_N(0) mod p for windows (N, p, alpha) sorted by N, every N >= 2, that
    ``_fits`` admits, stepped together with exact taps on float64 residues, F_n'
    unreduced.  An alpha window (``family`` is X_A) steps alpha_n = a_n / 2^n by x's taps
    and gives a_N(0) = 2^N alpha_N(0)."""
    keys = [N for N, _, _ in windows]
    ps = np.array([p for _, p, _ in windows])
    N_last = keys[-1]
    alphas = {p: _alpha(p) for _, p, alpha in windows if alpha}
    seeds = [alphas[p][0] if alpha else [tuple(c % p for c in seed) for seed in family.seeds]
             for _, p, alpha in windows]
    d_poly, cur_poly, _, prev_poly = family.step_coeffs(1)
    gap = max(len(d_poly) - 2, len(cur_poly) - 1, len(prev_poly) - 1, 1)  # at least one 0 after each window

    points, table = _slot_table(family, windows)
    # The modulus of each window and gap, then 1/m and the tilt: constant per window and
    # gap, so a layout repeats them
    constants = [_pairs(ps, 1)]
    constants.append(1 / constants[0])
    if alphas:
        constants.append(_pairs([alphas[p][2] if alpha else 0 for _, p, alpha in windows], 0))
        factors = np.array([alphas[p][1] if alpha else 1 for _, p, alpha in windows])
    constants = np.array(constants, np.float64)

    def lay_out(layout: int, first: int, moves: list) -> tuple:
        """Layout ``layout`` of the windows first.., and the polys of each of ``moves``,
        (polys, old starts, old widths), moved into it (``_moved``): the starts, the polys,
        and the moduli, weights, tilt and inv of ``_step_mod``.  An element's weight is its
        index k in its window times the window's factor, reduced mod p as each pass reduces
        its output: 0 in a gap, whose modulus is 1.  k * factor <= N_last * (p - 1) is
        within the sums that ``_fits`` admits."""
        slots = table[layout, first:]
        sizes = slots + gap
        starts = sizes.cumsum() - sizes
        weights = np.arange(starts[-1] + sizes[-1])
        weights -= starts.repeat(sizes)  # k, the offset of each element in its window
        moved = [poly for move in moves for poly in _moved(*move, slots, sizes, weights)]
        per_element = constants[:, 2 * first:].repeat(_pairs(slots, gap), axis=1)
        moduli, inv = per_element[0], per_element[1]
        weights = weights.astype(np.float64)  # and k goes: a relayout's temporaries set a scan's peak
        if alphas:
            weights *= factors[first:].repeat(sizes)
        _reduce(weights, moduli, inv)
        return starts, moved, moduli, weights, (_ALPHA_TILT[0], per_element[2]) if alphas else None, inv

    # F_0 and F_1 of every window, end to end and each followed by one 0
    rows = [np.array([c for seed in seeds for c in (*seed[j], 0)][:-1], np.float64) for j in (0, 1)]
    widths = np.array([[len(seed[j]) for seed in seeds] for j in (0, 1)])
    starts, (prev, cur), moduli, weights, tilt, inv = lay_out(
        0, 0, [([row], np.cumsum(w + 1) - w - 1, w) for row, w in zip(rows, widths)])
    last = int(starts[-1])
    out, first, layout, n = [], 0, 1, 1
    due = points[1] if len(points) > 1 else 0
    while n < N_last:
        d_tap, (cur_off, cur_kernels), (prev_off, prev_kernels) = _multipliers(
            family, np.arange(n, min(n + _BLOCK, N_last)))
        for cur_kernel, prev_kernel in zip(cur_kernels, prev_kernels):
            hi = last + N_last - n
            taps = ((cur[:hi - cur_off], cur_off, cur_kernel), (prev[:hi - prev_off], prev_off, prev_kernel))
            prev, cur = cur, _step_mod(d_tap, taps, cur, weights, moduli, hi,
                                       tilt=tilt, reduce_derivative=False, inv=inv)
            n += 1
            if n == keys[first]:
                done = bisect_right(keys, n, first) - first
                out += [int(cur[s]) if s < len(cur) else 0 for s in starts[:done]]
                if n == N_last:
                    break
                first, cut = first + done, int(starts[done])
                starts = starts[done:] - cut
                prev, cur, moduli, weights, inv = prev[cut:], cur[cut:], moduli[cut:], weights[cut:], inv[cut:]
                tilt = None if tilt is None else (tilt[0], tilt[1][cut:])
                last = int(starts[-1])
            if n == due:
                # the old values go only as the new replace them: freed first, they put
                # each pass's arrays on fresh pages (Ep 2..3000 ran 0.78x, with about 7500
                # minor page faults a scan against 1000)
                starts, (prev, cur), moduli, weights, tilt, inv = lay_out(
                    layout, first, [([prev, cur], starts, table[layout - 1, first:])])
                last = int(starts[-1])
                layout += 1
                due = points[layout] if layout < len(points) else 0
    return [r * pow(2, N, p) % p if alpha else r % p for r, (N, p, alpha) in zip(out, windows)]


def _dot_mod(pairs, p: int) -> int:
    """The sum over (a, b) of ``pairs`` of sum_i a[i] * b[i], mod p, for int64 residues
    below p < ``_P_MAX``: each product (< 2^60) is reduced before the sum, so the sum stays
    exact for any length below 2^33."""
    total = 0
    for a, b in pairs:
        size = min(len(a), len(b))
        total += int((a[:size] * b[:size] % p).sum())
    return total % p


def _both_ends(family: RecurrenceFamily, N: int, p: int) -> int:
    """Stored F_N(0) mod p for one target N >= 2, stepped from both ends at once.

    Write F_{n+1} = A_n F_n + B_n F_{n-1} with A_n = D d/dt + P_n and B_n = s_n M.  Then
    F_N(0) = <u_n, F_n> + <B_n^T u_{n+1}, F_{n-1}> at every n, where u_N = e_0,
    u_{N+1} = 0 and u_n = A_n^T u_{n+1} + B_{n+1}^T u_{n+2}, with

        (A_n^T u)[i] = i * sum_k D[k] u[i+k-1] + sum_k P_n[k] u[i+k].

    One vector holds u reversed, a gap and the window of F.  Stored so, u shifts as F
    does, and since i u[i+k-1] = (i+k-1) u[i+k-1] - (k-1) u[i+k-1], the D tap of u is that
    of F on the same weighted elements (the weight of an element is its index in its
    chain), with -(k-1) D[k] folded into P_n^T (``_polys``).  Each pass of ``_step_mod``
    steps F up by one and u down by one, each region with its own taps reduced mod p,
    until they meet at m = N/2, one pass more for even N: about N/2 passes instead of
    N.  u_n lives on 0..N-n and the window of F_n is min(L_n, N-n+1), so both regions
    grow from one element, and one dot product (``_dot_mod``) finishes.

    The vector moves one place right a pass, so that u, growing to the left, starts at
    position 0: u_n[i] sits at N - n - i and F_n[j] at gap + 1 + (n - a) + j in the pass
    that steps F_n.  The moduli and weights of every pass are views of one array.
    """
    a = 2 - N % 2                 # F starts from F_(a-1), F_a, so that N - a is even
    passes = (N - a) // 2
    m = a + passes                # where the chains meet; u_m has passes + 1 elements
    widths = np.minimum(_length_bounds(family, m), N + 1 - np.arange(m + 1)).tolist()
    d_poly, cur_poly, _, prev_poly = family.step_coeffs(1)
    gap = max(len(d_poly), len(cur_poly) + 1, len(prev_poly))
    head = gap + 1                # F_n[0] of the pass that steps F_n is at head + (n - a)
    reduce_derivative = p >= _P_UNREDUCED
    span = max(widths[a - 1:])
    # the moduli and weights of the vector that F_a and u_N start in are views from `passes` on
    mod = np.ones(passes + head + span + gap, np.int64)
    mod[:passes + 1] = mod[passes + head:passes + head + span] = p
    weights = np.zeros(len(mod), np.int64)
    weights[:passes + 1] = np.arange(passes, -1, -1) % p
    weights[passes + head:passes + head + span] = np.arange(span) % p
    prev, cur = np.zeros(head + span + gap, np.int64), np.zeros(head + span + gap, np.int64)
    cur[0] = 1                    # u_N = e_0
    for poly, start, row, width in zip((prev, cur), (head - 1, head), islice(_stored_exact(family), a - 1, a + 1),
                                       widths[a - 1:]):
        row = [c % p for c in row[:width]]
        poly[start:start + len(row)] = row
    for first in range(0, passes, _BLOCK):
        ks = np.arange(first, min(first + _BLOCK, passes))
        d_tap, (f_off, f_cur), (f_off2, f_prev) = _multipliers(family, a + ks, p)
        _, (u_off, u_cur), (u_off2, u_prev) = _multipliers(family, N - 1 - ks, p, transposed=True)
        u_at, u_at2, f_at, f_at2 = u_off + 1, u_off2 + 2, f_off + 1, f_off2 + 1  # where the taps land (f's from f)
        for k, u_kernel, u_kernel2, f_kernel, f_kernel2 in zip(range(first, first + len(ks)), u_cur, u_prev,
                                                              f_cur, f_prev):
            n = a + k             # F_(n+1) from F_n, F_(n-1); u_(N-k-1) from u_(N-k), u_(N-k+1)
            f, w = head + k, widths[n]
            taps = ((cur[:k + 1], u_at, u_kernel), (prev[:k], u_at2, u_kernel2),
                    (cur[f:f + w], f + f_at, f_kernel), (prev[f - 1:f - 1 + w], f + f_at2, f_kernel2))
            prev, cur = cur, _step_mod(d_tap, taps, cur, weights[passes - k - 1:], mod[passes - k - 1:],
                                       f + 1 + widths[n + 1], shift=1, reduce_derivative=reduce_derivative)
    _, _, prev_scalar, prev_poly = family.step_coeffs(m)
    s_m = np.array([prev_scalar * c % p for c in prev_poly], np.int64)
    f = head + passes
    return _dot_mod([(cur[:passes + 1][::-1], cur[f:f + widths[m]]),
                     (prev[:passes][::-1], np.convolve(prev[f - 1:f - 1 + widths[m - 1]], s_m) % p)], p)


def _batches(family: RecurrenceFamily, targets: list[tuple[int, int]], alpha: bool = False) -> list[list[int]]:
    """The indices of the targets with N >= 2 in lockstep batches, each sorted by N.

    Taken in order of p, a batch grows while its sums stay within ``_F64_MAX`` (``_fits``,
    with the alpha term if ``alpha``) and the sum of N over its windows, two a target if
    ``alpha``, stays within ``_BATCH_N``; a target that fits with no other steps alone,
    as does every target past that bound."""
    batches, top, total = [], 0, 0
    per_target = 2 if alpha else 1
    for i in sorted(range(len(targets)), key=lambda i: targets[i][1]):
        N, p = targets[i]
        if N < 2:
            continue
        if batches and total + per_target * N <= _BATCH_N and _fits(family, max(top, N), p, alpha):
            batches[-1].append(i)
            top, total = max(top, N), total + per_target * N
        else:
            batches.append([i])
            top, total = N, per_target * N
    return [sorted(batch, key=lambda i: targets[i][0]) for batch in batches]


def _checked(targets) -> list[tuple[int, int]]:
    """The targets as a list; ValueError for N < 0 or a modulus that is not an odd
    prime, OverflowError for p >= ``_P_MAX``."""
    targets = [(N, p) for N, p in targets]
    for N, p in targets:
        if N < 0:
            raise ValueError("index N must be >= 0")
        _check_modulus(p)
    return targets


def _terms_mod(family: RecurrenceFamily, targets, paired: bool = False) -> list[list[int]]:
    """F_N(0) mod p of ``family`` for every target (N, p), in the order given; if ``paired``,
    of A_VZ and of X_A (``family``), each batch stepping the a-windows as alpha windows."""
    targets = _checked(targets)
    families = (A_VZ, X_A) if paired else (family,)
    # stored F_N(0) mod p of the seeds, N < 2; the batches fill in the others
    outs = [[f.seeds[N][0] % p if N < 2 and f.seeds[N] else 0 for N, p in targets] for f in families]
    for batch in _batches(family, targets, alpha=paired):
        # the a-window of a pair, and only it, is an alpha window
        windows = [(*targets[i], f is not family) for i in batch for f in families]
        residues = iter(_lockstep(family, windows) if len(batch) > 1 else
                        [_both_ends(f, N, p) for f, (N, p, _) in zip(families, windows)])
        for i in batch:
            for out in outs:
                out[i] = next(residues)
    return [[r * pow(f.scale, -1, p) % p for r, (_, p) in zip(out, targets)] for out, f in zip(outs, families)]


def constant_terms_mod(family: RecurrenceFamily, targets) -> list[int]:
    """F_N(0) mod p for every target (N, p), in the order given.

    The targets are stepped in lockstep batches: one window kernel steps a
    whole batch, so a scan makes N_max steps instead of one per prime and
    step.  A target that steps alone, as does every target past the bound of a
    batch (``_fits``: Ep p > 104561), goes from both ends in about N/2 steps.
    ValueError for N < 0 or a modulus that is not an odd prime, OverflowError
    for p >= ``_P_MAX``, both before any array exists.
    """
    return _terms_mod(family, targets)[0]


def paired_constant_terms_mod(targets) -> tuple[list[int], list[int]]:
    """(a_N(0) mod p, x_N(0) mod p) for every target (N, p), in the order given.

    A batch steps the a- and the x-window of each target in one lockstep vector,
    a as alpha_n = a_n / 2^n on x's taps (``_ALPHA_D``, ``_ALPHA_TILT``), so a scan
    makes N_max steps for both paths.  A target that steps alone, as does every
    target past the bound of a paired batch (``_fits``: Ap p > 272539), goes from
    both ends once per path, each on its own taps.  Errors as for
    ``constant_terms_mod``.
    """
    return tuple(_terms_mod(X_A, targets, paired=True))


def constant_term_mod(family: RecurrenceFamily, N: int, p: int) -> int:
    """F_N(0) mod p for an odd prime p below ``_P_MAX``, stepping only the
    coefficients that can reach it, from both ends; OverflowError for p >= ``_P_MAX``."""
    return constant_terms_mod(family, [(N, p)])[0]
