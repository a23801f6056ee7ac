"""Extended-precision Maass-Shimura derivatives of theta-type series at CM points.

The weight-k iterated non-holomorphic derivative of a q-series
f = sum a(mu) e^{2 pi i mu z} at order h is (Zagier, Elliptic modular forms
and their applications, 5.2)

    d^h f = sum_j (-1)^(h-j) C(h, j) (k+j)_(h-j) (4 pi y)^(j-h) D^j f,

with D^j f = sum a(mu) mu^j e^{2 pi i mu z} the holomorphic moments; term by
term it is the Laguerre form

    (-1)^h h! / (4 pi y)^h * sum a(mu) L_h^{k-1}(4 pi mu y) e^{2 pi i mu z}.

``laguerre`` runs the three-term recurrence of L on Python ints in fixed
point, with ``_laguerre_guard(h) = 2 * bit_length(h) + 8`` bits past the
working precision, and rounds half-even to an mpf once.  It builds each mpf
from the libmp tuple that ``mpf((fixed, -w))`` makes, at the precision and
rounding ``mpf()`` reads from the context, so the values are the
constructor's bit for bit without its dispatch.  The tests hold it
to 2^-(prec-8) * max(1, |L|) against the defining sum (``laguerre_sum`` in
``tests/_oracles.py``) for h <= 64, alpha in {-1/2, 0, 1/2, 1} and
0.01 <= |x| <= 2000 (and x = 0) at 64, 256 and 1064 bits.

``ms_derivative`` sums the moments on Python ints.  Every frequency mu of a
series has one denominator D (8 for theta2 and the eta-cube series, 24 for
eta, 1 for Theta_hex and the tests' E2), read from its first term; a later term with
another raises ValueError.  The exponential e^{2 pi i mu z} of each term
comes from the previous term's times a ratio g^Delta of g = exp(2 pi i z / D),
and the ratio from the previous ratio times g^(second difference): one walk
per series, about two products per term for the quadratic frequencies of
theta2 and the eta series.  Each exponential is a pair of integer mantissas
of w bits with its own binary exponent, w = mp.prec + ``_WALK_GUARD`` (24) +
``_moment_guard(top)`` (80 up to order 64, top + 16 past it: the moments
cancel about h bits).  Each term multiplies its mantissas by num = mu * D
exactly, j times, and floors each product onto the moment sum U_j at 2^-w;
each order is then one integer Horner pass over the cached coefficients of
the expansion, in g = D/(4 pi y s) made once per call and shifted down to
the order's width (``_moment_point``).  So a term costs small-integer
products only, and one ``laguerre`` call at 64 bits for the stop bound
|a| L_h^{k-1}(-4 pi mu y) |e^{2 pi i mu z}|.  The tests hold it to
2^-precision * max(|ref|, h!/(4 pi y)^h) against the mpf Laguerre sum with
one mp.exp per term, for the six series at i, omega and 0.3 + 1.1i, h in
{0, 1, 7, 32} at 64, 256 and 1064 bits, h = 64 at 64 and 256 bits, and h in
{96, 128} at 64 and 256 bits for theta2, eta, Theta_hex and E2 (which, with
the Hermite and lattice-sum oracles, is in ``tests/_oracles.py``).

Both take one order h or a sequence of distinct orders.  ``laguerre`` runs
its recurrence once, to the largest order, with that order's guard bits,
and reads each requested order on the way.  ``ms_derivative`` walks the
series once: the moment sums do not depend on which orders are asked for
(up to 64), and each order keeps its own stop rule and reads the moments
where it stops, so it sums the terms its one-order call sums; the tests
hold the values equal (==) to the one-order calls for theta2, eta,
eta(3z)^3 and Theta_hex up to h = 64.

One table, ``_IDENTITIES``, holds the four CM identities: theta2 at z = i
against f_N(0) and Omega_E, and eta, eta^3, eta(3z)^3 at
z = omega = (-1+sqrt(-3))/2 against x_{3N}(0), y_{3N}(0), z_{3N+1}(0) and
Omega_A.  Each row gives the series, weight, CM point, weight k and
derivative order, the closed form of the squared derivative and the scale
that turns it into a central Hecke value; the ``verify_*`` and
``hecke_value_*`` functions read that table, except ``hecke_value_A``, which
reaches the A-side values independently through the hexagonal-lattice theta
series.  They take one index or a sequence of them, and for a sequence make
one pass per (series, point, precision) for all its orders, read the
constants F_n(0) from one walk of the recurrence (for f the walk in
v = 2t + 3, whose rows have the parity of n: f_n(0) = H_n(3) / 2^n), form
Omega/pi once per call, and share the periods,
which are computed once per precision.  ``omega_E`` and ``omega_A`` compute
the periods from the arithmetic-geometric mean (Borwein & Borwein, Pi and the
AGM, 1987), not from the gamma function: the AGM converges quadratically, so
the two take about 15 ms together at 8000 bits.  They work ``_PERIOD_GUARD``
(64) bits past the precision and round to precision + ``_GUARD``; the tests
hold them equal (==) to the gamma forms at 64 to 1024 bits and to a 400-bit
guard at every 11th precision from 64 to 2048.

Every value computed after the series sums (each order's derivative from its
moment sum, |d|^2, the closed forms, the Hecke scales, the lattice-route
scales and the report errors) is built from ``_mpf_``/``_mpc_`` tuples by the
libmp calls that the mpf operators of mpmath 1.3 make for the same expression,
at the working precision and rounding, so the values are the operators' bit
for bit without their dispatch.  The tests compare each with its operator
form at 64, 256, 512 and 1024 bits (plus ``_GUARD``).
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from ._lazy import lazy_import
from .polyring import constant_term
from .recurrences import F_E, X_A, Y_A, Z_A, iter_family
from .recurrences import generate  # noqa: F401  (unused here; perfbench/spans.py wraps maass.generate)

mpmath = lazy_import("mpmath")  # loaded at the first precision-bound call: see _lazy

_GUARD = 40          # guard bits on top of the requested precision
_PERIOD_GUARD = 64   # bits past precision of the AGM periods: the AGM loses only O(log prec)
                     # bits, and 64 is the width the tests hold equal to a 400-bit guard
_WALK_GUARD = 24     # bits past mp.prec of ms_derivative's walk, before _moment_guard
MIN_PRECISION = 64   # smallest supported working precision, in bits

CM_I = "i"
CM_OMEGA = "omega"


class PrecisionError(ValueError):
    """Requested working precision below MIN_PRECISION, or an ``ms_derivative`` series
    still above its truncation threshold after 10000 terms (which the CLI reports as
    non-convergence, exit 3)."""


# A series is a zero-argument generator of (mu, coeff) for sum coeff * e^{2 pi i mu z},
# rational mu >= 0 increasing.
Series = Callable[[], Iterator[tuple[Fraction, int]]]


def THETA2():
    m = 0
    while True:
        yield Fraction((2 * m + 1) ** 2, 8), 2
        m += 1


def ETA():
    # pentagonal form: frequencies (6k+1)^2/24 over k in Z, coefficient (-1)^k
    yield Fraction(1, 24), 1
    m = 1
    while True:
        for k in (-m, m):
            yield Fraction((6 * k + 1) ** 2, 24), -1 if k % 2 else 1
        m += 1


def ETA_CUBED():
    m = 0
    while True:
        yield Fraction((2 * m + 1) ** 2, 8), (-1) ** m * (2 * m + 1)
        m += 1


def ETA3Z_CUBED():
    m = 0
    while True:
        yield Fraction(3 * (2 * m + 1) ** 2, 8), (-1) ** m * (2 * m + 1)
        m += 1


@functools.cache  # THETA_HEX reads each f on every walk of the series
def _hex_count(f: int) -> int:
    """#{(n, m) in Z^2 : n^2 + nm + m^2 = f}, from 4f - 3n^2 = (2m + n)^2."""
    if f == 0:
        return 1
    bound = math.isqrt(4 * f // 3)  # n^2 + nm + m^2 >= 3n^2/4
    count = 0
    for n in range(-bound, bound + 1):
        d = 4 * f - 3 * n * n
        t = math.isqrt(d)
        if t * t == d and (t - n) % 2 == 0:  # m = (+-t - n) / 2, one m when t = 0
            count += 2 if t else 1
    return count


def THETA_HEX():
    # theta series of the hexagonal lattice: sum q^(n^2+nm+m^2), weight 1
    f = 0
    while True:
        c = _hex_count(f)
        if c:
            yield Fraction(f), c
        f += 1


def _as_point(z):
    """CM-point tag or explicit number -> mpc at the current working precision."""
    if z == CM_I:
        return mpmath.mpc(0, 1)
    if z == CM_OMEGA:
        return mpmath.mpc(mpmath.mpf(-1) / 2, mpmath.sqrt(3) / 2)
    return mpmath.mpc(z)


def _laguerre_guard(h: int) -> int:
    """Fixed-point guard bits of ``laguerre`` at order h: 2 * bit_length(h) + 8.

    Every step of the recurrence floors twice, the floors all lean the same
    way and the recurrence amplifies them: with no guard, L_64 at x = 0.01
    is off by about 450 units of 2^-prec.  With this guard the error stays
    below one unit of 2^-prec * max(1, |L|) for h <= 64, alpha in
    {-1/2, 0, 1/2, 1} and 0.01 <= x <= 2000 at 64, 256 and 1064 bits.
    """
    return 2 * h.bit_length() + 8


def _orders(h, what: str) -> tuple[int, ...]:
    """h as a tuple of orders: one int, or a sequence of distinct ints >= 0."""
    orders = (h,) if isinstance(h, int) else tuple(h)
    low = min(orders, default=0)
    if low < 0:
        raise ValueError(f"{what} must be >= 0, got {low}")
    if len(set(orders)) < len(orders):
        raise ValueError(f"repeated {what} in {orders}")
    return orders


def laguerre(h, alpha, x):
    """L_h^alpha(x) for real x and rational alpha = r/s, at the working precision.

    The three-term recurrence runs on Python ints in fixed point: with
    w = mp.prec + _laguerre_guard(h) and X = x * 2^w,
    s(m+1) L_{m+1} = (s(2m+1) + r) L_m - s (X L_m >> w) - (sm + r) L_{m-1},
    each L_m held as L_m * 2^w; the result is rounded half-even to an mpf
    once.  For alpha > -1 every term of the defining sum is positive at
    x <= 0, so |L_h^alpha(x)| <= L_h^alpha(-x) for x >= 0: ``ms_derivative``
    reads its stop bound there, where L grows with h and the recurrence
    follows it without loss.  For a
    sequence of orders h the recurrence runs once, to the largest order with
    that order's guard bits, and returns a tuple of L_h, one per order.
    """
    orders = _orders(h, "Laguerre order")
    a = alpha if type(alpha) is Fraction else Fraction(alpha)
    r, s = a.numerator, a.denominator
    top = max(orders, default=0)
    libmp, mp = mpmath.libmp, mpmath.mp
    prec, rounding = mp._prec_rounding
    w = prec + _laguerre_guard(top)
    # mpf(x) would round x to prec bits: an mpf that already fits is read as it is
    v = x._mpf_ if type(x) is mpmath.mpf and x._mpf_[3] <= prec else mpmath.mpf(x)._mpf_
    sx = s * libmp.to_fixed(v, w)
    prev, cur = 0, 1 << w
    fixed = [cur]
    for m in range(top):
        step = ((2 * m + 1) * s + r) * cur - ((sx * cur) >> w) - (m * s + r) * prev
        prev, cur = cur, step // ((m + 1) * s)
        fixed.append(cur)
    # what mpf((fixed, -w)) runs, without the constructor's dispatch
    values = tuple(mp.make_mpf(libmp.from_man_exp(fixed[n], -w, prec, rounding)) for n in orders)
    return values[0] if isinstance(h, int) else values


def _mantissas(v: mpmath.mpc, w: int) -> tuple[int, int, int]:
    """v as (re, im, e) with v ~ (re + i im) 2^e and max(|re|, |im|) of w bits."""
    parts = (v.real._mpf_, v.imag._mpf_)
    e = max(exp + bc for _, man, exp, bc in parts if man) - w
    return mpmath.libmp.to_fixed(parts[0], -e), mpmath.libmp.to_fixed(parts[1], -e), e


def _cmul(a: tuple[int, int, int], b: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """Product of two mantissa triples, floored back to w bits.

    Both factors hold w bits, so the product holds at least 2w - 2 and the
    shift is always to the right.
    """
    ar, ai, ae = a
    br, bi, be = b
    re, im = ar * br - ai * bi, ar * bi + ai * br
    s = max(re.bit_length(), im.bit_length()) - w
    return re >> s, im >> s, ae + be + s


class _ExpWalk:
    """exp(2 pi i z n / D) along n = n_0 < n_1 < ..., as mantissa triples of w bits.

    From g = exp(2 pi i z / D), each value is the previous one times the
    ratio g^Delta, Delta = n_k - n_{k-1}; a new ratio is the previous one
    times g^(second difference) when that is positive, else g^Delta itself.
    Powers of g come from a dict holding the squares g^(2^j), so a missing
    power costs one product per set bit; a quadratic n_k costs two products
    per step.  Each value carries its own binary exponent: in one fixed-point
    scale the absolute error of a small e^{-x/2} would be multiplied by
    L_h(x), which grows like e^{x/2}.  Every product floors, and the floors
    add up to about k^2 units of 2^-w after k steps, which the guard bits of
    w absorb.
    """

    def __init__(self, z: mpmath.mpc, D: int, w: int):
        with mpmath.workprec(w):
            g = mpmath.exp(2j * mpmath.pi * z / D)
        one = (1 << (w - 1), 0, 1 - w)
        self.w = w
        self.pows = {1: _mantissas(g, w)}
        self.n = self.delta = 0
        self.ratio = self.value = one

    def _power(self, j: int) -> tuple[int, int, int]:
        got = self.pows.get(j)
        if got is None:
            bit = 1
            while bit <= j:
                if bit not in self.pows:
                    half = self.pows[bit >> 1]
                    self.pows[bit] = _cmul(half, half, self.w)
                if j & bit:
                    sq = self.pows[bit]
                    got = sq if got is None else _cmul(got, sq, self.w)
                bit <<= 1
            self.pows[j] = got
        return got

    def step(self, n: int) -> tuple[int, int, int]:
        delta = n - self.n
        if delta != self.delta:
            d2 = delta - self.delta
            self.ratio = _cmul(self.ratio, self._power(d2), self.w) if d2 > 0 else self._power(delta)
            self.delta = delta
        self.value = _cmul(self.value, self.ratio, self.w)
        self.n = n
        return self.value


@functools.cache  # shared by every call at this order and weight
def _expansion(h: int, r: int, s: int) -> tuple[int, ...]:
    """(-1)^(h-j) C(h, j) prod_{m=j}^{h-1} (r + s m) for j = 0..h.

    At weight k = r/s these are the coefficients of the order-h derivative
    in the holomorphic moments, up to the powers of D/(4 pi y s) and D^-h
    that ``_moment_sum`` supplies.
    """
    coeffs = [0] * (h + 1)
    rising = 1  # prod_{m=j}^{h-1} (r + s m)
    for j in range(h, -1, -1):
        coeffs[j] = (-1) ** (h - j) * math.comb(h, j) * rising
        rising *= r + s * (j - 1)
    return tuple(coeffs)


def _moment_guard(top: int) -> int:
    """Bits past mp.prec + ``_WALK_GUARD`` of ``ms_derivative``'s moment sums: max(80, top + 16).

    At order h the moments enter with coefficients up to about 2^h times the
    derivative (E2 at i, where 4 pi y / D = 12.6, cancels the most), so the
    guard grows with the top order past 64.  Up to 64 it stays fixed, so the
    width does not depend on which orders one call asks for.
    """
    return max(80, top + 16)


def _moment_width(h: int) -> int:
    """W = mp.prec + 2h + 32, the bits of ``_moment_sum``'s Horner pass at order h."""
    return mpmath.mp.prec + 2 * h + 32


def _moment_point(D: int, y: mpmath.mpf, s: int, top: int) -> tuple[int, int]:
    """g = D/(4 pi y s) as (floor(g 2^W), W), W = ``_moment_width(max(64, top))``, from g
    rounded to W + 8 bits.

    Order h <= max(64, top) takes its g by a right shift to ``_moment_width(h)`` bits,
    which is within one unit of floor(g 2^W_h).  Up to order 64 the width does not
    depend on the orders asked for, so a one-pass call and one-order calls shift the
    same g.
    """
    W = _moment_width(max(64, top))
    with mpmath.workprec(W + 8):
        return mpmath.libmp.to_fixed((D / (4 * mpmath.pi * y * s))._mpf_, W), W


def _moment_sum(h: int, weight: Fraction, D: int, ure: list, uim: list, point: tuple[int, int],
                w: int) -> mpmath.mpc:
    """D^-h sum_j c_j g^(h-j) U_j, g = D/(4 pi y s) given as ``_moment_point``, c_j from
    ``_expansion``.

    One integer Horner pass in g at W = ``_moment_width(h)`` bits; the moments
    U_j are ints at 2^-w.
    """
    coeffs = _expansion(h, weight.numerator, weight.denominator)
    W = _moment_width(h)
    g = point[0] >> (point[1] - W)
    re, im = coeffs[0] * ure[0], coeffs[0] * uim[0]
    for j in range(1, h + 1):
        re = ((re * g) >> W) + coeffs[j] * ure[j]
        im = ((im * g) >> W) + coeffs[j] * uim[j]
    # what mpc(mpf((re, -w)), mpf((im, -w))) / D ** h runs, without the operators' dispatch
    libmp = mpmath.libmp
    prec, rounding = mpmath.mp._prec_rounding
    z = libmp.from_man_exp(re, -w, prec, rounding), libmp.from_man_exp(im, -w, prec, rounding)
    return mpmath.mp.make_mpc(libmp.mpc_div_mpf(z, libmp.from_int(D ** h), prec, rounding))


def ms_derivative(series: Series, weight, h, z, precision: int = 256):
    """Order-h Maass-Shimura derivative of the series at z (weight k > 0 as given).

    The derivative is summed from the holomorphic moments of the series
    (Zagier, Elliptic modular forms and their applications, 5.2):

        d^h f = sum_j (-1)^(h-j) C(h, j) (k+j)_(h-j) (4 pi y)^(j-h) D^j f,

    D^j f = sum a(mu) mu^j e^{2 pi i mu z}, the same sum as
    (-1)^h h! / (4 pi y)^h sum a L_h^{k-1}(4 pi mu y) e^{2 pi i mu z}, term
    by term.  The frequencies mu share one denominator D, read from the
    first term (a later term with another raises ValueError; an empty series
    gives 0).  One ``_ExpWalk`` steps e^{2 pi i mu z} along num = mu * D on
    mantissas of w = mp.prec + ``_WALK_GUARD`` + ``_moment_guard(top)`` bits
    (mp.prec = precision + 40 here), and each term adds a * num^j times that
    mantissa, an exact product floored once, to the moment sum U_j at 2^-w
    for every j up to the largest order.  Each order is then one integer
    Horner pass (``_moment_sum``).

    A term counts as small when its bound |a| L_h^{k-1}(-x) |e^{2 pi i mu z}|
    (x = 4 pi mu y) is below 2^-(precision+10); it bounds the order-h term
    of the Laguerre form since |L_h^alpha(x)| <= L_h^alpha(-x) for
    alpha > -1.  The sum stops after three small terms in a row once past
    h + 3 terms.  The bounds come from one ``laguerre`` call per term, at 64
    bits, for the orders whose stop rule can act.  The tests hold the result
    to 2^-precision * max(|ref|, h!/(4 pi y)^h) of the mpf sum for the six
    series at i, omega and 0.3 + 1.1i, h in {0, 1, 7, 32} at 64, 256 and
    1064 bits, h = 64 at 64 and 256 bits, and h in {96, 128} at 64 and 256
    bits for theta2, eta, Theta_hex and E2.

    For a sequence of distinct orders h the series is walked once and a
    tuple comes back, one derivative per order.  The moment sums do not
    depend on the orders asked for (up to 64), and each order keeps its own
    stop rule and reads the moments where it stops, so it sums the terms it
    would sum alone.  The pass ends when every order has stopped.
    """
    if precision < MIN_PRECISION:
        raise PrecisionError(f"precision below {MIN_PRECISION} bits is not supported")
    orders = _orders(h, "derivative order")
    weight = Fraction(weight)
    if weight <= 0:
        raise ValueError(f"weight must be > 0 for the stop bound, got {weight}")
    with mpmath.workprec(precision + _GUARD):
        zz = _as_point(z)
        y = zz.imag
        if y <= 0:
            raise ValueError("evaluation point must lie in the upper half plane")
        top = max(orders, default=0)
        w = mpmath.mp.prec + _WALK_GUARD + _moment_guard(top)
        small = -2 * (precision + 10)  # log2 of the squared stop threshold
        alpha = weight - 1
        walk, D = None, 1  # D: the denominator of every mu, read from the first term
        ure, uim = [0] * (top + 1), [0] * (top + 1)  # (re, im) of the moment sums U_0..U_top
        read: list = [None] * len(orders)  # the moments each order stopped at
        small_streak = [0] * len(orders)
        active = list(range(len(orders)))  # positions of the orders still summing
        with mpmath.workprec(64):  # the stop bounds only
            libmp, make_mpf = mpmath.libmp, mpmath.mp.make_mpf
            mul_int, div = libmp.mpf_mul_int, libmp.mpf_div
            rounding = mpmath.mp._prec_rounding[1]
            minus_4piy = (-4 * mpmath.pi * y)._mpf_
            for count, (mu, a) in enumerate(series()):
                if walk is None:
                    D = mu.denominator
                    walk = _ExpWalk(zz, D, w)
                    D_mpf = libmp.from_int(D)
                elif mu.denominator != D:
                    raise ValueError(f"frequency {mu} has denominator {mu.denominator}, not the series' {D}")
                num = mu.numerator
                er, ei, ee = walk.step(num)
                tr, ti = a * er, a * ei  # a e num^j, exact ints in units of 2^ee
                shift = ee + w
                if shift > 0:
                    tr, ti, shift = tr << shift, ti << shift, 0
                shift = -shift
                for j in range(top + 1):
                    ure[j] += tr >> shift
                    uim[j] += ti >> shift
                    tr *= num
                    ti *= num
                due = [i for i in active if count > orders[i]]  # a streak of 3 ending past h + 3
                # -4 pi y num / D at 64 bits, by the calls mpf * int and mpf / int make
                x = make_mpf(div(mul_int(minus_4piy, num, 64, rounding), D_mpf, 64, rounding))
                bounds = laguerre(tuple(orders[i] for i in due), alpha, x)
                norm = a * a * (er * er + ei * ei)
                for i, bound in zip(due, bounds):
                    _, man, exp, _ = bound._mpf_
                    # |a L e|^2 = norm man^2 2^(2(exp+ee)) < 2^small
                    if not norm or (norm * man * man).bit_length() <= small - 2 * (exp + ee):
                        small_streak[i] += 1
                        if small_streak[i] >= 3 and count >= orders[i] + 3:
                            read[i] = ure[:orders[i] + 1], uim[:orders[i] + 1]
                    else:
                        small_streak[i] = 0
                active = [i for i in active if read[i] is None]
                if not active:
                    break
                top = max(orders[i] for i in active)
                if count > 10000:
                    raise PrecisionError("series did not reach the truncation threshold")
        for i in active:  # a finite series ran out before these orders stopped
            read[i] = ure[:orders[i] + 1], uim[:orders[i] + 1]
        point = _moment_point(D, y, weight.denominator, max(orders, default=0))
        derivatives = tuple(_moment_sum(n, weight, D, *m, point, w) for n, m in zip(orders, read))
        return derivatives[0] if isinstance(h, int) else derivatives


@functools.cache  # a pure function of precision: every verify row at one precision shares it
def omega_E(precision: int = 256) -> mpmath.mpf:
    """gamma(1/4)^2 / (2 sqrt(pi)) = pi sqrt(2) / agm(sqrt(2), 1).

    From gamma(1/4)^2 = (2 pi)^(3/2) / agm(sqrt(2), 1) (Borwein & Borwein, *Pi and
    the AGM*, 1987); rounded to precision + _GUARD bits.
    """
    with mpmath.workprec(precision + _PERIOD_GUARD):
        v = mpmath.pi * mpmath.sqrt(2) / mpmath.agm(mpmath.sqrt(2), 1)
    with mpmath.workprec(precision + _GUARD):
        return +v


@functools.cache
def omega_A(precision: int = 256) -> mpmath.mpf:
    """gamma(1/3)^3 / (2 pi sqrt(3)), with gamma(1/3)^3 = 2^(7/3) pi K(k3) / 3^(1/4).

    K(k) = pi / (2 agm(1, sqrt(1 - k^2))) is the complete elliptic integral at the
    singular modulus k3 = (sqrt(6) - sqrt(2)) / 4 (Borwein & Borwein, *Pi and the
    AGM*, 1987); rounded to precision + _GUARD bits.
    """
    with mpmath.workprec(precision + _PERIOD_GUARD):
        k3 = (mpmath.sqrt(6) - mpmath.sqrt(2)) / 4
        K = mpmath.pi / (2 * mpmath.agm(1, mpmath.sqrt(1 - k3 ** 2)))
        gamma3 = mpmath.cbrt(2) ** 7 * mpmath.pi * K / mpmath.root(3, 4)
        v = gamma3 / (2 * mpmath.pi * mpmath.sqrt(3))
    with mpmath.workprec(precision + _GUARD):
        return +v


# One CM identity: |d^(order) series at point|^2 = (Omega/pi)^(2k-1) 2^e2 3^e3 c^2 with
# c = family_order(0) and Omega = Omega_E at i, Omega_A at omega; the central Hecke value
# at weight k is 2^h2 3^h3 pi^k / (k-1)! times that square.  Each linear form is a
# (slope, intercept) pair: k and the order (also the recurrence index) in N, and the
# exponents e2, e3, h2, h3 in k.
_Identity = namedtuple("_Identity", "name series weight point family k order e2 e3 h2 h3")
_Q = Fraction
_IDENTITIES = {
    #              name         series       weight    point     family  k       order
    #              e2               e3               h2               h3
    "f": _Identity("theta2",    THETA2,      _Q(1, 2), CM_I,     F_E,    (2, 1), (1, 0),
                   (-4, _Q(7, 2)),  (-1, 1),         (3, _Q(-9, 2)),  (0, 0)),
    "x": _Identity("eta",       ETA,         _Q(1, 2), CM_OMEGA, X_A,    (6, 1), (3, 0),
                   (-3, 2),         (1, _Q(-1, 4)),  (2, -1),         (_Q(1, 2), _Q(-9, 4))),
    "y": _Identity("eta^3",     ETA_CUBED,   _Q(3, 2), CM_OMEGA, Y_A,    (6, 2), (3, 0),
                   (-3, 3),         (1, _Q(1, 4)),   (2, -3),         (_Q(1, 2), _Q(-11, 4))),
    "z": _Identity("eta(3z)^3", ETA3Z_CUBED, _Q(3, 2), CM_OMEGA, Z_A,    (6, 4), (3, 1),
                   (-3, 5),         (1, _Q(-9, 4)),  (2, -4),         (_Q(1, 2), _Q(-1, 4))),
}


def _at(form, x):
    return form[0] * x + form[1]


def _squared_derivatives(row: _Identity, orders: list[int], precision: int) -> list[tuple]:
    """|d^(order) series at point|^2 for each order as an mpf tuple, from one pass over the series."""
    derivatives = ms_derivative(row.series, row.weight, tuple(orders), row.point, precision)
    libmp = mpmath.libmp
    prec, rounding = mpmath.mp._prec_rounding
    # abs(d) ** 2
    return [libmp.mpf_pow_int(libmp.mpc_abs(d._mpc_, prec, rounding), 2, prec, rounding) for d in derivatives]


def _constants(row: _Identity, orders: list[int]) -> list[Fraction]:
    """F_n(0) of the row's family at each order n, from one walk of the recurrence.

    For f the walk is the one in v = 2t + 3 (``in_v``), whose rows have the
    parity of n and so half the coefficients: f_n(0) = H_n(3) / 2^n.
    """
    count = max(orders, default=-1) + 1
    if row.family.in_v:
        table = []
        for n, poly in enumerate(islice(iter_family(row.family.in_v), count)):
            value = 0
            for c in reversed(poly):
                value = 3 * value + c
            table.append(Fraction(value, 1 << n))
    else:
        table = [Fraction(constant_term(poly)) for poly in islice(iter_family(row.family), count)]
    return [table[n] for n in orders]


@functools.cache  # like the periods: every verify row at one precision shares it
def _root(base: int, q: int, prec: int) -> mpmath.mpf:
    with mpmath.workprec(prec):
        return mpmath.root(base, q)


def _power(base: int, e) -> tuple:
    """base^e as an mpf tuple, for a rational e = whole + rest/q (0 <= rest < q): base^whole by
    integer powering, times base^(1/q) to the rest, with no exp/log.

    The libmp calls are those of mpf(base) ** whole * _root(base, q) ** rest, at the
    working precision and rounding.
    """
    libmp = mpmath.libmp
    prec, rounding = mpmath.mp._prec_rounding
    if type(e) is int:
        whole, rest = e, 0
    else:
        e = Fraction(e)
        whole, rest = divmod(e.numerator, e.denominator)
    value = libmp.mpf_pow_int(libmp.from_int(base), whole, prec, rounding)
    if rest:
        root = libmp.mpf_pow_int(_root(base, e.denominator, prec)._mpf_, rest, prec, rounding)
        value = libmp.mpf_mul(value, root, prec, rounding)
    return value


def _two_three(e2, e3, k: int) -> tuple:
    """2^e2 3^e3 at weight k as an mpf tuple: the call of _power(2, ..) * _power(3, ..)."""
    prec, rounding = mpmath.mp._prec_rounding
    return mpmath.libmp.mpf_mul(_power(2, _at(e2, k)), _power(3, _at(e3, k)), prec, rounding)


def _closed_forms(row: _Identity, ks: list[int], cs: list[Fraction], precision: int) -> list[tuple]:
    """(Omega/pi)^(2k-1) 2^e2 3^e3 c^2 for each weight k and constant c of the row, as mpf tuples.

    The libmp calls are those of
    ratio ** (2k-1) * _two_three(..) * (mpf(c.numerator) / c.denominator) ** 2 with
    ratio = Omega / mpmath.pi, at the working precision and rounding.
    """
    libmp = mpmath.libmp
    mul, pow_int, from_int = libmp.mpf_mul, libmp.mpf_pow_int, libmp.from_int
    prec, rounding = mpmath.mp._prec_rounding
    om = omega_E(precision) if row.point == CM_I else omega_A(precision)
    ratio = libmp.mpf_div(om._mpf_, libmp.mpf_pi(prec, rounding), prec, rounding)
    values = []
    for k, c in zip(ks, cs):
        c_mpf = libmp.mpf_div(from_int(c.numerator, prec, rounding), from_int(c.denominator), prec, rounding)
        value = mul(pow_int(ratio, 2 * k - 1, prec, rounding), _two_three(row.e2, row.e3, k), prec, rounding)
        values.append(mul(value, pow_int(c_mpf, 2, prec, rounding), prec, rounding))
    return values


class MSDerivativeReport(NamedTuple):
    case: str              # which identity: theta2@i, eta@omega, eta^3@omega, eta(3z)^3@omega
    N: int
    k: int
    order: int             # derivative order h
    constant: str          # the recurrence constant entering the prediction
    numeric: mpmath.mpf    # |derivative|^2 at the CM point
    predicted: mpmath.mpf  # closed form from the recurrence constant and periods
    rel_error: mpmath.mpf  # |numeric - predicted| / predicted, inf when predicted == 0
    abs_error: mpmath.mpf
    vanishing: bool        # predicted side is exactly 0
    precision: int

    def as_record(self) -> dict:
        """The fields as JSON values; the mpf ones, kept at working precision, by ``json_number``."""
        mpf = mpmath.mpf
        return {name: json_number(v) if isinstance(v, mpf) else v
                for name, v in zip(self._fields, self)}


def json_number(x: mpmath.mpf) -> float | str:
    """x as a JSON value: float(x) within the normal float range or for an exact zero, else a
    decimal string of 17 significant digits. Past the range (about 1.8e308) json writes an
    infinite float as Infinity, which is not JSON; below it (about 2.2e-308) a float keeps fewer
    digits, and from about 5e-324 down it reads 0.0."""
    value = float(x)
    if math.isfinite(value) and (abs(value) >= sys.float_info.min or not x):
        return value
    return mpmath.libmp.to_str(x._mpf_, 17, strip_zeros=False)


def _verify(row: _Identity, N, precision: int):
    """The report for index N, or the list of reports for a sequence of distinct N >= 0."""
    Ns = _orders(N, "index N")
    ks = [_at(row.k, n) for n in Ns]
    orders = [_at(row.order, n) for n in Ns]
    constants = _constants(row, orders)
    reports = []
    with mpmath.workprec(precision + _GUARD):
        libmp, make_mpf = mpmath.libmp, mpmath.mp.make_mpf
        prec, rounding = mpmath.mp._prec_rounding
        squares = _squared_derivatives(row, orders, precision)
        closed = _closed_forms(row, ks, constants, precision)
        for n, k, order, c, numeric, predicted in zip(Ns, ks, orders, constants, squares, closed):
            error = libmp.mpf_abs(libmp.mpf_sub(numeric, predicted, prec, rounding), prec, rounding)
            vanishing = predicted == libmp.fzero
            if vanishing:
                rel = mpmath.inf if numeric != libmp.fzero else mpmath.mpf(0)
            else:  # abs(numeric - predicted) / abs(predicted)
                rel = make_mpf(libmp.mpf_div(error, libmp.mpf_abs(predicted, prec, rounding), prec, rounding))
            reports.append(MSDerivativeReport(
                case=f"{row.name}@{row.point}",
                N=n,
                k=k,
                order=order,
                constant=f"{row.family.key}_{order}(0)={c}",
                numeric=make_mpf(numeric),
                predicted=make_mpf(predicted),
                rel_error=rel,
                abs_error=make_mpf(error),
                vanishing=vanishing,
                precision=precision,
            ))
    return reports[0] if isinstance(N, int) else reports


def verify_theta2_identity(N, precision: int = 256):
    """|d^(N) theta2 at i|^2 against its closed form in f_N(0) and Omega_E, k = 2N+1 (row "f").

    N is one index (one report back) or a sequence of distinct indices (a
    list of reports, all from one pass over the series).
    """
    return _verify(_IDENTITIES["f"], N, precision)


def verify_eta_identity(N, case: str, precision: int = 256):
    """A-side CM derivative identity for case (row) 'x' (k=6N+1), 'y' (k=6N+2) or 'z' (k=6N+4).

    The y-case derivative order is 3N, forced by the weight bookkeeping
    2k - 1 = 2*order + weight; its closed-form constant follows from the same
    CM period values as the x- and z-cases.  N is one index or a sequence of
    distinct indices, as in ``verify_theta2_identity``.
    """
    if case not in ("x", "y", "z"):
        raise ValueError("case must be one of ['x', 'y', 'z']")
    return _verify(_IDENTITIES[case], N, precision)


def _hecke_value(point: str, k, precision: int, from_constants: bool):
    """2^h2 3^h3 pi^k / (k-1)! times the squared derivative (or its closed form)
    of the row at this point whose k = a*N + b fits; exactly 0 when none does.

    k is one weight or a sequence of distinct weights (then a list comes
    back); each row's derivatives come from one pass over its series.
    """
    ks = [k] if isinstance(k, int) else list(k)
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    values = dict.fromkeys(ks, mpmath.mpf(0))
    with mpmath.workprec(precision + _GUARD):
        libmp, make_mpf, mul = mpmath.libmp, mpmath.mp.make_mpf, mpmath.libmp.mpf_mul
        prec, rounding = mpmath.mp._prec_rounding
        pi = libmp.mpf_pi(prec, rounding)
        for row in (row for row in _IDENTITIES.values() if row.point == point):
            a, b = row.k
            mine = [kk for kk in ks if kk % a == b]
            if not mine:
                continue
            orders = [_at(row.order, (kk - b) // a) for kk in mine]
            if from_constants:
                constants = _constants(row, orders)
                squares = _closed_forms(row, mine, constants, precision)
            else:
                squares = _squared_derivatives(row, orders, precision)
            for kk, square in zip(mine, squares):
                # _two_three(..) * mpmath.pi ** kk / mpmath.factorial(kk - 1), times the square
                scale = mul(_two_three(row.h2, row.h3, kk), libmp.mpf_pow_int(pi, kk, prec, rounding), prec, rounding)
                scale = libmp.mpf_div(scale, libmp.mpf_factorial(libmp.from_int(kk - 1), prec, rounding),
                                      prec, rounding)
                values[kk] = make_mpf(mul(scale, square, prec, rounding))
    return values[k] if isinstance(k, int) else [values[kk] for kk in ks]


def hecke_value_E(k, precision: int = 256):
    """Central Hecke value for the square-family character at weight k.

    Zero by construction for even k; for k = 2N+1 it is the Hecke scale of
    row "f" times |d^(N) theta2 at i|^2.  A sequence of weights gives a list.
    """
    return _hecke_value(CM_I, k, precision, from_constants=False)


def hecke_value_E_from_constants(k, precision: int = 256):
    """The same central value predicted from f_N(0) and Omega_E alone."""
    return _hecke_value(CM_I, k, precision, from_constants=True)


def hecke_value_A(k, precision: int = 256):
    """A-side central Hecke value at weight k via the hexagonal lattice theta series.

    Uses 2^{k-1} 3^{k/2-2} pi^k / (k-1)! * |d^(k-1) Theta_hex at omega| with the
    sign (-1)^{k-1}; independent of the eta-series route, so the two can be
    compared.  Values for k = 0, 3, 5 mod 6 come out numerically zero.  A
    sequence of distinct weights gives a list, from one pass over Theta_hex.
    """
    ks = [k] if isinstance(k, int) else list(k)
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    with mpmath.workprec(precision + _GUARD):
        derivatives = ms_derivative(THETA_HEX, 1, tuple(kk - 1 for kk in ks), CM_OMEGA, precision)
        libmp = mpmath.libmp
        mul, pow_int = libmp.mpf_mul, libmp.mpf_pow_int
        prec, rounding = mpmath.mp._prec_rounding
        pi, two, three = libmp.mpf_pi(prec, rounding), libmp.from_int(2), libmp.from_int(3)
        values = []
        for kk, d in zip(ks, derivatives):
            # the libmp calls of (mpf(-1) ** (kk - 1) * mpf(2) ** (kk - 1) * mpf(3) ** (mpf(kk) / 2 - 2)
            # * mpmath.pi ** kk / mpmath.factorial(kk - 1) * d).real, left to right
            scale = mul(pow_int(libmp.fnone, kk - 1, prec, rounding), pow_int(two, kk - 1, prec, rounding),
                        prec, rounding)
            half = libmp.mpf_div(libmp.from_int(kk, prec, rounding), two, prec, rounding)
            half = libmp.mpf_sub(half, two, prec, rounding)
            scale = mul(scale, libmp.mpf_pow(three, half, prec, rounding), prec, rounding)
            scale = mul(scale, pow_int(pi, kk, prec, rounding), prec, rounding)
            scale = libmp.mpf_div(scale, libmp.mpf_factorial(libmp.from_int(kk - 1), prec, rounding),
                                  prec, rounding)
            # mpf * mpc is mpc_mul_mpf, one mpf_mul per part; the imaginary part vanishes to
            # working precision and is dropped
            values.append(mpmath.mp.make_mpf(mul(d._mpc_[0], scale, prec, rounding)))
    return values[0] if isinstance(k, int) else values


def hecke_value_A_from_theta_forms(k, precision: int = 256):
    """A-side central Hecke value from the eta-type CM derivatives.

    For k = 1, 2, 4 mod 6 it is the Hecke scale of row "x", "y" or "z" times
    the squared derivative of eta, eta^3 or eta(3z)^3 at omega; exactly 0
    otherwise.  A sequence of weights gives a list, one pass per row.
    """
    return _hecke_value(CM_OMEGA, k, precision, from_constants=False)
