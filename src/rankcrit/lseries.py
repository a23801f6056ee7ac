"""Numerical L-value oracle for y^2 = x^3 + A x and y^2 = x^3 + B.

a_1..a_M sum the CM Hecke character psi over the lattice points of Z[i] or Z[w]
of each norm, in one numpy pass; ap(curve, q) takes psi at one primary alpha of
norm q (a Cornacchia step).  Both need A = c or B = -432 c^2, c = 1 or a prime
= 1 mod 4 (resp. mod 3).  The conductor is a closed rule for the stored CM shape
(2- and 3-adic valuations and residues, and q^2 at each prime q >= 5 dividing A
or B); L(E, 1) is the rapidly convergent exponential sum (sign +1 curves), and
S_p its normalized central value.  The tests check these against Tate's
algorithm and the Hecke recursion over per-prime traces.  Nothing here uses the
recurrences, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._lazy import lazy_import
from ._primality import is_prime, primes_in

np = lazy_import("numpy")  # loaded at the first kernel call: see _lazy

# Real periods of y^2 = x^3 + x and of x^3 + y^3 = 1 (its y^2 = x^3 - 432 model
# has real period OMEGA_A / 2).
OMEGA_E = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(math.pi))
OMEGA_A = math.gamma(1.0 / 3.0) ** 3 / (2.0 * math.pi * math.sqrt(3.0))


class BadReductionError(ValueError):
    """a_q requested at a prime of bad reduction (or q = 2)."""


class FactorizationError(ArithmeticError):
    """A or B could not be factored: its cofactor after trial division is not a prime power."""


class NonConvergenceError(RuntimeError):
    """The L(1) sum could not reach the requested tolerance."""


class FunctionalEquationError(RuntimeError):
    """Varying the incomplete-sum split point moved L(1): conductor or sign is wrong."""


@dataclass(frozen=True)
class CurveSpec:
    """y^2 = x^3 + A x (j = 1728) or y^2 = x^3 + B (j = 0), in minimal CM shape.

    A is stored modulo 4th powers and B modulo 6th powers (y^2 = x^3 + u^4 A x
    is y^2 = x^3 + A x scaled by u), so a prime q >= 5 divides the
    discriminant exactly when the reduction at q is bad.
    """

    A: int
    B: int

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.A ** 3 + 27 * self.B ** 2)

    def __post_init__(self):
        if (self.A == 0) == (self.B == 0):
            raise ValueError(f"need exactly one of A, B nonzero, got A = {self.A}, B = {self.B}")
        name, k = ("A", 4) if self.B == 0 else ("B", 6)
        c = getattr(self, name)
        for q in primes_in(2, _iroot(abs(c), k)):
            while c % q ** k == 0:
                c //= q ** k
        object.__setattr__(self, name, c)


def curve_ep(p: int) -> CurveSpec:
    """y^2 = x^3 + p x."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return CurveSpec(A=p, B=0)


def curve_ap(p: int) -> CurveSpec:
    """Weierstrass model y^2 = x^3 - 432 p^2 of x^3 + y^3 = p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return CurveSpec(A=0, B=-432 * p * p)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) exactly, for n >= 0 and k >= 1 (integer Newton iteration from above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _bad_primes(c: int) -> list[int]:
    """The primes dividing the curve coefficient c = A or B (small primes, then a prime-power cofactor).

    For y^2 = x^3 + p x and x^3 + y^3 = p the cofactor left after trial
    division is p or p^2 once p exceeds the trial bound.  Trial division stops
    as soon as a division leaves a prime or the square of a prime (B = -432 p^2
    leaves p^2 after 2 and 3), which the prime-power search then takes.
    """
    d = abs(c)
    out = []
    for q in range(2, 1000):
        if q * q > d:
            break
        if d % q == 0:
            out.append(q)
            while d % q == 0:
                d //= q
            root = math.isqrt(d)
            if is_prime(d) or root * root == d and is_prime(root):
                break
    if d > 1:
        for k in range(1, d.bit_length()):
            root = _iroot(d, k)
            if root ** k == d and is_prime(root):
                out.append(root)
                break
        else:
            raise FactorizationError(f"curve coefficient {c} has a large composite cofactor; "
                                     "out of supported range")
    return sorted(set(out))


def _split(c: int, q: int) -> tuple[int, int]:
    """(e, u) with c = q^e u and q not dividing u (c != 0)."""
    e = 0
    while c % q == 0:
        c //= q
        e += 1
    return e, c


def conductor(curve: CurveSpec) -> int:
    """Conductor 2^e2 3^e3 prod q^2 of the stored CM shape, over the primes q >= 5 dividing A or B.

    With c = q^e u at q = 2 or 3 (q not dividing u):
    y^2 = x^3 + A x has e2 = 8 for odd e, else 6 if (-1)^(e/2) u = 1 mod 4,
    else 5; and e3 = 2 if 3 | A, else 0.
    y^2 = x^3 + B has e2 = 6 for odd e, else 4 if u = 3 mod 4, else 0 if
    e = 4, else 2; and e3 = 5 if 3 does not divide e, else 2 if u = +-1 mod 9,
    else 3.
    """
    if curve.B == 0:
        c = curve.A
        e, u = _split(c, 2)
        e2 = 8 if e % 2 else 6 if (-1) ** (e // 2) * u % 4 == 1 else 5
        e3 = 2 if c % 3 == 0 else 0
    else:
        c = curve.B
        e, u = _split(c, 2)
        e2 = 6 if e % 2 else 4 if u % 4 == 3 else 0 if e == 4 else 2
        e, u = _split(c, 3)
        e3 = 5 if e % 3 else 2 if u % 9 in (1, 8) else 3
    N = 2 ** e2 * 3 ** e3
    for q in _bad_primes(c):
        if q >= 5:
            N *= q * q
    return N


# ---------------------------------------------------------------------------
# The Hecke character psi of the CM curve: a_q and a_1..a_M
# ---------------------------------------------------------------------------

# Limits of the an_list kernel, each checked before any array is allocated.
_INT64_MAX = 2 ** 63 - 1  # a row residue b r mod c, |b| <= sqrt(4M/3) and r < c, needs |b r| <= _INT64_MAX
_C_MAX = math.isqrt(_INT64_MAX) + 1  # the table squares residues x <= c - 1: (c - 1)^2 <= _INT64_MAX
# A norm n has at most 2 points in each of at most 2 sqrt(4n/3) + 1 <= 4 sqrt(n) rows, each of trace
# at most 2 sqrt(n): every bincount bin stays within 16 n <= 16 M, exact in float64 up to 2^53.
_M_MAX = 2 ** 49
# Every term stays resident: the lattice points, their norms and traces, the sums and the float64
# copy l1_detail sums take at most 40 bytes a term together (tracemalloc peak of sp: 26.3 and
# 26.2 B a term at M = 4.7e5 and 3.8e6, Ep 10009 and 40009).  _M_RESIDENT caps that near 400 MB
# (Ep p up to about 1.1e5, since M is about 95 p); past it the sums would have to stream, which
# is not done.
_BYTES_PER_TERM = 40
_M_RESIDENT = 400 * 10 ** 6 // _BYTES_PER_TERM

# Tr psi(alpha) = TA[m] a + TB[m] b, where psi(a + b i) = (-i)^m (a + b i) and psi(a + b w) = -w^m (a + b w)
_TRACES = {4: ((2, 0, -2, 0), (0, 2, 0, -2)),
           3: ((-2, 1, 1), (1, 1, -2))}


def _root_of_unity(k: int, q: int) -> int:
    """An element of exact order k in F_q^* (k = 3 or 4, k | q - 1)."""
    for c in range(2, q):
        g = pow(c, (q - 1) // k, q)
        if pow(g, k // 2, q) != 1:  # g^k = 1, and g^(k/2) != 1 rules out every smaller order
            return g
    raise ArithmeticError(f"F_{q}^* has no element of order {k}")


def _cornacchia(d: int, q: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = q, for d in {1, 3} and a prime q = 1 mod 4 (d = 1) or mod 3 (d = 3)."""
    g = _root_of_unity(4 if d == 1 else 3, q)
    r = g if d == 1 else (2 * g + 1) % q  # r^2 = -d mod q
    a, b = q, r
    while b * b > q:
        a, b = b, a % b
    y2, rem = divmod(q - b * b, d)
    y = math.isqrt(y2)
    if rem or y * y != y2:
        raise ArithmeticError(f"Cornacchia found no solution of x^2 + {d} y^2 = {q}")
    return b, y


def _cm_shape(curve: CurveSpec) -> tuple[int, int]:
    """(k, c) for y^2 = x^3 + c x (k = 4) or y^2 = x^3 - 432 c^2 (k = 3), c = 1 or a prime = 1 mod k.
    psi comes from quartic or cubic reciprocity against the one prime c; other A or B would need the
    supplementary laws at 2, 3 and the inert primes, which are not derived here: ValueError."""
    k, c = (4, curve.A) if curve.B == 0 else (3, math.isqrt(max(-curve.B, 0) // 432))
    if (k == 3 and curve.B != -432 * c * c) or not (c == 1 or (c > 1 and c % k == 1 and is_prime(c))):
        raise ValueError(f"a_n is implemented for y^2 = x^3 + c x and y^2 = x^3 - 432 c^2 with c = 1 "
                         f"or a prime = 1 mod 4 (resp. mod 3), not for {curve}")
    return k, c


def _images(k: int, c: int) -> tuple[int, int]:
    """(r, r'): i (k = 4) or w (k = 3) modulo the two primes above c; (0, 0) at c = 1."""
    r = _root_of_unity(k, c) if c > 1 else 0
    return r, (-r if k == 4 else -1 - r) % c


def _chi(x, k: int, c: int, r: int):
    """j with x^((c-1)/k) = r^j mod c, or k where c | x, for residues x mod c (an int or an int64 array):
    the quartic or cubic residue symbol as a power of i or w.  At c = 1, v stays 1 and chi is trivial."""
    v, e = x * 0 + 1, (c - 1) // k
    while e:  # square and multiply; x < c <= _C_MAX keeps every product in int64
        v, x, e = (v * x % c if e & 1 else v), x * x % c, e >> 1
    return sum(j * (v == pow(r, j, c)) for j in range(1, k)) + k * (v == 0)


def _psi_trace(k: int, a, b, n, k1, k2):
    """Tr psi(alpha) for primary alpha = a + b i (k = 4) or a + b w (k = 3) of norm n, ints or arrays,
    from k1, k2 = _chi at a + b r and a + b r': psi(alpha) = alpha / (-c/alpha)_4 = alpha / i^(k1 - k2 +
    (n-1)/2), or -alpha / (c/alpha)_3 = -alpha / w^(k1 + 2 k2); 0 where k1 or k2 is k (c divides)."""
    m = (k1 - k2 + ((n - 1) >> 1)) & 3 if k == 4 else (2 * k1 + k2) % 3
    ta, tb = map(np.array, _TRACES[k])  # indexed by m, an int or an array
    return (ta[m] * a + tb[m] * b) * (k1 < k) * (k2 < k)


def ap(curve: CurveSpec, q: int) -> int:
    """Trace of Frobenius at an odd prime q not dividing 2*disc: Tr psi(pi), pi primary of norm q
    (0 at q inert in Z[i] or Z[w]); ValueError outside the shapes of _cm_shape."""
    k, c = _cm_shape(curve)
    if q == 2 or not is_prime(q):
        raise BadReductionError(f"q = {q} must be an odd prime")
    if curve.discriminant % q == 0:
        raise BadReductionError(f"q = {q} divides the discriminant")
    if q % k != 1:
        return 0
    x, y = _cornacchia(1 if k == 4 else 3, q)
    if k == 4:  # a + b i with a odd, b even, a + b = 1 mod 4
        a, b = (x, y) if x % 2 else (y, x)
        a = a if (a + b) % 4 == 1 else -a
    else:  # N(x + y + 2y w) = q is prime to 3, so one of its six associates is = 2 mod 3
        a, b = x + y, 2 * y
        while a % 3 != 2 or b % 3:
            a, b = b, b - a  # times the unit -w
    r, r2 = _images(k, c)
    return int(_psi_trace(k, a, b, q, _chi((a + b * r) % c, k, c, r), _chi((a + b * r2) % c, k, c, r)))


def an_list(curve: CurveSpec, M: int) -> np.ndarray:
    """a_0..a_M (a_0 = 0) as an int64 array of length M + 1: a_n = sum Tr psi(alpha) / 2 over the
    primary alpha of norm n.

    Primary: a + b i with a odd, b even and a + b = 1 mod 4, or a + b w = 2 mod 3.  One numpy
    pass: _chi on every residue mod c, all primary points of norm <= M row by row in b, and
    np.bincount over their norms.  OverflowError past a named limit; ArithmeticError if the
    table or a sum is not a character's.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    k, c = _cm_shape(curve)
    bmax = math.isqrt(M if k == 4 else 4 * M // 3)
    if c > _C_MAX:
        raise OverflowError(f"c = {c} is above {_C_MAX}: the int64 character table would overflow")
    if bmax * (c - 1) > _INT64_MAX:
        raise OverflowError(f"M = {M} at c = {c}: the int64 row residues b r would overflow")
    if M > _M_MAX:
        raise OverflowError(f"M = {M} is above {_M_MAX}: the float64 sums would not be exact")
    if M > _M_RESIDENT:
        raise OverflowError(f"M = {M} is above {_M_RESIDENT}: its terms would not stay resident "
                            f"(about {_BYTES_PER_TERM * M >> 20} MB)")
    r, r2 = _images(k, c)
    table = _chi(np.arange(c, dtype=np.int64), k, c, r).astype(np.int8)
    if np.bincount(table[1:], minlength=k + 1).tolist() != [(c - 1) // k] * k + [0]:
        raise ArithmeticError(f"x^((c-1)/{k}) mod {c} misses a root of unity of order {k}")
    t = 2 if k == 4 else 3  # rows b = 0 mod t; in a row, a = first mod k
    b = np.arange(-(bmax // t) * t, bmax + 1, t)
    x = M - b * b if k == 4 else 4 * M - 3 * b * b  # a^2 <= x, or (2a - b)^2 <= x
    s = np.sqrt(x).astype(np.int64)  # isqrt(x) for x <= 4 _M_MAX < 2^52: see test_limits
    lo, hi, first = (-s, s, (1 - b) % 4) if k == 4 else ((b - s + 1) // 2, (b + s) // 2, 2)
    a0 = lo + (first - lo) % k
    count = np.maximum((hi - a0) // k + 1, 0)
    a = k * np.arange(count.sum()) + np.repeat(a0 - k * (np.cumsum(count) - count), count)
    # |a| <= bmax (a^2 - ab + b^2 >= 3a^2/4), so a + (b r mod c) indexes the table
    # extended by bmax + 1 on each side with no reduction per point
    wide = table[np.arange(-bmax - 1, c + bmax + 1) % c]
    k1 = wide[a + np.repeat(b * r % c + (bmax + 1), count)]
    k2 = wide[a + np.repeat(b * r2 % c + (bmax + 1), count)]
    b = np.repeat(b, count)
    n = a * a + b * b - a * b if k == 3 else a * a + b * b
    sums = np.bincount(n, weights=_psi_trace(k, a, b, n, k1, k2), minlength=M + 1).astype(np.int64)
    if (sums & 1).any():
        raise ArithmeticError(f"odd trace sum at n = {int(np.argmax(sums & 1))}: psi is not a character")
    return sums >> 1


# ---------------------------------------------------------------------------
# L(1) and the normalized central value
# ---------------------------------------------------------------------------

# d(n) <= n^0.6 fails at 12 values of n <= 60 (d(12) = 6 > 12^0.6 = 4.4), and holds for
# every n > 60: by direct count up to 10^5; up to 10^7 over the numbers 2^a 3^b 5^c ...
# with a >= b >= c >= ..., the least numbers of each divisor count; and above 10^7 by
# d(n) <= n^(1.5379 log 2 / log log n) < n^0.39 (Nicolas & Robin, Canad. Math. Bull.
# 26, 1983).  So the tail bound counts d(n) exactly up to _D_EXACT.
_D_EXACT = 60


def _divisor_count(n: int) -> int:
    return sum(1 if d * d == n else 2 for d in range(1, math.isqrt(n) + 1) if n % d == 0)


def _tail_bound(M: int, c: float) -> float:
    """Bound on 2 * sum_{n>M} d(n) sqrt(n) / n * e^{-c n}, with d(n) counted for
    n <= _D_EXACT and d(n) <= n^0.6 above."""
    head = sum(2.0 * (_divisor_count(n) / math.sqrt(n) if n <= _D_EXACT else n ** 0.1) * math.exp(-c * n)
               for n in range(M + 1, M + 65))
    ratio = math.exp(-c + 0.1 / (M + 65))
    if ratio >= 1.0:
        return math.inf
    rest = 2.0 * (M + 65) ** 0.1 * math.exp(-c * (M + 65)) / (1.0 - ratio)
    return head + rest


def _terms_and_bound(N: int, tol: float) -> tuple[int, float]:
    """(M, the tail bound past M) for the first M of the doubling walk whose bound is within tol."""
    c = 2.0 * math.pi / math.sqrt(N)
    M = int(math.sqrt(N) * (math.log(1.0 / tol) / (2.0 * math.pi) + 3.0)) + 8
    while (bound := _tail_bound(M, c / 1.2)) > tol:  # 1.2 covers the split-point variation check
        M *= 2
        if M > 10 ** 8:
            raise NonConvergenceError("term count exploded; tolerance unreachable")
    return M, bound


def _partial_sum(a: np.ndarray, n: np.ndarray, at: np.ndarray, M: int, c: float, t: float) -> float:
    """The sum of M terms, nonzero only at the indices `at`: np.sum's pairwise order, and so its
    rounding, is that of the full array, with exp evaluated only where a_n != 0."""
    terms = np.zeros(M)
    if t == 1.0:  # -c t n and -c n / t are then the same floats
        e = np.exp(-c * n)
        terms[at] = a / n * (e + e)
    else:
        terms[at] = a / n * (np.exp(-c * t * n) + np.exp(-c * n / t))
    return float(np.sum(terms))


def l1(curve: CurveSpec, tol: float = 1e-8) -> float:
    value, _, _ = l1_detail(curve, tol)
    return value


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ValueError(f"tolerance {tol} is not a finite number")
    if tol < 1e-12:
        raise ValueError("tolerance below 1e-12 is not achievable in double precision")


def l1_detail(curve: CurveSpec, tol: float = 1e-8, *, N: int | None = None) -> tuple[float, int, float]:
    """(L(1), term count, tail bound); assumes functional-equation sign +1.

    L(1) = sum_n (a_n/n) (e^{-2 pi n t / sqrt(N)} + e^{-2 pi n /(t sqrt(N))});
    independence of the split parameter t is asserted, which catches a wrong
    conductor or sign instead of silently returning garbage.  The a_n come as
    an_list's int64 array, converted to float64 once; exact, since _M_MAX
    keeps every a_n below 2^53.  N is the conductor of the curve, computed
    here unless the caller has it (``sp`` reports it too, so passes it in).
    """
    _check_tol(tol)
    if N is None:
        N = conductor(curve)
    M, bound = _terms_and_bound(N, tol)
    coeffs = an_list(curve, M)[1:].astype(np.float64)
    at = np.flatnonzero(coeffs)
    c = 2.0 * math.pi / math.sqrt(N)
    value, check = (_partial_sum(coeffs[at], at + 1.0, at, M, c, t) for t in (1.0, 1.15))
    if abs(value - check) > 50.0 * tol:
        raise FunctionalEquationError(
            f"L(1) moved from {value} to {check} under split variation; "
            f"conductor {N} or sign assumption is wrong"
        )
    return value, M, bound


@dataclass(frozen=True)
class LValueReport:
    p: int
    family: str
    conductor: int
    terms: int
    l1: float
    s_real: float
    s_rounded: int
    residual: float
    tail_bound: float
    tol: float
    converged: bool

    def as_record(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def sp_curve(p: int, tol: float = 1e-8, family: str = "Ep") -> tuple[CurveSpec, float]:
    """(curve, scale) behind sp(p, tol, family); ValueError, before any L-value work,
    for an inadmissible p, an unknown family or a tolerance sp cannot honour."""
    if family == "Ep":
        if p % 16 not in (1, 9) or not is_prime(p):
            raise ValueError(f"p = {p} is not admissible for Ep (need a prime = 1, 9 mod 16)")
        curve = curve_ep(p)
        scale = 2.0 * p ** 0.25 / OMEGA_E
    elif family == "Ap":
        if p % 9 != 1 or not is_prime(p):
            raise ValueError(f"p = {p} is not admissible for Ap (need a prime = 1 mod 9)")
        curve = curve_ap(p)
        scale = 2.0 * p ** (1.0 / 3.0) / OMEGA_A
    else:
        raise ValueError(f"unknown family {family!r}")
    _check_tol(tol)
    if 10.0 * tol >= 0.5:
        raise ValueError(f"tolerance {tol} is too large: converged means a residual below 10 * tol, "
                         "and every real S_p is within 1/2 of an integer")
    return curve, scale


def sp(p: int, tol: float = 1e-8, family: str = "Ep") -> LValueReport:
    """Normalized central value: S = 2 p^{1/4} L(1) / Omega_E (Ep) or 2 p^{1/3} L(1) / Omega_A (Ap)."""
    curve, scale = sp_curve(p, tol, family)
    N = conductor(curve)
    value, terms, bound = l1_detail(curve, tol, N=N)
    s_real = scale * value
    s_rounded = int(round(s_real))
    residual = abs(s_real - s_rounded)
    return LValueReport(
        p=p,
        family=family,
        conductor=N,
        terms=terms,
        l1=value,
        s_real=s_real,
        s_rounded=s_rounded,
        residual=residual,
        tail_bound=bound,
        tol=tol,
        converged=residual < 10.0 * tol,
    )
