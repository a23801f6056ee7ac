"""Numerical L-value oracle for y^2 = x^3 + A x and y^2 = x^3 + B.

Computes a_q from complex multiplication (a Cornacchia decomposition of q and
a quartic or sextic residue symbol, O(log q)); the conductor by a closed rule
for the stored CM shape (a 2-adic and a 3-adic valuation and one residue each,
and q^2 at every prime q >= 5 dividing A or B; Tate's algorithm is its
reference in the tests), L(E, 1) by the rapidly convergent exponential sum
(sign +1 curves), and the normalized central value S_p.  Everything here is
independent of the recurrence machinery, so agreement between the two is a
real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._primality import is_prime, primes_in

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
    division is p or p^2 once p exceeds the trial bound.
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
# CM traces of Frobenius and Dirichlet coefficients
# ---------------------------------------------------------------------------

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


def _aq_cm_i(A: int, q: int) -> int:
    """a_q of y^2 = x^3 + A x (j = 1728) at a prime q of good reduction (0 at q = 3, which is inert).

    With q = N(pi), pi = a + b i primary (a odd, b even, a + b = 1 mod 4), and
    u the unit congruent to (-A)^((q-1)/4) modulo pi, a_q = 2 Re(conj(u) pi).
    """
    if q % 4 == 3:
        return 0
    a, b = _cornacchia(1, q)
    if a % 2 == 0:
        a, b = b, a
    if (a + b) % 4 != 1:
        a = -a
    i = -a * pow(b, -1, q) % q  # i = -a/b modulo pi
    chi = pow(-A, (q - 1) // 4, q)
    for u, re in ((1, a), (q - 1, -a), (i, b), (q - i, -b)):
        if chi == u:
            return 2 * re
    raise ArithmeticError(f"(-A)^((q-1)/4) mod {q} is not a 4th root of unity")


def _eisenstein_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b w)(c + d w) in Z[w], w^2 = -1 - w."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def _aq_cm_omega(B: int, q: int) -> int:
    """a_q of y^2 = x^3 + B (j = 0) at a prime q of good reduction (0 at q = 2, which is inert).

    With q = N(pi), pi = a + b w primary (pi = 2 mod 3, w a cube root of
    unity), and u the sixth root of unity congruent to (4B)^((q-1)/6) modulo
    pi, a_q = -Tr(conj(u) pi).
    """
    if q % 3 == 2:
        return 0
    x, y = _cornacchia(3, q)
    pi = (x + y, 2 * y)  # N(a + b w) = a^2 - a b + b^2 = x^2 + 3 y^2
    for _ in range(6):
        if pi[0] % 3 == 2 and pi[1] % 3 == 0:
            break
        pi = _eisenstein_mul(pi, (0, -1))  # times the unit -w, of order 6
    else:
        raise ArithmeticError(f"no primary associate of {pi} over {q}")
    w = -pi[0] * pow(pi[1], -1, q) % q  # w = -a/b modulo pi
    chi = pow(4 * B, (q - 1) // 6, q)
    u = (1, 0)
    for _ in range(6):
        if (u[0] + u[1] * w - chi) % q == 0:
            c, d = _eisenstein_mul((u[0] - u[1], -u[1]), pi)  # conj(u) pi
            return -(2 * c - d)
        u = _eisenstein_mul(u, (0, -1))
    raise ArithmeticError(f"(4B)^((q-1)/6) mod {q} is not a 6th root of unity")


def _trace(curve: CurveSpec, q: int) -> int:
    """a_q at a prime q of good reduction, from CM."""
    return _aq_cm_i(curve.A, q) if curve.B == 0 else _aq_cm_omega(curve.B, q)


def ap(curve: CurveSpec, q: int) -> int:
    """Trace of Frobenius at an odd prime q not dividing 2*disc."""
    if q == 2 or not is_prime(q):
        raise BadReductionError(f"q = {q} must be an odd prime")
    if curve.discriminant % q == 0:
        raise BadReductionError(f"q = {q} divides the discriminant")
    return _trace(curve, q)


def _sieve_spf(M: int) -> np.ndarray:
    """Smallest prime factor of each n <= M (0 at n = 0, 1)."""
    spf = np.zeros(M + 1, dtype=np.int64)
    for i in range(2, math.isqrt(M) + 1):
        if spf[i] == 0:
            tail = spf[i * i::i]
            tail[tail == 0] = i
    rest = np.nonzero(spf == 0)[0][2:]
    spf[rest] = rest
    return spf


def an_list(curve: CurveSpec, M: int) -> list[int]:
    """Dirichlet coefficients a_1..a_M (index 0 unused), multiplicative extension.

    a_q = 0 at primes dividing the conductor, the CM trace at every other
    prime; Hecke recursion at good prime powers.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    N = conductor(curve)
    a = [0] * (M + 1)
    a[1] = 1
    if M == 1:
        return a
    sieve = _sieve_spf(M)
    primes = np.nonzero(sieve == np.arange(M + 1))[0][1:].tolist()  # [1:] drops n = 0
    traces = {q: 0 if N % q == 0 else _trace(curve, q) for q in primes}
    spf = sieve.tolist()

    for n in range(2, M + 1):
        q = spf[n]
        if n == q:
            a[n] = traces[q]
            continue
        m, qe = n, 1
        while m % q == 0:
            m //= q
            qe *= q
        if m > 1:
            a[n] = a[qe] * a[m]
        else:
            qq = 0 if N % q == 0 else q
            a[n] = a[q] * a[n // q] - qq * a[n // (q * q)]
    return a


# ---------------------------------------------------------------------------
# L(1) and the normalized central value
# ---------------------------------------------------------------------------

def _tail_bound(M: int, c: float) -> float:
    """Bound on 2 * sum_{n>M} d(n) sqrt(n) / n * e^{-c n} using d(n) <= n^0.6."""
    head = sum(2.0 * (M + i) ** 0.1 * math.exp(-c * (M + i)) for i in range(1, 65))
    ratio = math.exp(-c + 0.1 / (M + 65))
    if ratio >= 1.0:
        return math.inf
    rest = 2.0 * (M + 65) ** 0.1 * math.exp(-c * (M + 65)) / (1.0 - ratio)
    return head + rest


def _term_count(N: int, tol: float) -> int:
    c = 2.0 * math.pi / math.sqrt(N)
    M = int(math.sqrt(N) * (math.log(1.0 / tol) / (2.0 * math.pi) + 3.0)) + 8
    while _tail_bound(M, c / 1.2) > tol:  # 1.2 covers the split-point variation check
        M *= 2
        if M > 10 ** 8:
            raise NonConvergenceError("term count exploded; tolerance unreachable")
    return M


def _partial_sum(a: np.ndarray, n: np.ndarray, c: float, t: float) -> float:
    return float(np.sum(a / n * (np.exp(-c * t * n) + np.exp(-c * n / t))))


def l1(curve: CurveSpec, tol: float = 1e-8) -> float:
    value, _, _ = l1_detail(curve, tol)
    return value


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ValueError(f"tolerance {tol} is not a finite number")
    if tol < 1e-12:
        raise ValueError("tolerance below 1e-12 is not achievable in double precision")


def l1_detail(curve: CurveSpec, tol: float = 1e-8) -> tuple[float, int, float]:
    """(L(1), term count, tail bound); assumes functional-equation sign +1.

    L(1) = sum_n (a_n/n) (e^{-2 pi n t / sqrt(N)} + e^{-2 pi n /(t sqrt(N))});
    independence of the split parameter t is asserted, which catches a wrong
    conductor or sign instead of silently returning garbage.
    """
    _check_tol(tol)
    N = conductor(curve)
    M = _term_count(N, tol)
    coeffs = np.array(an_list(curve, M), dtype=np.float64)[1:]
    n = np.arange(1, M + 1, dtype=np.float64)
    c = 2.0 * math.pi / math.sqrt(N)
    value = _partial_sum(coeffs, n, c, 1.0)
    check = _partial_sum(coeffs, n, c, 1.15)
    if abs(value - check) > 50.0 * tol:
        raise FunctionalEquationError(
            f"L(1) moved from {value} to {check} under split variation; "
            f"conductor {N} or sign assumption is wrong"
        )
    bound = _tail_bound(M, c / 1.2)
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
        return asdict(self)


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
    value, terms, bound = l1_detail(curve, tol)
    s_real = scale * value
    s_rounded = int(round(s_real))
    residual = abs(s_real - s_rounded)
    return LValueReport(
        p=p,
        family=family,
        conductor=conductor(curve),
        terms=terms,
        l1=value,
        s_real=s_real,
        s_rounded=s_rounded,
        residual=residual,
        tail_bound=bound,
        tol=tol,
        converged=residual < 10.0 * tol,
    )
