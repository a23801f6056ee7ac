"""Numerical L-value oracle for y^2 = x^3 + A x + B.

Computes a_q by quadratic-character sums, the conductor by Tate's algorithm,
L(E, 1) by the rapidly convergent exponential sum (sign +1 curves), and the
normalized central value S_p.  Everything here is independent of the
recurrence machinery, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._primality import is_prime

_BIG = 10 ** 9  # stand-in valuation of 0

# Real periods of y^2 = x^3 + x and of x^3 + y^3 = 1 (its y^2 = x^3 - 432 model
# has real period OMEGA_A / 2).
OMEGA_E = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(math.pi))
OMEGA_A = math.gamma(1.0 / 3.0) ** 3 / (2.0 * math.pi * math.sqrt(3.0))


class BadReductionError(ValueError):
    """a_q requested at a prime of bad reduction (or q = 2)."""


class NonConvergenceError(RuntimeError):
    """The L(1) sum could not reach the requested tolerance."""


class FunctionalEquationError(RuntimeError):
    """Varying the incomplete-sum split point moved L(1): conductor or sign is wrong."""


@dataclass(frozen=True)
class CurveSpec:
    """y^2 = x^3 + A x + B with integer coefficients."""

    A: int
    B: int

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (0, 0, 0, self.A, self.B)

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.A ** 3 + 27 * self.B ** 2)

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("singular cubic: discriminant is zero")


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


# ---------------------------------------------------------------------------
# Tate's algorithm
# ---------------------------------------------------------------------------

def _val(n: int, q: int) -> int:
    if n == 0:
        return _BIG
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _invariants(ai):
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, delta


def _transform(ai, r: int, s: int, t: int):
    """x -> x + r, y -> y + s*x + t (unimodular change of Weierstrass coordinates)."""
    a1, a2, a3, a4, a6 = ai
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )


def _rescale(ai, q: int):
    """Divide a_i by q^i (step-11 restart); all divisions must be exact."""
    a1, a2, a3, a4, a6 = ai
    for a, e in ((a1, 1), (a2, 2), (a3, 3), (a4, 4), (a6, 6)):
        if a % q ** e:
            raise ArithmeticError("rescale reached with non-divisible coefficients")
    return (a1 // q, a2 // q ** 2, a3 // q ** 3, a4 // q ** 4, a6 // q ** 6)


def _exact_div(a: int, d: int) -> int:
    if a % d:
        raise ArithmeticError(f"expected {d} | {a}; a valuation invariant was violated")
    return a // d


def _singular_point(ai, q: int) -> tuple[int, int]:
    """The unique singular point of the reduction mod q (q in {2, 3}), brute force."""
    a1, a2, a3, a4, a6 = ai
    for x in range(q):
        for y in range(q):
            f = y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)
            fx = a1 * y - (3 * x * x + 2 * a2 * x + a4)
            fy = 2 * y + a1 * x + a3
            if f % q == 0 and fx % q == 0 and fy % q == 0:
                return x, y
    raise ArithmeticError("no singular point found for a curve with bad reduction")


def _double_root(coeffs, q: int):
    """Double root in F_q of a quadratic/cubic given by ascending coeffs, or None."""
    der = [k * c for k, c in enumerate(coeffs)][1:]
    for r in range(q):
        pr = sum(c * r ** k for k, c in enumerate(coeffs)) % q
        dr = sum(c * r ** k for k, c in enumerate(der)) % q
        if pr == 0 and dr == 0:
            return r
    return None


def _is_triple_root(coeffs, q: int, r: int) -> bool:
    """Whether the monic cubic equals (T - r)^3 mod q."""
    c0, c1, c2, c3 = coeffs
    return (
        (c2 + 3 * r) % q == 0
        and (c1 - 3 * r * r) % q == 0
        and (c0 + r ** 3) % q == 0
    )


def _normalize_step6(ai, q: int):
    """Find y -> y + s*x + t giving q|a1,a2, q^2|a3,a4, q^3|a6 (small search)."""
    for s in range(q):
        for t in range(q * q):
            cand = _transform(ai, 0, s, t)
            a1, a2, a3, a4, a6 = cand
            if (
                a1 % q == 0
                and a2 % q == 0
                and a3 % (q * q) == 0
                and a4 % (q * q) == 0
                and a6 % q ** 3 == 0
            ):
                return cand
    raise ArithmeticError("normalization before the cubic test failed")


def _tate_small(ai, q: int):
    """Conductor exponent at q in {2, 3}, plus the locally minimized model."""
    while True:
        _, _, b6, b8, c4, _, delta = _invariants(ai)
        n = _val(delta, q)
        if n == 0:
            return 0, ai
        if _val(c4, q) == 0:
            return 1, ai  # multiplicative, type I_n
        x0, y0 = _singular_point(ai, q)
        ai = _transform(ai, x0, 0, y0)
        a1, a2, a3, a4, a6 = ai
        _, _, b6, b8, c4, _, delta = _invariants(ai)
        if _val(a6, q) < 2:
            return n, ai  # type II
        if _val(b8, q) < 3:
            return n - 1, ai  # type III
        if _val(b6, q) < 3:
            return n - 2, ai  # type IV
        ai = _normalize_step6(ai, q)
        a1, a2, a3, a4, a6 = ai
        cubic = [_exact_div(a6, q ** 3), _exact_div(a4, q ** 2), _exact_div(a2, q), 1]
        dbl = _double_root(cubic, q)
        if dbl is None:
            return n - 4, ai  # type I_0*
        if not _is_triple_root(cubic, q, dbl):
            # type I_m*: walk the chain of quadratics
            ai = _transform(ai, q * dbl, 0, 0)
            m = 1
            while m <= n:
                a1, a2, a3, a4, a6 = ai
                j = (m + 1) // 2
                if m % 2 == 1:
                    quad = [-_exact_div(a6, q ** (2 * j + 2)), _exact_div(a3, q ** (j + 1)), 1]
                    root = _double_root(quad, q)
                    if root is None:
                        return n - 4 - m, ai
                    ai = _transform(ai, 0, 0, q ** (j + 1) * root)
                else:
                    quad = [_exact_div(a6, q ** (2 * j + 3)), _exact_div(a4, q ** (j + 2)), _exact_div(a2, q)]
                    root = _double_root(quad, q)
                    if root is None:
                        return n - 4 - m, ai
                    ai = _transform(ai, q ** (j + 1) * root, 0, 0)
                m += 1
            raise ArithmeticError("unbounded chain of double roots; valuation bookkeeping broken")
        else:
            ai = _transform(ai, q * dbl, 0, 0)
            a1, a2, a3, a4, a6 = ai
            quad = [-_exact_div(a6, q ** 4), _exact_div(a3, q ** 2), 1]
            root = _double_root(quad, q)
            if root is None:
                return n - 6, ai  # type IV*
            ai = _transform(ai, 0, 0, q * q * root)
            a1, a2, a3, a4, a6 = ai
            if _val(a4, q) < 4:
                return n - 7, ai  # type III*
            if _val(a6, q) < 6:
                return n - 8, ai  # type II*
            ai = _rescale(ai, q)  # non-minimal: restart one level down


def _tate_large(ai, q: int) -> int:
    """Conductor exponent at q >= 5 from the (c4, c6) pair alone."""
    _, _, _, _, c4, c6, delta = _invariants(ai)
    while _val(delta, q) >= 12 and _val(c4, q) >= 4 and _val(c6, q) >= 6:
        c4 //= q ** 4
        c6 //= q ** 6
        delta //= q ** 12
    if _val(delta, q) == 0:
        return 0
    return 1 if _val(c4, q) == 0 else 2


def conductor_exponent(ainvs, q: int) -> int:
    """Local conductor exponent f_q of the curve with the given a-invariants."""
    if q in (2, 3):
        return _tate_small(tuple(ainvs), q)[0]
    return _tate_large(tuple(ainvs), q)


@lru_cache(maxsize=None)
def _minimal_model(ainvs) -> tuple[int, int, int, int, int]:
    """Globally integral model minimized at 2 and 3 (enough for the curves in scope)."""
    ai = tuple(ainvs)
    ai = _tate_small(ai, 2)[1]
    ai = _tate_small(ai, 3)[1]
    return ai


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


def _bad_primes(delta: int) -> list[int]:
    """Prime factorization support of the discriminant (small primes, then a prime-power cofactor).

    For y^2 = x^3 + p x and x^3 + y^3 = p the cofactor left after trial
    division is p^3 or p^4 once p exceeds the trial bound.
    """
    d = abs(delta)
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
            raise ValueError("discriminant has a large composite cofactor; out of supported range")
    return sorted(set(out))


@lru_cache(maxsize=None)
def _conductor_from_ainvs(ainvs) -> int:
    delta = _invariants(ainvs)[-1]
    N = 1
    for q in _bad_primes(delta):
        N *= q ** conductor_exponent(ainvs, q)
    return N


def conductor(curve: CurveSpec) -> int:
    return _conductor_from_ainvs(curve.ainvs)


# ---------------------------------------------------------------------------
# Point counts and Dirichlet coefficients
# ---------------------------------------------------------------------------

def _aq_char_sum(ainvs, q: int) -> int:
    """a_q = -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6) for odd q of good reduction."""
    b2, b4, b6 = _invariants(ainvs)[0:3]
    x = np.arange(q, dtype=np.int64)
    g = (4 * x + b2 % q) % q
    g = (g * x + (2 * b4) % q) % q
    g = (g * x + b6 % q) % q
    is_sq = np.zeros(q, dtype=bool)
    is_sq[(x * x) % q] = True
    chi = np.where(g == 0, 0, np.where(is_sq[g], 1, -1))
    return -int(chi.sum())


def _aq_enumerate(ainvs, q: int) -> int:
    """Brute-force count over F_q (used for q = 2 and as a tiny-prime oracle)."""
    a1, a2, a3, a4, a6 = ainvs
    count = 1  # point at infinity
    for x in range(q):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
        for y in range(q):
            if (y * y + a1 * x * y + a3 * y - rhs) % q == 0:
                count += 1
    return q + 1 - count


def ap(curve: CurveSpec, q: int) -> int:
    """Trace of Frobenius at an odd prime q not dividing 2*disc."""
    if q == 2 or not is_prime(q):
        raise BadReductionError(f"q = {q} must be an odd prime")
    if curve.discriminant % q == 0:
        raise BadReductionError(f"q = {q} divides the discriminant")
    return _aq_char_sum(curve.ainvs, q)


def _sieve_spf(M: int) -> np.ndarray:
    spf = np.zeros(M + 1, dtype=np.int64)
    for i in range(2, M + 1):
        if spf[i] == 0:
            spf[i::i][spf[i::i] == 0] = i
    return spf


def an_list(curve: CurveSpec, M: int, jobs: int = 1) -> list[int]:
    """Dirichlet coefficients a_1..a_M (index 0 unused), multiplicative extension.

    a_q = 0 at primes dividing the conductor; Hecke recursion at good prime
    powers; counts are taken on the minimized model so that a prime of good
    reduction hidden by a non-minimal input model is still counted.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    model = _minimal_model(curve.ainvs)
    N = _conductor_from_ainvs(curve.ainvs)
    a = [0] * (M + 1)
    a[1] = 1
    if M == 1:
        return a
    spf = _sieve_spf(M)
    primes = [int(v) for v in np.nonzero(spf == np.arange(M + 1))[0] if v >= 2]

    def trace(q: int) -> int:
        if N % q == 0:
            return 0
        if q == 2:
            return _aq_enumerate(model, 2)
        return _aq_char_sum(model, q)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            traces = dict(zip(primes, pool.map(trace, primes)))
    else:
        traces = {q: trace(q) for q in primes}

    for n in range(2, M + 1):
        q = int(spf[n])
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


def l1(curve: CurveSpec, tol: float = 1e-8, jobs: int = 1) -> float:
    value, _, _ = l1_detail(curve, tol, jobs)
    return value


def l1_detail(curve: CurveSpec, tol: float = 1e-8, jobs: int = 1) -> tuple[float, int, float]:
    """(L(1), term count, tail bound); assumes functional-equation sign +1.

    L(1) = sum_n (a_n/n) (e^{-2 pi n t / sqrt(N)} + e^{-2 pi n /(t sqrt(N))});
    independence of the split parameter t is asserted, which catches a wrong
    conductor or sign instead of silently returning garbage.
    """
    if tol < 1e-12:
        raise ValueError("tolerance below 1e-12 is not achievable in double precision")
    N = conductor(curve)
    M = _term_count(N, tol)
    coeffs = np.array(an_list(curve, M, jobs=jobs), dtype=np.float64)[1:]
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
        return {
            "p": self.p,
            "family": self.family,
            "conductor": self.conductor,
            "terms": self.terms,
            "l1": self.l1,
            "s_real": self.s_real,
            "s_rounded": self.s_rounded,
            "residual": self.residual,
            "tail_bound": self.tail_bound,
            "tol": self.tol,
            "converged": self.converged,
        }


def sp(p: int, tol: float = 1e-8, family: str = "Ep", jobs: int = 1) -> LValueReport:
    """Normalized central value: S = 2 p^{1/4} L(1) / Omega_E (Ep) or 2 p^{1/3} L(1) / Omega_A (Ap)."""
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
    value, terms, bound = l1_detail(curve, tol, jobs)
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
