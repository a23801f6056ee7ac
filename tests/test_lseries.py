import math
import time

import numpy as np
import pytest

from rankcrit import lseries
from rankcrit._primality import is_prime
from rankcrit.criteria import admissible, sp_congruence_rhs, verdict_Ap, verdict_Ep
from rankcrit.lseries import (
    OMEGA_A,
    OMEGA_E,
    BadReductionError,
    CurveSpec,
    FactorizationError,
    an_list,
    ap,
    conductor,
    curve_ap,
    curve_ep,
    l1,
    l1_detail,
    sp,
)

from ._util import primes_leq


_BIG = 10 ** 9  # stand-in valuation of 0


# ---------------------------------------------------------------------------
# Tate's algorithm, the reference for conductor()
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


def _tate_small(ai, q: int) -> int:
    """Conductor exponent at q in {2, 3}."""
    while True:
        _, _, b6, b8, c4, _, delta = _invariants(ai)
        n = _val(delta, q)
        if n == 0:
            return 0
        if _val(c4, q) == 0:
            return 1  # multiplicative, type I_n
        x0, y0 = _singular_point(ai, q)
        ai = _transform(ai, x0, 0, y0)
        a1, a2, a3, a4, a6 = ai
        _, _, b6, b8, c4, _, delta = _invariants(ai)
        if _val(a6, q) < 2:
            return n  # type II
        if _val(b8, q) < 3:
            return n - 1  # type III
        if _val(b6, q) < 3:
            return n - 2  # type IV
        ai = _normalize_step6(ai, q)
        a1, a2, a3, a4, a6 = ai
        cubic = [_exact_div(a6, q ** 3), _exact_div(a4, q ** 2), _exact_div(a2, q), 1]
        dbl = _double_root(cubic, q)
        if dbl is None:
            return n - 4  # type I_0*
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
                        return n - 4 - m
                    ai = _transform(ai, 0, 0, q ** (j + 1) * root)
                else:
                    quad = [_exact_div(a6, q ** (2 * j + 3)), _exact_div(a4, q ** (j + 2)), _exact_div(a2, q)]
                    root = _double_root(quad, q)
                    if root is None:
                        return n - 4 - m
                    ai = _transform(ai, q ** (j + 1) * root, 0, 0)
                m += 1
            raise ArithmeticError("unbounded chain of double roots; valuation bookkeeping broken")
        else:
            ai = _transform(ai, q * dbl, 0, 0)
            a1, a2, a3, a4, a6 = ai
            quad = [-_exact_div(a6, q ** 4), _exact_div(a3, q ** 2), 1]
            root = _double_root(quad, q)
            if root is None:
                return n - 6  # type IV*
            ai = _transform(ai, 0, 0, q * q * root)
            a1, a2, a3, a4, a6 = ai
            if _val(a4, q) < 4:
                return n - 7  # type III*
            if _val(a6, q) < 6:
                return n - 8  # type II*
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
        return _tate_small(tuple(ainvs), q)
    return _tate_large(tuple(ainvs), q)


def _ainvs(curve: CurveSpec) -> tuple[int, int, int, int, int]:
    return (0, 0, 0, curve.A, curve.B)


def _tate_conductor(curve: CurveSpec) -> int:
    """Product of the Tate exponents at 2, 3 and every prime dividing A or B (by trial division)."""
    c = abs(curve.A or curve.B)
    qs, q = {2, 3}, 2
    while q * q <= c:
        while c % q == 0:
            qs.add(q)
            c //= q
        q += 1
    if c > 1:
        qs.add(c)
    N = 1
    for q in qs:
        N *= q ** conductor_exponent(_ainvs(curve), q)
    return N


def _aq_char_sum(ainvs, q: int) -> int:
    """Reference a_q = -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6), odd q of good reduction, O(q)."""
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
    """Reference a_q = q + 1 - #E(F_q) by brute force over F_q, for tiny q (also q = 2)."""
    a1, a2, a3, a4, a6 = ainvs
    count = 1  # point at infinity
    for x in range(q):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
        for y in range(q):
            if (y * y + a1 * x * y + a3 * y - rhs) % q == 0:
                count += 1
    return q + 1 - count


# ---------------------------------------------------------------------------
# Per-prime CM traces and the Hecke recursion, the reference for ap() and an_list()
# ---------------------------------------------------------------------------

def _aq_cm_i(A: int, q: int) -> int:
    """a_q of y^2 = x^3 + A x (j = 1728) at a prime q of good reduction (0 at q = 3, which is inert).

    With q = N(pi), pi = a + b i primary (a odd, b even, a + b = 1 mod 4), and
    u the unit congruent to (-A)^((q-1)/4) modulo pi, a_q = 2 Re(conj(u) pi).
    """
    if q % 4 == 3:
        return 0
    a, b = lseries._cornacchia(1, q)
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
    x, y = lseries._cornacchia(3, q)
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


def _reference_trace(curve: CurveSpec, q: int) -> int:
    """a_q at a prime q of good reduction, for any A or B."""
    return _aq_cm_i(curve.A, q) if curve.B == 0 else _aq_cm_omega(curve.B, q)


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


def _an_reference(curve: CurveSpec, M: int) -> list[int]:
    """a_0..a_M by multiplicativity: a_q = 0 at primes dividing the conductor, the CM trace at
    every other prime, and the Hecke recursion at good prime powers."""
    N = conductor(curve)
    a = [0] * (M + 1)
    a[1] = 1
    if M == 1:
        return a
    sieve = _sieve_spf(M)
    primes = np.nonzero(sieve == np.arange(M + 1))[0][1:].tolist()  # [1:] drops n = 0
    traces = {q: 0 if N % q == 0 else _reference_trace(curve, q) for q in primes}
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


def _domain(limit: int) -> list[CurveSpec]:
    """Every curve an_list covers with c <= limit: y^2 = x^3 + c x and y^2 = x^3 - 432 c^2."""
    quartic = [CurveSpec(c, 0) for c in range(1, limit + 1) if c == 1 or (c % 4 == 1 and is_prime(c))]
    cubic = [CurveSpec(0, -432 * c * c) for c in range(1, limit + 1) if c == 1 or (c % 3 == 1 and is_prime(c))]
    return quartic + cubic


class TestAp:
    def test_cm_vanishing_small(self):
        assert ap(curve_ep(17), 3) == 0

    def test_value_at_5(self):
        # exhaustive enumeration over F_5 gives #E = 2, a_5 = 5 + 1 - 2
        assert ap(curve_ep(17), 5) == 4

    def test_matches_enumeration(self):
        for curve in (curve_ep(17), curve_ep(41), curve_ap(19)):
            for q in primes_leq(60):
                if q == 2 or curve.discriminant % q == 0:
                    continue
                assert ap(curve, q) == _aq_enumerate(_ainvs(curve), q), (curve, q)

    def test_hasse_bound(self):
        curve = curve_ep(97)
        for q in primes_leq(500):
            if q == 2 or curve.discriminant % q == 0:
                continue
            assert abs(ap(curve, q)) <= 2 * math.sqrt(q)

    def test_cm_vanishing_sweep(self):
        curve = curve_ep(113)
        for q in primes_leq(1000):
            if q == 2 or curve.discriminant % q == 0:
                continue
            if q % 4 == 3:
                assert ap(curve, q) == 0, q

    def test_bad_prime_rejected(self):
        with pytest.raises(BadReductionError):
            ap(curve_ep(17), 17)
        with pytest.raises(BadReductionError):
            ap(curve_ep(17), 2)


class TestCMTraces:
    CURVES = (
        [curve_ep(p) for p in (17, 73, 313, 1009)]
        + [curve_ap(p) for p in (19, 109, 379, 1009)]
        + [CurveSpec(A=c, B=0) for c in (1, -1, 2, 12)]
        + [CurveSpec(A=0, B=c) for c in (1, -1, 2, 12)]
    )

    GENERAL = CURVES[9:]  # A = -1, 2, 12 and B = +-1, 2, 12: outside what ap and an_list cover

    def test_matches_char_sum(self):
        # the reference formulas hold for every A and B; ap covers the first nine curves
        checked = 0
        for curve in self.CURVES:
            for q in primes_leq(3000):
                if q == 2 or curve.discriminant % q == 0:
                    continue
                want = _aq_char_sum(_ainvs(curve), q)
                assert _reference_trace(curve, q) == want, (curve, q)
                if curve not in self.GENERAL:
                    assert ap(curve, q) == want, (curve, q)
                checked += 1
        assert checked > 6500

    def test_inert_primes_vanish(self):
        for q in primes_leq(3000):
            if q > 3 and q % 4 == 3:
                assert _aq_cm_i(1009, q) == 0 == ap(curve_ep(1009), q), q
            if q > 3 and q % 3 == 2:
                assert _aq_cm_omega(-432 * 1009 ** 2, q) == 0 == ap(curve_ap(1009), q), q

    def test_other_shapes_refused(self):
        others = [CurveSpec(A, 0) for A in (-1, 2, 12, 3, 7, -17, 45, 1009 * 1013)]
        others += [CurveSpec(0, B) for B in (1, -1, 2, 12, 432, -432 * 4, -432 * 25, -432 * 15 ** 2)]
        others += [curve_ep(7), curve_ap(5), curve_ap(11)]
        assert set(self.GENERAL) <= set(others)
        for curve in others:
            with pytest.raises(ValueError, match="is implemented for"):
                ap(curve, 13)
            with pytest.raises(ValueError, match="is implemented for"):
                an_list(curve, 10)

    def test_an_list_matches_recursion(self):
        # every c <= 1000 of both shapes (the admissible Ep and Ap p among them), A = 1 and
        # B = -432, to 3000 terms; and M from 1 up, where isqrt(M) and isqrt(4M/3) take
        # both parities, so the first and last rows of the lattice are both kinds
        curves = _domain(1000)
        assert len(curves) == 81 + 81 and {CurveSpec(1, 0), CurveSpec(0, -432)} <= set(curves)
        for curve in curves:
            assert an_list(curve, 3000).tolist() == _an_reference(curve, 3000), curve
        small = list(range(1, 80)) + [99, 100, 3001]
        assert {math.isqrt(M) % 2 for M in small} == {0, 1} == {math.isqrt(4 * M // 3) % 2 for M in small}
        for curve in (curve_ep(17), curve_ep(73), curve_ap(19), curve_ap(37), CurveSpec(1, 0)):
            want = _an_reference(curve, 3001)
            for M in small:
                assert an_list(curve, M).tolist() == want[:M + 1], (curve, M)

    def test_an_list_full_term_count(self):
        # the term count sp uses: the seven benchmark oracle curves and p = 10009
        for family, p in (("Ep", 73), ("Ep", 233), ("Ep", 313), ("Ap", 19), ("Ap", 109), ("Ap", 271),
                          ("Ap", 379), ("Ep", 10009), ("Ap", 10009)):
            curve, _ = lseries.sp_curve(p, 1e-8, family)
            M = lseries._terms_and_bound(conductor(curve), 1e-8)[0]
            assert an_list(curve, M).tolist() == _an_reference(curve, M), (family, p, M)


class TestAnListChecks:
    @staticmethod
    def prime_above(lo: int, k: int) -> int:
        return next(c for c in range(lo, 2 * lo) if c % k == 1 and is_prime(c))

    def test_limits(self):
        assert (lseries._C_MAX - 1) ** 2 <= lseries._INT64_MAX < lseries._C_MAX ** 2
        assert 16 * lseries._M_MAX <= 2 ** 53
        # the rows take floor(float64 sqrt(x)) for x <= 4M < 2^52, that is for a root below 2^26:
        # sqrt(k^2 - 1) < k - 1/(2k) is more than half an ulp of k below k, so it never rounds up
        assert 4 * lseries._M_MAX < 2 ** 52
        k = np.arange(2 ** 26 - 4096, 2 ** 26, dtype=np.int64)
        x = np.concatenate([k * k - 1, k * k, k * k + 1, np.arange(10 ** 5)])
        assert np.sqrt(x).astype(np.int64).tolist() == [math.isqrt(v) for v in x.tolist()]

    def test_guards_fire_before_any_array(self, monkeypatch):
        class Passed(Exception):
            pass

        def passed(*args):
            raise Passed

        # _images is the first step after the guards, before the table or any row exists
        monkeypatch.setattr(lseries, "_images", passed)
        for curve in (CurveSpec(self.prime_above(lseries._C_MAX, 4), 0),
                      CurveSpec(0, -432 * self.prime_above(lseries._C_MAX, 3) ** 2)):
            with pytest.raises(OverflowError, match="character table"):
                an_list(curve, 1)
        with pytest.raises(Passed):
            below = next(c for c in range(lseries._C_MAX, 0, -1) if c % 4 == 1 and is_prime(c))
            an_list(CurveSpec(below, 0), 1)
        with pytest.raises(OverflowError, match="row residues"):
            an_list(curve_ep(17), 10 ** 38)
        with pytest.raises(OverflowError, match="float64 sums"):
            an_list(curve_ep(17), lseries._M_MAX + 1)
        with pytest.raises(OverflowError, match="resident"):
            an_list(curve_ep(17), lseries._M_MAX)
        with pytest.raises(OverflowError, match="resident"):
            an_list(curve_ep(17), lseries._M_RESIDENT + 1)
        with pytest.raises(Passed):
            an_list(curve_ep(17), lseries._M_RESIDENT)

    def test_resident_bound(self):
        # the measured peak per term times the bound stays near 400 MB, and the first Ep and Ap
        # primes whose term count passes it are refused before any array exists
        assert lseries._BYTES_PER_TERM * lseries._M_RESIDENT <= 400 * 10 ** 6
        for family, last, first in (("Ep", 105361, 105401), ("Ap", 162109, 162289)):
            counts = [lseries._terms_and_bound(conductor(lseries.sp_curve(p, 1e-8, family)[0]), 1e-8)[0]
                      for p in (last, first)]
            assert counts[0] <= lseries._M_RESIDENT < counts[1]
            t0 = time.perf_counter()
            with pytest.raises(OverflowError, match="would not stay resident"):
                lseries.sp(first, family=family)
            assert time.perf_counter() - t0 < 1.0

    def test_table_check(self, monkeypatch):
        real = lseries._chi
        monkeypatch.setattr(lseries, "_chi", lambda x, k, c, r: real(x, k, c, r) * 0)
        for curve, k in ((curve_ep(17), 4), (curve_ap(19), 3)):
            with pytest.raises(ArithmeticError, match=f"root of unity of order {k}"):
                an_list(curve, 100)

    def test_trace_parity_check(self, monkeypatch):
        monkeypatch.setitem(lseries._TRACES, 3, (np.array([-2, 1, 1]), np.array([1, 1, -1])))
        with pytest.raises(ArithmeticError, match="odd trace sum"):
            an_list(curve_ap(19), 100)


class TestSieve:
    @staticmethod
    def reference(M):
        spf = np.zeros(M + 1, dtype=np.int64)
        for i in range(2, M + 1):
            if spf[i] == 0:
                spf[i::i][spf[i::i] == 0] = i
        return spf

    def test_matches_full_sieve(self):
        for M in (1, 2, 3, 4, 8, 9, 10, 24, 25, 97, 1000, 4096, 10007):
            assert _sieve_spf(M).tolist() == self.reference(M).tolist(), M


class TestAnList:
    def test_first_coefficient(self):
        assert an_list(curve_ep(17), 1).tolist() == [0, 1]

    def test_int64_array(self):
        for curve in (curve_ep(17), curve_ap(19)):
            for M in (1, 2, 100):
                a = an_list(curve, M)
                assert isinstance(a, np.ndarray) and a.dtype == np.int64 and a.shape == (M + 1,)

    def test_multiplicativity(self):
        a = an_list(curve_ep(17), 15)
        assert a[15] == a[3] * a[5] == 0  # a_3 = 0 by CM

    def test_bad_prime_power_vanishes(self):
        a = an_list(curve_ep(17), 4)
        assert a[2] == 0 and a[4] == 0

    def test_hecke_relation_at_good_prime(self):
        a = an_list(curve_ep(17), 170)
        for q in (5, 13):
            assert a[q * q] == a[q] * a[q] - q
        assert a[125] == a[5] * a[25] - 5 * a[5]

    def test_full_multiplicativity_random(self):
        a = an_list(curve_ep(41), 400)
        for (m, n) in [(3, 7), (5, 13), (9, 25), (11, 36)]:
            assert a[m * n] == a[m] * a[n]

    def test_ap_curve_good_at_2(self):
        # 2 does not divide the conductor 27 p^2, so a_2 is a real trace: 0 by
        # CM (2 is inert in Z[w]), and 0 by counting points on a model of
        # A_19 with good reduction at 2
        model = (0, 9, 9, 27, -2430)
        assert an_list(curve_ap(19), 2)[2] == 0 == _aq_enumerate(model, 2)
        a = an_list(curve_ap(19), 10)
        assert a[3] == 0 and a[19 // 19 * 9] == 0  # bad primes 3, 19


class TestConductor:
    KNOWN = [
        ((0, 0, 0, 1, 0), 64),
        ((0, 0, 0, -1, 0), 32),
        ((0, 0, 0, 0, 1), 36),
        ((0, 0, 0, 0, -432), 27),
        ((0, 0, 1, 0, 0), 27),
        ((0, -1, 1, 0, 0), 11),
        ((0, 0, 1, -1, 0), 37),
        ((0, 0, 0, 4, 0), 32),
        ((0, 0, 0, -4, 0), 64),
    ]

    def test_known_conductors(self):
        for ainvs, want in self.KNOWN:
            got = conductor(CurveSpec(A=ainvs[3], B=ainvs[4])) if ainvs[:3] == (0, 0, 0) else None
            # go through the exponent API for generalized models
            N = 1
            for q in (2, 3, 5, 7, 11, 37):
                N *= q ** conductor_exponent(ainvs, q)
            assert N == want, ainvs
            if got is not None:
                assert got == want

    def test_cm_rule_matches_tate(self):
        # every CM shape with 0 < |c| <= 3000: all residues of u mod 4 and 9
        # and every valuation e the stored shape allows at 2 and 3
        checked = 0
        for c in range(-3000, 3001):
            if c == 0:
                continue
            for curve in (CurveSpec(c, 0), CurveSpec(0, c)):
                assert conductor(curve) == _tate_conductor(curve), curve
                checked += 1
        assert checked == 12000

    def test_ep_shape(self):
        # every admissible p <= 10^4 (295 primes); p >= 1000 leaves the cofactor
        # p^3 after trial division of the discriminant
        ps = [p for p in primes_leq(10 ** 4) if p % 16 in (1, 9)]
        assert len(ps) == 295 and {17, 41, 457, 1009, 1033} <= set(ps)
        for p in ps:
            assert conductor(curve_ep(p)) == 64 * p * p, p

    def test_ap_shape(self):
        # every admissible p <= 10^4 (203 primes)
        ps = [p for p in primes_leq(10 ** 4) if p % 9 == 1]
        assert len(ps) == 203 and {19, 37, 1009} <= set(ps)
        for p in ps:
            assert conductor(curve_ap(p)) == 27 * p * p, p

    @staticmethod
    def _brute_primes(c: int) -> list[int]:
        """The primes dividing c, by trial division to the square root of what is left."""
        d, out, q = abs(c), [], 2
        while q * q <= d:
            if d % q == 0:
                out.append(q)
                while d % q == 0:
                    d //= q
            q += 1
        return out + [d] * (d > 1)

    def test_bad_primes_against_brute_force(self):
        # trial division stops once a division leaves a prime or a prime square: for
        # B = -432 p^2 that is p^2 after 2 and 3, at every p, above the trial bound too
        ps = primes_leq(3000)
        eps, aps = [p for p in ps if admissible(p, "Ep").ok], [p for p in ps if admissible(p, "Ap").ok]
        assert {1009, 2857} <= set(eps) | set(aps) and len(eps) > 50 and len(aps) > 50
        for c in [*eps, *(-432 * p * p for p in aps)]:
            assert lseries._bad_primes(c) == self._brute_primes(c), c
        # what an early stop leaves is still searched as a prime power: 7^2 after 2
        for c in (2 * 7 ** 2, 2 * 3 * 1013, 2 ** 5 * 1013 ** 2, 16 * 9973 ** 3):
            assert lseries._bad_primes(c) == self._brute_primes(c), c

    def test_composite_cofactor_is_refused(self):
        # left after trial division and neither a prime nor a prime power, with and
        # without small factors divided out first
        for c in (1009 * 1013, -432 * 1009 * 1013, 2 * 1009 ** 2 * 1013):
            with pytest.raises(FactorizationError):
                lseries._bad_primes(c)

    def test_p_exponent_exactly_two(self):
        for p in (17, 89):
            N = conductor(curve_ep(p))
            assert N % p ** 2 == 0 and N % p ** 3 != 0

    def test_ap_minimal_model_good_at_2(self):
        # y^2 = x^3 - 432*19^2 has even discriminant, but it is the model
        # (0, 9, 9, 27, -2430) scaled by u = 2, whose discriminant is odd
        model = (0, 9, 9, 27, -2430)
        c4, c6, delta = _invariants(model)[4:]
        C4, C6, DELTA = _invariants(_ainvs(curve_ap(19)))[4:]
        assert (C4, C6, DELTA) == (c4 * 2 ** 4, c6 * 2 ** 6, delta * 2 ** 12)
        assert DELTA % 2 == 0 and delta % 2 != 0
        assert conductor_exponent(_ainvs(curve_ap(19)), 2) == 0 == conductor_exponent(model, 2)
        assert conductor(curve_ap(19)) % 2 != 0

    def test_minimal_at_primes_above_3(self):
        # A is stored modulo 4th powers and B modulo 6th powers
        assert CurveSpec(625, 0) == CurveSpec(1, 0)
        assert CurveSpec(3 * 35 ** 4, 0).A == 3
        assert CurveSpec(0, -432 * 2 ** 6) == CurveSpec(0, -432)
        assert curve_ep(17).A == 17 and curve_ap(19).B == -432 * 19 ** 2
        # 5 is good for y^2 = x^3 + 625 x, which is y^2 = x^3 + x scaled by u = 5
        assert ap(CurveSpec(625, 0), 5) == 2

    def test_curve_shape_refused(self):
        for A, B in ((-1, 1), (0, 0)):
            with pytest.raises(ValueError):
                CurveSpec(A, B)

    def test_exponent_invariant_under_coordinate_changes(self):
        # f_q cannot depend on the chosen integral model; random unimodular
        # changes of variables exercise every classification branch.
        import random

        rng = random.Random(3)
        checked = 0
        for _ in range(200):
            ainvs = tuple(rng.randint(-6, 6) for _ in range(5))
            if _invariants(ainvs)[-1] == 0:
                continue
            r, s, t = (rng.randint(-4, 4) for _ in range(3))
            moved = _transform(ainvs, r, s, t)
            for q in (2, 3, 5, 7):
                assert conductor_exponent(ainvs, q) == conductor_exponent(moved, q)
            checked += 1
        assert checked > 150


class TestL1:
    def test_l1_near_zero_for_rank_two(self):
        assert abs(l1(curve_ep(73), 1e-8)) < 1e-4

    def test_l1_away_from_zero_for_rank_zero(self):
        assert abs(l1(curve_ep(97), 1e-8)) > 1e-2

    def test_e1_value(self):
        # y^2 = x^3 + x: L(1) = Omega_E / 4
        got = l1(CurveSpec(A=1, B=0), 1e-9)
        assert abs(got - OMEGA_E / 4) < 1e-8

    def test_model_non_minimal_at_5(self):
        # y^2 = x^3 + 625 x is y^2 = x^3 + x scaled by u = 5, and is stored as the latter
        got = an_list(CurveSpec(625, 0), 30)
        assert got.tolist() == an_list(CurveSpec(1, 0), 30).tolist()
        assert got[5] == 2
        assert l1(CurveSpec(625, 0), 1e-9) == pytest.approx(OMEGA_E / 4, abs=1e-8)

    def test_tail_bound_enforced(self):
        _, terms, bound = l1_detail(curve_ep(17), 1e-8)
        assert bound < 1e-8
        assert terms >= 100

    def test_sp_computes_the_conductor_once(self, monkeypatch):
        calls = []
        real = lseries.conductor
        monkeypatch.setattr(lseries, "conductor", lambda curve: calls.append(curve) or real(curve))
        report = sp(73)
        assert calls == [curve_ep(73)]
        assert report.conductor == real(curve_ep(73))

    def test_rejects_tiny_tol(self):
        with pytest.raises(ValueError):
            l1(curve_ep(17), 1e-13)


def _divisor_counts(limit: int) -> np.ndarray:
    d = np.zeros(limit + 1, np.int64)
    for k in range(1, limit + 1):
        d[k::k] += 1
    return d


class TestTailBound:
    def test_divisor_bound_above_60(self):
        # the premise of _tail_bound past _D_EXACT: d(n) <= n^0.6 for every n > 60
        d = _divisor_counts(10 ** 5)
        n = np.arange(len(d))
        assert (d[61:] <= n[61:] ** 0.6).all()
        assert [k for k in range(1, 61) if d[k] > k ** 0.6] == [2, 3, 4, 6, 8, 10, 12, 18, 24, 30, 36, 60]
        # up to 10^7: n = prod q_i^e_i has the divisor count of m = 2^e_1 3^e_2 ... with the
        # exponents sorted down, and m <= n, so d(n) <= max(m, 10^5)^0.6 covers n > 10^5
        primes = primes_leq(60)

        def least(i, m, top, count):
            yield m, count
            e, m = 1, m * primes[i]
            while e <= top and m <= 10 ** 7:
                yield from least(i + 1, m, e, count * (e + 1))
                e, m = e + 1, m * primes[i]

        assert all(count <= max(m, 10 ** 5) ** 0.6 for m, count in least(0, 1, 64, 1))

    @pytest.mark.parametrize("curve", [CurveSpec(1, 0), CurveSpec(0, -432)])
    def test_bound_covers_the_true_tail(self, curve):
        # y^2 = x^3 + x and y^2 = x^3 - 432 sum only 55 and 38 terms at tol 1e-8
        d = _divisor_counts(4000)
        c = 2.0 * math.pi / math.sqrt(conductor(curve)) / 1.2
        for M in [*range(0, 61), lseries._terms_and_bound(conductor(curve), 1e-8)[0]]:
            n = np.arange(M + 1, M + 3000)
            # at small M the bound sums the same terms in another order: allow its rounding
            assert lseries._tail_bound(M, c) >= 2.0 * np.sum(d[n] / np.sqrt(n) * np.exp(-c * n)) * (1 - 1e-12), M

    def test_unchanged_from_60_on(self):
        # every Ep/Ap oracle record sums hundreds of terms, so its tail bound is the n^0.1 form
        for M, c in ((60, 0.5), (61, 0.01), (593, 0.003), (10 ** 4, 1e-4)):
            head = sum(2.0 * (M + i) ** 0.1 * math.exp(-c * (M + i)) for i in range(1, 65))
            rest = 2.0 * (M + 65) ** 0.1 * math.exp(-c * (M + 65)) / (1.0 - math.exp(-c + 0.1 / (M + 65)))
            assert lseries._tail_bound(M, c) == head + rest


class TestSp:
    def test_17(self):
        rep = sp(17, 1e-8)
        assert rep.s_rounded == 4
        assert rep.residual < 1e-6
        assert rep.converged

    def test_73_vanishes(self):
        rep = sp(73, 1e-8)
        assert rep.s_rounded == 0
        assert rep.converged

    def test_report_fields(self):
        rep = sp(41, 1e-8)
        assert rep.conductor == 64 * 41 * 41
        assert rep.family == "Ep"
        assert rep.tol == 1e-8
        rec = rep.as_record()
        assert rec["p"] == 41 and rec["s_rounded"] == rep.s_rounded

    def test_ap_family(self):
        rep = sp(19, 1e-8, family="Ap")
        assert rep.conductor == 27 * 19 * 19
        assert rep.s_rounded == 0  # 19 = 3^3 + (-2)^3 gives rank >= 1
        assert rep.converged

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            sp(7, 1e-8)
        with pytest.raises(ValueError):
            sp(17, 1e-8, family="Ap")

    @pytest.mark.parametrize("tol", [5.0, 0.05])
    def test_rejects_tol_that_makes_converged_vacuous(self, tol):
        # residual <= 1/2 always, so residual < 10 * tol would hold for any real S_p
        with pytest.raises(ValueError, match="too large"):
            sp(73, tol)
        assert sp(73, 0.049).converged

    def test_speed(self):
        t0 = time.perf_counter()
        assert sp(857, 1e-8).converged
        assert time.perf_counter() - t0 < 1.0


def _smallest_root(p: int, *residues: int) -> int:
    """The smallest m >= 0 with m^2 = one of the residues mod p."""
    return next(m for m in range(p) if any((m * m - r) % p == 0 for r in residues))


class TestConcordance:
    def test_every_admissible_p_up_to_1000(self):
        # S_p is zero exactly where the criterion says divisible, and for E_p
        # S_p = +-sp_congruence_rhs(p) mod p.  The residue also gives S_p itself:
        # for E_p S_p = 4m^2, and for A_p S_p = -2 * 3^(N-1) * (N!)^2 * x_N(0)^2 mod p
        # and S_p = 18m^2, with m a smallest square root as below.  These three were
        # found by search over p <= 10^4 and are observations, not theorems.
        t0 = time.time()
        ep = [p for p in primes_leq(1000) if p % 16 in (1, 9)]
        ap_primes = [p for p in primes_leq(1000) if p % 9 == 1]
        assert (len(ep), len(ap_primes)) == (37, 27)
        for p in ep:
            rep = sp(p, 1e-8)
            assert rep.converged, p
            assert (rep.s_rounded == 0) == verdict_Ep(p).divisible, p
            rhs = sp_congruence_rhs(p)
            assert rep.s_rounded % p in (rhs, -rhs % p), (p, rep.s_rounded, rhs)
            quarter = rhs * pow(4, -1, p)
            assert rep.s_rounded == 4 * _smallest_root(p, quarter, -quarter) ** 2, (p, rep.s_rounded)
        nonzero = 0
        for p in ap_primes:
            rep = sp(p, 1e-8, family="Ap")
            assert rep.converged, p
            va, vx = verdict_Ap(p)
            assert (rep.s_rounded == 0) == va.divisible, p
            N = (p - 1) // 3
            rhs = -2 * pow(3, N - 1, p) * math.factorial(N) ** 2 * vx.residue ** 2 % p
            assert rep.s_rounded % p == rhs, (p, rep.s_rounded, rhs)
            assert rep.s_rounded == 18 * _smallest_root(p, rhs * pow(18, -1, p)) ** 2, (p, rep.s_rounded)
            nonzero += rep.s_rounded != 0
        assert nonzero == 13
        assert time.time() - t0 < 60.0, "concordance exceeded its 60 s budget"


class TestPeriods:
    def test_omega_e_value(self):
        assert abs(OMEGA_E - 3.7081493546) < 1e-9

    def test_omega_a_value(self):
        assert abs(OMEGA_A - 1.7666387503) < 1e-9
