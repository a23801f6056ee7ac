"""Reference code that only the tests call: the independent forms the package is checked against.

* ``laguerre_sum``, ``hermite`` and ``lattice_theta_identity_gap``: Laguerre and
  Hermite by their defining sum and recurrence, and the lattice-sum / theta-product
  identity, the references of ``maass.laguerre`` and ``maass.ms_derivative``;
  ``E2`` and ``e2star``, one more series for ``ms_derivative`` and its value at the
  CM points.
* ``rs_derivation`` and the ring operations ``theta_add``, ``theta_mul``,
  ``is_zero`` and ``total_degree`` on ``symbolic.ThetaPolynomial``, with ``E4`` and
  ``TH4``: the theta-ring derivation as written, the reference for the three taps of
  ``symbolic.vz_sequence``.
* ``step``: one step of a recurrence family on dense polynomials, over Z or mod p,
  by the exact tap kernel of ``recurrences`` at stride 1.

None of it is reached by a subcommand, so it lives here and not in ``src/rankcrit``
(``test_reachable`` checks that).
"""

import math
from fractions import Fraction

import mpmath

from rankcrit.maass import _GUARD, _as_point, laguerre, ms_derivative
from rankcrit.polyring import trim
from rankcrit.recurrences import RecurrenceFamily, _check_fits, _tap_plan, _tap_step, _taps_at
from rankcrit.symbolic import StructureError, ThetaPolynomial

# ---------------------------------------------------------------------------
# maass
# ---------------------------------------------------------------------------


def mpf_frac(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def laguerre_sum(h: int, alpha, x) -> mpmath.mpf:
    """Defining sum of L_h^alpha(x); independent oracle for the recurrence.

    The alternating sum cancels up to ~h*log2(x) bits, so it is evaluated
    with that many guard bits to stay trustworthy at the caller's precision.
    """
    alpha = Fraction(alpha)
    guard = int(h * (math.log2(max(float(x), 2.0)) + 2.0)) + 60
    with mpmath.workprec(mpmath.mp.prec + guard):
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        fact = 1
        for j in range(h + 1):
            if j > 0:
                fact *= j
            binom = Fraction(1)
            for i in range(1, h - j + 1):
                binom *= (alpha + j + i) / i
            total += mpf_frac(binom) * (-x) ** j / fact
    return +total


def hermite(n: int, x) -> mpmath.mpf:
    """Physicists' Hermite polynomial H_n(x) via H_{m+1} = 2x H_m - 2m H_{m-1}."""
    if n < 0:
        raise ValueError(f"Hermite order must be >= 0, got {n}")
    x = mpmath.mpf(x)
    if n == 0:
        return mpmath.mpf(1)
    prev, cur = mpmath.mpf(1), 2 * x
    for m in range(1, n):
        prev, cur = cur, 2 * x * cur - 2 * m * prev
    return cur


def lattice_theta_identity_gap(order: int, precision: int = 128, cutoff: int = 40) -> float:
    """Relative gap in the lattice-sum / theta-product identity at z = i.

    Compares, for even derivative order, the two-dimensional Laguerre-weighted
    lattice sum with sqrt(2) * |theta_(order)[1/2; 0](i)|^2; returns
    |lhs - rhs| / |rhs|.
    """
    if order % 2 != 0:
        raise ValueError("only even orders are exercised here")
    with mpmath.workprec(precision + _GUARD):
        pi = mpmath.pi
        lhs = mpmath.mpf(0)
        for n in range(-cutoff, cutoff + 1):
            for m in range(-cutoff, cutoff + 1):
                q2 = n * n + m * m
                sign = (-1) ** (n + n * m)
                lhs += sign * laguerre(order, 0, pi * q2) * mpmath.exp(-pi * mpmath.mpf(q2) / 2)
        lhs *= mpmath.mpf(-1) ** order * mpmath.factorial(order) / pi ** order
        # theta_(order)[1/2; 0](i) as a Hermite-weighted half-integer theta sum
        s = mpmath.mpf(0)
        root = mpmath.sqrt(2 * pi)
        for j in range(0, cutoff):
            x = mpmath.mpf(2 * j + 1) / 2
            s += 2 * hermite(order, x * root) * mpmath.exp(-pi * x * x)
        theta_p = (2 * pi) ** (-mpmath.mpf(order) / 2) * s  # i^{-order} dropped: modulus only
        rhs = mpmath.mpf(-1) ** order * mpmath.sqrt(mpmath.mpf(2)) * theta_p ** 2
        return float(abs(lhs - rhs) / abs(rhs))


def _sigma1(n: int) -> int:
    s = 0
    for d in range(1, n + 1):
        if n % d == 0:
            s += d
    return s


def E2():
    yield Fraction(0), 1
    n = 1
    while True:
        yield Fraction(n), -24 * _sigma1(n)
        n += 1


def e2star(z, precision: int = 256) -> mpmath.mpc:
    """E_2(z) - 3/(pi y); vanishes at the CM points i and omega."""
    with mpmath.workprec(precision + _GUARD):
        zz = _as_point(z)
        value = ms_derivative(E2, 2, 0, zz, precision)  # order 0: plain evaluation
        return value - 3 / (mpmath.pi * zz.imag)


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

TH4 = ThetaPolynomial.from_dict({(0, 1): 1})

# E4 = th2^8 + th2^4*th4^4 + th4^8
E4 = ThetaPolynomial.from_dict({(8, 0): 1, (4, 4): 1, (0, 8): 1})


def is_zero(a: ThetaPolynomial) -> bool:
    return not a.terms


def total_degree(a: ThetaPolynomial) -> int | None:
    """Common i+j of a homogeneous element (weight = degree/2), None for 0."""
    degs = {i + j for (i, j), _ in a.terms}
    if not degs:
        return None
    if len(degs) > 1:
        raise StructureError("element is not homogeneous")
    return degs.pop()


def theta_add(a: ThetaPolynomial, b: ThetaPolynomial) -> ThetaPolynomial:
    out = dict(a.terms)
    for ij, c in b.terms:
        out[ij] = out.get(ij, 0) + c
    return ThetaPolynomial.from_dict(out)


def theta_mul(a: ThetaPolynomial, b: ThetaPolynomial) -> ThetaPolynomial:
    out: dict[tuple[int, int], Fraction | int] = {}
    for (i1, j1), c1 in a.terms:
        for (i2, j2), c2 in b.terms:
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return ThetaPolynomial.from_dict(out)


def _rule(terms) -> dict[tuple[int, int], Fraction | int]:
    """24 times the derivation, monomial by monomial:
    th2^i th4^j -> (2i - j) th2^i th4^(j+4) + (i - 2j) th2^(i+4) th4^j.
    """
    out: dict[tuple[int, int], Fraction | int] = {}
    for (i, j), c in terms:
        for key, w in (((i, j + 4), 2 * i - j), ((i + 4, j), i - 2 * j)):
            out[key] = out.get(key, 0) + w * c
    return out


def rs_derivation(a: ThetaPolynomial) -> ThetaPolynomial:
    """Weight-raising derivation D2 * d/dth2 + D4 * d/dth4 (raises i+j by 4).

    With D2 = th2*th4^4/12 + th2^5/24 and D4 = -(th2^4*th4/12 + th4^5/24) it
    sends one monomial to two:
    th2^i th4^j -> ((2i - j) th2^i th4^(j+4) + (i - 2j) th2^(i+4) th4^j) / 24.
    """
    return ThetaPolynomial.from_dict({ij: Fraction(c, 24) for ij, c in _rule(a.terms).items()})


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------


def step(family: RecurrenceFamily, n: int, prev: tuple, cur: tuple, p: int | None = None) -> tuple:
    """F_{n+1} from (F_{n-1}, F_n), reduced mod p if p is given; requires n >= 1.

    The polynomials are dense, and this is the exact tap kernel at stride 1;
    mod p it steps the residues of F_{n-1} and F_n and reduces the result."""
    if n < 1:
        raise ValueError("step index n must be >= 1")
    if p is not None:
        _check_fits(p)
        prev, cur = (tuple(c % p for c in poly) for poly in (prev, cur))
    out = _tap_step(prev, cur, *_taps_at(_tap_plan(family, 1, 0), n))
    return out if p is None else trim(c % p for c in out)
