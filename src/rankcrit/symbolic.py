"""Bivariate polynomials in the theta constants th2, th4 with their weight-raising derivation.

The derivation sends th2 to th2*th4^4/12 + th2^5/24 and th4 to
-(th2^4*th4/12 + th4^5/24).  Iterating it through a two-term recurrence and
normalizing by th2-powers re-derives the univariate f-family from an
independent route, which the tests compare against ``recurrences.generate``.

The recurrence is walked at scale 24^n, on ``G_n = 24^n F_n``: there the
derivation is the integer-weight monomial rule ``_rule`` (24 times
``rs_derivation``) and every coefficient is an int.  ``G_n`` lives on the
monomials th2^(4(n-j)+1) th4^(4j), so ``vz_sequence`` walks it as a list of
ints indexed by j (three taps a step) and builds no Fraction until it
returns its rows.  ``ThetaPolynomial`` keeps ``+``, ``*`` and exact rational
coefficients for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .polyring import trim
from .recurrences import F_E, generate_all


class StructureError(ValueError):
    """A monomial fell outside the exponent lattice expected by the normalizer."""


@dataclass(frozen=True)
class ThetaPolynomial:
    """Map (i, j) -> exact rational c_ij for sum c_ij * th2^i * th4^j, zero entries dropped."""

    terms: tuple[tuple[tuple[int, int], Fraction | int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], Fraction | int]) -> "ThetaPolynomial":
        return ThetaPolynomial(tuple(sorted((ij, c) for ij, c in d.items() if c != 0)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Common i+j of a homogeneous element (weight = degree/2), None for 0."""
        degs = {i + j for (i, j), _ in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise StructureError("element is not homogeneous")
        return degs.pop()

    def __add__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        out = dict(self.terms)
        for ij, c in other.terms:
            out[ij] = out.get(ij, 0) + c
        return ThetaPolynomial.from_dict(out)

    def __mul__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        out: dict[tuple[int, int], Fraction | int] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return ThetaPolynomial.from_dict(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms, key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
            mono = "*".join(
                part
                for part in (
                    f"th2^{i}" if i > 1 else ("th2" if i == 1 else ""),
                    f"th4^{j}" if j > 1 else ("th4" if j == 1 else ""),
                )
                if part
            )
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)


TH2 = ThetaPolynomial.from_dict({(1, 0): 1})
TH4 = ThetaPolynomial.from_dict({(0, 1): 1})

# E4 = th2^8 + th2^4*th4^4 + th4^8
E4 = ThetaPolynomial.from_dict({(8, 0): 1, (4, 4): 1, (0, 8): 1})


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


def vz_sequence(N: int) -> list[ThetaPolynomial]:
    """F_0 ... F_N with F_0 = th2, F_{n+1} = rs(F_n) - n(2n-1)/288 * E4 * F_{n-1}.

    F_n is homogeneous of theta-degree 4n+1 (weight 1/2 + 2n), and its
    monomials are th2^(4(n-j)+1) th4^(4j) for j = 0..n.  The walk runs on the
    integer rows G_n[j] = 24^n [th2^(4(n-j)+1) th4^(4j)] F_n, where ``_rule``
    and the E4 term become three taps:
    G_{n+1}[j] = (8n-12j+14) G_n[j-1] + (4n-12j+1) G_n[j]
                 - 2n(2n-1) (G_{n-1}[j] + G_{n-1}[j-1] + G_{n-1}[j-2]).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    out = [TH2]
    prev, cur = [], [1]  # G_{-1} (never read: its tap has factor 0), G_0
    for n in range(N):
        s = 2 * n * (2 * n - 1)
        nxt = []
        for j in range(n + 2):
            g = (4 * n - 12 * j + 1) * cur[j] if j <= n else 0
            if j:
                g += (8 * n - 12 * j + 14) * cur[j - 1]
            if s:
                g -= s * sum(prev[max(j - 2, 0):j + 1])
            nxt.append(g)
        prev, cur = cur, nxt
        scale = 24 ** (n + 1)
        out.append(ThetaPolynomial(tuple(((4 * (n + 1 - j) + 1, 4 * j), Fraction(c, scale))
                                         for j, c in zip(range(n + 1, -1, -1), reversed(cur)) if c)))
    return out


def normalize_to_t(F_n: ThetaPolynomial, n: int) -> tuple:
    """Collapse F_n = sum c_j * th2^(4(n-j)+1) * th4^(4j) to 24^n * sum c_j (1+t)^j.

    The substitution is th4^4 = (1+t) * th2^4 followed by division by
    th2^(4n+1); the result must have integer coefficients.  The shift by
    (1+t) is unimodular, so the 24^n c_j are checked for integrality before
    it and the shift runs on ints.
    """
    scale = 24 ** n
    cs = [0] * (n + 1)
    for (i, j), c in F_n.terms:
        if j % 4 != 0:
            raise StructureError(f"exponent pair {(i, j)} has th4-exponent not divisible by 4")
        jj = j // 4
        if not (0 <= jj <= n) or i != 4 * (n - jj) + 1:
            raise StructureError(f"exponent pair {(i, j)} outside the expected lattice for n={n}")
        v, r = divmod(c.numerator * scale, c.denominator)
        if r:
            raise StructureError(f"non-integer coefficient {c * scale} after normalization")
        cs[jj] = v

    # Horner in (1+t): acc <- acc * (1+t) + 24^n c_j for j = n, ..., 0, one C-level
    # pass per row (the degree stays <= n, so the t^(n+1) term is always 0)
    acc = [0] * (n + 1)
    for c in reversed(cs):
        acc = [acc[0] + c, *map(add, acc[1:], acc)]
    return trim(acc)


def cross_check(max_n: int) -> list[tuple[int, bool]]:
    """Per-n agreement of the theta-ring route against the univariate recurrence."""
    rhs = generate_all(F_E, max_n)
    return [(n, normalize_to_t(F, n) == rhs[n]) for n, F in enumerate(vz_sequence(max_n))]
