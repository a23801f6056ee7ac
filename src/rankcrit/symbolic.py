"""Bivariate polynomials in the theta constants th2, th4 with their weight-raising derivation.

The derivation sends th2 to th2*th4^4/12 + th2^5/24 and th4 to
-(th2^4*th4/12 + th4^5/24).  Iterating it through a two-term recurrence and
normalizing by th2-powers re-derives the univariate f-family from an
independent route, which the tests compare against ``recurrences.generate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyring import trim
from .recurrences import F_E


class StructureError(ValueError):
    """A monomial fell outside the exponent lattice expected by the normalizer."""


@dataclass(frozen=True)
class ThetaPolynomial:
    """Map (i, j) -> coefficient for sum c_ij * th2^i * th4^j, zero entries dropped."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], Fraction | int]) -> "ThetaPolynomial":
        items = tuple(
            sorted(((ij, Fraction(c)) for ij, c in d.items() if c != 0))
        )
        return ThetaPolynomial(items)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {i + j for (i, j), _ in self.terms}
        return len(degs) <= 1

    def total_degree(self) -> int | None:
        """Common i+j of a homogeneous element (weight = degree/2), None for 0."""
        degs = {i + j for (i, j), _ in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise StructureError("element is not homogeneous")
        return degs.pop()

    def __add__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        out = self.as_dict()
        for ij, c in other.terms:
            out[ij] = out.get(ij, Fraction(0)) + c
        return ThetaPolynomial.from_dict(out)

    def __neg__(self) -> "ThetaPolynomial":
        return ThetaPolynomial(tuple((ij, -c) for ij, c in self.terms))

    def __sub__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        return self + (-other)

    def __mul__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return ThetaPolynomial.from_dict(out)

    def scale(self, c) -> "ThetaPolynomial":
        c = Fraction(c)
        return ThetaPolynomial.from_dict({ij: c * v for ij, v in self.terms})

    def partial_th2(self) -> "ThetaPolynomial":
        return ThetaPolynomial.from_dict(
            {(i - 1, j): c * i for (i, j), c in self.terms if i > 0}
        )

    def partial_th4(self) -> "ThetaPolynomial":
        return ThetaPolynomial.from_dict(
            {(i, j - 1): c * j for (i, j), c in self.terms if j > 0}
        )

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
ONE = ThetaPolynomial.from_dict({(0, 0): 1})

# E4 = th2^8 + th2^4*th4^4 + th4^8
E4 = ThetaPolynomial.from_dict({(8, 0): 1, (4, 4): 1, (0, 8): 1})

_D2 = ThetaPolynomial.from_dict({(1, 4): Fraction(1, 12), (5, 0): Fraction(1, 24)})
_D4 = ThetaPolynomial.from_dict({(4, 1): Fraction(-1, 12), (0, 5): Fraction(-1, 24)})


def rs_derivation(a: ThetaPolynomial) -> ThetaPolynomial:
    """Weight-raising derivation: D2 * d/dth2 + D4 * d/dth4 (raises i+j by 4)."""
    return _D2 * a.partial_th2() + _D4 * a.partial_th4()


def vz_sequence(N: int) -> list[ThetaPolynomial]:
    """F_0 ... F_N with F_0 = th2, F_{n+1} = rs(F_n) - n(2n-1)/288 * E4 * F_{n-1}.

    F_n is homogeneous of theta-degree 4n+1 (weight 1/2 + 2n).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    seq = [TH2]
    if N == 0:
        return seq
    seq.append(rs_derivation(TH2))
    for n in range(1, N):
        scalar = Fraction(n * (2 * n - 1), 288)
        nxt = rs_derivation(seq[n]) - (E4 * seq[n - 1]).scale(scalar)
        seq.append(nxt)
    return seq


def normalize_to_t(F_n: ThetaPolynomial, n: int) -> tuple:
    """Collapse F_n = sum c_j * th2^(4(n-j)+1) * th4^(4j) to 24^n * sum c_j (1+t)^j.

    The substitution is th4^4 = (1+t) * th2^4 followed by division by
    th2^(4n+1); the result must have integer coefficients.
    """
    cs = [Fraction(0)] * (n + 1)
    for (i, j), c in F_n.terms:
        if j % 4 != 0:
            raise StructureError(f"exponent pair {(i, j)} has th4-exponent not divisible by 4")
        jj = j // 4
        if not (0 <= jj <= n) or i != 4 * (n - jj) + 1:
            raise StructureError(f"exponent pair {(i, j)} outside the expected lattice for n={n}")
        cs[jj] += c

    # 24^n * sum_j c_j (1+t)^j via repeated multiplication by (1+t)
    acc = [Fraction(0)] * (n + 1)
    for j in range(n, -1, -1):
        # acc <- acc * (1+t) + c_j
        nxt = [Fraction(0)] * (n + 1)
        for k, v in enumerate(acc):
            if v:
                nxt[k] += v
                if k + 1 <= n:
                    nxt[k + 1] += v
        nxt[0] += cs[j]
        acc = nxt
    scale = Fraction(24) ** n
    out = []
    for v in acc:
        v = v * scale
        if v.denominator != 1:
            raise StructureError(f"non-integer coefficient {v} after normalization")
        out.append(int(v))
    return trim(out)


def rederive_f(n: int) -> tuple:
    """f_n by the theta-ring route; equals generate(F_E, n) when all is well."""
    return normalize_to_t(vz_sequence(n)[n], n)


def cross_check(max_n: int) -> list[tuple[int, bool]]:
    """Per-n agreement of the theta-ring route against the univariate recurrence."""
    from .recurrences import generate

    seq = vz_sequence(max_n)
    out = []
    for n in range(max_n + 1):
        lhs = normalize_to_t(seq[n], n)
        rhs = generate(F_E, n)
        out.append((n, lhs == rhs))
    return out
