"""The theta-ring derivation applied by its monomial rule equals its definition.

``rs_derivation`` sends th2^i th4^j straight to its two image monomials; here
the image is rebuilt from the definition D2 * d/dth2 + D4 * d/dth4 with the
ring's own ``*`` and ``+``.
"""

from fractions import Fraction

from rankcrit.symbolic import ThetaPolynomial, rs_derivation

D2 = ThetaPolynomial.from_dict({(1, 4): Fraction(1, 12), (5, 0): Fraction(1, 24)})
D4 = ThetaPolynomial.from_dict({(4, 1): Fraction(-1, 12), (0, 5): Fraction(-1, 24)})


def test_monomial_rule_matches_definition():
    for i in range(9):
        for j in range(9):
            d_th2 = ThetaPolynomial.from_dict({(i - 1, j): i} if i else {})
            d_th4 = ThetaPolynomial.from_dict({(i, j - 1): j} if j else {})
            expected = D2 * d_th2 + D4 * d_th4
            assert rs_derivation(ThetaPolynomial.from_dict({(i, j): 1})) == expected, (i, j)
