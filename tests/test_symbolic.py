import random
from fractions import Fraction

import pytest

from rankcrit.recurrences import F_E, generate
from rankcrit.symbolic import (
    E4,
    TH2,
    TH4,
    StructureError,
    ThetaPolynomial,
    cross_check,
    normalize_to_t,
    rederive_f,
    rs_derivation,
    vz_sequence,
)


def rand_homogeneous(rng, degree, nterms=3):
    d = {}
    for _ in range(nterms):
        i = rng.randint(0, degree)
        d[(i, degree - i)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ThetaPolynomial.from_dict(d)


class TestDerivation:
    def test_on_th2(self):
        assert rs_derivation(TH2) == ThetaPolynomial.from_dict(
            {(1, 4): Fraction(1, 12), (5, 0): Fraction(1, 24)}
        )

    def test_on_th4(self):
        assert rs_derivation(TH4) == ThetaPolynomial.from_dict(
            {(4, 1): Fraction(-1, 12), (0, 5): Fraction(-1, 24)}
        )

    def test_kills_constants(self):
        one = ThetaPolynomial.from_dict({(0, 0): 1})
        assert rs_derivation(one).is_zero

    def test_leibniz(self):
        rng = random.Random(5)
        for _ in range(60):
            a = rand_homogeneous(rng, rng.randint(1, 6))
            b = rand_homogeneous(rng, rng.randint(1, 6))
            lhs = rs_derivation(a * b)
            rhs = rs_derivation(a) * b + a * rs_derivation(b)
            assert lhs == rhs

    def test_raises_degree_by_four(self):
        rng = random.Random(6)
        for _ in range(20):
            a = rand_homogeneous(rng, rng.randint(1, 6))
            out = rs_derivation(a)
            if not out.is_zero:
                assert out.total_degree() == a.total_degree() + 4


class TestSequence:
    def test_seed(self):
        assert vz_sequence(0) == [TH2]

    def test_first_step(self):
        assert vz_sequence(1)[1] == rs_derivation(TH2)

    def test_homogeneous_degrees(self):
        seq = vz_sequence(8)
        for n, F in enumerate(seq):
            assert F.total_degree() == 4 * n + 1

    def test_f2_monomial_lattice(self):
        F2 = vz_sequence(2)[2]
        for (i, j), _ in F2.terms:
            assert j % 4 == 0
            assert i == 4 * (2 - j // 4) + 1


class TestNormalize:
    def test_n0(self):
        assert normalize_to_t(TH2, 0) == (1,)

    def test_n1(self):
        F1 = vz_sequence(1)[1]
        assert normalize_to_t(F1, 1) == (3, 2)

    def test_n2(self):
        F2 = vz_sequence(2)[2]
        assert normalize_to_t(F2, 2) == (-9, -18, -6)

    def test_structural_guard(self):
        bad = ThetaPolynomial.from_dict({(2, 3): 1})
        with pytest.raises(StructureError):
            normalize_to_t(bad, 1)


class TestEndToEnd:
    def test_matches_recurrence_to_12(self):
        assert all(ok for _, ok in cross_check(12))

    def test_rederive_single(self):
        assert rederive_f(7) == generate(F_E, 7)

    def test_e4_is_homogeneous_weight_4(self):
        assert E4.total_degree() == 8
