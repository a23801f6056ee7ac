import random
import time
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
    rs_derivation,
    vz_sequence,
)


def fraction_walk(N):
    """F_0 ... F_N on exact rationals: F_{n+1} = rs(F_n) - n(2n-1)/288 * E4 * F_{n-1}.

    The reference for ``vz_sequence``, which walks the same recurrence on the
    integer rows 24^n F_n.
    """
    seq = [TH2]
    if N == 0:
        return seq
    seq.append(rs_derivation(TH2))
    for n in range(1, N):
        s = Fraction(-n * (2 * n - 1), 288)
        scaled_e4 = ThetaPolynomial.from_dict({ij: s * c for ij, c in E4.terms})
        seq.append(rs_derivation(seq[n]) + scaled_e4 * seq[n - 1])
    return seq


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

    def test_equals_fraction_walk(self):
        got, want = vz_sequence(40), fraction_walk(40)
        assert len(got) == len(want) == 41
        for n, (F, R) in enumerate(zip(got, want)):
            assert F == R, n
            assert str(F) == str(R), n
            assert [type(c) for _, c in F.terms] == [type(c) for _, c in R.terms], n

    def test_negative_n_refused(self):
        with pytest.raises(ValueError):
            vz_sequence(-1)

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

    def test_non_integer_refused(self):
        bad = ThetaPolynomial.from_dict({(5, 0): Fraction(1, 48)})
        with pytest.raises(StructureError, match="non-integer coefficient 1/2 after normalization"):
            normalize_to_t(bad, 1)


class TestEndToEnd:
    def test_matches_recurrence_to_12(self):
        assert all(ok for _, ok in cross_check(12))

    def test_matches_recurrence_to_100(self):
        t0 = time.perf_counter()
        rows = cross_check(100)
        elapsed = time.perf_counter() - t0
        assert rows == [(n, True) for n in range(101)]
        assert elapsed < 1.0, f"cross_check(100) took {elapsed:.2f} s"

    def test_rederive_single(self):
        assert normalize_to_t(vz_sequence(7)[7], 7) == generate(F_E, 7)

    def test_e4_is_homogeneous_weight_4(self):
        assert E4.total_degree() == 8
