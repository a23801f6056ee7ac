"""Tests of the polynomial helpers in tests/_util.py, the references of the polyring tests."""

import random
from fractions import Fraction

from rankcrit.polyring import constant_term
from rankcrit.recurrences import Z_A, generate
from ._util import ONE, add, derivative, dot, mul, rand_poly, reduce


class TestAdd:
    def test_identity(self):
        assert add((3, 2), ()) == (3, 2)

    def test_inverse(self):
        assert add((3, 2), (-3, -2)) == ()

    def test_table_row(self):
        # (-6t^2 - 18t - 9) + 6t^2 = -18t - 9
        assert add((-9, -18, -6), (0, 0, 6)) == (-9, -18)


class TestMul:
    def test_monic_quadratic(self):
        assert mul((1, 1), (2, 1)) == (2, 3, 1)

    def test_identity(self):
        assert mul((3, 2), ONE) == (3, 2)

    def test_square(self):
        assert mul((3, 2), (3, 2)) == (9, 12, 4)

    def test_degree_adds(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b = rand_poly(rng), rand_poly(rng)
            if not a or not b:
                assert mul(a, b) == ()
            else:
                assert len(mul(a, b)) - 1 == (len(a) - 1) + (len(b) - 1)


class TestDerivative:
    def test_linear(self):
        assert derivative((3, 2)) == (2,)

    def test_quadratic(self):
        assert derivative((0, 0, -3)) == (0, -6)

    def test_constant(self):
        assert derivative(ONE) == ()

    def test_degree_drop(self):
        rng = random.Random(2)
        for _ in range(50):
            a = rand_poly(rng)
            if len(a) >= 2:
                assert len(derivative(a)) == len(a) - 1


class TestRingAxioms:
    """Randomized associativity / commutativity / distributivity / Leibniz."""

    def test_axioms(self):
        rng = random.Random(12345)
        for _ in range(800):
            p = rng.choice([None, None, 5, 97])
            a, b, c = (rand_poly(rng, p) for _ in range(3))
            assert add(add(a, b, p), c, p) == add(a, add(b, c, p), p)
            assert add(a, b, p) == add(b, a, p)
            assert mul(a, b, p) == mul(b, a, p)
            assert mul(mul(a, b, p), c, p) == mul(a, mul(b, c, p), p)
            assert mul(a, add(b, c, p), p) == add(mul(a, b, p), mul(a, c, p), p)

    def test_leibniz(self):
        rng = random.Random(999)
        for _ in range(500):
            p = rng.choice([None, None, 5, 97])
            a, b = rand_poly(rng, p), rand_poly(rng, p)
            lhs = derivative(mul(a, b, p))
            rhs = reduce(dot(((derivative(a), b), (a, derivative(b)))), p)
            assert reduce(lhs, p) == rhs

    def test_reduction_homomorphism(self):
        rng = random.Random(77)
        for p in (3, 5, 17, 97):
            for _ in range(150):
                a, b, c = (rand_poly(rng) for _ in range(3))
                lhs = reduce(add(mul(a, b), c), p)
                rhs = add(mul(reduce(a, p), reduce(b, p), p), reduce(c, p), p)
                assert lhs == rhs

    def test_eval_commutes_with_reduction_at_zero(self):
        rng = random.Random(31)
        for p in (3, 5, 17, 97):
            for _ in range(100):
                a = rand_poly(rng)
                assert constant_term(reduce(a, p)) == constant_term(a) % p


class TestReduceMod:
    def test_coefficientwise(self):
        assert reduce((-9, -18, -6), 5) == (1, 2, 4)

    def test_large_constant(self):
        assert reduce((80919,), 17) == (16,)

    def test_zero(self):
        assert reduce((), 7) == ()
        assert reduce((7, 14), 7) == ()


class TestRationals:
    def test_half(self):
        half = generate(Z_A, 0)
        assert half == (Fraction(1, 2),)
        assert add(half, half) == (1,)
