"""Tests of the polynomial helpers in tests/_util.py, the references of the polyring tests."""

import random

from ._util import ONE, add, derivative, mul, rand_poly


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
