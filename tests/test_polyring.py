import sys
from fractions import Fraction

import pytest

from rankcrit.polyring import constant_term, render
from rankcrit.recurrences import A_VZ, F_E, Z_A, constant_term_mod, generate


class TestEval:
    def test_constant_term_row2(self):
        assert constant_term(generate(F_E, 2)) == -9

    def test_zero_constant(self):
        # a_2 = 9t^4 + 2t
        assert generate(A_VZ, 2) == (0, 2, 0, 0, 9)
        assert constant_term(generate(A_VZ, 2)) == 0
        assert constant_term(()) == 0
        assert constant_term_mod(A_VZ, 2, 5) == 0


class TestReduceMod:
    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            generate(F_E, 1, 2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            generate(F_E, 1, 9)


class TestRationals:
    def test_residue_half(self):
        (half,) = generate(Z_A, 0, 19)
        assert 2 * half % 19 == 1


class TestRender:
    def test_row2(self):
        assert render((-9, -18, -6)) == "-6*t^2 - 18*t - 9"

    def test_zero(self):
        assert render(()) == "0"

    def test_unit_coefficients(self):
        assert render((0, -1, 1)) == "t^2 - t"

    def test_fraction(self):
        assert render((Fraction(1, 2),)) == "1/2"

    def test_coefficients_past_the_str_digit_limit(self):
        # CPython refuses int -> str past 4300 digits by default; render prints them in full
        big = 10 ** 5000
        limit = sys.get_int_max_str_digits()
        assert render((big,)) == "1" + "0" * 5000
        assert render((-3, -big)) == "-1" + "0" * 5000 + "*t - 3"
        assert render((Fraction(big, 7),)) == "1" + "0" * 5000 + "/7"
        assert sys.get_int_max_str_digits() == limit

