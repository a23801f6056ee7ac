from fractions import Fraction

import pytest

from rankcrit.polyring import constant_term, trim
from rankcrit.recurrences import (
    A_VZ,
    F_E,
    FAMILIES,
    X_A,
    Y_A,
    Z_A,
    constant_term_mod,
    generate,
    generate_all,
    iter_family,
    step,
)
from ._util import primes_leq
from .golden import A_TABLE, F_TABLE_FULL, F_TABLE_VISIBLE, X_TABLE, poly_to_map


def _residues(poly, p):
    """Coefficientwise image of an integer or rational polynomial in Z/p."""
    return trim(Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p for c in poly)


class TestStep:
    def test_f_step(self):
        assert step(F_E, 1, (1,), (3, 2)) == (-9, -18, -6)

    def test_a_step(self):
        assert step(A_VZ, 1, (1,), (0, 0, -3)) == (0, 2, 0, 0, 9)

    def test_x_step_n1(self):
        assert step(X_A, 1, (1,), ()) == (0, -1)

    def test_x_step_n2(self):
        assert step(X_A, 2, (), (0, -1)) == (2,)

    def test_y_step(self):
        assert step(Y_A, 1, (1,), ()) == (0, -3)

    def test_z_step(self):
        # the step is linear, so it maps z over Q as well as the stored w = 2z
        assert step(Z_A, 1, (Fraction(1, 2),), (1,)) == (0, 3)
        assert step(Z_A, 1, (1,), (2,)) == (0, 6)

    def test_step_mod_p(self):
        assert step(F_E, 1, (1,), (3, 2), 5) == (1, 2, 4)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            step(F_E, 0, (1,), (3, 2))


class TestGoldenTables:
    def test_a_family_rows(self):
        polys = generate_all(A_VZ, 9)
        for n, want in A_TABLE.items():
            assert poly_to_map(polys[n]) == want, f"a_{n} mismatch"

    def test_x_family_rows(self):
        polys = generate_all(X_A, 9)
        for n, want in X_TABLE.items():
            assert poly_to_map(polys[n]) == want, f"x_{n} mismatch"

    def test_f_family_full_rows(self):
        polys = generate_all(F_E, 9)
        for n, want in F_TABLE_FULL.items():
            assert poly_to_map(polys[n]) == want, f"f_{n} mismatch"

    def test_f_family_visible_coefficients(self):
        polys = generate_all(F_E, 9)
        for n, want in F_TABLE_VISIBLE.items():
            got = poly_to_map(polys[n])
            for deg, coeff in want.items():
                assert got.get(deg) == coeff, f"f_{n} coefficient at degree {deg}"

    def test_seeds(self):
        assert generate(F_E, 0) == (1,)
        assert generate(F_E, 1) == (3, 2)
        assert generate(Z_A, 0) == (Fraction(1, 2),)
        assert generate(Z_A, 1) == (1,)

    def test_f9_exact_ends(self):
        f9 = generate(F_E, 9)
        assert f9[9] == -32283360
        assert f9[0] == 1702205523
        assert f9[1] == 4373050842

    def test_a9_constant(self):
        assert generate(A_VZ, 9)[0] == -6848

    def test_x9(self):
        assert poly_to_map(generate(X_A, 9)) == {3: 228168, 0: 6848}


class TestDegrees:
    def test_f_degree_is_n(self):
        for n, poly in enumerate(generate_all(F_E, 9)):
            assert len(poly) - 1 == n

    def test_a_degree_is_2n(self):
        for n, poly in enumerate(generate_all(A_VZ, 9)):
            assert len(poly) - 1 == (2 * n if n >= 1 else 0)

    def test_x_degrees_match_table(self):
        degs = [len(poly) - 1 for poly in generate_all(X_A, 9)]
        assert degs == [0, -1, 1, 0, 2, 1, 3, 2, 4, 3]  # x_1 = 0 has no coefficients


class TestModP:
    def test_f6_mod_17(self):
        assert constant_term_mod(F_E, 6, 17) == 16  # 80919 = 17*4760 - 1

    def test_a6_mod_19(self):
        assert constant_term_mod(A_VZ, 6, 19) == 0  # a_6(0) = -152 = -8*19

    def test_x6_mod_19(self):
        assert constant_term_mod(X_A, 6, 19) == 0

    def test_matches_exact_generation(self):
        for key, family in FAMILIES.items():
            exact = generate_all(family, 40)
            for p in (3, 5, 17, 19, 73, 97):
                mod = generate_all(family, 40, p)
                for N in range(41):
                    want = _residues(exact[N], p)
                    assert mod[N] == want, (key, N, p)
                    if N % 8 == 0:  # spot-check the one-shot entry points too
                        assert generate(family, N, p) == want
                        assert constant_term_mod(family, N, p) == constant_term(want)

    def test_z_runs_over_odd_residues(self):
        assert generate(Z_A, 0, 5) == (3,)  # 1/2 = (5+1)/2 mod 5

    def test_z_is_half_an_integer_polynomial(self):
        for z in generate_all(Z_A, 60):
            assert all(isinstance(c, Fraction) and (2 * c).denominator == 1 for c in z)
        assert generate(Z_A, 2) == (0, 3)

    def test_iter_family_matches_generate_all(self):
        for p in (None, 17):
            it = iter_family(Z_A, p)
            assert [next(it) for _ in range(12)] == generate_all(Z_A, 11, p)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            constant_term_mod(F_E, 4, 15)


class TestCriterionEquivalence:
    def test_a_and_x_divisibility_agree_to_500(self):
        for p in primes_leq(500):
            if p % 9 != 1:
                continue
            n = (p - 1) // 3
            assert n % 3 == 0
            div_a = constant_term_mod(A_VZ, n, p) == 0
            div_x = constant_term_mod(X_A, n, p) == 0
            assert div_a == div_x, p
