import time
from fractions import Fraction
from itertools import count, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankcrit import _modp
from rankcrit._modp import (
    _ALPHA_D,
    _ALPHA_TILT,
    _BATCH_N,
    _F64_MAX,
    _HORIZON,
    _P_UNREDUCED,
    _batches,
    _columns,
    _dot_mod,
    _fits,
    _length_bounds,
    _moved,
    _multipliers,
    _polys,
    _reduce,
    _slot_table,
    _step_mod,
    _stored_mod,
    _tap_sum,
)
from rankcrit._primality import is_prime
from rankcrit.criteria import admissible, scan
from rankcrit.polyring import constant_term, trim
from rankcrit.recurrences import (
    _INT64_MAX,
    _MAX_TERMS,
    _P_MAX,
    _from_v,
    _stored_exact,
    _tap_plan,
    _tap_step,
    _taps_at,
    A_VZ,
    F_E,
    FAMILIES,
    H_E,
    RecurrenceFamily,
    X_A,
    Y_A,
    Z_A,
    constant_term_mod,
    constant_terms_mod,
    generate,
    generate_all,
    iter_family,
    paired_constant_terms_mod,
    step,
)
from ._util import dot_step, exact_walk, primes_leq
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


class TestFamilyRecord:
    def test_equality_hash_repr_and_defaults(self):
        # built by keyword with the defaults left out, a family equals the table's and hashes
        # as the tuple of its fields (the cached tap plans key on it); repr names its tag
        twin = RecurrenceFamily(key="f", tag="F_E", seeds=((1,), (3, 2)), step_coeffs=F_E.step_coeffs, in_v=H_E)
        fields = ("f", "F_E", ((1,), (3, 2)), F_E.step_coeffs, 1, 1, 0, H_E)
        assert ((twin == F_E, twin != H_E, hash(twin), repr(twin), (twin.scale, twin.stride, twin.drift))
                == (True, True, hash(fields), "RecurrenceFamily(F_E)", (1, 1, 0)))


_COEFFS = st.lists(st.one_of(st.just(0), st.integers(-10 ** 40, 10 ** 40)), max_size=12).map(tuple)


class TestTapStep:
    """The exact tap step against the step multiplied out as written (``dot_step``)."""

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_equals_dot_step_along_the_family(self, key):
        family = FAMILIES[key]
        walk = _stored_exact(family)
        prev, cur = next(walk), next(walk)
        assert (prev, cur) == family.seeds  # x_1 = y_1 = () is the empty seed
        for n in range(1, 80):
            want = dot_step(family, n, prev, cur)
            assert step(family, n, prev, cur) == want, f"{key}_{n + 1}"
            prev, cur = cur, next(walk)
            assert cur == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 60), _COEFFS, _COEFFS,
           st.sampled_from([3, 5, 19, 101, 1009, 65537, 999999937]))
    def test_equals_dot_step_on_any_coefficients(self, key, n, prev, cur, p):
        want = dot_step(FAMILIES[key], n, prev, cur)
        got = step(FAMILIES[key], n, prev, cur)
        assert got == want
        assert type(got) is tuple and (not got or got[-1] != 0)
        assert step(FAMILIES[key], n, prev, cur, p) == trim(c % p for c in want)


def _spread(c: tuple, n: int, family) -> tuple:
    """The dense polynomial whose coefficients at t^(r + stride*i), r = drift*n, are c."""
    k, r = family.stride, family.drift * n % family.stride
    out = [0] * (r + k * (len(c) - 1) + 1) if c else []
    out[r::k] = c
    return tuple(out)


_LATTICE_FAMILIES = [A_VZ, X_A, Y_A, H_E]


class TestLatticeWalk:
    """The walk on each family's lattice: a/x/y on exponents 2n mod 3, f in v = 2t + 3."""

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_generate_is_the_last_row_of_generate_all(self, key):
        # for f this is the walk in v (generate) against the walk in t (generate_all)
        rows = generate_all(FAMILIES[key], 150)
        for N, row in enumerate(rows):
            assert generate(FAMILIES[key], N) == row, f"{key}_{N}"

    @pytest.mark.parametrize("family", _LATTICE_FAMILIES, ids=repr)
    def test_rows_lie_on_the_lattice(self, family):
        # the dense step (stride 1) keeps every row on the lattice, and the strided walk agrees
        assert (family.stride, family.drift) == ((2, 1) if family is H_E else (3, 2))
        walk = _stored_exact(family)
        prev, cur = family.seeds
        for n in range(1, 201):
            off = [j for j, c in enumerate(cur) if c and (j - family.drift * n) % family.stride]
            assert not off, f"{family!r} row {n} has coefficients at t^{off}"
            assert next(walk) == prev
            prev, cur = cur, step(family, n, prev, cur)

    def test_v_rows_are_the_f_rows(self):
        walk = _stored_exact(H_E)
        for n, f in enumerate(generate_all(F_E, 40)):
            assert _from_v(next(walk), n) == f

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_LATTICE_FAMILIES), st.integers(1, 60), _COEFFS, _COEFFS)
    def test_strided_kernel_equals_dot_step(self, family, n, prev, cur):
        taps = _taps_at(_tap_plan(family, family.stride, family.drift), n)
        got = _tap_step(prev, cur, *taps)
        assert not got or got[-1] != 0
        dense_prev, dense_cur = _spread(prev, n - 1, family), _spread(cur, n, family)
        assert _spread(got, n + 1, family) == dot_step(family, n, dense_prev, dense_cur)

    @pytest.mark.parametrize("family", [X_A, Y_A], ids=repr)
    def test_strided_kernel_from_the_empty_seed(self, family):
        # x_1 = y_1 = (): only the taps on F_0 act
        taps = _taps_at(_tap_plan(family, 3, 2), 1)
        got = _spread(_tap_step((1,), (), *taps), 2, family)
        assert got == dot_step(family, 1, (1,), ()) == generate(family, 2)

    def test_from_v_refuses_a_non_divisible_row(self):
        assert _from_v((0, 2), 1) == (3, 2)  # H_1 = 2v is f_1 = 2t + 3
        with pytest.raises(ArithmeticError):
            _from_v((1,), 1)  # 1 / 2 is not an integer coefficient

    def test_off_lattice_tap_is_refused(self):
        # P_n = -8n t moves t^j of F_n to t^(j+1), off the lattice 2n mod 3 that D and M keep
        toy = RecurrenceFamily("q", "TOY", ((1,), ()), lambda n: ((-2, 0, 0, 16), (0, -8 * n), -n, (0, 1)),
                               stride=3, drift=2)
        with pytest.raises(ValueError, match="leaves the lattice"):
            next(iter_family(toy))
        with pytest.raises(ValueError, match="leaves the lattice"):
            generate(toy, 5)

    def test_off_lattice_seed_is_refused(self):
        toy = RecurrenceFamily("q", "TOY", ((1,), (1,)), X_A.step_coeffs, stride=3, drift=2)
        with pytest.raises(ValueError, match="seed 1 leaves the lattice"):
            generate(toy, 5)


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

    @pytest.mark.parametrize("key", ["x", "y"])
    def test_x_and_y_lengths_to_2000(self, key):
        # n/2 + 1 for even n and (n-1)/2 for odd n (x_1 = y_1 = 0), within _length_bounds'
        # proven floor(n/2) + 1; the mod-p windows of x and y are laid out at that bound
        lengths = exact_walk(key).lengths[:2001]
        assert lengths == tuple(n // 2 + 1 if n % 2 == 0 else (n - 1) // 2 for n in range(2001))
        assert _length_bounds(FAMILIES[key], 2000).tolist() == [n // 2 + 1 for n in range(2001)]

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_length_bounds_cover_every_row(self, key):
        # no window of the mod-p kernel is ever narrower than its row
        bounds = _length_bounds(FAMILIES[key], 300).tolist()
        assert all(bound >= length for bound, length in zip(bounds, exact_walk(key).lengths[:301], strict=True))
        assert bounds == sorted(bounds)


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

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_stored_rows_stop_at_their_length_bound(self, key):
        # each stored row mod p is cut at _length_bounds (x and y at floor(n/2) + 1, where
        # their taps alone would widen them by 2 a step) and equals the exact row mod p
        family = FAMILIES[key]
        bounds = _length_bounds(family, 300).tolist()
        exact = list(islice(iter_family(family), 301))
        for p in (3, 1009, _PAST_UNREDUCED[0]):
            rows = list(islice(_stored_mod(family, p), 301))
            if key in "xy":
                assert [len(row) for row in rows] == [1, 0] + bounds[2:], p
            assert all(len(row) <= bound for row, bound in zip(rows, bounds)), p
            inverse = pow(family.scale, -1, p)
            assert [trim(c * inverse % p for c in row.tolist()) for row in rows] == [
                _residues(poly, p) for poly in exact], p


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

    def test_a_and_x_constant_terms_agree_to_600(self):
        # a_n(0) = (-1)^n x_n(0) as integers, checked here and not proven; at the even
        # N = (p-1)/3 of an Ap prime it makes the a- and x-path residues equal, which
        # criteria._cross_check compares
        x_terms = exact_walk("x").terms[:601]
        assert exact_walk("a").terms[:601] == tuple((-1) ** n * c for n, c in enumerate(x_terms))


def _residue(c, p: int) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


_ODD_PRIMES = [q for q in primes_leq(4999) if q > 2]
_P_BELOW = next(q for q in range(_P_MAX - 1, 0, -1) if is_prime(q))
_P_ABOVE = next(q for q in range(_P_MAX, 2 * _P_MAX) if is_prime(q))
# the primes next to the limit below which residue taps act on F_n' unreduced
_UNREDUCED_BELOW = next(q for q in range(_P_UNREDUCED - 1, 0, -1) if is_prime(q))
_PAST_UNREDUCED = [q for q in range(_P_UNREDUCED, _P_UNREDUCED + 100) if is_prime(q)]


class TestWindowedKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 120), st.sampled_from(_ODD_PRIMES))
    def test_matches_exact_generation(self, key, N, p):
        assert constant_term_mod(FAMILIES[key], N, p) == _residue(exact_walk(key).terms[N], p)

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_seeds(self, key):
        for N in (0, 1):
            for p in (3, 5, 4999):
                assert constant_term_mod(FAMILIES[key], N, p) == _residue(exact_walk(key).terms[N], p)

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_index_at_or_past_p(self, key):
        for p in (3, 5, 7, 11, 13):
            for N in (p, p + 1, 2 * p + 3, 120):
                assert constant_term_mod(FAMILIES[key], N, p) == _residue(exact_walk(key).terms[N], p)

    def test_zero_seed(self):
        # x_1 = y_1 = () is the zero polynomial; x_3 = 2 and y_3 = 6 grow from it
        for family, want in ((X_A, 2), (Y_A, 6)):
            for p in (3, 5, 97):
                assert constant_term_mod(family, 1, p) == 0
                assert constant_term_mod(family, 3, p) == want % p
                assert constant_term_mod(family, 3, p) == _residue(exact_walk(family.key).terms[3], p)

    def test_overflow_bound(self):
        assert _MAX_TERMS * (_P_MAX - 2) ** 2 < 2 ** 63 <= _MAX_TERMS * (_P_MAX - 1) ** 2
        for family in FAMILIES.values():
            d_poly, cur_poly, _, prev_poly = family.step_coeffs(1)
            assert len(d_poly) + len(cur_poly) + len(prev_poly) <= _MAX_TERMS

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_largest_prime_below_bound(self, key):
        assert constant_term_mod(FAMILIES[key], 5, _P_BELOW) == _residue(exact_walk(key).terms[5], _P_BELOW)
        want = tuple(_residue(c, _P_BELOW) for c in generate(FAMILIES[key], 5))
        assert generate(FAMILIES[key], 5, _P_BELOW) == trim(want)

    def test_first_prime_at_bound_is_refused_at_once(self):
        t0 = time.perf_counter()
        for family in FAMILIES.values():
            with pytest.raises(OverflowError):
                constant_term_mod(family, (_P_ABOVE - 1) // 3, _P_ABOVE)
            with pytest.raises(OverflowError):
                generate(family, 5, _P_ABOVE)
            with pytest.raises(OverflowError):
                step(family, 1, (1,), (3, 2), _P_ABOVE)
        assert time.perf_counter() - t0 < 1.0

    def test_step_coeffs_are_quadratic_in_n(self):
        # both kernels interpolate each multiplier from n = 0, 1, 2
        for family in [*FAMILIES.values(), H_E]:
            samples = [family.step_coeffs(n) for n in range(60)]
            for n in range(3, 60):
                for j in range(4):
                    a, b, c, d = (samples[m][j] for m in (n - 3, n - 2, n - 1, n))
                    if isinstance(a, int):
                        assert d - 3 * c + 3 * b - a == 0
                    else:
                        assert all(w - 3 * z + 3 * y - x == 0 for x, y, z, w in zip(a, b, c, d))


def _coeffs_f_scaled(n):
    d_poly, cur_poly, prev_scalar, prev_poly = F_E.step_coeffs(n)
    return tuple(10 ** 9 * c for c in d_poly), tuple(10 ** 9 * c for c in cur_poly), 10 ** 9 * prev_scalar, prev_poly


# f with its taps times 10^9: a lockstep batch at N = 20 admits primes only up to about 190
F_BIG = RecurrenceFamily("f", "F_BIG", F_E.seeds, _coeffs_f_scaled)


def _bound_primes(family: RecurrenceFamily, N: int, alpha: bool = False) -> tuple[int, int]:
    """The largest prime q with (S + sum|D| (q - 2) [+ q - 1]) (q - 1) <= _F64_MAX, where
    S = _tap_sum(family, N - 1): the bound of a lockstep batch written out, with the alpha
    term if ``alpha``; and the prime after it."""
    taps, d_sum = _tap_sum(family, N - 1), sum(map(abs, family.step_coeffs(0)[0]))
    lo, hi = 2, 2 ** 27  # bisect for the last q within the bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (taps + d_sum * (mid - 2) + (mid - 1 if alpha else 0)) * (mid - 1) <= _F64_MAX:
            lo = mid
        else:
            hi = mid
    return next(q for q in range(lo, 0, -1) if is_prime(q)), next(q for q in count(lo + 1) if is_prime(q))


def _spied(monkeypatch) -> tuple[set, list]:
    """Spies on ``_step_mod`` and ``_both_ends``: the (dtype, reduce_derivative) of every
    step, as a set, and the (family, N, p) of every target that steps alone, in order."""
    steps, alone = set(), []
    step_mod, both_ends = _modp._step_mod, _modp._both_ends

    def spy_step(*args, reduce_derivative=True, **kwargs):
        out = step_mod(*args, reduce_derivative=reduce_derivative, **kwargs)
        steps.add((out.dtype.name, reduce_derivative))
        return out

    def spy_alone(family, N, p):
        alone.append((family, N, p))
        return both_ends(family, N, p)

    monkeypatch.setattr(_modp, "_step_mod", spy_step)
    monkeypatch.setattr(_modp, "_both_ends", spy_alone)
    return steps, alone


class TestLockstepBatch:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from("fax"),
           st.lists(st.tuples(st.integers(0, 2) | st.integers(0, 120), st.sampled_from(_ODD_PRIMES[:40])),
                    min_size=1, max_size=12))
    @example("f", [(2, 7), (0, 7), (1, 3), (120, 7), (2, 3)])
    def test_equals_one_window_per_target(self, key, targets):
        # N in {0, 1, 2}, repeated p and unsorted targets are all in the strategy
        family = FAMILIES[key]
        assert constant_terms_mod(family, targets) == [constant_term_mod(family, N, p) for N, p in targets]

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_scan_shaped_batch_against_exact_terms(self, key):
        family, terms = FAMILIES[key], exact_walk(key).terms
        targets = [(N, p) for p in _ODD_PRIMES[:60] for N in (p // 3, 120 - p % 97)]
        assert constant_terms_mod(family, targets) == [_residue(terms[N], p) for N, p in targets]

    def test_tap_sums_grow_with_n(self):
        # _fits bounds every step by the last one
        for family in FAMILIES.values():
            sums = [_tap_sum(family, n) for n in range(1, 300)]
            assert sums == sorted(sums)

    def test_refused_before_any_step(self):
        with pytest.raises(ValueError):
            constant_terms_mod(F_E, [(5, 17), (-1, 17)])
        with pytest.raises(ValueError):
            constant_terms_mod(F_E, [(5, 17), (5, 21)])
        t0 = time.perf_counter()
        with pytest.raises(OverflowError):
            constant_terms_mod(F_E, [(5, 17), ((_P_ABOVE - 1) // 3, _P_ABOVE)])
        assert time.perf_counter() - t0 < 1.0

    def test_batch_size_is_bounded(self):
        half = _BATCH_N // 2
        assert _fits(F_E, half + 1, 5) and not _fits(F_E, half, 1013)
        assert _batches(F_E, [(half, 5), (half, 3), (1, 7)]) == [[1, 0]]
        assert _batches(F_E, [(half, 5), (half + 1, 3)]) == [[1], [0]]

    def test_float64_bound_edge(self, monkeypatch):
        # the last prime a batch admits at N = 20 and the next one: a batch across the bound
        # splits, and the targets within it step in lockstep, float64 with F_n' unreduced
        N = 20
        top, above = _bound_primes(F_BIG, N)
        assert _fits(F_BIG, N, top) and not _fits(F_BIG, N, above)
        assert _batches(F_BIG, [(N, 101), (N, top)]) == [[0, 1]]
        assert _batches(F_BIG, [(N, 101), (N, above)]) == [[0], [1]]
        terms = [constant_term(poly) for poly in generate_all(F_BIG, N)]
        steps, alone = _spied(monkeypatch)
        targets = [(N, 101), (N, top), (N - 3, 103)]
        assert constant_terms_mod(F_BIG, targets) == [terms[n] % p for n, p in targets]
        assert not alone and steps == {("float64", False)}

    def test_int64_bound_edge(self, monkeypatch):
        # a target just past the bound of a batch steps alone from both ends, on int64
        # with F_n' unreduced (p < _P_UNREDUCED), while the rest of its batch stays float64
        N = 20
        top, above = _bound_primes(F_BIG, N)
        assert above < _P_UNREDUCED
        terms = [constant_term(poly) for poly in generate_all(F_BIG, N)]
        steps, alone = _spied(monkeypatch)
        targets = [(N, top), (N - 1, above), (N, 101)]
        assert constant_terms_mod(F_BIG, targets) == [terms[n] % p for n, p in targets]
        assert alone == [(F_BIG, N - 1, above)] and steps == {("float64", False), ("int64", False)}

    def test_float64_batch_that_reduces_its_derivative(self, monkeypatch):
        # small N and a prime near 10^8, where a float64 batch once had to reduce F_n': no
        # such batch is formed any more, so those targets step alone, on int64 reducing
        # F_n' (p > _P_UNREDUCED), and the small primes beside them stay one float64 batch
        p = next(q for q in range(10 ** 8, 0, -1) if is_prime(q))
        N = 30
        assert p > _P_UNREDUCED and not _fits(F_E, N, p)
        targets = [(N, 101), (N, p), (N - 3, 103), (N - 1, p)]
        assert _batches(F_E, targets) == [[2, 0], [1], [3]]
        terms = [constant_term(poly) for poly in generate_all(F_E, N)]
        steps, alone = _spied(monkeypatch)
        assert constant_terms_mod(F_E, targets) == [terms[n] % q for n, q in targets]
        assert alone == [(F_E, N, p), (F_E, N - 1, p)] and steps == {("float64", False), ("int64", True)}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from("fax"),
           st.lists(st.tuples(st.integers(0, 150), st.sampled_from(_ODD_PRIMES[:80])), min_size=2, max_size=10))
    def test_batches_equal_every_target_alone(self, key, targets):
        family = FAMILIES[key]
        got = constant_terms_mod(family, targets), paired_constant_terms_mod(targets)
        with mock.patch.object(_modp, "_F64_MAX", 0):  # no target fits a batch: each steps alone
            assert all(len(batch) == 1 for batch in _batches(family, targets) + _batches(X_A, targets, alpha=True))
            assert got == (constant_terms_mod(family, targets), paired_constant_terms_mod(targets))


# Indices at the layouts of a batch whose last N passes 546 (1, 32, 48, 72, 108, 162, 243, 364,
# 546), and next to them, so that windows finish at, just before and just after a layout
_AT_LAYOUTS = sorted({n + d for n in (32, 48, 72, 108, 162, 243, 364, 546) for d in (-1, 0, 1)})
_DEEP = st.integers(2, 600) | st.sampled_from(_AT_LAYOUTS)


def _deep_batch(targets: list, top: int, inner: int) -> list[tuple[int, int]]:
    """The targets with a last N of ``top`` and an inner window past 243, so that the batch
    lays out at least 8 times (at 364 once an inner window outlives 243)."""
    return targets + [(top, 3), (min(inner, top), 5)]


class TestLayoutPlan:
    """The layouts of a lockstep batch, planned once (``_slot_table``), against brute force."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["f", "x", "paired"]),
           st.lists(st.tuples(_DEEP, st.sampled_from(_ODD_PRIMES[:40])), max_size=8),
           st.integers(400, 600), st.integers(244, 600))
    def test_deep_batches_equal_one_target_at_a_time(self, mode, targets, top, inner):
        targets = _deep_batch(targets, top, inner)
        if mode == "paired":
            assert len(_batches(X_A, targets, alpha=True)) == 1
            windows = sorted((N, p, alpha) for N, p in targets if N >= 2 for alpha in (True, False))
            assert len(_slot_table(X_A, windows)[0]) >= 8
            assert paired_constant_terms_mod(targets) == ([constant_term_mod(A_VZ, N, p) for N, p in targets],
                                                          [constant_term_mod(X_A, N, p) for N, p in targets])
        else:
            family = FAMILIES[mode]
            assert len(_batches(family, targets)) == 1
            assert len(_slot_table(family, sorted((N, p, False) for N, p in targets if N >= 2))[0]) >= 8
            assert constant_terms_mod(family, targets) == [constant_term_mod(family, N, p) for N, p in targets]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6),
           st.integers(1, 3), st.sampled_from([np.int64, np.float64]), st.data())
    def test_moves_against_a_loop(self, windows, gap, dtype, data):
        # windows (old width, new slot) laid out end to end with the gap; the first few
        # finish and are cut off as a batch cuts them, and each poly keeps its last window
        # as long as it is, which may fall short of its old width
        old, slots = (np.array([pair[i] for pair in windows]) for i in (0, 1))
        starts = np.cumsum(old + gap) - (old + gap)
        polys = []
        for _ in range(2):
            poly = np.zeros(int(starts[-1]) + data.draw(st.integers(0, int(old[-1]))), dtype)
            for start, width in zip(starts.tolist(), old.tolist()):
                values = data.draw(st.lists(st.integers(1, 99), min_size=width, max_size=width))
                poly[start:start + width] = values[:len(poly) - start]
            polys.append(poly)
        first = data.draw(st.integers(0, len(windows) - 1))  # the windows before it have finished
        cut = int(starts[first])
        polys, starts, old, slots = [poly[cut:] for poly in polys], starts[first:] - cut, old[first:], slots[first:]
        sizes = slots + gap
        new_starts = np.cumsum(sizes) - sizes
        offset = np.arange(int(sizes.sum())) - np.repeat(new_starts, sizes)
        for poly, got in zip(polys, _moved(polys, starts, old, slots, sizes, offset)):
            want = []
            for start, width, slot in zip(starts.tolist()[:-1], old.tolist(), slots.tolist()):
                kept = min(width, slot)
                want += poly[start:start + kept].tolist() + [0] * (slot - kept + gap)
            want += poly[int(starts[-1]):].tolist()[:slots[-1]]
            assert got.dtype == dtype and got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES) + ["paired"]), st.lists(_DEEP, min_size=1, max_size=12),
           st.integers(400, 600), st.integers(2, 600))
    def test_every_slot_covers_its_window(self, key, Ns, top, inner):
        # at each layout n .. end, every inner window that has not finished gets exactly
        # the widest window min(L[m], N - m + 1) of its target over n <= m <= min(N, end),
        # with a's bounds for an alpha window; the last one N_last - n + 1
        family = X_A if key == "paired" else FAMILIES[key]
        Ns += [top, inner]
        windows = sorted((N, 7, alpha) for N in Ns for alpha in ((True, False) if key == "paired" else (False,)))
        points, table = _slot_table(family, windows)
        N_last = windows[-1][0]
        lengths = {False: _length_bounds(family, N_last).tolist(), True: _length_bounds(A_VZ, N_last).tolist()}
        assert points[0] == 1 and table.shape == (len(points), len(windows))
        for i, n in enumerate(points):
            end = min(max(n + n // 2, _HORIZON), N_last)
            if i + 1 < len(points):  # a layout follows while an inner window is left
                assert points[i + 1] == end < N_last and any(n < N for N, _, _ in windows[:-1])
            else:
                assert end == N_last or all(N <= n for N, _, _ in windows[:-1])
            for (N, _, alpha), slot in zip(windows[:-1], table[i].tolist()):
                if N > n:
                    L = lengths[alpha]
                    assert slot == max(min(L[m], N - m + 1) for m in range(n, min(N, end) + 1)), (n, N)
            assert table[i, -1] == N_last - n + 1


def _full_walk_constant_term(family: RecurrenceFamily, N: int, p: int) -> int:
    """F_N(0) mod p from the whole polynomial, walked by step(..., p) from the seeds.  That
    walk steps every coefficient of F_n forward on plain ints and shares only step_coeffs
    and the tap plan with constant_term_mod's windows."""
    prev, cur = (trim(c % p for c in seed) for seed in family.seeds)
    for n in range(1, N):
        prev, cur = cur, step(family, n, prev, cur, p)
    stored = cur if N else prev
    return (stored[0] if stored else 0) * pow(family.scale, -1, p) % p


class TestUnreducedDerivative:
    def test_edge(self):
        # F_BIG's D taps are so large that the unreduced F_n' moves the edge of a batch at
        # N = 20: the other taps alone would admit the prime past it
        N = 20
        top, above = _bound_primes(F_BIG, N)
        assert _fits(F_BIG, N, top) and not _fits(F_BIG, N, above)
        assert _tap_sum(F_BIG, N - 1) * (above - 1) <= _F64_MAX
        terms = [constant_term(poly) for poly in generate_all(F_BIG, N)]
        targets = [(N, 101), (N - 2, top), (N - 1, above)]
        assert _batches(F_BIG, targets) == [[1, 0], [2]]
        assert constant_terms_mod(F_BIG, targets) == [terms[n] % p for n, p in targets]

    def test_residue_tap_limit_is_the_exact_edge(self):
        assert _MAX_TERMS * (_P_UNREDUCED - 2) ** 3 <= _INT64_MAX < _MAX_TERMS * (_P_UNREDUCED - 1) ** 3
        assert (_UNREDUCED_BELOW, _PAST_UNREDUCED[0]) == (1008199, 1008209)

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_both_sides_of_the_residue_tap_limit(self, key):
        family = FAMILIES[key]
        for p in (_UNREDUCED_BELOW, _PAST_UNREDUCED[0]):
            for N in (40, 41):
                assert constant_term_mod(family, N, p) == _full_walk_constant_term(family, N, p)
                assert generate(family, N, p) == _residues(generate(family, N), p)

    def test_the_residue_tap_limit_picks_the_path(self, monkeypatch):
        seen, step_mod = [], _modp._step_mod

        def spy(*args, reduce_derivative=True, **kwargs):
            seen.append(reduce_derivative)
            return step_mod(*args, reduce_derivative=reduce_derivative, **kwargs)

        monkeypatch.setattr(_modp, "_step_mod", spy)
        for p, reduced in ((_UNREDUCED_BELOW, False), (_PAST_UNREDUCED[0], True)):
            seen.clear()
            constant_term_mod(F_E, 40, p)  # _both_ends
            generate(F_E, 5, p)            # _stored_mod
            assert set(seen) == {reduced}, p

    def test_scans_take_the_unreduced_path(self, monkeypatch):
        # every batch steps float64 with F_n' unreduced; Ep batches reach p = 104561 and
        # paired Ap batches p = 272539, and the next admissible prime fails the bound even
        # without the F_n' term, which so moves neither edge
        steps, alone = _spied(monkeypatch)
        scan("Ep", 2, 600)
        scan("Ap", 2, 600)
        assert steps == {("float64", False)} and not alone
        for key, family, alpha, last, after in (("Ep", F_E, False, 104561, 104593), ("Ap", X_A, True, 272539, 272683)):
            assert [q for q in range(last, after + 1) if admissible(q, key).ok] == [last, after]
            N_last, N_after = (admissible(q, key).index for q in (last, after))
            assert _fits(family, N_last, last, alpha) and not _fits(family, N_after, after, alpha)
            assert (_tap_sum(family, N_after - 1) + (after - 1 if alpha else 0)) * (after - 1) > _F64_MAX


class TestBothEnds:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 5) | st.integers(6, 160),
           st.sampled_from(_ODD_PRIMES[:200]) | st.sampled_from(_PAST_UNREDUCED))
    @example("a", 5, 19)    # 19 | 16n + 3 at n = 5: a's P_n tap vanishes mod 19
    @example("a", 40, 19)
    @example("f", 4, 3)     # 3 | D(0) = -24: f's first D column vanishes mod 3
    @example("z", 7, 3)     # 3 | D[2] = -9
    @example("x", 2, 5)
    @example("y", 3, 5)
    @example("f", 160, _PAST_UNREDUCED[0])  # F_n' reduced before its taps
    def test_equals_the_full_polynomial_walk(self, key, N, p):
        family = FAMILIES[key]
        assert constant_term_mod(family, N, p) == _full_walk_constant_term(family, N, p)

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_both_parities_near_the_bound(self, key):
        for N in (40, 41):
            assert constant_term_mod(FAMILIES[key], N, _P_BELOW) == _full_walk_constant_term(FAMILIES[key], N, _P_BELOW)

    def test_transposed_taps_stay_within_the_bound(self):
        # one output of a pass sums D on F', P_n (or P_n^T) on F_n and s M on F_{n-1},
        # one product of two residues per nonzero tap
        for family in FAMILIES.values():
            for transposed in (False, True):
                for n in range(1, 40):
                    count = sum(sum(1 for c in poly if c) for _, poly in _polys(family, n, transposed))
                    assert count <= _MAX_TERMS, (family, transposed, n)

    def test_transposed_taps_are_the_adjoint(self):
        # <u, A_n F + B_n G> = <A_n^T u, F> + <B_n^T u, G> on random vectors, with A_n^T u read
        # off the folded taps (D on i u, P_n^T from t^-1 up) and B_n^T off s_n M
        def at(v, i):
            return int(v[i]) if 0 <= i < len(v) else 0

        rng = np.random.default_rng(5)
        size = 12
        for family in FAMILIES.values():
            for n in (1, 2, 7):
                (_, d), (_, p_n), (_, m_n) = _polys(family, n)
                _, (base, p_t), _ = _polys(family, n, transposed=True)
                _, _, (_, m_t) = _polys(family, n - 1, transposed=True)  # s_(n-1+1) M
                F, G = (rng.integers(-9, 10, size) for _ in range(2))
                u = rng.integers(-9, 10, size + 4)  # A_n F and B_n G are longer than F and G
                AF = [sum(d[k] * (j - k + 1) * at(F, j - k + 1) for k in range(len(d)))
                      + sum(p_n[k] * at(F, j - k) for k in range(len(p_n))) for j in range(len(u))]
                BG = [sum(m_n[k] * at(G, j - k) for k in range(len(m_n))) for j in range(len(u))]
                ATu = [sum(d[k] * (i + k - 1) * at(u, i + k - 1) for k in range(len(d)))
                       + sum(p_t[k] * at(u, i + k + base) for k in range(len(p_t))) for i in range(size)]
                BTu = [sum(m_t[k] * at(u, i + k) for k in range(len(m_t))) for i in range(size)]
                assert np.dot(u, AF) == np.dot(ATu, F) and np.dot(u, BG) == np.dot(BTu, G), (family, n)

    def test_meeting_dot_is_exact_at_the_bound(self):
        p = _P_BELOW
        for size in (1, 7, 4096):
            a = np.full(size, p - 1, np.int64)
            b = np.arange(size, dtype=np.int64) % p + (p - size)
            want = (sum((p - 1) * int(y) for y in b) + (p - 1) ** 2 * 3) % p
            tail = np.full(3, p - 1, np.int64)
            assert _dot_mod([(a, b), (tail, tail[:5])], p) == want
        # lengths may differ: the shorter of each pair sets it
        assert _dot_mod([(np.array([2, 3, 4]), np.array([5, 6]))], 7) == (10 + 18) % 7


def _reference_step(d_tap, taps, cur, weights, mod, hi, shift=0, tilt=None, reduce_derivative=True) -> list:
    """``_step_mod`` on Python ints, output coefficient by coefficient: each product
    (source * kernel, the kernel stored reversed) lands at its position, the step is as
    long as the longest nonempty product and at most ``hi``, and element j of the sum is
    reduced mod ``mod[j]``."""
    source = [int(c) for c in cur[1 - shift:hi + 1 - shift]]
    deriv = [int(weights[i + 1]) * c for i, c in enumerate(source)]
    if reduce_derivative:
        deriv = [c % int(mod[i + 1]) for i, c in enumerate(deriv)]
    products = []
    for k, (x, pos, kernel) in enumerate(((deriv, *d_tap), *taps)):
        x = [int(c) for c in x]
        if not x:
            continue
        if isinstance(kernel, int):
            tilted = k > 0 and tilt is not None and pos == tilt[0]
            products.append((pos, [(kernel + (int(tilt[1][pos + j]) if tilted else 0)) * c for j, c in enumerate(x)]))
        else:
            poly = [int(c) for c in kernel[::-1]]
            products.append((pos, [sum(x[i] * poly[j - i] for i in range(len(x)) if 0 <= j - i < len(poly))
                                   for j in range(len(x) + len(poly) - 1)]))
    size = min(max((pos + len(c) for pos, c in products), default=0), hi)
    out = [0] * size
    for pos, c in products:
        for j, v in enumerate(c):
            if pos + j < size:
                out[pos + j] += v
    return [v % int(mod[j]) for j, v in enumerate(out)]


def _vec(*values):
    return np.array(values, np.int64)


def _float_call(args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """The arguments of an int64 ``_step_mod`` call as float64 arrays, with ``inv`` and
    F_n' unreduced, as a lockstep batch steps; kernels of one column stay ints."""
    def floats(v):
        return v if type(v) is int else np.asarray(v, np.float64)

    (d_pos, d_kernel), taps, cur, weights, mod, hi = args
    args = ((d_pos, floats(d_kernel)), tuple((floats(x), pos, floats(k)) for x, pos, k in taps),
            floats(cur), floats(weights), floats(mod), hi)
    kwargs = {**kwargs, "inv": 1 / floats(mod), "reduce_derivative": False}
    if kwargs.get("tilt") is not None:
        kwargs["tilt"] = (kwargs["tilt"][0], floats(kwargs["tilt"][1]))
    return args, kwargs


def _assert_float_residues(got: np.ndarray, want: list, mod: np.ndarray) -> None:
    """``got``, a float64 step, holds an integer r with |r| <= m - 1 and r = want (mod m)
    at each element, m its modulus: r is 0 where m is 1."""
    assert got.dtype == np.float64 and len(got) == len(want)
    assert np.array_equal(got, np.rint(got))
    for r, w, m in zip(got.tolist(), want, mod.tolist()):
        assert abs(r) <= m - 1 and (int(r) - w) % int(m) == 0


class TestStepMod:
    """Each branch of ``_step_mod`` against ``_reference_step``, on int64 and on float64."""

    P = 1009
    CUR = _vec(5, 1008, 17, 400, 3, 999)
    PREV = _vec(7, 0, 2, 1000)
    WEIGHTS = np.arange(40) % P
    MOD = np.full(40, P, np.int64)
    GAPPED = np.where(np.arange(40) % 5 == 4, 1, P)  # gaps of modulus 1 between the windows

    def check(self, d_tap, taps, cur=CUR, hi=40, **kwargs):
        """The step with gaps of modulus 1 and with every modulus P, each weight a residue
        of its element's modulus as the drivers lay them out: on int64 equal to the
        reference, on float64 congruent to it.  Returns the int64 step mod P."""
        for mod in (self.GAPPED, self.MOD):
            args = (d_tap, taps, cur, self.WEIGHTS % mod, mod, hi)
            want = _reference_step(*args, **kwargs)
            got = _step_mod(*args, **kwargs)
            assert got.dtype == np.int64 and got.tolist() == want
            float_args, float_kwargs = _float_call(args, kwargs)
            _assert_float_residues(_step_mod(*float_args, **float_kwargs), want, mod[:len(want)])
        return got

    def test_d_product_covers_the_step(self):
        # D (width 3 at 0) on F' of length 5 makes 7 elements, the taps at most 6
        got = self.check((0, _vec(3, 1000, 8)), ((self.CUR, 0, 11), (self.PREV, 1, _vec(4, 9))))
        assert len(got) == 7

    @pytest.mark.parametrize("d_tap", [(0, _vec(2)), (2, _vec(1, 5)), (1, 4)], ids=["short", "offset", "int"])
    def test_d_product_that_does_not_cover(self, d_tap):
        got = self.check(d_tap, ((self.CUR, 0, _vec(6, 1, 1008)), (self.PREV, 3, 2)))
        assert len(got) == 8

    def test_d_product_past_the_cut(self):
        assert self.check((9, _vec(1, 1)), ((self.CUR, 0, 3),), hi=8).tolist()[6:] == [0, 0]

    def test_empty_sources(self):
        self.check((0, _vec(1, 2)), ((self.CUR[:0], 0, _vec(5, 5)), (self.PREV, 1, 7)))
        self.check((0, _vec(1, 2)), ((self.CUR[:0], 0, 5), (self.PREV[:0], 1, 7)))
        # no F' either (F_n has one coefficient), and nothing at all
        self.check((0, _vec(1, 2)), ((self.CUR[:1], 0, 5), (self.PREV[:3], 1, _vec(1, 1))), cur=self.CUR[:1])
        assert len(self.check((0, _vec(1, 2)), ((self.PREV[:0], 0, 5),), cur=self.CUR[:0])) == 0

    @pytest.mark.parametrize("hi", [1, 3, 5, 6])
    def test_cut_at_hi(self, hi):
        got = self.check((0, _vec(3, 1000, 8)), ((self.CUR[:hi], 0, _vec(1, 2)), (self.PREV[:hi], 4, 9)), hi=hi)
        assert len(got) == hi

    @pytest.mark.parametrize("past", [-1, 0, 2], ids=["before the end", "at the end", "past the end"])
    def test_tap_product_against_the_end_of_the_step(self, past):
        # the D product (width 3 on F' of length 5) sizes the step at 7; PREV (4) times a
        # two-column kernel makes 5 elements, placed to end `past` elements after the step
        size = 7
        pos = size + past - 5
        got = self.check((0, _vec(3, 1000, 8)), ((self.CUR[:2], 0, 11), (self.PREV, pos, _vec(4, 9))), hi=size)
        assert len(got) == size

    @pytest.mark.parametrize("hi", [9, 8, 6], ids=["before the end", "at the end", "past the end"])
    def test_offset_d_product_against_the_end_of_the_step(self, hi):
        # the D product starts at 2 and ends at 8 (F' of length 5, two columns); a tap
        # makes the step 9 long, and hi cuts it to 8 or 6
        got = self.check((2, _vec(1, 5)), ((self.CUR, 0, _vec(2, 1, 3, 7)),), hi=hi)
        assert len(got) == hi

    def test_correlate_alias(self, monkeypatch):
        # the first call binds numpy's undispatched correlate; it is np.correlate on int64
        monkeypatch.setattr(_modp, "_correlate", _modp._bind_correlate)
        x, kernel = self.CUR, _vec(4, 9, 1008)
        want = np.correlate(x, kernel, "full")
        for _ in range(2):  # binding, then bound
            got = _modp._correlate(x, kernel, "full")
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert _modp._correlate is getattr(np.correlate, "_implementation", np.correlate)

    def test_correlate_without_the_undispatched_path(self, monkeypatch):
        # a numpy whose correlate has no _implementation: the kernel binds np.correlate itself
        calls, dispatched = [], np.correlate

        def correlate(a, v, mode="valid"):
            calls.append(mode)
            return dispatched(a, v, mode)

        monkeypatch.setattr(np, "correlate", correlate)
        monkeypatch.setattr(_modp, "_correlate", _modp._bind_correlate)
        assert constant_term_mod(F_E, 450, 1201) == constant_term(generate(F_E, 450, 1201)) == 921
        assert _modp._correlate is correlate and calls

    def test_alpha_tilt(self):
        # the tilt rides on the one-column tap at its offset, on neither the D tap nor the others
        tilt = (2, np.arange(40, dtype=np.int64) * 37 % self.P)
        self.check((0, _vec(3, 1000, 8)), ((self.CUR, 2, 13), (self.PREV, 1, 6), (self.PREV, 0, _vec(1, 1, 1))),
                   tilt=tilt)
        self.check((2, 5), ((self.CUR, 2, 13), (self.PREV, 2, _vec(4, 4))), tilt=tilt)

    def test_shift(self):
        # a vector that moves one place right a pass: F_n'[j - 1] is weights[j] * cur[j - 1]
        for d_tap in ((0, _vec(3, 1000, 8)), (1, _vec(2, 2)), (0, 3)):
            self.check(d_tap, ((self.CUR[:3], 1, 5), (self.PREV, 2, _vec(1, 0, 1))), shift=1)
            self.check(d_tap, ((self.CUR[:3], 1, 5),), hi=4, shift=1)

    def test_derivative_both_sides_of_the_residue_tap_limit(self):
        # nine D products of (p - 1)^3 meet in one sum: exact unreduced below _P_UNREDUCED,
        # and reduced first above it
        for p, reduce_derivative in ((_UNREDUCED_BELOW, False), (_PAST_UNREDUCED[0], True)):
            top = np.full(30, p - 1, np.int64)
            args = ((0, top[:_MAX_TERMS]), ((top[:12], 3, p - 1),), top[:20], top, np.full(30, p, np.int64), 30)
            got = _step_mod(*args, reduce_derivative=reduce_derivative)
            assert got.tolist() == _reference_step(*args, reduce_derivative=reduce_derivative)
            assert got.tolist() == _reference_step(*args)  # reducing F_n' changes no residue
        assert _step_mod(*args, reduce_derivative=False).tolist() != got.tolist()  # it would overflow

    @pytest.mark.parametrize("run, dtype", [
        (lambda: constant_terms_mod(F_E, [(N, p) for p in (17, 41, 73, 89, 97, 113) for N in (3 * (p - 1) // 8,)]),
         np.float64),
        (lambda: paired_constant_terms_mod([((p - 1) // 3, p) for p in (19, 37, 73, 109, 127)]), np.float64),
        (lambda: [constant_term_mod(family, 41, p) for family in FAMILIES.values() for p in (3, 233)], np.int64),
        (lambda: [generate(family, 30, p) for family in FAMILIES.values() for p in (3, 1009)], np.int64),
    ], ids=["lockstep", "alpha lockstep", "both ends", "stored"])
    def test_every_call_of_each_driver(self, run, dtype, monkeypatch):
        # an int64 step equals the reference; a float64 one (a lockstep batch, with inv
        # and F_n' unreduced) is congruent to it element by element, within |r| <= m - 1,
        # and 0 in the gaps; every derivative weight is a residue too, as the bounds of
        # ``_fits`` assume
        calls, step_mod = [], _modp._step_mod

        def checked(*args, **kwargs):
            weights = args[3]
            assert np.all(np.abs(weights) <= args[4][:len(weights)] - 1)
            out = step_mod(*args, **kwargs)
            inv = kwargs.pop("inv", None)
            want = _reference_step(*args, **kwargs)
            if inv is None:
                assert out.dtype == np.int64 and out.tolist() == want
            else:
                mod = args[4]
                assert np.array_equal(inv, 1 / mod) and kwargs["reduce_derivative"] is False
                _assert_float_residues(out, want, mod[:len(out)])
            calls.append(out.dtype)
            return out

        monkeypatch.setattr(_modp, "_step_mod", checked)
        run()
        assert calls and set(calls) == {np.dtype(dtype)}


class TestFloatReduction:
    """``_reduce``, the float64 reduction of a lockstep batch, at the edge of its lemma."""

    @staticmethod
    def reduced(xs, ms):
        x, m = np.array(xs, np.float64), np.array(ms, np.float64)
        _reduce(x, m, 1 / m)
        return x

    def check(self, xs, ms):
        r = self.reduced(xs, ms)
        assert np.array_equal(r, np.rint(r))
        for x, m, got in zip(xs, ms, r.tolist()):
            assert abs(got) <= m - 1 and (int(got) - x) % m == 0, (x, m)

    def test_largest_sums_a_batch_admits(self):
        # |x| <= S(m - 1) for the smallest and the largest modulus of an F_BIG batch at the
        # float64 edge, and for moduli 1, 3, 5 and that one up to |x| = _F64_MAX itself
        N = 20
        top, _ = _bound_primes(F_BIG, N)
        S = _tap_sum(F_BIG, N - 1) + sum(map(abs, F_BIG.step_coeffs(0)[0])) * (top - 2)
        assert _fits(F_BIG, N, top) and S * (top - 1) > _F64_MAX // 2
        for m in (3, top):
            xs = [sign * (S * (m - 1) - k) for k in range(64) for sign in (1, -1)]
            self.check(xs, [m] * len(xs))
        for m in (1, 3, 5, top):
            xs = [sign * (_F64_MAX - k) for k in range(2000) for sign in (1, -1)]
            self.check(xs, [m] * len(xs))

    def test_random_sums_within_the_limit(self):
        rng = np.random.default_rng(29)
        xs = rng.integers(-_F64_MAX, _F64_MAX, 50000, endpoint=True)
        ms = rng.choice(np.array([1, 3, 5, 7, 1009, 104579, 272621, 999983], np.int64), len(xs))
        r = self.reduced(xs, ms).astype(np.int64)
        assert (np.abs(r) <= ms - 1).all() and ((xs - r) % ms == 0).all()

    def test_the_limit_is_2_to_the_52(self):
        # past it, rint(x / m) * m can pass 2^53, where float64 holds only even integers,
        # and the residue is off by one
        m, x = 103217, 9007199254693525
        assert _F64_MAX < x < 2**53
        assert (int(self.reduced([x], [m])[0]) - x) % m != 0


class TestColumns:
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("family", [*FAMILIES.values(), H_E], ids=repr)
    def test_table_is_the_interpolated_multipliers(self, family, transposed):
        # the cached table, evaluated at n, is _polys(family, n, transposed) from step_coeffs:
        # at n = 0, 1, 2 that makes it the interpolation of those samples (a quadratic is
        # fixed by three points), and past them it checks that every column is quadratic
        d_tap, cols, spans = _columns(family, transposed)
        for n in range(12):
            polys = _polys(family, n, transposed)
            assert d_tap == polys[0]
            for (base, first, width), (want_base, want) in zip(spans, polys[1:], strict=True):
                column = [c0 + c1 * n + c2 * (n * (n - 1) // 2) for c0, c1, c2 in zip(*cols)][first:first + width]
                assert base == want_base and trim(column) == trim(want), (n, base)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_table_is_cached_and_immutable(self, transposed):
        for family in FAMILIES.values():
            table = _columns(family, transposed)
            hash(table)  # tuples of ints all the way down
            _multipliers(family, np.arange(5, 50), 1009, transposed)
            _multipliers(family, np.arange(5, 50), None, transposed)
            assert _columns(family, transposed) is table

    @pytest.mark.parametrize("block", [1, 2, 1024])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_residue_rows_at_the_largest_prime(self, block, transposed):
        # every multiplier mod p, for blocks of steps below, across and far past p, is
        # _polys reduced mod p: at the largest prime below _P_MAX each row sums
        # products of two residues, and F_BIG's columns are 10^9 times those of f
        p = _P_BELOW

        def terms(offset, coeffs):
            return {offset + j: int(c) % p for j, c in enumerate(coeffs) if c % p}

        def kernel_terms(offset, kernel):  # a plain int, or the columns reversed for np.correlate
            return terms(offset, [kernel] if type(kernel) is int else kernel[::-1].tolist())

        for family in [*FAMILIES.values(), F_BIG]:
            for start in (1, p - 1 - block // 2, 3 * p + 5):
                ns = np.arange(start, start + block)
                d_tap, *taps = _multipliers(family, ns, p, transposed)
                for i, n in enumerate(ns.tolist()):
                    want = [terms(*poly) for poly in _polys(family, n, transposed)]
                    assert [kernel_terms(*d_tap)] + [kernel_terms(offset, k[i]) for offset, k in taps] == want, \
                        (family, n)


class TestPairedScan:
    def test_alpha_identity(self):
        # a_n = 2^n alpha_n: alpha steps by x's D times _ALPHA_D, x's P plus _ALPHA_TILT and x's s M
        exponent, coefficient = _ALPHA_TILT
        for n in range(60):
            d_a, p_a, s_a, m_a = A_VZ.step_coeffs(n)
            d_x, p_x, s_x, m_x = X_A.step_coeffs(n)
            assert [Fraction(c, 2) for c in d_a] == [_ALPHA_D * c for c in d_x]
            tilted = [Fraction(c) for c in p_x] + [0] * (exponent + 1 - len(p_x))
            tilted[exponent] += coefficient
            assert [Fraction(c, 2) for c in p_a] == tilted
            assert (Fraction(s_a, 4), m_a) == (s_x, m_x)
        # the tilt rides on x's P_n tap, one column at t^2 (``_step_mod``)
        _, (offset, kernels), _ = _multipliers(X_A, np.arange(1, 200))
        assert offset == exponent and all(type(k) is int for k in kernels)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3) | st.integers(0, 150), st.sampled_from(_ODD_PRIMES[:40])),
                    min_size=1, max_size=10))
    @example([(2, 7), (0, 7), (1, 3), (120, 7), (2, 3)])
    @example([(66, 199)])
    @example([(150, 997), (3, 5), (66, 199)])  # a wide alpha window between narrow x windows
    @example([(40, 5), (150, 7), (90, 11), (150, 3)])  # two targets end the batch at once
    @example([(20, 7), (45, 13), (150, 1009)])  # the largest N has the largest p
    def test_equals_each_path_alone(self, targets):
        assert paired_constant_terms_mod(targets) == (
            [constant_term_mod(A_VZ, N, p) for N, p in targets], [constant_term_mod(X_A, N, p) for N, p in targets])

    def test_scan_shaped_batch_against_exact_terms(self):
        a_terms, x_terms = exact_walk("a").terms, exact_walk("x").terms
        targets = [(N, p) for p in _ODD_PRIMES[:60] for N in (p // 3, 120 - p % 97)]
        assert paired_constant_terms_mod(targets) == ([_residue(a_terms[N], p) for N, p in targets],
                                                      [_residue(x_terms[N], p) for N, p in targets])

    def test_refused_before_any_step(self):
        with pytest.raises(ValueError):
            paired_constant_terms_mod([(5, 19), (5, 21)])
        with pytest.raises(OverflowError):
            paired_constant_terms_mod([(5, 19), (5, _P_ABOVE)])

    def test_alpha_term_in_the_bound(self):
        # at N = 100005 the alpha term of a paired batch moves the edge across a prime
        N = 100005
        top, above = _bound_primes(X_A, N, alpha=True)
        assert _fits(X_A, N, top, alpha=True) and not _fits(X_A, N, above, alpha=True) and _fits(X_A, N, above)
        assert _batches(X_A, [(N, 101), (N, top)], alpha=True) == [[0, 1]]
        assert _batches(X_A, [(N, 101), (N, above)], alpha=True) == [[0], [1]]
        assert _batches(X_A, [(N, 101), (N, above)]) == [[0, 1]]

    def test_paths_past_the_bound_step_apart(self, monkeypatch):
        # past the paired bound a target's a- and x-path each step alone, on their own taps
        N = 20
        top, above = _bound_primes(X_A, N, alpha=True)
        targets = [(N, 101), (N - 1, above), (N, top)]
        a_terms, x_terms = exact_walk("a").terms, exact_walk("x").terms
        steps, alone = _spied(monkeypatch)
        assert paired_constant_terms_mod(targets) == ([_residue(a_terms[n], p) for n, p in targets],
                                                      [_residue(x_terms[n], p) for n, p in targets])
        assert alone == [(A_VZ, N - 1, above), (X_A, N - 1, above)]
        assert steps == {("float64", False), ("int64", True)}  # above is past _P_UNREDUCED
