import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import libmp, mp, mpc, mpf

from rankcrit import maass
from rankcrit.maass import (
    _GUARD,
    CM_I,
    CM_OMEGA,
    E2,
    ETA,
    ETA3Z_CUBED,
    ETA_CUBED,
    THETA2,
    THETA_HEX,
    PrecisionError,
    _as_point,
    _hex_count,
    _laguerre_guard,
    _mpf_frac,
    _moment_guard,
    _moment_point,
    _moment_width,
    e2star,
    hecke_value_A,
    hecke_value_A_from_theta_forms,
    hecke_value_E,
    hecke_value_E_from_constants,
    hermite,
    laguerre,
    laguerre_sum,
    lattice_theta_identity_gap,
    ms_derivative,
    omega_A,
    omega_E,
    verify_eta_identity,
    verify_theta2_identity,
)
from rankcrit.polyring import constant_term
from rankcrit.recurrences import F_E, generate


def _laguerre_mpf(h: int, alpha, x) -> mpf:
    """L_h^alpha(x) by the three-term recurrence in mpf arithmetic, stable for x > 0;
    the reference for the fixed-point ``laguerre``."""
    a = _mpf_frac(alpha)
    x = mpf(x)
    if h == 0:
        return mpf(1)
    prev, cur = mpf(1), 1 + a - x
    for m in range(1, h):
        prev, cur = cur, ((2 * m + 1 + a - x) * cur - (m + a) * prev) / (m + 1)
    return cur


# every weight - 1 the series use: theta2, eta (-1/2), theta_hex (0), eta^3 (1/2), E2 (1)
_ALPHAS = (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
# 2000 is past the largest 4 pi y mu the thm 5 series reaches at 1024 bits before truncation
_XS = ("0.01", "0.7", "9.5", "120", "2000")


class TestLaguerre:
    def test_h0_is_one(self):
        with mp.workprec(100):
            assert laguerre(0, Fraction(-1, 2), mpf("3.7")) == 1

    def test_h1_closed_form(self):
        with mp.workprec(100):
            x = mpf("1.25")
            assert abs(laguerre(1, Fraction(-1, 2), x) - (mpf(1) / 2 - x)) < mpf(2) ** -90

    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_grid_vs_defining_sum_and_mpf_recurrence(self, prec):
        orders = (0, 1, 7, 31, 48, 64)
        with mp.workprec(prec):
            # one recurrence for all the orders, with the guard bits of the largest
            one_call = {(alpha, x): laguerre(orders, alpha, mpf(x)) for alpha in _ALPHAS for x in _XS}
            for i, h in enumerate(orders):
                for alpha in _ALPHAS:
                    for x_text in _XS:
                        x = mpf(x_text)
                        b = laguerre_sum(h, alpha, x)
                        with mp.workprec(prec + 32):  # mpf steps lose up to ~10 bits at small x
                            ref = _laguerre_mpf(h, alpha, x)
                        for a in (laguerre(h, alpha, x), one_call[alpha, x_text][i]):
                            assert abs(a - b) <= mpf(2) ** -(prec - 8) * max(1, abs(b)), (h, alpha, x)
                            assert abs(a - ref) <= mpf(2) ** -(prec - 8) * max(1, abs(ref)), (h, alpha, x)

    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_negative_x_vs_defining_sum(self, prec):
        # x <= 0: every term of the recurrence adds, and ms_derivative reads its stop bound here
        orders = (0, 1, 7, 31, 48, 64)
        with mp.workprec(prec):
            for alpha in _ALPHAS:
                for x_text in ("0",) + _XS:
                    x = -mpf(x_text)
                    one_call = laguerre(orders, alpha, x)
                    for h, c in zip(orders, one_call):
                        b = laguerre_sum(h, alpha, x)
                        for a in (laguerre(h, alpha, x), c):
                            assert abs(a - b) <= mpf(2) ** -(prec - 8) * max(1, abs(b)), (h, alpha, x)

    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_negative_x_bounds_positive_x(self, prec):
        # |L_h^alpha(x)| <= L_h^alpha(-x) for alpha > -1: the stop bound of ms_derivative
        orders = (0, 1, 7, 31, 48, 64)
        with mp.workprec(prec):
            for alpha in _ALPHAS:
                for x_text in _XS:
                    x = mpf(x_text)
                    for h, at_x, at_minus_x in zip(orders, laguerre(orders, alpha, x), laguerre(orders, alpha, -x)):
                        assert abs(at_x) <= at_minus_x, (h, alpha, x)

    def test_recurrence_vs_defining_sum(self):
        rng = random.Random(42)
        with mp.workprec(200):
            for _ in range(60):
                h = rng.randint(0, 64)
                alpha = rng.choice(_ALPHAS)
                x = mpf(rng.uniform(1e-2, 2000.0))
                a = laguerre(h, alpha, x)
                b = laguerre_sum(h, alpha, x)
                assert abs(a - b) <= mpf(2) ** -192 * max(1, abs(b)), (h, alpha, x)

    def test_guard(self):
        assert [_laguerre_guard(h) for h in (0, 1, 2, 63, 64)] == [8, 10, 12, 20, 22]

    def test_guard_is_needed(self, monkeypatch):
        # the floors of 64 steps at small x add up past 2^8 units without the guard
        with mp.workprec(64):
            x = mpf("0.01")
            b = laguerre_sum(64, 0, x)
            assert abs(laguerre(64, 0, x) - b) <= mpf(2) ** -56 * max(1, abs(b))
            monkeypatch.setattr(maass, "_laguerre_guard", lambda h: 0)
            assert abs(laguerre(64, 0, x) - b) > mpf(2) ** -56 * max(1, abs(b))

    def test_result_at_working_precision(self):
        with mp.workprec(80):
            assert laguerre(40, Fraction(1, 2), mpf("3.3")).man.bit_length() <= 80

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            laguerre(-1, Fraction(-1, 2), mpf(1))

    @pytest.mark.parametrize("alpha", [Fraction(-1, 2), Fraction(1)])
    @pytest.mark.parametrize("x", ["0.01", "2000"])
    def test_every_order_to_64_in_one_call(self, alpha, x):
        # the guard bits of order 64 serve every lower order read on the way
        with mp.workprec(256):
            x = mpf(x)
            values = laguerre(tuple(range(65)), alpha, x)
            assert len(values) == 65
            for h, a in enumerate(values):
                b = laguerre_sum(h, alpha, x)
                assert abs(a - b) <= mpf(2) ** -(256 - 8) * max(1, abs(b)), (h, alpha, x)

    def test_orders_come_back_as_requested(self):
        with mp.workprec(128):
            x = mpf("3.3")
            l0, l4, l9 = laguerre((0, 4, 9), Fraction(1, 2), x)
            assert l0 == 1
            assert laguerre((9, 0, 4), Fraction(1, 2), x) == (l9, l0, l4)
            assert laguerre((), 0, x) == ()

    @pytest.mark.parametrize("orders", [(0, -1), (-3,), (2, 5, 2), (0, 0)])
    def test_negative_or_repeated_orders_refused(self, orders):
        with pytest.raises(ValueError, match="must be >= 0|repeated"):
            laguerre(orders, Fraction(-1, 2), mpf(1))
        with pytest.raises(ValueError, match="must be >= 0|repeated"):
            ms_derivative(THETA2, Fraction(1, 2), orders, CM_I, 64)


class TestHermite:
    def test_low_orders(self):
        with mp.workprec(80):
            x = mpf("0.77")
            assert hermite(0, x) == 1
            assert hermite(1, x) == 2 * x

    def test_h4_at_one(self):
        with mp.workprec(80):
            assert hermite(4, mpf(1)) == -20  # 16 - 48 + 12

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            hermite(-1, mpf(1))

    def test_laguerre_hermite_identity(self):
        # H_{2n}(x) = (-4)^n n! L_n^{-1/2}(x^2) on a grid
        with mp.workprec(120):
            for n in range(11):
                fact = 1
                for i in range(1, n + 1):
                    fact *= i
                for j in range(20):
                    x = mpf(1) / 10 + mpf(j) / 4
                    lhs = hermite(2 * n, x)
                    rhs = mpf(-4) ** n * fact * laguerre(n, Fraction(-1, 2), x * x)
                    assert abs(lhs - rhs) <= mpf(2) ** -100 * max(1, abs(rhs)), (n, j)


def _hex_counts_box(f_max: int) -> list[int]:
    """#{(n, m) : n^2 + nm + m^2 = f} for f < f_max, counted over the whole box
    |n|, |m| <= sqrt(4 f_max / 3) + 2 (n^2 + nm + m^2 >= 3n^2/4, and likewise for m)."""
    counts = [0] * f_max
    bound = math.isqrt(4 * f_max // 3) + 2
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            f = n * n + n * m + m * m
            if f < f_max:
                counts[f] += 1
    return counts


class TestHexCount:
    def test_matches_box_count(self):
        assert [_hex_count(f) for f in range(3000)] == _hex_counts_box(3000)

    def test_theta_hex_counts_each_f_once(self):
        _hex_count.cache_clear()
        terms = list(itertools.islice(THETA_HEX(), 36))
        counted = _hex_count.cache_info().misses
        assert list(itertools.islice(THETA_HEX(), 36)) == terms
        assert _hex_count.cache_info().misses == counted == terms[-1][0] + 1


@functools.cache  # shared by the one-order and the one-pass tests
def _ms_derivative_mpf(series, weight, h: int, z, precision: int) -> mpc:
    """The series sum of ``ms_derivative`` in mpf arithmetic, one mp.exp per term;
    the reference for the integer walk."""
    weight = Fraction(weight)
    with mp.workprec(precision + _GUARD):
        zz = _as_point(z)
        fourpiy = 4 * mp.pi * zz.imag
        two_pi_i_z = 2 * mp.pi * mpc(0, 1) * zz
        threshold = mpf(2) ** (-(precision + 10))
        total = mpc(0)
        small_streak = 0
        for count, (mu, a) in enumerate(series()):
            m = _mpf_frac(mu)
            term = a * laguerre(h, weight - 1, fourpiy * m) * mp.exp(two_pi_i_z * m)
            total += term
            if abs(term) < threshold:
                small_streak += 1
                if small_streak >= 3 and count >= h + 3:
                    break
            else:
                small_streak = 0
        return mpf(-1) ** h * mp.factorial(h) / fourpiy ** h * total


_SERIES = {
    "theta2": (THETA2, Fraction(1, 2)),
    "eta": (ETA, Fraction(1, 2)),
    "eta^3": (ETA_CUBED, Fraction(3, 2)),
    "eta(3z)^3": (ETA3Z_CUBED, Fraction(3, 2)),
    "E2": (E2, 2),
    "theta_hex": (THETA_HEX, 1),
}


class TestSeries:
    @pytest.mark.parametrize("name", sorted(_SERIES))
    def test_fraction_int_pairs_increasing(self, name):
        # the exponential walk of ms_derivative needs increasing mu
        terms = list(itertools.islice(_SERIES[name][0](), 300))
        assert all(type(mu) is Fraction and type(a) is int for mu, a in terms)
        assert all(mu0 < mu1 for (mu0, _), (mu1, _) in zip(terms, terms[1:]))


class TestMsDerivative:
    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_matches_mpf_sum(self, prec):
        orders = (0, 1, 7, 32, 64) if prec <= 256 else (0, 1, 7, 32)
        for name, (series, weight) in _SERIES.items():
            for z in (CM_I, CM_OMEGA, 0.3 + 1.1j):
                for h in orders:
                    got = ms_derivative(series, weight, h, z, prec)
                    ref = _ms_derivative_mpf(series, weight, h, z, prec)
                    with mp.workprec(prec + _GUARD):
                        y = _as_point(z).imag
                        bound = mpf(2) ** -prec * max(abs(ref), mp.factorial(h) / (4 * mp.pi * y) ** h)
                        assert abs(got - ref) <= bound, (name, z, h)

    @pytest.mark.parametrize("prec", [64, 256])
    def test_high_orders_match_mpf_sum(self, prec):
        # past order 64 the moment guard grows with the order; E2 at i (4 pi y / D = 12.6) cancels most
        for name, z in (("theta2", CM_I), ("eta", CM_OMEGA), ("theta_hex", CM_OMEGA), ("E2", CM_I)):
            series, weight = _SERIES[name]
            for h in (96, 128):
                got = ms_derivative(series, weight, h, z, prec)
                ref = _ms_derivative_mpf(series, weight, h, z, prec)
                with mp.workprec(prec + _GUARD):
                    y = _as_point(z).imag
                    bound = mpf(2) ** -prec * max(abs(ref), mp.factorial(h) / (4 * mp.pi * y) ** h)
                    assert abs(got - ref) <= bound, (name, z, h)

    def test_moment_guard_grows_with_the_order(self, monkeypatch):
        # 20 guard bits still serve order 32 of E2 at i, but order 128 cancels past them
        assert [_moment_guard(top) for top in (0, 64, 65, 128)] == [80, 80, 81, 144]
        monkeypatch.setattr(maass, "_moment_guard", lambda top: 20)
        for h, within in ((32, True), (128, False)):
            got = ms_derivative(E2, 2, h, CM_I, 64)
            ref = _ms_derivative_mpf(E2, 2, h, CM_I, 64)
            with mp.workprec(64 + _GUARD):
                bound = mpf(2) ** -64 * max(abs(ref), mp.factorial(h) / (4 * mp.pi) ** h)
                assert (abs(got - ref) <= bound) is within, h

    def test_one_laguerre_call_per_term(self, monkeypatch):
        # perfbench counts maass.laguerre calls as the series terms ms_derivative consumed
        calls = []
        real = maass.laguerre
        monkeypatch.setattr(maass, "laguerre", lambda *args: calls.append(args) or real(*args))
        for series, weight in _SERIES.values():
            for h in (0, 7, (0, 1, 7, 32)):
                consumed = []

                def counted():
                    for term in series():
                        consumed.append(term)
                        yield term

                calls.clear()
                ms_derivative(counted, weight, h, CM_OMEGA, 256)
                assert len(calls) == len(consumed) > 0, (series, h)

    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_one_pass_matches_mpf_sum(self, prec):
        orders = (0, 1, 7, 32)
        for name, (series, weight) in _SERIES.items():
            for z in (CM_I, CM_OMEGA, 0.3 + 1.1j):
                got = ms_derivative(series, weight, orders, z, prec)
                assert len(got) == len(orders)
                for h, value in zip(orders, got):
                    ref = _ms_derivative_mpf(series, weight, h, z, prec)
                    with mp.workprec(prec + _GUARD):
                        y = _as_point(z).imag
                        bound = mpf(2) ** -prec * max(abs(ref), mp.factorial(h) / (4 * mp.pi * y) ** h)
                        assert abs(value - ref) <= bound, (name, z, h)

    @pytest.mark.parametrize("name, point, prec, top", [
        ("theta2", CM_I, 1024, 32),
        ("eta", CM_OMEGA, 512, 25),
        ("eta(3z)^3", CM_OMEGA, 512, 25),
        ("theta_hex", CM_OMEGA, 256, 23),
        ("theta2", CM_I, 64, 64),
    ])
    def test_one_pass_equals_one_order_calls(self, name, point, prec, top):
        # each order sums exactly the terms it sums alone: the values are equal, not just close
        series, weight = _SERIES[name]
        got = ms_derivative(series, weight, tuple(range(top + 1)), point, prec)
        assert list(got) == [ms_derivative(series, weight, h, point, prec) for h in range(top + 1)]

    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_shared_moment_point(self, prec):
        # one g per pass: each order's right shift is within one unit of floor(g 2^W) at its
        # own width W, against g with a 400-bit guard, for every series' D and weight
        orders = (*range(65), 96, 128)
        for name, (series, weight) in _SERIES.items():
            D, s = next(series())[0].denominator, Fraction(weight).denominator
            for z in (CM_I, CM_OMEGA, 0.3 + 1.1j):
                with mp.workprec(prec + _GUARD):
                    y = _as_point(z).imag
                    for top in (0, 128):
                        g, width = _moment_point(D, y, s, top)
                        assert width == _moment_width(max(64, top))
                        for h in (h for h in orders if h <= max(64, top)):
                            W = _moment_width(h)
                            with mp.workprec(W + 400):
                                ref = int(mp.floor(D / (4 * mp.pi * y * s) * mpf(2) ** W))
                            assert abs((g >> (width - W)) - ref) <= 1, (name, z, top, h)

    @pytest.mark.parametrize("prec", [64, 256])
    def test_one_pass_past_order_64_matches_mpf_sum(self, prec):
        # with orders past 64 the shared g is taken wider and shifted down to every order
        orders = (*range(0, 65, 8), 96, 128)
        for name, z in (("theta2", CM_I), ("E2", CM_I)):
            series, weight = _SERIES[name]
            got = ms_derivative(series, weight, orders, z, prec)
            for h, value in zip(orders, got):
                ref = _ms_derivative_mpf(series, weight, h, z, prec)
                with mp.workprec(prec + _GUARD):
                    y = _as_point(z).imag
                    bound = mpf(2) ** -prec * max(abs(ref), mp.factorial(h) / (4 * mp.pi * y) ** h)
                    assert abs(value - ref) <= bound, (name, h)

    def test_finite_series_sums_every_term(self):
        # a series that ends before the stop rule acts: every order sums all of it
        terms = list(itertools.islice(THETA2(), 3))

        def short():
            yield from terms

        got = ms_derivative(short, Fraction(1, 2), (0, 2, 9), CM_I, 128)
        for h, value in zip((0, 2, 9), got):
            ref = _ms_derivative_mpf(short, Fraction(1, 2), h, CM_I, 128)
            with mp.workprec(128 + _GUARD):
                assert abs(value - ref) <= mpf(2) ** -128 * max(abs(ref), mp.factorial(h) / (4 * mp.pi) ** h), h

    def test_second_denominator_is_refused(self):
        # every frequency shares the denominator of the first one: one exponential walk per series
        def mixed():
            yield Fraction(1, 8), 1
            yield Fraction(1, 4), 1

        for h in (0, (0, 3)):
            with pytest.raises(ValueError, match="denominator 4, not the series' 8"):
                ms_derivative(mixed, Fraction(1, 2), h, CM_I, 64)

    def test_empty_series_is_zero(self):
        def empty():
            yield from ()

        for h in (0, 7, (0, 1, 7, 32)):
            got = ms_derivative(empty, Fraction(1, 2), h, CM_OMEGA, 128)
            assert got == (0 if isinstance(h, int) else (0,) * len(h)), h

    def test_stop_rule_is_per_order(self):
        # order 32 runs the series far past where order 0 stops; order 0 must not see those terms
        for series, weight in _SERIES.values():
            alone = ms_derivative(series, weight, (0,), CM_I, 256)
            together = ms_derivative(series, weight, (0, 32), CM_I, 256)
            assert together[0] == alone[0] == ms_derivative(series, weight, 0, CM_I, 256)
            assert ms_derivative(series, weight, (32, 0), CM_I, 256) == together[::-1]

    def test_order_zero_is_plain_evaluation(self):
        # theta2(i) = 2 sum e^{-pi (m+1/2)^2}
        with mp.workprec(300):
            direct = 2 * sum(mp.exp(-mp.pi * (mpf(2 * m + 1) ** 2) / 4) for m in range(40))
            got = ms_derivative(THETA2, Fraction(1, 2), 0, CM_I, 256)
            assert abs(got - direct) < mpf(2) ** -250

    def test_theta2_cm_value(self):
        # |theta2(i)| = 2^{-1/4} pi^{-1/2} Omega_E^{1/2}
        with mp.workprec(300):
            got = abs(ms_derivative(THETA2, Fraction(1, 2), 0, CM_I, 256))
            want = mpf(2) ** (-mpf(1) / 4) / mp.sqrt(mp.pi) * mp.sqrt(omega_E(256))
            assert abs(got - want) / want < mpf(2) ** -250

    def test_eta_cm_value(self):
        # |eta(omega)| = 3^{3/8} Omega_A^{1/2} / (2^{1/2} pi^{1/2})
        with mp.workprec(300):
            got = abs(ms_derivative(ETA, Fraction(1, 2), 0, CM_OMEGA, 256))
            want = mpf(3) ** (mpf(3) / 8) * mp.sqrt(omega_A(256)) / mp.sqrt(2 * mp.pi)
            assert abs(got - want) / want < mpf(2) ** -250

    def test_hermite_form_agrees_with_derivative(self):
        # theta_(2h)[1/2; 0](i) = (-1)^h 2^{3h} d^(h) theta2 at i: the even-order
        # Hermite-weighted theta sum and the Laguerre-based derivative must match.
        with mp.workprec(260):
            for h in (0, 1, 2, 3):
                root = mp.sqrt(2 * mp.pi)
                s = mpf(0)
                for j in range(40):
                    n = mpf(2 * j + 1) / 2
                    s += 2 * hermite(2 * h, n * root) * mp.exp(-mp.pi * n * n)
                theta_form = mpf(-1) ** h * (2 * mp.pi) ** (-mpf(h)) * s  # i^{-2h} = (-1)^h
                derivative_form = mpf(-1) ** h * mpf(2) ** (3 * h) * ms_derivative(
                    THETA2, Fraction(1, 2), h, CM_I, 220
                ).real
                assert abs(theta_form - derivative_form) <= mpf(2) ** -200 * max(
                    1, abs(theta_form)
                ), h

    def test_rejects_low_precision(self):
        with pytest.raises(PrecisionError):
            ms_derivative(THETA2, Fraction(1, 2), 0, CM_I, 32)

    @pytest.mark.parametrize("weight", [0, Fraction(-1, 2)])
    def test_rejects_nonpositive_weight(self, weight):
        # the stop bound |L_h^{k-1}(x)| <= L_h^{k-1}(-x) needs k - 1 > -1
        with pytest.raises(ValueError, match="weight must be > 0"):
            ms_derivative(THETA2, weight, 0, CM_I, 64)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            ms_derivative(THETA2, Fraction(1, 2), 0, -1j, 128)


class TestE2Star:
    def test_vanishes_at_i(self):
        assert abs(e2star(CM_I, 256)) < mpf(10) ** -70

    def test_vanishes_at_omega(self):
        assert abs(e2star(CM_OMEGA, 256)) < mpf(10) ** -70

    def test_generic_point_control(self):
        assert abs(e2star(2j, 256)) > 0.1


class TestTheta2Identity:
    def test_seed_case(self):
        r = verify_theta2_identity(0, 256)
        assert r.rel_error < 1e-30

    def test_n2_uses_f2(self):
        r = verify_theta2_identity(2, 256)
        assert "f_2(0)=-9" in r.constant
        assert r.rel_error < 1e-20

    def test_n6_uses_f6(self):
        r = verify_theta2_identity(6, 256)
        assert "80919" in r.constant
        assert r.rel_error < 1e-20

    def test_range_to_8(self):
        for N in range(9):
            r = verify_theta2_identity(N, 256)
            assert r.rel_error < 1e-20, (N, r.rel_error)
            assert r.predicted >= 0

    @pytest.mark.parametrize("N", [-1, [0, -1]])
    def test_negative_index_refused(self, N):
        with pytest.raises(ValueError, match=r"^index N must be >= 0, got -1$"):
            verify_theta2_identity(N, 256)


class TestEtaIdentities:
    def test_x_seed(self):
        r = verify_eta_identity(0, "x", 256)
        assert r.k == 1 and r.order == 0
        assert r.rel_error < 1e-20

    def test_x_n1_uses_x3(self):
        r = verify_eta_identity(1, "x", 256)
        assert r.k == 7 and "x_3(0)=2" in r.constant
        assert r.rel_error < 1e-18

    def test_x_n2_uses_x6(self):
        r = verify_eta_identity(2, "x", 256)
        assert r.k == 13 and "-152" in r.constant
        assert r.rel_error < 1e-18

    def test_z_seed(self):
        r = verify_eta_identity(0, "z", 256)
        assert r.k == 4 and "z_1(0)=1" in r.constant
        assert r.rel_error < 1e-18

    def test_y_order_is_3n(self):
        r = verify_eta_identity(2, "y", 256)
        assert r.order == 6
        assert r.rel_error < 1e-18

    def test_all_cases_to_4(self):
        for N in range(5):
            for case in ("x", "y", "z"):
                r = verify_eta_identity(N, case, 256)
                assert r.rel_error < 1e-18, (N, case, r.rel_error)
                assert r.predicted >= 0

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            verify_eta_identity(1, "w", 256)

    @pytest.mark.parametrize("case", ["x", "y", "z"])
    @pytest.mark.parametrize("N", [-1, range(-1, 3)])
    def test_negative_index_refused(self, case, N):
        with pytest.raises(ValueError, match=r"^index N must be >= 0, got -1$"):
            verify_eta_identity(N, case, 256)


class TestHeckeValues:
    def test_even_weight_zero_by_construction(self):
        for k in (2, 4, 10):
            assert hecke_value_E(k, 128) == 0
            assert hecke_value_E_from_constants(k, 128) == 0

    def test_odd_weight_paths_agree(self):
        for k in (1, 3, 7):
            a = hecke_value_E(k, 192)
            b = hecke_value_E_from_constants(k, 192)
            assert abs(a - b) / b < mpf(10) ** -40

    def test_a_side_zero_classes(self):
        for k in (3, 5, 6, 9):
            assert hecke_value_A_from_theta_forms(k, 128) == 0
            assert abs(hecke_value_A(k, 128)) < mpf(10) ** -25

    def test_a_side_paths_agree(self):
        for k in (1, 2, 4, 7, 8, 10):
            forms = hecke_value_A_from_theta_forms(k, 192)
            lattice = hecke_value_A(k, 192)
            assert abs(forms - lattice) / abs(lattice) < mpf(10) ** -40

    def test_nonnegative(self):
        for k in (1, 3, 7, 8):
            assert hecke_value_E(k, 128) >= 0
            assert hecke_value_A_from_theta_forms(k, 128) >= 0


class TestBatches:
    """A sequence of indices gives the values of the one-index calls, from one pass per series."""

    NS = range(5)

    def test_verify_identities(self):
        assert verify_theta2_identity(self.NS, 256) == [verify_theta2_identity(N, 256) for N in self.NS]
        for case in ("x", "y", "z"):
            assert verify_eta_identity(self.NS, case, 256) == [
                verify_eta_identity(N, case, 256) for N in self.NS]

    @pytest.mark.parametrize("fn", [hecke_value_E, hecke_value_E_from_constants,
                                    hecke_value_A, hecke_value_A_from_theta_forms])
    def test_hecke_values(self, fn):
        ks = range(1, 19)
        assert fn(ks, 192) == [fn(k, 192) for k in ks]

    def test_one_pass_per_series(self, monkeypatch):
        calls = []
        real = maass.ms_derivative

        def counted(series, weight, h, z, precision):
            calls.append(series)
            return real(series, weight, h, z, precision)

        monkeypatch.setattr(maass, "ms_derivative", counted)
        verify_theta2_identity(range(9), 128)
        assert calls == [THETA2]
        calls.clear()
        hecke_value_A_from_theta_forms(range(1, 25), 128)
        hecke_value_A(range(1, 25), 128)
        assert calls == [ETA, ETA_CUBED, ETA3Z_CUBED, THETA_HEX]

    def test_periods_computed_once_per_precision(self):
        assert omega_E(320) is omega_E(320) and omega_A(320) is omega_A(320)
        with mp.workprec(400):
            assert abs(omega_E(320) - mp.gamma(mpf(1) / 4) ** 2 / (2 * mp.sqrt(mp.pi))) < mpf(2) ** -350

    def test_report_record_is_floats(self):
        r = verify_theta2_identity(3, 256)
        rec = r.as_record()
        assert type(rec["numeric"]) is float and rec["numeric"] == float(r.numeric)
        assert type(rec["rel_error"]) is float and rec["rel_error"] == float(r.rel_error)
        assert isinstance(r.rel_error, mpf)


def _laguerre_by_constructor(orders: tuple, alpha, x) -> tuple:
    """``laguerre``'s fixed-point recurrence with x read and each result rounded by the mpf
    constructor, as mpf(x) and mpf((fixed, -w)): the reference for its libmp tuples."""
    a = Fraction(alpha)
    r, s = a.numerator, a.denominator
    w = mp.prec + _laguerre_guard(max(orders))
    sx = s * libmp.to_fixed(mpf(x)._mpf_, w)
    prev, cur = 0, 1 << w
    fixed = [cur]
    for m in range(max(orders)):
        step = ((2 * m + 1) * s + r) * cur - ((sx * cur) >> w) - (m * s + r) * prev
        prev, cur = cur, step // ((m + 1) * s)
        fixed.append(cur)
    return tuple(mpf((fixed[n], -w)) for n in orders)


def _power_by_operators(base: int, e) -> mpf:
    """base^e through the mpf operators: the reference for ``_power``'s libmp calls."""
    e = Fraction(e)
    whole, rest = divmod(e.numerator, e.denominator)
    value = mpf(base) ** whole
    return value * maass._root(base, e.denominator, mp.prec) ** rest if rest else value


# The mpf operator forms of the CM route after the series sums: the references for the libmp
# calls that stand in for them in maass.

_PRECISIONS = (64, 256, 512, 1024)  # each run at precision + _GUARD bits, as the CM route runs


def _benchmark_weights(row) -> list[int]:
    """The weights of a row for N = 0..32 (thm 5 and thm 3 to --max-n 32 for f), or N = 0..8
    (thm 6 to --max-n 8 for x, y, z)."""
    return [maass._at(row.k, N) for N in range(33 if row.point == CM_I else 9)]


def _two_three_by_operators(e2, e3, k: int) -> mpf:
    return _power_by_operators(2, maass._at(e2, k)) * _power_by_operators(3, maass._at(e3, k))


def _closed_forms_by_operators(row, ks, cs, precision: int) -> list[mpf]:
    om = omega_E(precision) if row.point == CM_I else omega_A(precision)
    ratio = om / mp.pi
    return [ratio ** (2 * k - 1) * _two_three_by_operators(row.e2, row.e3, k) * _mpf_frac(c) ** 2
            for k, c in zip(ks, cs)]


def _moment_sum_by_operators(h, weight, D, ure, uim, point, w) -> mpc:
    coeffs = maass._expansion(h, weight.numerator, weight.denominator)
    W = _moment_width(h)
    g = point[0] >> (point[1] - W)
    re, im = coeffs[0] * ure[0], coeffs[0] * uim[0]
    for j in range(1, h + 1):
        re = ((re * g) >> W) + coeffs[j] * ure[j]
        im = ((im * g) >> W) + coeffs[j] * uim[j]
    return mpc(mpf((re, -w)), mpf((im, -w))) / D ** h


def _hecke_value_by_operators(point: str, ks, precision: int, from_constants: bool) -> list[mpf]:
    values = dict.fromkeys(ks, mpf(0))
    with mp.workprec(precision + _GUARD):
        for row in (row for row in maass._IDENTITIES.values() if row.point == point):
            a, b = row.k
            mine = [k for k in ks if k % a == b]
            orders = [maass._at(row.order, (k - b) // a) for k in mine]
            if from_constants:
                squares = _closed_forms_by_operators(row, mine, maass._constants(row, orders), precision)
            else:
                squares = [abs(d) ** 2 for d in ms_derivative(row.series, row.weight, orders, row.point, precision)]
            for k, square in zip(mine, squares):
                scale = _two_three_by_operators(row.h2, row.h3, k) * mp.pi ** k / mp.factorial(k - 1)
                values[k] = scale * square
    return [values[k] for k in ks]


def _hecke_value_A_by_operators(ks, precision: int) -> list[mpf]:
    with mp.workprec(precision + _GUARD):
        derivatives = ms_derivative(THETA_HEX, 1, tuple(k - 1 for k in ks), CM_OMEGA, precision)
        return [(mpf(-1) ** (k - 1) * mpf(2) ** (k - 1) * mpf(3) ** (mpf(k) / 2 - 2) * mp.pi ** k
                 / mp.factorial(k - 1) * d).real for k, d in zip(ks, derivatives)]


class TestLibmpTuples:
    """The paths that build mpf values from libmp tuples give the tuples, bit for bit, of
    the mpf operators and constructors they stand in for."""

    @pytest.mark.parametrize("prec", [64, 256, 1064])
    def test_laguerre_equals_the_constructor(self, prec):
        with mp.workprec(prec):
            with mp.workprec(2 * prec):
                wide = mp.sqrt(2) * 7  # more bits than prec: laguerre must round it as mpf(x) does
            xs = [mpf("0.01"), mpf("9.5"), mpf(-2000), mpf(0), -4 * mp.pi * mpf("1.1") * 3 / 8, wide, 7, 0.3,
                  mp.pi]
            for alpha in (*_ALPHAS, Fraction(3, 2), 2, "1/2"):
                for x in xs:
                    for h in range(65):
                        got = laguerre(h, alpha, x)
                        assert got._mpf_ == _laguerre_by_constructor((h,), alpha, x)[0]._mpf_, (h, alpha, x)
                    orders = (64, 0, 31, 7)
                    want = _laguerre_by_constructor(orders, alpha, x)
                    assert [v._mpf_ for v in laguerre(orders, alpha, x)] == [v._mpf_ for v in want]

    def test_stop_bound_argument_equals_the_operators(self, monkeypatch):
        seen = []
        real = maass.laguerre
        monkeypatch.setattr(maass, "laguerre", lambda h, alpha, x: seen.append(x) or real(h, alpha, x))
        for series, weight in _SERIES.values():
            for point in (CM_I, CM_OMEGA):
                terms = []

                def counted():
                    for term in series():
                        terms.append(term)
                        yield term

                seen.clear()
                ms_derivative(counted, weight, (0, 7), point, 256)
                with mp.workprec(256 + _GUARD):
                    y = _as_point(point).imag
                    with mp.workprec(64):
                        minus_4piy = -4 * mp.pi * y
                        want = [minus_4piy * mu.numerator / mu.denominator for mu, _ in terms]
                assert all(type(x) is mpf for x in seen)
                assert [x._mpf_ for x in seen] == [x._mpf_ for x in want], (series, point)

    @pytest.mark.parametrize("prec", [104, 296, 1064])
    def test_power_equals_the_operators(self, prec):
        with mp.workprec(prec):
            for row in maass._IDENTITIES.values():
                slope, intercept = row.k
                for N in range(33):
                    k = slope * N + intercept
                    for base, form in ((2, row.e2), (3, row.e3), (2, row.h2), (3, row.h3)):
                        e = maass._at(form, k)
                        assert maass._power(base, e) == _power_by_operators(base, e)._mpf_, (row.name, k, e)
            for e in (0, 1, -1, 37, -37, Fraction(-9, 4), Fraction(6, 3)):
                for base in (2, 3):
                    assert maass._power(base, e) == _power_by_operators(base, e)._mpf_, (base, e)

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_two_three_equals_the_operators(self, precision):
        with mp.workprec(precision + _GUARD):
            for row in maass._IDENTITIES.values():
                for k in _benchmark_weights(row):
                    for e2, e3 in ((row.e2, row.e3), (row.h2, row.h3)):
                        assert maass._two_three(e2, e3, k) == _two_three_by_operators(e2, e3, k)._mpf_, (row.name, k)

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_closed_forms_equal_one_row_at_a_time(self, precision):
        with mp.workprec(precision + _GUARD):
            for row in maass._IDENTITIES.values():
                ks = _benchmark_weights(row)
                orders = [maass._at(row.order, N) for N in range(len(ks))]
                for cs in (maass._constants(row, orders), [Fraction(N * N - 5, 3) for N in range(len(ks))]):
                    want = _closed_forms_by_operators(row, ks, cs, precision)
                    assert maass._closed_forms(row, ks, cs, precision) == [v._mpf_ for v in want], row.name

    def test_closed_forms_equal_the_operators_at_every_eighth_precision(self):
        # pi rounded to one more bit gives the same Omega/pi at all four _PRECISIONS: a sweep
        # of working precisions reaches the ones where it does not
        for precision in range(64, 1025, 8):
            with mp.workprec(precision + _GUARD):
                for row in maass._IDENTITIES.values():
                    ks = _benchmark_weights(row)[:4]
                    cs = maass._constants(row, [maass._at(row.order, N) for N in range(4)])
                    want = _closed_forms_by_operators(row, ks, cs, precision)
                    assert maass._closed_forms(row, ks, cs, precision) == [v._mpf_ for v in want], (row.name, precision)
            ks = range(1, 10)
            want = _hecke_value_by_operators(CM_I, ks, precision, from_constants=True)
            assert [v._mpf_ for v in hecke_value_E_from_constants(ks, precision)] == [v._mpf_ for v in want], precision

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_moment_sum_equals_the_operators(self, monkeypatch, precision):
        real = maass._moment_sum
        seen = []

        def checked(h, weight, D, ure, uim, point, w):
            got = real(h, weight, D, ure, uim, point, w)
            want = _moment_sum_by_operators(h, weight, D, ure, uim, point, w)
            seen.append((D, h, got._mpc_ == want._mpc_))
            return got

        monkeypatch.setattr(maass, "_moment_sum", checked)
        for row in maass._IDENTITIES.values():
            ms_derivative(row.series, row.weight, range(33), row.point, precision)
        ms_derivative(THETA_HEX, 1, range(24), CM_OMEGA, precision)
        ms_derivative(lambda: iter([(Fraction(1, 8), 0), (Fraction(9, 8), 0)]), Fraction(1, 2), range(4), CM_I,
                      precision)  # every moment 0
        assert {D for D, _, _ in seen} == {1, 8, 24} and len(seen) == 4 * 33 + 24 + 4
        assert [(D, h) for D, h, same in seen if not same] == []

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_squared_derivatives_equal_the_operators(self, precision):
        with mp.workprec(precision + _GUARD):
            for row in maass._IDENTITIES.values():
                orders = [maass._at(row.order, N) for N in range(len(_benchmark_weights(row)))]
                want = [abs(d) ** 2 for d in ms_derivative(row.series, row.weight, orders, row.point, precision)]
                assert maass._squared_derivatives(row, orders, precision) == [v._mpf_ for v in want], row.name

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_hecke_values_equal_the_operators(self, precision):
        E_ks, A_ks = range(1, 66), range(1, 25)  # thm 3 to --max-n 32, thm 4 to --max-n 3
        for fn, point, ks, from_constants in ((hecke_value_E, CM_I, E_ks, False),
                                              (hecke_value_E_from_constants, CM_I, E_ks, True),
                                              (hecke_value_A_from_theta_forms, CM_OMEGA, A_ks, False)):
            want = _hecke_value_by_operators(point, ks, precision, from_constants)
            assert [v._mpf_ for v in fn(ks, precision)] == [v._mpf_ for v in want], fn.__name__
        # odd and even k: 3^(k/2 - 2) is a half-integer power for odd k
        want = _hecke_value_A_by_operators(A_ks, precision)
        assert [v._mpf_ for v in hecke_value_A(A_ks, precision)] == [v._mpf_ for v in want]

    @pytest.mark.parametrize("precision", _PRECISIONS)
    def test_report_errors_equal_the_operators(self, monkeypatch, precision):
        # every third constant and every fourth derivative 0, so that some rows vanish (with and
        # without a numeric 0) and some compare a numeric 0; every other third constant tripled,
        # so that the difference of the two sides is not exact
        real_constants, real_derivative = maass._constants, maass.ms_derivative
        monkeypatch.setattr(maass, "_constants", lambda row, orders: [
            c * (0, 3, 1)[i % 3] for i, c in enumerate(real_constants(row, orders))])
        monkeypatch.setattr(maass, "ms_derivative", lambda *args: tuple(
            d if i % 4 else mpc(0) for i, d in enumerate(real_derivative(*args))))
        reports = verify_theta2_identity(range(33), precision)
        reports += [r for case in "xyz" for r in verify_eta_identity(range(9), case, precision)]
        kinds = set()
        with mp.workprec(precision + _GUARD):
            for r in reports:
                error = abs(r.numeric - r.predicted)
                assert r.abs_error._mpf_ == error._mpf_, (r.case, r.N)
                if r.vanishing:
                    assert r.predicted == 0 and r.rel_error == (mp.inf if r.numeric != 0 else 0), (r.case, r.N)
                else:
                    assert r.rel_error._mpf_ == (error / abs(r.predicted))._mpf_, (r.case, r.N)
                kinds.add((r.vanishing, r.numeric == 0))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_constants_of_f_from_the_v_walk(self):
        row = maass._IDENTITIES["f"]
        assert row.family is F_E and row.family.in_v is not None
        ns = list(range(101))
        got = maass._constants(row, ns)
        assert got == [Fraction(constant_term(generate(F_E, n))) for n in ns]
        assert all(type(c) is Fraction and c.denominator == 1 for c in got)
        assert maass._constants(row, [7, 0, 3]) == [got[7], got[0], got[3]]
        assert maass._constants(row, []) == []


def _gamma_omega_E(precision: int) -> mpf:
    """The gamma form of Omega_E, as the periods were once computed: 140 guard bits."""
    with mp.workprec(precision + 140):
        v = mp.gamma(mpf(1) / 4) ** 2 / (2 * mp.sqrt(mp.pi))
    with mp.workprec(precision + _GUARD):
        return +v


def _gamma_omega_A(precision: int) -> mpf:
    with mp.workprec(precision + 140):
        v = mp.gamma(mpf(1) / 3) ** 3 / (2 * mp.pi * mp.sqrt(3))
    with mp.workprec(precision + _GUARD):
        return +v


class TestPeriods:
    @pytest.mark.parametrize("precision", [64, 256, 512, 777, 1024])
    def test_agm_equals_gamma_form(self, precision):
        assert omega_E(precision) == _gamma_omega_E(precision)
        assert omega_A(precision) == _gamma_omega_A(precision)

    def test_guard_64_equals_guard_400(self, monkeypatch):
        # why _PERIOD_GUARD = 64 suffices: a 400-bit guard rounds to the same mpf
        precisions = range(64, 2049, 11)
        narrow = [(omega_E.__wrapped__(p), omega_A.__wrapped__(p)) for p in precisions]
        monkeypatch.setattr(maass, "_PERIOD_GUARD", 400)
        wide = [(omega_E.__wrapped__(p), omega_A.__wrapped__(p)) for p in precisions]
        assert narrow == wide

    def test_speed_at_8000_bits(self):
        # mp.gamma(1/4) alone takes seconds at 8000 bits; __wrapped__ leaves the cache alone
        t0 = time.perf_counter()
        omega_E.__wrapped__(8000)
        omega_A.__wrapped__(8000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"both periods at 8000 bits took {elapsed:.2f} s"


class TestLatticeThetaIdentity:
    def test_even_orders(self):
        for order in (0, 2, 4):
            assert lattice_theta_identity_gap(order, 128, 40) < 1e-15
