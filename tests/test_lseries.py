import math
import time

import numpy as np
import pytest

from rankcrit import lseries
from rankcrit.criteria import sp_congruence_rhs, verdict_Ap, verdict_Ep
from rankcrit.lseries import (
    OMEGA_A,
    OMEGA_E,
    BadReductionError,
    CurveSpec,
    _invariants,
    _sieve_spf,
    an_list,
    ap,
    conductor,
    conductor_exponent,
    curve_ap,
    curve_ep,
    l1,
    l1_detail,
    sp,
)
from ._util import primes_leq


def _aq_char_sum(ainvs, q: int) -> int:
    """Reference a_q = -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6), odd q of good reduction, O(q)."""
    b2, b4, b6 = _invariants(ainvs)[0:3]
    x = np.arange(q, dtype=np.int64)
    g = (4 * x + b2 % q) % q
    g = (g * x + (2 * b4) % q) % q
    g = (g * x + b6 % q) % q
    is_sq = np.zeros(q, dtype=bool)
    is_sq[(x * x) % q] = True
    chi = np.where(g == 0, 0, np.where(is_sq[g], 1, -1))
    return -int(chi.sum())


def _aq_enumerate(ainvs, q: int) -> int:
    """Reference a_q = q + 1 - #E(F_q) by brute force over F_q, for tiny q (also q = 2)."""
    a1, a2, a3, a4, a6 = ainvs
    count = 1  # point at infinity
    for x in range(q):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
        for y in range(q):
            if (y * y + a1 * x * y + a3 * y - rhs) % q == 0:
                count += 1
    return q + 1 - count


class TestAp:
    def test_cm_vanishing_small(self):
        assert ap(curve_ep(17), 3) == 0

    def test_value_at_5(self):
        # exhaustive enumeration over F_5 gives #E = 2, a_5 = 5 + 1 - 2
        assert ap(curve_ep(17), 5) == 4

    def test_matches_enumeration(self):
        for curve in (curve_ep(17), curve_ep(41), curve_ap(19)):
            for q in primes_leq(60):
                if q == 2 or curve.discriminant % q == 0:
                    continue
                assert ap(curve, q) == _aq_enumerate(curve.ainvs, q), (curve, q)

    def test_hasse_bound(self):
        curve = curve_ep(97)
        for q in primes_leq(500):
            if q == 2 or curve.discriminant % q == 0:
                continue
            assert abs(ap(curve, q)) <= 2 * math.sqrt(q)

    def test_cm_vanishing_sweep(self):
        curve = curve_ep(113)
        for q in primes_leq(1000):
            if q == 2 or curve.discriminant % q == 0:
                continue
            if q % 4 == 3:
                assert ap(curve, q) == 0, q

    def test_bad_prime_rejected(self):
        with pytest.raises(BadReductionError):
            ap(curve_ep(17), 17)
        with pytest.raises(BadReductionError):
            ap(curve_ep(17), 2)


class TestCMTraces:
    CURVES = (
        [curve_ep(p) for p in (17, 73, 313, 1009)]
        + [curve_ap(p) for p in (19, 109, 379, 1009)]
        + [CurveSpec(A=c, B=0) for c in (1, -1, 2, 12)]
        + [CurveSpec(A=0, B=c) for c in (1, -1, 2, 12)]
    )

    def test_matches_char_sum(self):
        checked = 0
        for curve in self.CURVES:
            for q in primes_leq(3000):
                if q == 2 or curve.discriminant % q == 0:
                    continue
                assert ap(curve, q) == _aq_char_sum(curve.ainvs, q), (curve, q)
                checked += 1
        assert checked > 6500

    def test_inert_primes_vanish(self):
        for q in primes_leq(3000):
            if q > 3 and q % 4 == 3:
                assert lseries._aq_cm_i(1009, q) == 0, q
            if q > 3 and q % 3 == 2:
                assert lseries._aq_cm_omega(-432 * 1009 ** 2, q) == 0, q

    def test_an_list_dispatch(self, monkeypatch):
        # every good prime, 3 for E_41 and 2 for A_19 included, goes through
        # the CM formula; the point counters of this module are only a reference
        for curve, cm in ((curve_ep(41), "_aq_cm_i"), (curve_ap(19), "_aq_cm_omega")):
            calls = []
            real = getattr(lseries, cm)
            monkeypatch.setattr(lseries, cm, lambda c, q, real=real: calls.append(q) or real(c, q))
            an_list(curve, 500)
            N = conductor(curve)
            assert calls == [q for q in primes_leq(500) if N % q], curve


class TestSieve:
    @staticmethod
    def reference(M):
        spf = np.zeros(M + 1, dtype=np.int64)
        for i in range(2, M + 1):
            if spf[i] == 0:
                spf[i::i][spf[i::i] == 0] = i
        return spf

    def test_matches_full_sieve(self):
        for M in (1, 2, 3, 4, 8, 9, 10, 24, 25, 97, 1000, 4096, 10007):
            assert _sieve_spf(M).tolist() == self.reference(M).tolist(), M


class TestAnList:
    def test_first_coefficient(self):
        assert an_list(curve_ep(17), 1) == [0, 1]

    def test_multiplicativity(self):
        a = an_list(curve_ep(17), 15)
        assert a[15] == a[3] * a[5] == 0  # a_3 = 0 by CM

    def test_bad_prime_power_vanishes(self):
        a = an_list(curve_ep(17), 4)
        assert a[2] == 0 and a[4] == 0

    def test_hecke_relation_at_good_prime(self):
        a = an_list(curve_ep(17), 170)
        for q in (5, 13):
            assert a[q * q] == a[q] * a[q] - q
        assert a[125] == a[5] * a[25] - 5 * a[5]

    def test_full_multiplicativity_random(self):
        a = an_list(curve_ep(41), 400)
        for (m, n) in [(3, 7), (5, 13), (9, 25), (11, 36)]:
            assert a[m * n] == a[m] * a[n]

    def test_ap_curve_good_at_2(self):
        # 2 does not divide the conductor 27 p^2, so a_2 is a real trace: 0 by
        # CM (2 is inert in Z[w]), and 0 by counting points on a model of
        # A_19 with good reduction at 2
        model = (0, 9, 9, 27, -2430)
        assert an_list(curve_ap(19), 2)[2] == 0 == _aq_enumerate(model, 2)
        a = an_list(curve_ap(19), 10)
        assert a[3] == 0 and a[19 // 19 * 9] == 0  # bad primes 3, 19


class TestConductor:
    KNOWN = [
        ((0, 0, 0, 1, 0), 64),
        ((0, 0, 0, -1, 0), 32),
        ((0, 0, 0, 0, 1), 36),
        ((0, 0, 0, 0, -432), 27),
        ((0, 0, 1, 0, 0), 27),
        ((0, -1, 1, 0, 0), 11),
        ((0, 0, 1, -1, 0), 37),
        ((0, 0, 0, 4, 0), 32),
        ((0, 0, 0, -4, 0), 64),
    ]

    def test_known_conductors(self):
        for ainvs, want in self.KNOWN:
            got = conductor(CurveSpec(A=ainvs[3], B=ainvs[4])) if ainvs[:3] == (0, 0, 0) else None
            # go through the exponent API for generalized models
            N = 1
            for q in (2, 3, 5, 7, 11, 37):
                N *= q ** conductor_exponent(ainvs, q)
            assert N == want, ainvs
            if got is not None:
                assert got == want

    def test_ep_shape(self):
        # every admissible p <= 10^4 (295 primes); p >= 1000 leaves the cofactor
        # p^3 after trial division of the discriminant
        ps = [p for p in primes_leq(10 ** 4) if p % 16 in (1, 9)]
        assert len(ps) == 295 and {17, 41, 457, 1009, 1033} <= set(ps)
        for p in ps:
            assert conductor(curve_ep(p)) == 64 * p * p, p

    def test_ap_shape(self):
        # every admissible p <= 10^4 (203 primes)
        ps = [p for p in primes_leq(10 ** 4) if p % 9 == 1]
        assert len(ps) == 203 and {19, 37, 1009} <= set(ps)
        for p in ps:
            assert conductor(curve_ap(p)) == 27 * p * p, p

    def test_p_exponent_exactly_two(self):
        for p in (17, 89):
            N = conductor(curve_ep(p))
            assert N % p ** 2 == 0 and N % p ** 3 != 0

    def test_ap_minimal_model_good_at_2(self):
        # y^2 = x^3 - 432*19^2 has even discriminant, but it is the model
        # (0, 9, 9, 27, -2430) scaled by u = 2, whose discriminant is odd
        model = (0, 9, 9, 27, -2430)
        c4, c6, delta = _invariants(model)[4:]
        C4, C6, DELTA = _invariants(curve_ap(19).ainvs)[4:]
        assert (C4, C6, DELTA) == (c4 * 2 ** 4, c6 * 2 ** 6, delta * 2 ** 12)
        assert DELTA % 2 == 0 and delta % 2 != 0
        assert conductor_exponent(curve_ap(19).ainvs, 2) == 0 == conductor_exponent(model, 2)
        assert conductor(curve_ap(19)) % 2 != 0

    def test_minimal_at_primes_above_3(self):
        # A is stored modulo 4th powers and B modulo 6th powers
        assert CurveSpec(625, 0) == CurveSpec(1, 0)
        assert CurveSpec(3 * 35 ** 4, 0).A == 3
        assert CurveSpec(0, -432 * 2 ** 6) == CurveSpec(0, -432)
        assert curve_ep(17).A == 17 and curve_ap(19).B == -432 * 19 ** 2
        # 5 is good for y^2 = x^3 + 625 x, which is y^2 = x^3 + x scaled by u = 5
        assert ap(CurveSpec(625, 0), 5) == 2

    def test_curve_shape_refused(self):
        for A, B in ((-1, 1), (0, 0)):
            with pytest.raises(ValueError):
                CurveSpec(A, B)

    def test_exponent_invariant_under_coordinate_changes(self):
        # f_q cannot depend on the chosen integral model; random unimodular
        # changes of variables exercise every classification branch.
        import random

        from rankcrit.lseries import _invariants, _transform

        rng = random.Random(3)
        checked = 0
        for _ in range(200):
            ainvs = tuple(rng.randint(-6, 6) for _ in range(5))
            if _invariants(ainvs)[-1] == 0:
                continue
            r, s, t = (rng.randint(-4, 4) for _ in range(3))
            moved = _transform(ainvs, r, s, t)
            for q in (2, 3, 5, 7):
                assert conductor_exponent(ainvs, q) == conductor_exponent(moved, q)
            checked += 1
        assert checked > 150


class TestL1:
    def test_l1_near_zero_for_rank_two(self):
        assert abs(l1(curve_ep(73), 1e-8)) < 1e-4

    def test_l1_away_from_zero_for_rank_zero(self):
        assert abs(l1(curve_ep(97), 1e-8)) > 1e-2

    def test_e1_value(self):
        # y^2 = x^3 + x: L(1) = Omega_E / 4
        got = l1(CurveSpec(A=1, B=0), 1e-9)
        assert abs(got - OMEGA_E / 4) < 1e-8

    def test_model_non_minimal_at_5(self):
        # y^2 = x^3 + 625 x is y^2 = x^3 + x scaled by u = 5, and is stored as the latter
        got = an_list(CurveSpec(625, 0), 30)
        assert got == an_list(CurveSpec(1, 0), 30)
        assert got[5] == 2
        assert l1(CurveSpec(625, 0), 1e-9) == pytest.approx(OMEGA_E / 4, abs=1e-8)

    def test_tail_bound_enforced(self):
        _, terms, bound = l1_detail(curve_ep(17), 1e-8)
        assert bound < 1e-8
        assert terms >= 100

    def test_rejects_tiny_tol(self):
        with pytest.raises(ValueError):
            l1(curve_ep(17), 1e-13)


class TestSp:
    def test_17(self):
        rep = sp(17, 1e-8)
        assert rep.s_rounded == 4
        assert rep.residual < 1e-6
        assert rep.converged

    def test_73_vanishes(self):
        rep = sp(73, 1e-8)
        assert rep.s_rounded == 0
        assert rep.converged

    def test_report_fields(self):
        rep = sp(41, 1e-8)
        assert rep.conductor == 64 * 41 * 41
        assert rep.family == "Ep"
        assert rep.tol == 1e-8
        rec = rep.as_record()
        assert rec["p"] == 41 and rec["s_rounded"] == rep.s_rounded

    def test_ap_family(self):
        rep = sp(19, 1e-8, family="Ap")
        assert rep.conductor == 27 * 19 * 19
        assert rep.s_rounded == 0  # 19 = 3^3 + (-2)^3 gives rank >= 1
        assert rep.converged

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            sp(7, 1e-8)
        with pytest.raises(ValueError):
            sp(17, 1e-8, family="Ap")

    def test_speed(self):
        t0 = time.perf_counter()
        assert sp(857, 1e-8).converged
        assert time.perf_counter() - t0 < 1.0


class TestConcordance:
    def test_every_admissible_p_up_to_1000(self):
        # S_p is zero exactly where the criterion says divisible, and for E_p
        # S_p = +-sp_congruence_rhs(p) mod p
        t0 = time.time()
        ep = [p for p in primes_leq(1000) if p % 16 in (1, 9)]
        ap_primes = [p for p in primes_leq(1000) if p % 9 == 1]
        assert (len(ep), len(ap_primes)) == (37, 27)
        for p in ep:
            rep = sp(p, 1e-8)
            assert rep.converged, p
            assert (rep.s_rounded == 0) == verdict_Ep(p).divisible, p
            rhs = sp_congruence_rhs(p)
            assert rep.s_rounded % p in (rhs, -rhs % p), (p, rep.s_rounded, rhs)
        for p in ap_primes:
            rep = sp(p, 1e-8, family="Ap")
            assert rep.converged, p
            assert (rep.s_rounded == 0) == verdict_Ap(p)[0].divisible, p
        assert time.time() - t0 < 60.0, "concordance exceeded its 60 s budget"


class TestPeriods:
    def test_omega_e_value(self):
        assert abs(OMEGA_E - 3.7081493546) < 1e-9

    def test_omega_a_value(self):
        assert abs(OMEGA_A - 1.7666387503) < 1e-9
