"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and are not configurable.
"""

import csv
import io
import math
import random
import time
from fractions import Fraction
from functools import cache

import pytest
from mpmath import mp, mpf

from rankcrit import cli, lseries
from rankcrit.criteria import sp_congruence_rhs, verdict_Ap
from rankcrit.lseries import an_list, curve_ep, sp
from rankcrit.maass import (
    CM_I,
    CM_OMEGA,
    e2star,
    hermite,
    laguerre,
    laguerre_sum,
    lattice_theta_identity_gap,
    verify_eta_identity,
    verify_theta2_identity,
)
from rankcrit.polyring import constant_term, derivative, dot
from rankcrit.recurrences import A_VZ, F_E, X_A, generate_all
from rankcrit.symbolic import cross_check
from ._util import primes_leq
from .golden import (
    A_TABLE,
    EP_SCAN_TABLE,
    F_TABLE_FULL,
    F_TABLE_VISIBLE,
    X_TABLE,
    poly_to_map,
)

TABLE3_TRUE = {p for p, d in EP_SCAN_TABLE.items() if d}


def _report(num: int, desc: str, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num} PASS: {desc} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_golden_tables():
    t0 = time.time()
    a_polys = generate_all(A_VZ, 9)
    for n, want in A_TABLE.items():
        assert poly_to_map(a_polys[n]) == want, f"a_{n}"
    x_polys = generate_all(X_A, 9)
    for n, want in X_TABLE.items():
        assert poly_to_map(x_polys[n]) == want, f"x_{n}"
    f_polys = generate_all(F_E, 9)
    for n, want in F_TABLE_FULL.items():
        assert poly_to_map(f_polys[n]) == want, f"f_{n}"
    for n, want in F_TABLE_VISIBLE.items():
        got = poly_to_map(f_polys[n])
        assert len(f_polys[n]) - 1 == n
        for deg, coeff in want.items():
            assert got.get(deg) == coeff, f"f_{n} @ t^{deg}"
    _report(1, "golden tables reproduced exactly (rows 0..9, all families)", t0, 1.0)


def test_criterion_2_table3_via_cli(capsys):
    t0 = time.time()
    # --jobs 1 because the runtime budget is stated for a single-threaded run
    code = cli.main(["criterion", "--family", "Ep", "--range", "2..460", "--format", "csv", "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    got = {int(r["p"]): r["divisible"] == "true" for r in rows}
    assert got == EP_SCAN_TABLE
    assert len(rows) == 20
    with capsys.disabled():
        _report(2, "criterion scan 2..460 matches all 20 reference verdicts", t0, 10.0)


def test_criterion_3_a_family_cross_consistency():
    t0 = time.time()
    checked = 0
    for p in primes_leq(500):
        if p % 9 != 1:
            continue
        va, vx = verdict_Ap(p)  # CrossCheckError on disagreement
        assert va.divisible == vx.divisible
        checked += 1
    assert checked >= 10
    assert all(v.divisible for v in verdict_Ap(19))
    assert all(v.divisible for v in verdict_Ap(37))
    _report(3, f"a-path and x-path verdicts agree for {checked} primes <= 500; 19 and 37 true", t0, 30.0)


@pytest.fixture(scope="session")
def ep_scan_sp():
    """sp(p, tol=1e-8) for the EP_SCAN_TABLE primes, computed once per session on first use.

    Criteria 4 and 5 read the same reports; whichever runs first pays for
    them inside its timed region.
    """
    return cache(lambda p: sp(p, tol=1e-8, jobs=4))


def test_criterion_4_oracle_concordance(ep_scan_sp):
    t0 = time.time()
    for p, divisible in sorted(EP_SCAN_TABLE.items()):
        rep = ep_scan_sp(p)
        assert rep.converged, p
        assert abs(rep.s_real - rep.s_rounded) < 1e-3, p
        assert rep.s_rounded >= 0, p
        if divisible:
            assert rep.s_rounded == 0, p
        else:
            assert rep.s_rounded > 0, p
    _report(4, "S_p integral to 1e-3 and zero exactly on the criterion-true set", t0, 300.0)


def test_criterion_5_congruence_remark(ep_scan_sp):
    t0 = time.time()
    checked = 0
    for p, divisible in sorted(EP_SCAN_TABLE.items()):
        if divisible:
            continue
        rep = ep_scan_sp(p)
        assert rep.s_rounded > 0
        rhs = sp_congruence_rhs(p)
        assert rep.s_rounded % p in (rhs, (-rhs) % p), (p, rep.s_rounded, rhs)
        checked += 1
    assert checked == 13
    _report(5, "S_p = +/- (p-1)/4!^2 2^(4k-5) 3^(3k-3) f_N(0)^2 mod p for all 13 nonzero cases", t0, 300.0)


def test_criterion_6_theta2_identity():
    t0 = time.time()
    for N in range(9):
        r = verify_theta2_identity(N, 256)
        assert not r.vanishing  # f_N(0) != 0 for N <= 8
        assert r.rel_error < 1e-20, (N, r.rel_error)
        ratio_gap = abs(r.numeric / r.predicted - 1.0)
        assert ratio_gap < 1e-20, (N, ratio_gap)
    _report(6, "squared CM derivative of theta2 at i matches f_N(0) prediction, N <= 8", t0, 5.0)


def test_criterion_7_eta_identities():
    t0 = time.time()
    scale = None
    for N in range(5):
        for case in ("x", "y", "z"):
            r = verify_eta_identity(N, case, 256)
            if r.vanishing:
                assert scale is not None
                assert r.numeric < 1e-18 * scale, (N, case)
            else:
                assert r.rel_error < 1e-18, (N, case, r.rel_error)
                scale = r.numeric
    _report(7, "eta / eta^3 / eta(3z)^3 CM derivatives match x/y/z predictions, N <= 4", t0, 20.0)


def test_criterion_8_symbolic_rederivation():
    t0 = time.time()
    results = cross_check(12)
    assert len(results) == 13
    assert all(ok for _, ok in results)
    _report(8, "theta-ring route reproduces the f recurrence exactly for n <= 12", t0, 1.0)


def _reduce(a, p=None):
    """a mod p, or a itself when p is None."""
    return dot((((1,), a),), p)


def _add(a, b, p=None):
    return dot((((1,), a), ((1,), b)), p)


def _mul(a, b, p=None):
    return dot(((a, b),), p)


def _rand_poly(rng, p=None, max_deg=8, bound=10 ** 6):
    return _reduce([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))], p)


def test_criterion_9_property_suites():
    t0 = time.time()
    # -- ring axioms / Leibniz / homomorphism over Z and Z/p: 8 checks x 1250 iterations = 10^4 cases
    rng = random.Random(20240810)
    moduli = [None, 3, 5, 17, 97]
    for i in range(1250):
        m = moduli[i % len(moduli)]
        a, b, c = (_rand_poly(rng, m) for _ in range(3))
        assert _add(_add(a, b, m), c, m) == _add(a, _add(b, c, m), m)
        assert _add(a, b, m) == _add(b, a, m)
        assert _mul(a, b, m) == _mul(b, a, m)
        assert _mul(_mul(a, b, m), c, m) == _mul(a, _mul(b, c, m), m)
        assert _mul(a, _add(b, c, m), m) == _add(_mul(a, b, m), _mul(a, c, m), m)
        leibniz = dot(((derivative(a), b), (a, derivative(b))), m)
        assert _reduce(derivative(_mul(a, b, m)), m) == leibniz
        az, bz, cz = (_rand_poly(rng, max_deg=5, bound=10 ** 4) for _ in range(3))
        p = (3, 5, 17, 97)[i % 4]
        assert _reduce(_add(_mul(az, bz), cz), p) == _add(_mul(_reduce(az, p), _reduce(bz, p), p), _reduce(cz, p), p)
        assert constant_term(_reduce(az, p)) == constant_term(az) % p

    # -- Hasse bound and CM vanishing on every computed a_q
    curve = curve_ep(41)
    coeffs = an_list(curve, 3000)
    for q in primes_leq(3000):
        if curve.discriminant % q == 0 or q == 2:
            assert coeffs[q] == 0
            continue
        assert abs(coeffs[q]) <= 2 * math.sqrt(q), q
        if q % 4 == 3:
            assert coeffs[q] == 0, q

    # -- E2* zeros at the CM points
    assert abs(e2star(CM_I, 256)) < mpf(10) ** -70
    assert abs(e2star(CM_OMEGA, 256)) < mpf(10) ** -70

    # -- Laguerre recurrence vs defining sum: h <= 30, alpha in {-1/2, 0, 1/2}, x in (0, 50]
    rng2 = random.Random(7)
    with mp.workprec(200):
        for _ in range(60):
            h = rng2.randint(0, 30)
            alpha = rng2.choice([Fraction(-1, 2), Fraction(0), Fraction(1, 2)])
            x = mpf(rng2.uniform(1e-2, 50.0))
            assert abs(laguerre(h, alpha, x) - laguerre_sum(h, alpha, x)) <= mpf(2) ** -192 * max(
                1, abs(laguerre_sum(h, alpha, x))
            )

    # -- Hermite/Laguerre identity on a 20-point grid for n <= 10
    with mp.workprec(120):
        for n in range(11):
            fact = math.factorial(n)
            for j in range(20):
                x = mpf(1) / 10 + mpf(j) / 4
                lhs = hermite(2 * n, x)
                rhs = mpf(-4) ** n * fact * laguerre(n, Fraction(-1, 2), x * x)
                assert abs(lhs - rhs) <= mpf(2) ** -100 * max(1, abs(rhs))

    # -- lattice-sum / theta-product identity at z = i for even orders
    for order in (0, 2, 4):
        assert lattice_theta_identity_gap(order, 128, 40) < 1e-15

    _report(9, "property suites: ring axioms (10^4 cases), Hasse/CM, E2*, Laguerre/Hermite, lattice theta", t0, 120.0)
