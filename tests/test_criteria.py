import concurrent.futures
import hashlib
import json
import time

import pytest

from rankcrit import _primality, criteria
from rankcrit._primality import is_prime
from rankcrit.criteria import (
    CrossCheckError,
    admissible,
    scan,
    sp_congruence_rhs,
    verdict_Ap,
    verdict_Ep,
    weight_for,
)
from rankcrit.recurrences import _P_MAX
from ._util import primes_leq
from .golden import EP_SCAN_TABLE, SCAN_3000_SHA256


class TestAdmissible:
    def test_ep_17(self):
        ok, index = admissible(17, "Ep")
        assert ok and index == 6

    def test_ep_rejects_7(self):
        assert not admissible(7, "Ep").ok

    def test_ep_rejects_composite_in_class(self):
        assert not admissible(33, "Ep").ok  # 33 = 1 mod 16 but composite

    def test_ap_19(self):
        ok, index = admissible(19, "Ap")
        assert ok and index == 6

    def test_ap_index_multiple_of_3(self):
        for p in primes_leq(500):
            got = admissible(p, "Ap")
            if got.ok:
                assert got.index % 3 == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            admissible(17, "Zp")

    @pytest.mark.parametrize("call, message", [
        (lambda: verdict_Ep(7), "7 is not an admissible prime for Ep (needs p = 1, 9 mod 16)"),
        (lambda: verdict_Ap(17), "17 is not an admissible prime for Ap (needs p = 1 mod 9)"),
        (lambda: admissible(17, "Zp"), "unknown family 'Zp'"),
        (lambda: weight_for(17, "Zp"), "unknown family 'Zp'"),
        (lambda: scan("Zp", 2, 100), "unknown family 'Zp'"),
    ])
    def test_refusal_messages(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestVerdictEp:
    def test_17_not_divisible(self):
        v = verdict_Ep(17)
        assert v.divisible is False
        assert v.residue == 16
        assert v.index == 6
        assert v.weight_k == 13  # (3*17+1)/4
        assert v.predicted_rank_bsd == 0

    def test_73_divisible(self):
        v = verdict_Ep(73)
        assert v.divisible is True
        assert v.predicted_rank_bsd == 2

    def test_449_not_divisible(self):
        assert verdict_Ep(449).divisible is False

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            verdict_Ep(7)

    def test_pure_function(self):
        assert verdict_Ep(97) == verdict_Ep(97)


class TestVerdictAp:
    def test_19_both_true(self):
        va, vx = verdict_Ap(19)
        assert va.divisible and vx.divisible
        assert (va.path, vx.path) == ("a", "x")
        assert va.weight_k == 13  # (2*19+1)/3

    def test_37_both_true(self):
        # 37 = 4^3 + (-3)^3 has a rational point, so rank 2 in this class
        va, vx = verdict_Ap(37)
        assert va.divisible and vx.divisible

    def test_rejects_7(self):
        with pytest.raises(ValueError):
            verdict_Ap(7)

    def test_paths_agree_to_500(self):
        for p in primes_leq(500):
            if admissible(p, "Ap").ok:
                va, vx = verdict_Ap(p)  # raises CrossCheckError on disagreement
                assert va.divisible == vx.divisible


class TestScan:
    def test_table_reproduction(self):
        rows = scan("Ep", 2, 460)
        assert [(v.p, v.divisible) for v in rows] == sorted(EP_SCAN_TABLE.items())

    def test_empty_below_17(self):
        assert scan("Ep", 2, 16) == []

    def test_ap_range(self):
        rows = scan("Ap", 2, 40)
        assert sorted({v.p for v in rows}) == [19, 37]
        assert len(rows) == 4  # both paths per prime

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(criteria, "_STEPS_PER_WORKER", 1)  # a pool of 4 even for this small scan
        serial = scan("Ep", 2, 120, jobs=1)
        parallel = scan("Ep", 2, 120, jobs=4)
        assert serial == parallel

    def test_parallel_matches_serial_ap(self, monkeypatch):
        monkeypatch.setattr(criteria, "_STEPS_PER_WORKER", 1)
        assert scan("Ap", 2, 400, jobs=4) == scan("Ap", 2, 400, jobs=1)

    def test_pool_starts_only_when_the_scan_pays_for_it(self, monkeypatch):
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        for family in ("Ep", "Ap"):
            assert scan(family, 2, 500, jobs=2) == scan(family, 2, 500, jobs=1)
        assert started == []
        # Ep 2..4000: 90651 steps, two workers' worth; jobs stays the upper bound
        serial = scan("Ep", 2, 4000, jobs=1)
        assert scan("Ep", 2, 4000, jobs=8) == serial
        assert started == [2]

    def test_lone_prime_goes_through_the_verdict(self, monkeypatch):
        calls = []
        monkeypatch.setattr(criteria, "constant_term_mod", lambda *args: calls.append(args) or 0)
        assert [v.p for v in scan("Ep", 230, 240)] == [233]
        assert [v.path for v in scan("Ap", 190, 200)] == ["a", "x"]
        assert [(f.key, N, p) for f, N, p in calls] == [("f", 87, 233), ("a", 66, 199), ("x", 66, 199)]

    def test_scan_cross_check_stops_at_first_disagreement(self, monkeypatch):
        real = criteria.paired_constant_terms_mod

        def flipped(targets):
            # the x path turns non-divisible at p = 37 and p = 73 (both divisible in truth)
            a_residues, x_residues = real(targets)
            return a_residues, [1 if p in (37, 73) else r for r, (_, p) in zip(x_residues, targets)]

        monkeypatch.setattr(criteria, "paired_constant_terms_mod", flipped)
        with pytest.raises(CrossCheckError, match=r"^p=37: a-path residue 0 and x-path residue 1 disagree on divisibility$"):
            scan("Ap", 2, 200)

    def test_cross_check_compares_residues(self, monkeypatch):
        # both paths nonzero, so divisibility agrees: only the residues tell them apart
        real = criteria.paired_constant_terms_mod
        (a_109,), (x_109,) = real([(36, 109)])
        assert a_109 == x_109 not in (0, 1)

        def shifted(targets):
            a_residues, x_residues = real(targets)
            return a_residues, [1 if p == 109 else r for r, (_, p) in zip(x_residues, targets)]

        monkeypatch.setattr(criteria, "paired_constant_terms_mod", shifted)
        with pytest.raises(CrossCheckError, match=rf"^p=109: a-path residue {a_109} and x-path residue 1 differ$"):
            scan("Ap", 2, 200)
        monkeypatch.setattr(criteria, "constant_term_mod", lambda family, N, p: 1 if family.key == "a" else 2)
        with pytest.raises(CrossCheckError, match=r"^p=109: a-path residue 1 and x-path residue 2 differ$"):
            verdict_Ap(109)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scan("Ep", 1, 10)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, monkeypatch, jobs):
        monkeypatch.setattr(criteria, "primes_in", lambda *args: pytest.fail("scan listed primes"))
        with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
            scan("Ep", 2, 100, jobs=jobs)

    @pytest.mark.parametrize("family, lo", [("Ep", 1012000000), ("Ap", 2)])
    def test_range_past_the_kernel_bound_is_refused_before_listing(self, monkeypatch, family, lo):
        # the first admissible prime at or past _P_MAX is named at once: no candidate below
        # the bound is listed or tested for primality
        first = next(q for q in range(_P_MAX, 2 * _P_MAX) if admissible(q, family).ok)
        tested = []
        monkeypatch.setattr(criteria, "primes_in", lambda *args: pytest.fail("scan listed primes"))
        monkeypatch.setattr(criteria, "is_prime", lambda q: tested.append(q) or is_prime(q))
        refusal = rf"^modulus {first} is not below {_P_MAX}: int64 residues would overflow$"
        with pytest.raises(OverflowError, match=refusal):
            scan(family, lo, 2_000_000_000, jobs=1)
        assert tested and min(tested) >= _P_MAX and max(tested) == first

    @pytest.mark.parametrize("family", ["Ep", "Ap"])
    def test_golden_digest_to_3000(self, family):
        # Ap also checks a-path/x-path agreement at every admissible p <= 3000
        # (scan raises CrossCheckError otherwise).  Each family takes about
        # 0.1 s on a 2-vCPU VM, one lockstep batch per recurrence path.
        t0 = time.perf_counter()
        rows = [[v.p, v.path, v.index, v.residue] for v in scan(family, 2, 3000)]
        elapsed = time.perf_counter() - t0
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SCAN_3000_SHA256[family]
        assert elapsed < 15.0, f"scan({family!r}, 2, 3000) took {elapsed:.1f} s, budget 15 s"

    @pytest.mark.parametrize("family, modulus, residues", [("Ep", 16, (1, 9)), ("Ap", 9, (1,))])
    def test_tests_primality_only_in_the_family_class(self, monkeypatch, family, modulus, residues):
        tested = []
        monkeypatch.setattr(_primality, "is_prime", lambda n: tested.append(n) or is_prime(n))
        scan(family, 2, 500)
        assert tested == [n for n in range(2, 501) if n % modulus in residues]


class TestCongruenceRhs:
    def test_value_is_residue(self):
        for p in (17, 41, 97):
            r = sp_congruence_rhs(p)
            assert 0 <= r < p

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            sp_congruence_rhs(19)
