import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import rankcrit
from rankcrit import cli, criteria, lseries, maass
from rankcrit._primality import is_prime
from rankcrit.cli import _cache_key, _within_precision, main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _record(cache: Path, family: str, p: int, tol: float = 1e-8) -> Path:
    """The file in the oracle cache directory that holds the report of one query."""
    return cache / f"{_cache_key(family, p, tol)}.json"


def _refuse(*args, **kwargs):
    raise AssertionError("called where the cache should have answered")


class TestPoly:
    def test_f2(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "f", "--n", "2")
        assert code == 0
        assert out.strip() == "-6*t^2 - 18*t - 9"

    def test_x9(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "x", "--n", "9")
        assert code == 0
        assert out.strip() == "228168*t^3 + 6848"

    def test_mod(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "f", "--n", "6", "--mod", "17")
        assert code == 0
        assert "constant term mod 17: 16" in out

    def test_emit_table(self, capsys):
        code, out, _ = run(capsys, "poly", "--emit-table", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert lines[1].startswith("0  1")
        assert lines[3].startswith("2  -6*t^2 - 18*t - 9")

    @pytest.mark.parametrize("extra", [["--n", "3"], ["--mod", "7"], ["--n", "3", "--mod", "7"]])
    def test_emit_table_with_n_or_mod_is_usage_error(self, capsys, extra):
        code, out, err = run(capsys, "poly", "--emit-table", "4", *extra)
        assert code == 1 and out == ""
        assert err == "poly: error: --emit-table takes neither --n nor --mod\n"

    @pytest.mark.parametrize("table, family", [("1", "a"), ("2", "x"), ("4", "f"), ("4", "a")])
    def test_emit_table_with_family_is_usage_error(self, capsys, table, family):
        # the table fixes its family: --family is refused, even when it names that family
        code, out, err = run(capsys, "poly", "--emit-table", table, "--family", family)
        want = {"1": "a", "2": "x", "4": "f"}[table]
        assert code == 1 and out == ""
        assert err == f"poly: error: --emit-table {table} prints the {want} table and takes no --family\n"

    def test_family_defaults_to_f(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2")
        assert code == 0
        assert out.strip() == "-6*t^2 - 18*t - 9"

    # The sha256 of the exact benchmark outputs, as pinned in perfbench/reference.json.
    @pytest.mark.parametrize("family, n, digest", [
        ("f", 400, "a35adcf17e5af0600d036c06d25a28332aff706d6f26f796b9a5fc82b4dd8f61"),
        ("a", 400, "e982bb323562f30113856f3bbb8244d9c425c2816824177f91dad6a6ba3382d7"),
        ("x", 400, "d43614ddcf43d969aa5514da8e92efdae02bb3d326b6146a2cd808c4ba6bfe9e"),
        ("y", 400, "9a1d008d0c6f08db521fc69368ecb6709b2aec61e3d1e072b4d8ba919bdecb6e"),
        ("z", 200, "f294f4d8685734abb6c16dce30162b8e6da986960c189442601b7199a932bee3"),
    ])
    def test_exact_output_digest(self, capsys, family, n, digest):
        code, out, err = run(capsys, "poly", "--family", family, "--n", str(n))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_z_family_rational_seed(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "z", "--n", "0")
        assert code == 0
        assert out.strip() == "1/2"

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "poly", "--family", "f")
        assert code == 1

    def test_bad_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "poly", "--famly", "f", "--n", "1")
        assert code == 1


class TestCriterion:
    def test_prime_past_kernel_bound_exits_2(self, capsys):
        from rankcrit.recurrences import _P_MAX

        p = next(q for q in range(_P_MAX, 2 * _P_MAX) if is_prime(q))
        assert p % 9 == 1  # admissible for Ap, so the kernel is reached
        code, out, err = run(capsys, "criterion", "--family", "Ap", "--range", f"{p}..{p}", "--format", "json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("rankcrit: error: modulus") and "overflow" in err

    def test_range_reaching_kernel_bound_exits_2_before_listing(self, capsys, monkeypatch):
        from rankcrit.recurrences import _P_MAX

        monkeypatch.setattr(criteria, "primes_in", lambda *args: pytest.fail("scan listed primes"))
        p = next(q for q in range(_P_MAX, 2 * _P_MAX) if q % 16 in (1, 9) and is_prime(q))
        code, out, err = run(capsys, "criterion", "--family", "Ep", "--range", "2..2000000000", "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"rankcrit: error: modulus {p} is not below {_P_MAX}: int64 residues would overflow\n"

    def test_cross_check_failure_exits_2(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise cli.criteria.CrossCheckError("a-path and x-path disagree")

        monkeypatch.setattr(cli.criteria, "scan", disagree)
        code, out, err = run(capsys, "criterion", "--family", "Ap", "--range", "2..60", "--format", "json")
        assert (code, out, err) == (2, "", "rankcrit: cross-check failure: a-path and x-path disagree\n")

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..460", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20
        truth = {r["p"]: r["divisible"] for r in rows}
        assert truth["73"] == "true" and truth["17"] == "false"

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..16", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only

    def test_json_csv_same_records(self, capsys):
        code, csv_out, _ = run(capsys, "criterion", "--family", "Ap", "--range", "2..60", "--format", "csv")
        assert code == 0
        code, json_out, _ = run(capsys, "criterion", "--family", "Ap", "--range", "2..60", "--format", "json")
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_rows = [json.loads(line) for line in json_out.strip().splitlines()]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key, val in j.items():
                if isinstance(val, bool):
                    assert c[key] == str(val).lower()
                else:
                    assert c[key] == str(val)

    def test_jobs_determinism(self, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "_STEPS_PER_WORKER", 1)  # a pool of 4 even for this small scan
        code, out1, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..150",
                            "--format", "csv", "--jobs", "1")
        code, out4, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..150",
                            "--format", "csv", "--jobs", "4")
        assert out1 == out4

    def test_jobs_determinism_ap(self, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "_STEPS_PER_WORKER", 1)
        args = ["criterion", "--family", "Ap", "--range", "2..300", "--format", "json"]
        _, out1, _ = run(capsys, *args, "--jobs", "1")
        _, out4, _ = run(capsys, *args, "--jobs", "4")
        assert out1 == out4

    def test_pretty_no_timestamp_deterministic(self, capsys):
        args = ["criterion", "--family", "Ep", "--range", "2..100", "--no-timestamp"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "# generated" not in out1

    def test_pretty_has_timestamp_by_default(self, capsys):
        _, out, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..100")
        assert out.startswith("# generated")

    def test_bad_range_usage(self, capsys):
        code, _, _ = run(capsys, "criterion", "--family", "Ep", "--range", "17")
        assert code == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "criterion", "--family", "Ep", "--range", "2..50", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err == f"criterion: error: --jobs must be >= 1, got {jobs}\n"


class TestOracle:
    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle", "--p", "17", "--format", "json",
                           "--cache", str(tmp_path / "c"))
        assert code == 0
        rec = json.loads(out)
        assert rec["p"] == 17 and rec["s_rounded"] == 4 and rec["converged"]

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        args = ["oracle", "--p", "17", "--format", "json", "--cache", str(cache)]
        code, out1, err = run(capsys, *args)
        assert code == 0 and err == ""
        assert os.listdir(cache) == [_record(cache, "Ep", 17).name]
        stored = _record(cache, "Ep", 17).read_bytes()
        monkeypatch.setattr(lseries, "sp", _refuse)  # the second run must hit the cache
        assert run(capsys, *args) == (0, out1, "")
        assert os.listdir(cache) == [_record(cache, "Ep", 17).name]
        assert _record(cache, "Ep", 17).read_bytes() == stored

    def test_cache_key_version_is_the_project_version(self):
        # the cache key holds __version__: if it drifted from the version pyproject.toml
        # releases, a release could be served the records of another (read with a regex,
        # since Python 3.10 has no tomllib)
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == rankcrit.__version__

    def test_corrupt_cache_is_skipped(self, capsys, tmp_path):
        # skipped with a warning, recomputed, and overwritten by the store, so it warns once
        for i, planted in enumerate([b"this is not json\n", b"garbage \xff"]):
            cache = tmp_path / f"cache{i}"
            cache.mkdir()
            _record(cache, "Ep", 17).write_bytes(planted)
            outs, warnings = set(), 0
            for _ in range(3):
                code, out, err = run(capsys, "oracle", "--p", "17", "--format", "json", "--cache", str(cache))
                assert code == 0 and json.loads(out)["s_rounded"] == 4
                outs.add(out)
                warnings += err.count("skipping corrupt cache record")
            assert warnings == 1 and len(outs) == 1
            assert json.loads(_record(cache, "Ep", 17).read_text()) == json.loads(outs.pop())
            assert os.listdir(cache) == [_record(cache, "Ep", 17).name]

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_incomplete_cache_record_is_recomputed(self, capsys, tmp_path, fmt):
        cache = tmp_path / "cache"
        cache.mkdir()
        _record(cache, "Ep", 17).write_text(json.dumps({"p": 17, "s_rounded": 5}))
        code, out, err = run(capsys, "oracle", "--p", "17", "--format", fmt,
                             "--no-timestamp", "--cache", str(cache))
        assert code == 0
        assert "skipping incomplete cache record" in err
        if fmt == "json":
            assert json.loads(out)["s_rounded"] == 4
        else:
            assert "s_rounded: 4" in out.splitlines()
        assert json.loads(_record(cache, "Ep", 17).read_text()) == lseries.sp(17, 1e-8).as_record()

    def test_incomplete_cache_record_warns_once(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "unrelated.json").write_text(json.dumps({"p": 41}))
        _record(cache, "Ep", 17).write_text(json.dumps({"p": 17, "s_rounded": 5}))
        warnings = 0
        for _ in range(3):
            code, out, err = run(capsys, "oracle", "--p", "17", "--format", "json", "--cache", str(cache))
            assert code == 0 and json.loads(out)["s_rounded"] == 4
            warnings += err.count("incomplete cache record")
        assert warnings == 1
        assert sorted(os.listdir(cache)) == sorted(["unrelated.json", _record(cache, "Ep", 17).name])
        assert json.loads((cache / "unrelated.json").read_text()) == {"p": 41}
        assert json.loads(_record(cache, "Ep", 17).read_text())["s_rounded"] == 4

    def test_lookup_reads_only_its_own_file(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        for i in range(2000):
            (cache / f"{i:064x}.json").write_text(json.dumps({"p": i}))
        record = lseries.sp(17, 1e-8).as_record()
        _record(cache, "Ep", 17).write_text(json.dumps(record))
        opened = []

        def spy(real):
            def open_(file, *args, **kwargs):
                opened.append(Path(file))
                return real(file, *args, **kwargs)
            return open_

        monkeypatch.setattr(io, "open", spy(io.open))
        monkeypatch.setattr("builtins.open", spy(open))
        for name in ("listdir", "scandir"):
            monkeypatch.setattr(os, name, _refuse)
        monkeypatch.setattr(lseries, "sp", _refuse)
        code, out, err = run(capsys, "oracle", "--p", "17", "--format", "json", "--cache", str(cache))
        assert code == 0 and err == "" and json.loads(out) == record
        assert [f for f in opened if f.parent == cache] == [_record(cache, "Ep", 17)]

    def test_failed_store_keeps_the_old_record(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        planted = json.dumps({"p": 17, "s_rounded": 5})
        _record(cache, "Ep", 17).write_text(planted)

        def refuse_replace(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse_replace)
        code, out, err = run(capsys, "oracle", "--p", "17", "--format", "json", "--cache", str(cache))
        assert code == 0 and json.loads(out)["s_rounded"] == 4
        assert "incomplete cache record" in err
        assert "warning: could not write cache" in err and "replace refused" in err
        assert os.listdir(cache) == [_record(cache, "Ep", 17).name]  # no temp file left
        assert _record(cache, "Ep", 17).read_text() == planted

    def test_jobs_do_not_change_result(self, capsys):
        outs = [run(capsys, "oracle", "--p", "41", "--no-cache", "--format", "json", "--jobs", jobs)
                for jobs in ("1", "4")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_no_cache_bypasses(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "oracle", "--p", "17", "--format", "json",
                         "--cache", str(cache), "--no-cache")
        assert code == 0
        assert not cache.exists()

    def test_no_cache_computes_no_key_or_path(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("--no-cache looked at the cache")

        monkeypatch.setattr(cli, "_cache_key", refuse)
        monkeypatch.setattr(cli, "_cache_path", refuse)
        code, out, _ = run(capsys, "oracle", "--p", "17", "--format", "json", "--no-cache")
        assert code == 0 and json.loads(out)["s_rounded"] == 4

    # The sha256 of the full JSON line of the seven benchmark oracle operations and of p = 10009.
    @pytest.mark.parametrize("family, p, digest", [
        ("Ep", 73, "5e63c8fdf452f069b349c0bd0dc7c601cc481a0a9c73f5e9ac5690c373dba8ba"),
        ("Ep", 233, "0b4da734f40b53bef3922fae5f78ae9b8cce5d6266ae25e9bb13868dac520d31"),
        ("Ep", 313, "cfe4e21246576f1501caf2bb7362b8a69c3cc64ae9fb7296efdc70162f87884a"),
        ("Ap", 19, "ba3daf73d4bd68e403c19dc039cf9bfd575365c936f37351da15309ab812e898"),
        ("Ap", 109, "1b626ffe8846a6f84ef479609cd224648f3f780806cd868f3a403be0b0f95fd7"),
        ("Ap", 271, "86ee9bd2fca6212f30f99db4337adc40b3813c982dd743e6b9365c77b9b77a34"),
        ("Ap", 379, "0180c5ca1ba314a6855670d923b0f547677f0515d28f15f7501f0d5f28c3c9ae"),
        ("Ep", 10009, "8f0a1077c72f85b36d29441d95e2ea800ae32c98452d4a8a9a6fcb533cf91bf9"),
        ("Ap", 10009, "85467905a1ed5e9385108cc5388c6964a67c1abc6c6616b0568d04d05b833894"),
    ])
    def test_oracle_output_digest(self, capsys, family, p, digest):
        code, out, err = run(capsys, "oracle", "--p", str(p), "--family", family, "--no-cache",
                             "--format", "json")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("RANKCRIT_CACHE", str(cache))
        code, _, _ = run(capsys, "oracle", "--p", "17", "--format", "json")
        assert code == 0
        assert os.listdir(cache) == [_record(cache, "Ep", 17).name]

    def test_prime_above_trial_division_bound(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "1009", "--family", "Ap", "--no-cache",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["s_rounded"] == 18

    def test_terms_past_resident_bound_exit_2(self, capsys):
        # Ep 105401 is the first admissible prime whose L-sum needs more than _M_RESIDENT terms
        t0 = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--p", "105401", "--family", "Ep", "--no-cache")
        assert code == 2 and out == ""
        assert "would not stay resident" in err
        assert time.perf_counter() - t0 < 1.0

    def test_inadmissible_prime_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "oracle", "--p", "7", "--cache", str(tmp_path / "c"))
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "oracle", "--p", "17", "--tol", tol, "--no-cache")
        assert code == 1 and out == ""
        assert f"tolerance {tol} is not a finite number" in err

    def test_large_tol_usage_error(self, capsys):
        code, out, err = run(capsys, "oracle", "--p", "73", "--tol", "5", "--no-cache", "--format", "json")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "tolerance 5.0 is too large" in err

    @pytest.mark.parametrize("p, tol, message", [(73, 5.0, "tolerance 5.0 is too large"),
                                                  (71, 1e-8, "p = 71 is not admissible")])
    def test_refused_query_is_not_served_from_cache(self, capsys, tmp_path, p, tol, message):
        cache = tmp_path / "cache"
        cache.mkdir()
        _record(cache, "Ep", p, tol).write_text(json.dumps(lseries.sp(73, 1e-8).as_record()))
        code, out, err = run(capsys, "oracle", "--p", str(p), "--tol", repr(tol), "--format", "json",
                             "--cache", str(cache))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and message in err

    def test_unfactorable_discriminant_is_internal_error(self, capsys, monkeypatch):
        # A = 1009 * 1013 is left after trial division and is not a prime power
        monkeypatch.setattr(lseries, "curve_ep", lambda p: lseries.CurveSpec(A=1009 * 1013, B=0))
        code, out, err = run(capsys, "oracle", "--p", "17", "--no-cache", "--format", "json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "composite cofactor" in err

    def test_cm_consistency_failure_is_internal_error(self, capsys, monkeypatch):
        # a character table that misses roots of unity fails an_list's own check
        real = lseries._chi
        monkeypatch.setattr(lseries, "_chi", lambda x, k, c, r: real(x, k, c, r) * 0)
        code, out, err = run(capsys, "oracle", "--p", "17", "--no-cache", "--format", "json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "misses a root of unity of order 4" in err


class TestVerify:
    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "verify", "--symbolic", "--max-n", "8", "--no-timestamp")
        assert code == 0
        assert out.count("match=True") == 9

    def test_thm5(self, capsys):
        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "4",
                           "--precision", "256", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 5
        assert all(r["ok"] for r in rows)
        assert all(r["rel_error"] < 1e-20 for r in rows)

    def test_thm6(self, capsys):
        code, out, _ = run(capsys, "verify", "--thm", "6", "--max-n", "1",
                           "--precision", "256", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 6  # 3 cases for N = 0, 1
        assert all(r["ok"] for r in rows)

    def test_thm3(self, capsys):
        code, out, _ = run(capsys, "verify", "--thm", "3", "--max-n", "3",
                           "--precision", "192", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["ok"] for r in rows)
        zero_rows = [r for r in rows if r.get("zero_by_construction")]
        assert {r["k"] for r in zero_rows} == {2, 4, 6}

    def test_thm4(self, capsys):
        code, out, _ = run(capsys, "verify", "--thm", "4", "--max-n", "0",
                           "--precision", "192", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["ok"] for r in rows)
        assert {r["k"] for r in rows if r.get("zero_by_construction")} == {3, 5, 6}

    def test_thm4_at_min_precision(self, capsys):
        # the vanishing classes read |lattice| near 3e-30 at 64 bits, inside 2^-64
        code, out, _ = run(capsys, "verify", "--thm", "4", "--max-n", "3",
                           "--precision", "64", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 24 and all(r["ok"] for r in rows)

    def test_ok_rule_follows_precision(self, capsys, monkeypatch):
        # 1e-20 is about 2^-66: ok at 64 bits, far too loose at 256; the CLI asks
        # for all indices at once, so every report of the batch gets the error
        real = maass.verify_theta2_identity
        monkeypatch.setattr(maass, "verify_theta2_identity",
                            lambda Ns, precision: [r._replace(rel_error=1e-20)
                                                   for r in real(Ns, precision)])
        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "0",
                           "--precision", "256", "--format", "json")
        assert code == 2
        assert json.loads(out)["ok"] is False
        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "0",
                           "--precision", "64", "--format", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_ok_rule_reads_errors_past_the_float_range(self):
        # 2^-1500 reads 0.0 as a float; at 2048 bits it is far too large
        assert not _within_precision(mpf(2) ** -1500, 2048)
        assert _within_precision(mpf(2) ** -2100, 2048)
        assert _within_precision(mpf(2) ** -2048, 2048)
        assert not _within_precision(mpf(2) ** -2047, 2048)

    def test_json_past_the_float_range(self, capsys):
        # |d^(200) theta2 at i|^2 is about 1.5e309: a float reads inf, which json writes as Infinity
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "200", "--format", "json")
        assert code == 0
        rows = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
        reports = maass.verify_theta2_identity(range(201), 256)
        strings = 0
        for row, report in zip(rows, reports, strict=True):
            for name in ("numeric", "predicted", "rel_error", "abs_error"):
                value, want = row[name], getattr(report, name)
                if isinstance(value, str):
                    strings += 1
                    assert re.fullmatch(r"\d\.\d{16}e\+\d+", value), value
                    with mp.workprec(512):
                        assert abs(mpf(value) - want) <= abs(want) * mpf("1e-16"), (name, value)
                else:
                    assert value == float(want)
        assert strings == 2  # numeric and predicted of N = 200
        _, pretty, _ = run(capsys, "verify", "--thm", "5", "--max-n", "200", "--no-timestamp")
        assert "inf" not in pretty and f"numeric={rows[200]['numeric']} " in pretty

    def test_json_below_the_float_range(self, capsys):
        # at 2048 bits the errors are about 1e-628, which a float reads as 0.0
        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "3", "--precision", "2048",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        reports = maass.verify_theta2_identity(range(4), 2048)
        strings = 0
        for row, report in zip(rows, reports, strict=True):
            assert row["ok"] is _within_precision(report.rel_error, 2048) is True
            for name in ("numeric", "predicted", "rel_error", "abs_error"):
                value, want = row[name], getattr(report, name)
                if isinstance(value, str):
                    strings += 1
                    assert re.fullmatch(r"\d\.\d{16}e-\d+", value), value
                    with mp.workprec(2048):
                        assert abs(mpf(value) - want) <= abs(want) * mpf("1e-16"), (name, value)
                else:
                    assert value == float(want) and (value != 0.0 or want == 0), (name, value)
        assert strings == 6  # rel_error and abs_error of N = 1..3

    @pytest.mark.parametrize("thm, max_n", [("3", 4), ("4", 2), ("5", 4), ("6", 3)])
    def test_batched_rows_equal_one_index_at_a_time(self, capsys, monkeypatch, thm, max_n):
        argv = ("verify", "--thm", thm, "--max-n", str(max_n), "--format", "json")
        code, batched, _ = run(capsys, *argv)
        assert code == 0

        def one_at_a_time(fn):
            return lambda indices, *args: [fn(i, *args) for i in indices]

        for name in ("verify_theta2_identity", "verify_eta_identity", "hecke_value_E",
                     "hecke_value_E_from_constants", "hecke_value_A", "hecke_value_A_from_theta_forms"):
            monkeypatch.setattr(maass, name, one_at_a_time(getattr(maass, name)))
        code, single, _ = run(capsys, *argv)
        assert code == 0
        assert batched == single and batched.count("\n") > max_n

    # The exit code and the sha256 of the JSON lines of the five benchmark verify operations.
    @pytest.mark.parametrize("flags, want_code, digest", [
        ("--thm 5 --max-n 32 --precision 1024", 0, "2b31d083da21c8f122d8f67a4af99b5edf027a58fdb92220162700c9892b19b5"),
        ("--thm 6 --max-n 8 --precision 512", 0, "b44cdc35711fe35ffaec7ed8be71a0b6a906fc88f584da9d332b496941228695"),
        ("--thm 3 --max-n 32", 0, "5e3d6f45e3c5bdccb8575a12a6ac21e812a6db51e62f09fab5a3832fef1f3dba"),
        ("--thm 4 --max-n 3", 0, "08e220b440e199fe48aaed80b3bf4ff11893b2456584cf58813cefc079d35cd1"),
        ("--symbolic --max-n 40", 0, "3241c7f55527e4022d86210af902b229c6e75f2b05dd278d68682c73628a2515"),
    ])
    def test_verify_output_digest(self, capsys, flags, want_code, digest):
        code, out, err = run(capsys, "verify", *flags.split(), "--format", "json")
        assert code == want_code and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_speed(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "32",
                           "--precision", "1024", "--format", "json")
        elapsed = time.perf_counter() - t0
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 33 and all(r["ok"] for r in rows)
        assert elapsed < 1.5, f"verify --thm 5 at 1024 bits took {elapsed:.2f} s"

    def test_high_precision_speed(self, capsys):
        # the periods come from the AGM: mp.gamma(1/4) alone takes seconds at 4096 bits
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--thm", "5", "--max-n", "2",
                           "--precision", "4096", "--format", "json")
        elapsed = time.perf_counter() - t0
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 3 and all(r["ok"] for r in rows)
        assert elapsed < 5.0, f"verify --thm 5 at 4096 bits took {elapsed:.2f} s"

    def test_symbolic_speed(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--symbolic", "--max-n", "40", "--format", "json")
        elapsed = time.perf_counter() - t0
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in rows] == list(range(41)) and all(r["match"] for r in rows)
        assert elapsed < 1.5, f"verify --symbolic --max-n 40 took {elapsed:.2f} s"

    def test_requires_mode(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 1

    @pytest.mark.parametrize("thm", ["3", "4", "5", "6"])
    def test_thm_with_symbolic_is_usage_error(self, capsys, thm):
        code, out, err = run(capsys, "verify", "--thm", thm, "--symbolic", "--max-n", "1")
        assert code == 1 and out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("mode", [["--symbolic"], ["--thm", "3"], ["--thm", "4"], ["--thm", "5"], ["--thm", "6"]])
    def test_negative_max_n_usage_error(self, capsys, mode):
        code, out, err = run(capsys, "verify", *mode, "--max-n", "-1", "--format", "json")
        assert code == 1 and out == ""
        assert "--max-n must be >= 0" in err

    @pytest.mark.parametrize("mode", [["--thm", "3"], ["--thm", "4"], ["--thm", "5"], ["--thm", "6"]])
    def test_low_precision_usage_error(self, capsys, mode):
        code, out, err = run(capsys, "verify", *mode, "--precision", "10", "--format", "json")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--precision must be >= 64, got 10" in err

    def test_symbolic_takes_any_precision(self, capsys):
        argv = ("verify", "--symbolic", "--max-n", "6", "--no-timestamp")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out.count("match=True") == 7
        assert run(capsys, *argv, "--precision", "10") == (code, out, err)

    def test_series_past_term_limit_is_nonconvergence(self, capsys, monkeypatch):
        def endless():
            while True:
                yield Fraction(0), 1

        monkeypatch.setitem(maass._IDENTITIES, "f", maass._IDENTITIES["f"]._replace(series=endless))
        code, out, err = run(capsys, "verify", "--thm", "5", "--max-n", "0", "--format", "json")
        assert code == 3 and out == ""
        assert "did not reach the truncation threshold" in err


# The sha256 of the pretty and CSV outputs not pinned above, as the CLI printed them before its
# output paths were merged into one.
@pytest.mark.parametrize("argv, digest", [
    ("criterion --family Ep --range 2..460 --no-timestamp",
     "347f5061dc7ab730faf50b3e737d39c715959b39f7ff2dae4df8c78c9109b99d"),
    ("criterion --family Ap --range 2..200 --no-timestamp",
     "0f9b943883bbab306c43c9f7ebf3b152fbe5329be09260d7300e3348a0d7da4c"),
    ("criterion --family Ep --range 2..460 --format csv",
     "862ea0f07fce145bd01daa9f96ef159d5973a5a0ae045514a6f336abb7a88218"),
    ("criterion --family Ap --range 2..200 --format csv",
     "74acbb87066c1fb46548ee05a9d1b677234d4e5509db97359b859efdbb811ff4"),
    ("oracle --p 17 --no-cache --no-timestamp", "8a4bb1adf8071acc2e819208a466e0f4baad04eeef0b8c3eecf808313c6d90df"),
    ("verify --symbolic --max-n 8 --no-timestamp", "42d75075032d2bf03f9d0e8172652a184a3c5388fe3f6af683c54ccc697517cf"),
    ("verify --thm 5 --max-n 3 --no-timestamp", "015ea2776f417385369d27b8a870ee0dd0631ed0b46926e4c7a053ac23edd205"),
])
def test_pinned_output_digest(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", ["criterion --family Ap --range 2..200", "oracle --p 17 --no-cache",
                                  "verify --thm 5 --max-n 3"])
def test_pretty_header_then_the_no_timestamp_output(capsys, argv):
    _, out, _ = run(capsys, *argv.split())
    _, bare, _ = run(capsys, *argv.split(), "--no-timestamp")
    header, _, rest = out.partition("\n")
    assert header.startswith("# generated 2") and header.endswith("+00:00") and rest == bare


# Every usage error the subcommands report themselves, and a ValueError raised inside one, which
# main reports under the same prefix: exit 1, nothing on stdout, one stderr line.
@pytest.mark.parametrize("argv, message", [
    ("poly --emit-table 4 --n 3", "poly: error: --emit-table takes neither --n nor --mod"),
    ("poly --emit-table 2 --family x", "poly: error: --emit-table 2 prints the x table and takes no --family"),
    ("poly --family f", "poly: error: --n is required unless --emit-table is given"),
    ("criterion --family Ep --range 2..50 --jobs 0", "criterion: error: --jobs must be >= 1, got 0"),
    ("verify --format json", "verify: error: give --thm {3|4|5|6} or --symbolic"),
    ("verify --symbolic --max-n -1", "verify: error: --max-n must be >= 0, got -1"),
    ("verify --thm 5 --precision 10", "verify: error: --precision must be >= 64, got 10"),
    ("criterion --family Ep --range 17", "criterion: error: range must look like LO..HI, got '17'"),
    ("criterion --family Ep --range 20..10", "criterion: error: range bounds must satisfy 2 <= lo <= hi"),
    ("poly --n -1", "poly: error: index N must be >= 0"),
    ("oracle --p 7 --no-cache", "oracle: error: p = 7 is not admissible for Ep (need a prime = 1, 9 mod 16)"),
    ("oracle --p 73 --tol nan --no-cache", "oracle: error: tolerance nan is not a finite number"),
])
def test_usage_error_message(capsys, argv, message):
    assert run(capsys, *argv.split()) == (1, "", message + "\n")


JOBS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Each subcommand's options: {flag: (default, choices, required)}.
SURFACE = {
    "poly": {"--family": (None, ["a", "f", "x", "y", "z"], False), "--n": (None, None, False),
             "--mod": (None, None, False), "--emit-table": (None, ["1", "2", "4"], False)},
    "criterion": {"--family": (None, ["Ep", "Ap"], True), "--range": (None, None, True),
                  "--jobs": (JOBS, None, False), "--format": ("pretty", ["csv", "json", "pretty"], False),
                  "--no-timestamp": (False, None, False)},
    "oracle": {"--p": (None, None, True), "--family": ("Ep", ["Ep", "Ap"], False), "--tol": (1e-08, None, False),
               "--jobs": (JOBS, None, False), "--format": ("pretty", ["json", "pretty"], False),
               "--no-cache": (False, None, False), "--cache": (None, None, False),
               "--no-timestamp": (False, None, False)},
    "verify": {"--thm": (None, ["3", "4", "5", "6"], False), "--symbolic": (False, None, False),
               "--max-n": (6, None, False), "--precision": (256, None, False),
               "--format": ("pretty", ["json", "pretty"], False), "--no-timestamp": (False, None, False)},
}


def test_cli_surface():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {a.option_strings[0]: (a.default, a.choices and list(a.choices), a.required)
                  for a in parser._actions if a.option_strings != ["-h", "--help"]}
           for name, parser in sub.choices.items()}
    assert got == SURFACE


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_default_jobs_counts_the_cpus_this_process_may_use():
    # a pool of cpu_count() workers on a process pinned to one CPU would start workers that only wait
    script = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
              "from rankcrit import cli; print(cli.DEFAULT_JOBS)")
    src = str(Path(rankcrit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


class TestModuleEntry:
    def test_python_m_rankcrit_is_main(self, capsys):
        src = str(Path(rankcrit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for argv in (["criterion", "--family", "Ap", "--range", "2..100", "--format", "json"],
                     ["poly", "--family", "x", "--n", "6", "--mod", "19"],
                     ["criterion", "--family", "Ep", "--range", "2..100", "--jobs", "0"],
                     ["oracle", "--p", "17", "--no-cache", "--no-timestamp"],
                     ["verify", "--thm", "5", "--precision", "10"]):
            proc = subprocess.run([sys.executable, "-m", "rankcrit", *argv], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
