import csv
import io
import json


from rankcrit.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_jobs_determinism(self, capsys):
        code, out1, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..150",
                            "--format", "csv", "--jobs", "1")
        code, out4, _ = run(capsys, "criterion", "--family", "Ep", "--range", "2..150",
                            "--format", "csv", "--jobs", "4")
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


class TestOracle:
    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle", "--p", "17", "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        rec = json.loads(out)
        assert rec["p"] == 17 and rec["s_rounded"] == 4 and rec["converged"]

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ["oracle", "--p", "17", "--format", "json", "--cache", str(cache)]
        _, out1, _ = run(capsys, *args)
        assert cache.exists()
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert len(cache.read_text().splitlines()) == 1  # second run hit the cache

    def test_corrupt_cache_is_skipped(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("this is not json\n")
        code, out, err = run(capsys, "oracle", "--p", "17", "--format", "json",
                             "--cache", str(cache))
        assert code == 0
        assert "corrupt cache" in err
        assert json.loads(out)["s_rounded"] == 4

    def test_no_cache_bypasses(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, _, _ = run(capsys, "oracle", "--p", "17", "--format", "json",
                         "--cache", str(cache), "--no-cache")
        assert code == 0
        assert not cache.exists()

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache.jsonl"
        monkeypatch.setenv("RANKCRIT_CACHE", str(cache))
        code, _, _ = run(capsys, "oracle", "--p", "17", "--format", "json")
        assert code == 0
        assert cache.exists()

    def test_prime_above_trial_division_bound(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "1009", "--family", "Ap", "--no-cache",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["s_rounded"] == 18

    def test_inadmissible_prime_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "oracle", "--p", "7", "--cache", str(tmp_path / "c"))
        assert code == 1


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

    def test_requires_mode(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 1
