"""The benchmark's workloads: fixed CLI operations, and how each output is
reduced to the form stored in reference.json.

Every operation is an argv for ``rankcrit.cli.main``.  ``criterion`` and
``oracle`` pin ``--jobs 1``: the CLI default is ``os.cpu_count()``, and
parallel scaling on a small shared machine is not what this benchmark
measures.  ``oracle`` passes ``--no-cache`` because every pass after the
first would otherwise be a cache hit.
"""

from __future__ import annotations

import hashlib
import json


def _criterion(family: str, lo: int, hi: int) -> tuple[str, ...]:
    return ("criterion", "--family", family, "--range", f"{lo}..{hi}", "--format", "json", "--jobs", "1")


def _oracle(family: str, p: int) -> tuple[str, ...]:
    return ("oracle", "--p", str(p), "--family", family, "--no-cache", "--format", "json", "--jobs", "1")


def _verify(*flags: str) -> tuple[str, ...]:
    return ("verify", *flags, "--format", "json")


def _poly(family: str, n: int) -> tuple[str, ...]:
    return ("poly", "--family", family, "--n", str(n))


# workload -> (full pass, smoke pass).  The smoke pass runs the same code
# paths at minimal size; it exists for selftest.py and quick manual checks.
WORKLOADS: dict[str, tuple[list[tuple[str, ...]], list[tuple[str, ...]]]] = {
    "criterion": (
        [_criterion("Ep", 2, 500), _criterion("Ap", 2, 500),
         _criterion("Ep", 1201, 1201), _criterion("Ap", 1063, 1063)],
        [_criterion("Ep", 2, 200), _criterion("Ap", 2, 200),
         _criterion("Ep", 233, 233), _criterion("Ap", 199, 199)],
    ),
    "oracle": (
        [_oracle("Ep", p) for p in (73, 233, 313)] + [_oracle("Ap", p) for p in (19, 109, 271, 379)],
        [_oracle("Ep", 73), _oracle("Ap", 19)],
    ),
    "verify": (
        [_verify("--thm", "5", "--max-n", "32", "--precision", "1024"),
         _verify("--thm", "6", "--max-n", "8", "--precision", "512"),
         _verify("--thm", "3", "--max-n", "32"),
         _verify("--thm", "4", "--max-n", "3"),
         _verify("--symbolic", "--max-n", "40")],
        [_verify("--thm", "5", "--max-n", "4", "--precision", "256"),
         _verify("--thm", "6", "--max-n", "2", "--precision", "256"),
         _verify("--thm", "3", "--max-n", "3"),
         _verify("--thm", "4", "--max-n", "1"),
         _verify("--symbolic", "--max-n", "6")],
    ),
    "exact": (
        [_poly(f, 400) for f in "faxy"] + [_poly("z", 200)],
        [_poly(f, 20) for f in "faxyz"],
    ),
}

# Run outside the timed passes of `oracle`: each call fails at the seed
# ("large composite cofactor", exit 1) because the discriminant's cofactor
# p^3 / p^4 is not prime.  Recorded, never counted as a failure.
KNOWN_DEFECT_PROBE = [_oracle("Ep", 1009), _oracle("Ep", 1033), _oracle("Ap", 1009)]

# `poly --emit-table T` prints the ten-row table of this family.
EMIT_TABLES = {"1": "a", "2": "x", "4": "f"}


def ops(workload: str, smoke: bool = False) -> list[tuple[str, ...]]:
    return WORKLOADS[workload][1 if smoke else 0]


def key(argv) -> str:
    return " ".join(argv)


def flag(argv, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def is_sweep(argv) -> bool:
    """A criterion range with more than one integer (not a single-prime call)."""
    lo, _, hi = flag(argv, "--range").partition("..")
    return lo != hi


def oracle_target(argv) -> tuple[str, int]:
    return flag(argv, "--family"), int(flag(argv, "--p"))


def verify_precisions(all_ops) -> list[int]:
    from rankcrit.cli import DEFAULT_PRECISION

    return sorted({int(flag(a, "--precision") or DEFAULT_PRECISION) for a in all_ops if a[0] == "verify"})


def project(argv, stdout: str) -> dict:
    """The part of an operation's output that reference.json pins exactly."""
    kind = argv[0]
    if kind == "criterion":
        recs = [json.loads(line) for line in stdout.splitlines()]
        return {"records": [[r["p"], r["index"], r["residue"], r["divisible"], r["path"]] for r in recs]}
    if kind == "oracle":
        rec = json.loads(stdout)
        return {k: rec[k] for k in ("family", "p", "conductor", "terms", "s_rounded", "converged")}
    if kind == "verify":
        rows = [json.loads(line) for line in stdout.splitlines()]
        return {"rows": len(rows), "all_ok": all(r.get("ok", r.get("match")) is True for r in rows)}
    return {"sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def work_units(argv, proj: dict) -> int:
    """Units behind work_per_s: primes decided, Dirichlet terms, identity rows, recurrence steps."""
    kind = argv[0]
    if kind == "criterion":
        return len({rec[0] for rec in proj["records"]})
    if kind == "oracle":
        return proj["terms"]
    if kind == "verify":
        return proj["rows"]
    return int(flag(argv, "--n"))


# ---------------------------------------------------------------------------
# cross-route concordance (oracle) and golden tables (exact)
# ---------------------------------------------------------------------------

def criterion_truth(oracle_ops) -> dict[tuple[str, int], tuple[bool, int | None]]:
    """(family, p) -> (criterion says divisible, sp_congruence_rhs(p) for Ep else None)."""
    from rankcrit import criteria

    out = {}
    for family, p in sorted({oracle_target(a) for a in oracle_ops}):
        if family == "Ep":
            out[family, p] = (criteria.verdict_Ep(p).divisible, criteria.sp_congruence_rhs(p))
        else:
            out[family, p] = (criteria.verdict_Ap(p)[0].divisible, None)
    return out


def concordance_error(proj: dict, truth) -> str | None:
    """Why an oracle record disagrees with the criterion route, or None."""
    divisible, rhs = truth[proj["family"], proj["p"]]
    s, p = proj["s_rounded"], proj["p"]
    if (s == 0) != divisible:
        return f"s_rounded={s} but the criterion says divisible={divisible}"
    if rhs is not None and s % p not in (rhs, -rhs % p):
        return f"S_p={s} is not +-{rhs} mod {p}"
    return None


def parse_poly(text: str) -> dict[int, int]:
    """Inverse of polyring.render for integer polynomials: {degree: coefficient}."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, has_t, power = term.partition("t")
        if not has_t:
            degree, c = 0, int(coeff)
        else:
            degree = int(power[1:]) if power else 1
            coeff = coeff.rstrip("*")
            c = {"": 1, "-": -1}.get(coeff) or int(coeff)
        if c:
            out[degree] = c
    return out


def emit_table_error(table: str, stdout: str, golden) -> str | None:
    """Compare `poly --emit-table` rows with tests/golden.py, or None when they agree."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        n, text = line.split(None, 1)
        rows[int(n)] = parse_poly(text)
    family = EMIT_TABLES[table]
    if family == "f":
        expected_full, visible = golden.F_TABLE_FULL, golden.F_TABLE_VISIBLE
    else:
        expected_full, visible = (golden.A_TABLE if family == "a" else golden.X_TABLE), {}
    if sorted(rows) != list(range(10)):
        return f"table {table}: rows {sorted(rows)}"
    for n, row in rows.items():
        if n in expected_full and row != expected_full[n]:
            return f"table {table} row {n}: {row} != {expected_full[n]}"
        if n in visible:
            want = visible[n]
            if max(row) != golden.F_TABLE_DEGREES[n] or any(row.get(d) != c for d, c in want.items()):
                return f"table {table} row {n}: visible coefficients differ from {want}"
    return None
