"""Command-line front end: poly, criterion, oracle, verify subcommands.

Exit codes: 0 success, 1 usage error, 2 internal cross-check failure,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import criteria, lseries, maass, polyring, recurrences, symbolic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CROSSCHECK = 2
EXIT_NONCONVERGENCE = 3

DEFAULT_PRECISION = 256
DEFAULT_TOL = 1e-8
DEFAULT_JOBS = os.cpu_count() or 1

# thresholds used by `verify` to call a report ok; acceptance tests pin
# their own (tighter or equal) tolerances independently.
VERIFY_REL_TOL = 1e-15


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _timestamp_line(args) -> str | None:
    if getattr(args, "no_timestamp", False):
        return None
    return f"# generated {datetime.now(timezone.utc).isoformat()}"


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

_TABLE_FAMILY = {"1": "a", "2": "x", "4": "f"}


def _cmd_poly(args) -> int:
    if args.emit_table:
        family = recurrences.FAMILIES[_TABLE_FAMILY[args.emit_table]]
        polys = recurrences.generate_all(family, 9)
        print(f"n  {family.key}_n(t)")
        for n, poly in enumerate(polys):
            print(f"{n}  {polyring.render(poly)}")
        return EXIT_OK
    if args.n is None:
        print("poly: error: --n is required unless --emit-table is given", file=sys.stderr)
        return EXIT_USAGE
    family = recurrences.FAMILIES[args.family]
    if args.mod is not None:
        poly = recurrences.generate(family, args.n, args.mod)
        print(polyring.render(poly))
        print(f"constant term mod {args.mod}: {polyring.constant_term(poly)}")
    else:
        print(polyring.render(recurrences.generate(family, args.n)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like LO..HI, got {text!r}")


_CRITERION_FIELDS = ["p", "family", "index", "k", "residue", "divisible", "predicted_rank_bsd", "path"]


def _cmd_criterion(args) -> int:
    lo, hi = _parse_range(args.range)
    verdicts = criteria.scan(args.family, lo, hi, jobs=args.jobs)
    records = [v.as_record() for v in verdicts]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_CRITERION_FIELDS)
        for rec in records:
            writer.writerow(
                [str(rec[f]).lower() if isinstance(rec[f], bool) else rec[f] for f in _CRITERION_FIELDS]
            )
    elif args.format == "json":
        for rec in records:
            print(json.dumps({f: rec[f] for f in _CRITERION_FIELDS}))
    else:
        header = _timestamp_line(args)
        if header:
            print(header)
        for rec in records:
            print(
                f"p={rec['p']:<6d} index={rec['index']:<5d} k={rec['k']:<5d} "
                f"path={rec['path']} residue={rec['residue']:<6d} "
                f"divisible={str(rec['divisible']).lower():5s} rank_bsd={rec['predicted_rank_bsd']}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle (with a JSON-lines cache)
# ---------------------------------------------------------------------------

def _cache_path(args) -> Path:
    if args.cache:
        return Path(args.cache)
    env = os.environ.get("RANKCRIT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rankcrit" / "oracle.jsonl"


def _cache_key(family: str, p: int, tol: float) -> str:
    blob = json.dumps({"cmd": "oracle", "family": family, "p": p, "tol": repr(tol)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_lookup(path: Path, key: str) -> dict | None:
    if not path.exists():
        return None
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            print(f"warning: skipping corrupt cache line in {path}", file=sys.stderr)
            continue
        if isinstance(entry, dict) and entry.get("key") == key and "report" in entry:
            return entry["report"]
    return None


def _cache_store(path: Path, key: str, report: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(json.dumps({"key": key, "report": report}, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"warning: could not write cache {path}: {exc}", file=sys.stderr)


def _cmd_oracle(args) -> int:
    key = _cache_key(args.family, args.p, args.tol)
    record = None
    cache = _cache_path(args)
    if not args.no_cache:
        record = _cache_lookup(cache, key)
    if record is None:
        try:
            report = lseries.sp(args.p, args.tol, family=args.family, jobs=args.jobs)
        except lseries.NonConvergenceError as exc:
            print(f"oracle: non-convergence: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        except lseries.FunctionalEquationError as exc:
            print(f"oracle: functional-equation self-check failed: {exc}", file=sys.stderr)
            return EXIT_CROSSCHECK
        record = report.as_record()
        if not args.no_cache:
            _cache_store(cache, key, record)
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        header = _timestamp_line(args)
        if header:
            print(header)
        for k in ["p", "family", "conductor", "terms", "l1", "s_real", "s_rounded",
                  "residual", "tail_bound", "tol", "converged"]:
            print(f"{k}: {record[k]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _emit_reports(args, rows: list[dict], ok_all: bool) -> int:
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        header = _timestamp_line(args)
        if header:
            print(header)
        for row in rows:
            bits = " ".join(f"{k}={v}" for k, v in row.items())
            print(bits)
    return EXIT_OK if ok_all else EXIT_CROSSCHECK


def _symbolic_rows(args):
    for n, ok in symbolic.cross_check(args.max_n):
        yield {"n": n, "match": ok}, ok


def _thm5_rows(args):
    for N in range(args.max_n + 1):
        r = maass.verify_theta2_identity(N, args.precision)
        ok = r.rel_error < VERIFY_REL_TOL
        yield {**r.as_record(), "ok": ok}, ok


def _thm6_rows(args):
    scale = None
    for N in range(args.max_n + 1):
        for case in ("x", "y", "z"):
            r = maass.verify_eta_identity(N, case, args.precision)
            if r.vanishing:
                ok = r.numeric < (scale or 1.0) * 1e-18
            else:
                ok = r.rel_error < VERIFY_REL_TOL
                scale = r.numeric
            yield {**r.as_record(), "ok": ok}, ok


def _thm3_rows(args):
    for k in range(1, 2 * args.max_n + 2):
        a = maass.hecke_value_E(k, args.precision)
        b = maass.hecke_value_E_from_constants(k, args.precision)
        if b == 0:
            ok = a == 0
            yield {"k": k, "value": 0.0, "zero_by_construction": True, "ok": ok}, ok
        else:
            rel = float(abs(a - b) / abs(b))
            ok = rel < VERIFY_REL_TOL
            yield {"k": k, "value": float(a), "rel_error": rel, "ok": ok}, ok


def _thm4_rows(args):
    for k in range(1, 6 * args.max_n + 7):  # 6N+1 .. 6N+6 for N = 0 .. max_n
        forms = maass.hecke_value_A_from_theta_forms(k, args.precision)
        lattice = maass.hecke_value_A(k, args.precision)
        if forms == 0:
            ok = abs(float(lattice)) < 1e-30
            yield {"k": k, "value": 0.0, "zero_by_construction": True,
                   "lattice_abs": abs(float(lattice)), "ok": ok}, ok
        else:
            rel = float(abs(forms - lattice) / abs(lattice))
            ok = rel < VERIFY_REL_TOL
            yield {"k": k, "value": float(lattice), "rel_error": rel, "ok": ok}, ok


_THM_ROWS = {"3": _thm3_rows, "4": _thm4_rows, "5": _thm5_rows, "6": _thm6_rows}


def _cmd_verify(args) -> int:
    if args.symbolic:
        rows_of = _symbolic_rows
    elif args.thm is None:
        print("verify: error: give --thm {3|4|5|6} or --symbolic", file=sys.stderr)
        return EXIT_USAGE
    else:
        rows_of = _THM_ROWS[args.thm]
    rows = []
    ok_all = True
    try:
        for row, ok in rows_of(args):
            rows.append(row)
            ok_all = ok_all and ok
    except maass.PrecisionError as exc:
        print(f"verify: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return _emit_reports(args, rows, ok_all)


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="rankcrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print a recurrence polynomial or a golden table")
    p_poly.add_argument("--family", choices=sorted(recurrences.FAMILIES), default="f")
    p_poly.add_argument("--n", type=int)
    p_poly.add_argument("--mod", type=int)
    p_poly.add_argument("--emit-table", choices=["1", "2", "4"])
    p_poly.set_defaults(func=_cmd_poly)

    p_crit = sub.add_parser("criterion", help="scan a prime range for rank verdicts")
    p_crit.add_argument("--family", choices=["Ep", "Ap"], required=True)
    p_crit.add_argument("--range", required=True, help="LO..HI inclusive")
    p_crit.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    p_crit.add_argument("--format", choices=["csv", "json", "pretty"], default="pretty")
    p_crit.add_argument("--no-timestamp", action="store_true")
    p_crit.set_defaults(func=_cmd_criterion)

    p_oracle = sub.add_parser("oracle", help="numerical L(1) and normalized central value")
    p_oracle.add_argument("--p", type=int, required=True)
    p_oracle.add_argument("--family", choices=["Ep", "Ap"], default="Ep")
    p_oracle.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_oracle.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    p_oracle.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p_oracle.add_argument("--no-cache", action="store_true")
    p_oracle.add_argument("--cache", help="cache file path (else $RANKCRIT_CACHE or ~/.cache/rankcrit)")
    p_oracle.add_argument("--no-timestamp", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="numeric and symbolic identity checks")
    p_verify.add_argument("--thm", choices=["3", "4", "5", "6"])
    p_verify.add_argument("--symbolic", action="store_true")
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_verify.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p_verify.add_argument("--no-timestamp", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except criteria.CrossCheckError as exc:
        print(f"rankcrit: cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ValueError, lseries.BadReductionError) as exc:
        print(f"rankcrit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
