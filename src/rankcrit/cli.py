"""Command-line front end: poly, criterion, oracle, verify subcommands.

Exit codes: 0 success, 1 usage error, 2 internal cross-check failure,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, polyring, recurrences
from ._lazy import lazy_import

# Loaded at their first use (see _lazy), so each subcommand compiles only the layers it runs,
# and only verify loads mpmath.
criteria = lazy_import("rankcrit.criteria")
lseries = lazy_import("rankcrit.lseries")
maass = lazy_import("rankcrit.maass")
symbolic = lazy_import("rankcrit.symbolic")
mpmath = lazy_import("mpmath")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CROSSCHECK = 2
EXIT_NONCONVERGENCE = 3

DEFAULT_PRECISION = 256
DEFAULT_TOL = 1e-8
DEFAULT_JOBS = os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage(args, message: str) -> int:
    print(f"{args.command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


_SORTED_JSON = json.JSONEncoder(sort_keys=True)  # what json.dumps(rec, sort_keys=True) builds per call


def _emit(args, records, pretty, sort_keys: bool = True) -> None:
    """JSON lines, or the `# generated` header (unless --no-timestamp) and pretty(record) for each."""
    if args.format == "json":
        encode = _SORTED_JSON.encode if sort_keys else json.dumps
        for rec in records:
            print(encode(rec))
        return
    if not args.no_timestamp:
        from datetime import datetime, timezone

        print(f"# generated {datetime.now(timezone.utc).isoformat()}")
    for rec in records:
        print(pretty(rec))


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

_TABLE_FAMILY = {"1": "a", "2": "x", "4": "f"}


def _cmd_poly(args) -> int:
    if args.emit_table:
        if args.n is not None or args.mod is not None:
            return _usage(args, "--emit-table takes neither --n nor --mod")
        key = _TABLE_FAMILY[args.emit_table]
        if args.family is not None:
            return _usage(args,
                          f"--emit-table {args.emit_table} prints the {key} table and takes no --family")
        print(f"n  {key}_n(t)")
        for n, poly in enumerate(recurrences.generate_all(recurrences.FAMILIES[key], 9)):
            print(f"{n}  {polyring.render(poly)}")
        return EXIT_OK
    if args.n is None:
        return _usage(args, "--n is required unless --emit-table is given")
    poly = recurrences.generate(recurrences.FAMILIES[args.family or "f"], args.n, args.mod)
    print(polyring.render(poly))
    if args.mod is not None:
        print(f"constant term mod {args.mod}: {polyring.constant_term(poly)}")
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


def _criterion_line(rec: dict) -> str:
    return (f"p={rec['p']:<6d} index={rec['index']:<5d} k={rec['k']:<5d} "
            f"path={rec['path']} residue={rec['residue']:<6d} "
            f"divisible={str(rec['divisible']).lower():5s} rank_bsd={rec['predicted_rank_bsd']}")


def _cmd_criterion(args) -> int:
    if args.jobs < 1:
        return _usage(args, f"--jobs must be >= 1, got {args.jobs}")
    lo, hi = _parse_range(args.range)
    records = [v.as_record() for v in criteria.scan(args.family, lo, hi, jobs=args.jobs)]
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_CRITERION_FIELDS)
        for rec in records:
            row = [rec[f] for f in _CRITERION_FIELDS]
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    else:
        _emit(args, records, _criterion_line, sort_keys=False)  # JSON in the record's field order
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle (with a cache of one JSON file per query)
# ---------------------------------------------------------------------------

def _cache_path(args) -> Path:
    """The cache directory: --cache, else $RANKCRIT_CACHE, else ~/.cache/rankcrit/oracle."""
    if args.cache:
        return Path(args.cache)
    env = os.environ.get("RANKCRIT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rankcrit" / "oracle"


def _report_fields() -> list[str]:
    import dataclasses

    return [f.name for f in dataclasses.fields(lseries.LValueReport)]


def _cache_key(family: str, p: int, tol: float) -> str:
    import hashlib

    blob = json.dumps({"cmd": "oracle", "family": family, "p": p, "tol": repr(tol),
                       "version": __version__}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_lookup(path: Path) -> dict | None:
    """The report in the record file path, or None: a file that cannot be read is a plain miss."""
    try:
        report = json.loads(path.read_bytes())
    except OSError:
        return None
    except ValueError:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not text
        print(f"warning: skipping corrupt cache record {path}", file=sys.stderr)
        return None
    if isinstance(report, dict) and sorted(report) == sorted(_report_fields()):
        return report
    print(f"warning: skipping incomplete cache record {path}", file=sys.stderr)
    return None


def _cache_store(path: Path, report: dict) -> None:
    """Write the record whole: a temp file of a unique name beside it, moved into place by one os.replace."""
    import tempfile

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(report, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"warning: could not write cache {path}: {exc}", file=sys.stderr)


def _cmd_oracle(args) -> int:
    record = None
    if not args.no_cache:
        lseries.sp_curve(args.p, args.tol, args.family)  # refuse what sp refuses before the cache answers
        path = _cache_path(args) / f"{_cache_key(args.family, args.p, args.tol)}.json"
        record = _cache_lookup(path)
    if record is None:
        try:
            report = lseries.sp(args.p, args.tol, family=args.family)
        except lseries.NonConvergenceError as exc:
            print(f"oracle: non-convergence: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        except lseries.FunctionalEquationError as exc:
            print(f"oracle: functional-equation self-check failed: {exc}", file=sys.stderr)
            return EXIT_CROSSCHECK
        record = report.as_record()
        if not args.no_cache:
            _cache_store(path, record)  # over a corrupt or incomplete record too, so it warns once
    _emit(args, [record], lambda rec: "\n".join(f"{k}: {rec[k]}" for k in _report_fields()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _within_precision(err, precision: int) -> bool:
    """`verify`'s one ok rule: an error of at most 2^-precision.

    err is an mpf at working precision (or a float): a float reads 0.0 below
    about 2^-1074, which would check a 2048-bit row to only about 1074 bits.
    The acceptance tests pin fixed tolerances of their own, independently.
    """
    return err <= _tolerance(precision)


@functools.cache  # one per precision, not one per row
def _tolerance(precision: int) -> mpmath.mpf:
    return mpmath.mpf(2) ** -precision  # exact at any working precision


def _symbolic_rows(args):
    for n, ok in symbolic.cross_check(args.max_n):
        yield {"n": n, "match": ok}, ok


def _thm5_rows(args):
    for r in maass.verify_theta2_identity(range(args.max_n + 1), args.precision):
        ok = _within_precision(r.rel_error, args.precision)
        yield {**r.as_record(), "ok": ok}, ok


def _thm6_rows(args):
    by_case = [maass.verify_eta_identity(range(args.max_n + 1), case, args.precision) for case in "xyz"]
    scale = None
    for reports in zip(*by_case):  # N by N, cases x, y, z
        for r in reports:
            if r.vanishing:
                ok = _within_precision(r.numeric / (scale or 1.0), args.precision)
            else:
                ok = _within_precision(r.rel_error, args.precision)
                scale = r.numeric
            yield {**r.as_record(), "ok": ok}, ok


def _thm3_rows(args):
    ks = range(1, 2 * args.max_n + 2)
    values = maass.hecke_value_E(ks, args.precision)
    predicted = maass.hecke_value_E_from_constants(ks, args.precision)
    for k, a, b in zip(ks, values, predicted):
        if b == 0:
            ok = a == 0
            yield {"k": k, "value": 0.0, "zero_by_construction": True, "ok": ok}, ok
        else:
            rel = abs(a - b) / abs(b)
            ok = _within_precision(rel, args.precision)
            yield {"k": k, "value": maass.json_number(a), "rel_error": maass.json_number(rel), "ok": ok}, ok


def _thm4_rows(args):
    ks = range(1, 6 * args.max_n + 7)  # 6N+1 .. 6N+6 for N = 0 .. max_n
    theta_forms = maass.hecke_value_A_from_theta_forms(ks, args.precision)
    lattices = maass.hecke_value_A(ks, args.precision)
    for k, forms, lattice in zip(ks, theta_forms, lattices):
        if forms == 0:
            ok = _within_precision(abs(lattice), args.precision)
            yield {"k": k, "value": 0.0, "zero_by_construction": True,
                   "lattice_abs": maass.json_number(abs(lattice)), "ok": ok}, ok
        else:
            rel = abs(forms - lattice) / abs(lattice)
            ok = _within_precision(rel, args.precision)
            yield {"k": k, "value": maass.json_number(lattice), "rel_error": maass.json_number(rel), "ok": ok}, ok


_THM_ROWS = {"3": _thm3_rows, "4": _thm4_rows, "5": _thm5_rows, "6": _thm6_rows}


def _cmd_verify(args) -> int:
    rows_of = _symbolic_rows if args.symbolic else _THM_ROWS.get(args.thm)
    if rows_of is None:
        return _usage(args, "give --thm {3|4|5|6} or --symbolic")
    if args.max_n < 0:
        return _usage(args, f"--max-n must be >= 0, got {args.max_n}")
    if args.thm and args.precision < maass.MIN_PRECISION:  # the symbolic route takes no precision
        return _usage(args, f"--precision must be >= {maass.MIN_PRECISION}, got {args.precision}")
    rows = []
    ok_all = True
    try:
        for row, ok in rows_of(args):
            rows.append(row)
            ok_all = ok_all and ok
    except maass.PrecisionError as exc:
        print(f"verify: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    _emit(args, rows, lambda row: " ".join(f"{k}={v}" for k, v in row.items()))
    return EXIT_OK if ok_all else EXIT_CROSSCHECK


# ---------------------------------------------------------------------------

@functools.cache  # one parser per process: main() may run many times in one process
def _build_parser() -> _Parser:
    parser = _Parser(prog="rankcrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print a recurrence polynomial or a golden table")
    p_poly.add_argument("--family", choices=sorted(recurrences.FAMILIES), help="default: f")
    p_poly.add_argument("--n", type=int)
    p_poly.add_argument("--mod", type=int)
    p_poly.add_argument("--emit-table", choices=sorted(_TABLE_FAMILY))
    p_poly.set_defaults(func=_cmd_poly)

    p_crit = sub.add_parser("criterion", help="scan a prime range for rank verdicts")
    p_crit.add_argument("--family", choices=["Ep", "Ap"], required=True)
    p_crit.add_argument("--range", required=True, help="LO..HI inclusive")
    p_crit.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    p_crit.set_defaults(func=_cmd_criterion)

    p_oracle = sub.add_parser("oracle", help="numerical L(1) and normalized central value")
    p_oracle.add_argument("--p", type=int, required=True)
    p_oracle.add_argument("--family", choices=["Ep", "Ap"], default="Ep")
    p_oracle.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_oracle.add_argument("--jobs", type=int, default=DEFAULT_JOBS, help="accepted; has no effect on oracle")
    p_oracle.add_argument("--no-cache", action="store_true")
    p_oracle.add_argument("--cache", help="cache directory, one file per query "
                          "(else $RANKCRIT_CACHE or ~/.cache/rankcrit/oracle)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="numeric and symbolic identity checks")
    mode = p_verify.add_mutually_exclusive_group()
    mode.add_argument("--thm", choices=sorted(_THM_ROWS))
    mode.add_argument("--symbolic", action="store_true")
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_verify.set_defaults(func=_cmd_verify)

    # the output flags, the same on each subcommand that prints records (see _emit)
    for p_out, formats in ((p_crit, ["csv", "json", "pretty"]), (p_oracle, ["json", "pretty"]),
                           (p_verify, ["json", "pretty"])):
        p_out.add_argument("--format", choices=formats, default="pretty")
        p_out.add_argument("--no-timestamp", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:  # lseries.BadReductionError among them: a usage error like _usage's own
        return _usage(args, str(exc))
    except OverflowError as exc:  # past a named limit: the int64 kernels or the resident L-sum terms
        print(f"rankcrit: error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except ArithmeticError as exc:
        print(f"rankcrit: internal arithmetic check failed: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except criteria.CrossCheckError as exc:  # a RuntimeError; last, as reading it loads criteria
        print(f"rankcrit: cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
