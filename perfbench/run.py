#!/usr/bin/env python3
"""rankcrit benchmark harness.

    python3 perfbench/run.py --workload criterion --seed 1 --seconds 25 --trace 0

Runs one workload (criterion | oracle | verify | exact) through the public
``rankcrit.cli.main`` in this single process, closed loop: a pass is the
workload's fixed operations, in an order drawn from --seed, and passes repeat
for about --seconds.  A fixed calibration loop runs after each operation, and
the gated times are in its units, so that the host's changing speed cancels.  Every output is checked against reference.json (and, for
oracle, against the criterion route).  --trace 1 alternates untraced and
traced passes and reports per-layer metrics instead of end-to-end ones.

Prints a readable report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import warm  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics of an untraced run, in BENCHMARK.json order: (name, unit, better).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_cal", "cal", "lower"),
    ("work_per_cal", "1/cal", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# What work_per_cal (and the printed work_per_s) counts in each workload.
WORK_NAME = {"criterion": "primes_per_s", "oracle": "terms_per_s", "verify": "checks_per_s", "exact": "steps_per_s"}


class SourceError(RuntimeError):
    """The checkout holds no rankcrit sources to benchmark."""


def import_rankcrit():
    """Import rankcrit from this checkout's src/, never from an installed copy."""
    if not (SRC / "rankcrit" / "__init__.py").is_file():
        raise SourceError(f"no rankcrit package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rankcrit

    where = Path(rankcrit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceError(f"rankcrit was imported from {where}, not from {SRC}")
    return rankcrit


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())["ops"]


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tests" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(argv) -> tuple[int, str, str]:
    """One CLI operation in this process: (exit code, stdout, stderr)."""
    from rankcrit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # an uncaught error fails this operation, not the run
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def check(argv, rc: int, stdout: str, reference: dict) -> tuple[dict | None, str | None]:
    """(projection of the output, reason it is wrong or None)."""
    if rc != 0:
        return None, f"exit {rc}"
    try:
        proj = workloads.project(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unparsable output: {exc!r}"
    want = reference.get(workloads.key(argv))
    if want is None:
        return proj, "no reference entry"
    if proj != want:
        return proj, f"output differs from reference: {json.dumps(proj)[:200]} != {json.dumps(want)[:200]}"
    return proj, None


def time_setup(workload: str, smoke: bool) -> float:
    """Seconds from launching a fresh interpreter until warm.warm() returns in it."""
    code = (f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import warm; "
            f"warm.warm({workload!r}, {smoke!r}); print(time.monotonic())")
    t0 = time.monotonic()  # CLOCK_MONOTONIC: one clock for every process on Linux
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return float(proc.stdout.split()[-1]) - t0


def environment() -> dict:
    import mpmath
    import mpmath.libmp
    import numpy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "rankcrit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "jobs": 1,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fastest(records: list[dict], traced: bool) -> dict[str, float]:
    """Operation -> its fastest run among the traced (or the untraced) passes."""
    best = {}
    for r in records:
        if r["traced"] == traced:
            best[r["op"]] = min(best.get(r["op"], math.inf), r["seconds"])
    return best


class _IntRing:
    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b


class _ModRing:
    def __init__(self, p: int):
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p


def _poly_mod() -> None:
    """Polynomial products mod 1009 through ring method calls."""
    ring, a = _ModRing(1009), list(range(1, 50))
    for _ in range(60):
        out = [0] * (2 * len(a) - 1)
        for i, ci in enumerate(a):
            for j, cj in enumerate(a):
                out[i + j] = ring.add(out[i + j], ring.mul(ci, cj))
        a = out[:len(a)]


def _hermite_zz() -> None:
    """The Hermite recurrence H_{n+1} = 2x H_n - 2n H_{n-1} over ZZ to n = 360."""
    ring, prev, cur = _IntRing(), [1], [0, 2]
    for n in range(1, 360):
        nxt = [0] + [ring.mul(2, c) for c in cur]
        for i, c in enumerate(prev):
            nxt[i] = ring.add(nxt[i], ring.mul(-2 * n, c))
        prev, cur = cur, nxt


_SMALL_PRIMES = [q for q in range(3, 3000, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]


def _char_sums() -> None:
    """numpy quadratic-character sums of a fixed cubic, one per odd prime q < 3000."""
    for q in _SMALL_PRIMES:
        x = np.arange(q, dtype=np.int64)
        g = (x * x % q * x + 7 * x + 3) % q
        is_sq = np.zeros(q, dtype=bool)
        is_sq[x * x % q] = True
        int(np.where(g == 0, 0, np.where(is_sq[g], 1, -1)).sum())


# The calibration loop of each workload: fixed work that never calls
# rankcrit, shaped like the program's work there, because host contention
# slows call-heavy interpreter code, numpy calls and big-integer arithmetic
# by different factors.  criterion and verify spend their time in method
# calls on small values (polyring's ring.add/ring.mul, mpmath), oracle in
# numpy character sums, exact in polynomial recurrences over big integers.
# Each loop takes about 30-50 ms on a quiet 2-vCPU Xeon VM.
CALIBRATION = {"criterion": _poly_mod, "oracle": _char_sums, "verify": _poly_mod, "exact": _hermite_zz}


def calibrate(workload: str) -> float:
    """Seconds the workload's calibration loop takes now: the host's current speed."""
    t0 = time.perf_counter()
    CALIBRATION[workload]()
    return time.perf_counter() - t0


def median_ratio(records: list[dict], traced: bool) -> dict[str, float]:
    """Operation -> median of its cal_ratio over the traced (or the untraced) passes."""
    ratios = {}
    for r in records:
        if r["traced"] == traced:
            ratios.setdefault(r["op"], []).append(r["cal_ratio"])
    return {op: statistics.median(v) for op, v in ratios.items()}


def timed_pass(workload: str, order, cal: float) -> tuple[float, list[tuple], float]:
    """Run the operations in order, each followed by the calibration loop.

    Returns the pass's summed operation time, (argv, rc, stdout, stderr,
    seconds, cal_ratio) per operation, and the last calibration time.  An
    operation's cal_ratio is its time over the mean of the calibration runs
    just before and just after it.  Outputs are checked afterwards, outside
    the timer.
    """
    results = []
    for argv in order:
        s = time.perf_counter()
        rc, out, err = call(argv)
        secs = time.perf_counter() - s
        after = calibrate(workload)
        results.append((argv, rc, out, err, secs, secs / ((cal + after) / 2)))
        cal = after
    return sum(r[4] for r in results), results, cal


def probe_ap(oracle_projs: list[dict]) -> tuple[float, int]:
    """Microseconds per public ap(curve, q) call over the good q <= M, largest oracle p of each family."""
    from rankcrit import lseries
    from rankcrit._primality import primes_in

    total, calls = 0.0, 0
    for family in ("Ep", "Ap"):
        projs = [pr for pr in oracle_projs if pr["family"] == family]
        if not projs:
            continue
        largest = max(projs, key=lambda pr: pr["p"])
        curve = (lseries.curve_ep if family == "Ep" else lseries.curve_ap)(largest["p"])
        qs = [q for q in primes_in(3, largest["terms"]) if curve.discriminant % q]
        t0 = time.perf_counter()
        for q in qs:
            lseries.ap(curve, q)
        total += time.perf_counter() - t0
        calls += len(qs)
    return (1e6 * total / calls if calls else 0.0), calls


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run: (result for the last output line, full report)."""
    import_rankcrit()
    reference = load_reference() if reference is None else reference
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    pass_ops = workloads.ops(workload, smoke)

    n_setup = 1 if smoke else SETUP_PROBES
    setup = [time_setup(workload, smoke)]
    warm.warm(workload, smoke)

    known_failures = []
    if workload == "oracle":
        for argv in workloads.KNOWN_DEFECT_PROBE:
            rc, _, err = call(argv)
            if rc != 0:
                known_failures.append({"op": workloads.key(argv), "exit": rc, "message": err.strip()})

    rng = random.Random(seed)
    tracer = spans.Tracer() if trace else None
    passes, records = [], []
    cal = calibrate(workload)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        pid = len(passes)
        traced = trace and pid % 2 == 1
        order = rng.sample(pass_ops, len(pass_ops))
        gc.collect()
        with tracer.traced_pass(pid) if traced else contextlib.nullcontext():
            wall, results, cal = timed_pass(workload, order, cal)
        for argv, rc, out, err, secs, ratio in results:
            proj, error = check(argv, rc, out, reference)
            records.append({"pass": pid, "traced": traced, "op": workloads.key(argv), "seconds": secs,
                            "cal_ratio": ratio, "proj": proj,
                            "error": error and f"{error} {err.strip()[-300:]}".strip()})
        passes.append({"traced": traced, "wall": wall, "output_bytes": sum(len(r[2].encode()) for r in results)})
        # The set-ups are spread evenly over the run, so that setup_s samples
        # the host's speed across the run rather than at one moment.
        if len(setup) < n_setup and time.perf_counter() >= start + len(setup) * seconds / n_setup:
            setup.append(time_setup(workload, smoke))
            cal = calibrate(workload)
        min_passes = 2 if trace else 1
        if len(passes) >= min_passes and time.perf_counter() + statistics.median(
                p["wall"] for p in passes) > deadline:
            break
    setup += [time_setup(workload, smoke) for _ in range(n_setup - len(setup))]

    checks = []  # once-per-run operations outside the timed passes
    if workload == "exact":
        golden = load_golden()
        for table in workloads.EMIT_TABLES:
            rc, out, err = call(("poly", "--emit-table", table))
            error = f"exit {rc} {err.strip()}" if rc else workloads.emit_table_error(table, out, golden)
            checks.append({"op": f"poly --emit-table {table}", "error": error})
    ap_us, ap_calls = 0.0, 0
    if workload == "oracle":
        truth = workloads.criterion_truth(pass_ops)
        for rec in records:
            if rec["error"] is None:
                rec["error"] = workloads.concordance_error(rec["proj"], truth)
        if trace:
            ap_us, ap_calls = probe_ap([r["proj"] for r in records if r["error"] is None])

    attempted = len(records) + len(checks)
    failures = [r for r in records + checks if r["error"]]
    env["loadavg_after"] = os.getloadavg()

    # Other tenants slow the host by up to 3x for minutes at a time, so the
    # gated times are each operation's median cal_ratio (its time in units of
    # the calibration loop run next to it).  Raw seconds are reported too.
    norm = median_ratio(records, traced=False)
    best = fastest(records, traced=False)
    rated = [op for op in norm if workload != "criterion" or workloads.is_sweep(op.split())]
    work = {r["op"]: workloads.work_units(r["op"].split(), r["proj"]) for r in records if r["proj"] is not None}
    rated_work = sum(work.get(op, 0) for op in rated)
    walls = [p["wall"] for p in passes if not p["traced"]]
    summary = {
        "setup_s": _quartiles(setup) + (len(setup),),
        "pass_wall_s": _quartiles(walls) + (len(walls),),
    }
    raw = {"wall_s": sum(best.values()), "work_per_s": rated_work / sum(best[op] for op in rated)}
    if trace:
        per_pass = [tracer.pass_metrics(i) for i, p in enumerate(passes) if p["traced"]]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["cli.output_bytes"] = statistics.median(p["output_bytes"] for p in passes if p["traced"])
        metrics["lseries.ap.us"], metrics["lseries.ap.calls"] = ap_us, ap_calls
        metrics["trace.overhead_cal"] = sum(median_ratio(records, traced=True).values()) - sum(norm.values())
        metrics = {name: metrics[name] for name, _, _ in spans.PER_LAYER}
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {
            "setup_s": summary["setup_s"][1],
            "wall_cal": sum(norm.values()),
            "work_per_cal": rated_work / sum(norm[op] for op in rated),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": env, "known_failures": known_failures, "summary": summary, "raw": raw,
        "fastest_s": best, "median_cal_ratio": norm,
        "failed_frac": len(failures) / attempted, "failures": failures,
        "passes": passes, "operations": [{k: r[k] for k in ("pass", "op", "seconds", "cal_ratio", "error")} for r in records],
        "result": result,
    }
    if workload == "criterion":
        report["large_prime_s"] = sum(t for op, t in best.items() if op not in rated)
    if trace:
        report["layer_self_s"] = {layer: metrics[f"{layer}.self_s"] for layer in spans.LAYERS}
        report["tracer"] = tracer
    return result, report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# perfbench workload={w} seed={report['seed']} seconds={report['seconds']} "
          f"trace={int(report['trace'])} smoke={report['smoke']}")
    print(f"# environment {json.dumps(report['environment'])}")
    if w == "oracle":
        print(f"# known_failures {json.dumps(report['known_failures'])}")
    for name, (q1, med, q3, n) in report["summary"].items():
        print(f"# {name:<12} median {med:.6g} s  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    if "large_prime_s" in report:
        print(f"# large_prime_s = {report['large_prime_s']!r} s (fastest single-prime calls)")
    raw = report["raw"]
    print(f"# raw wall_s = {raw['wall_s']!r} s, work_per_s ({WORK_NAME[w]}) = {raw['work_per_s']!r} 1/s "
          f"(fastest runs; not gated, they follow the host's speed)")
    res = report["result"]
    print(f"# failed_frac {report['failed_frac']:.6g} ({res['failed']}/{res['attempted']} operations)")
    for f in report["failures"][:5]:
        print(f"# FAILED {f['op']}: {f['error']}")
    if report["trace"]:
        total = sum(report["layer_self_s"].values()) or 1.0
        shares = sorted(report["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("# traced self time by layer: " + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in shares))
    for name, m in res["metrics"].items():
        label = f"{name} ({WORK_NAME[w]})" if name == "work_per_cal" else name
        print(f"# {label} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at minimal size")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        result, report = run(args.workload, args.seed, seconds, bool(args.trace), smoke=args.smoke)
    except SourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    if not result["correct"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
