"""Timing spans around the public functions of each rankcrit layer.

A wrapper replaces the function at the module attribute where its caller
looks it up (``criteria.constant_term_mod``, ``lseries.an_list``,
``maass.laguerre``, ``polyring.render`` ...), so the program is unchanged.
Wrappers exist only inside ``Tracer.traced_pass``; untraced passes run the
original functions.  Spans (name, start, end, parent, pass id and a few
argument-derived attributes) are kept in memory and written as JSON lines at
the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("primality", "recurrences", "polyring", "criteria", "lseries", "maass", "symbolic", "cli")

# Per-layer metrics of the traced run, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = [
    ("primality.primes_in.s", "s", "lower"),
    ("primality.primes_in.calls", "count", "lower"),
    *[(f"recurrences.constant_term_mod.{k}.{m}", u, "lower")
      for k in "fax" for m, u in (("s", "s"), ("calls", "count"))],
    ("recurrences.steps", "count", "lower"),
    ("recurrences.us_per_step.p_lt_500", "us", "lower"),
    ("recurrences.us_per_step.p_ge_500", "us", "lower"),
    ("recurrences.generate.s", "s", "lower"),
    ("recurrences.generate.calls", "count", "lower"),
    ("polyring.render.s", "s", "lower"),
    ("polyring.render.chars", "count", "lower"),
    ("criteria.verdict.s", "s", "lower"),
    ("criteria.verdicts", "count", "higher"),
    ("criteria.crosscheck_failed", "count", "lower"),
    ("lseries.sp.s", "s", "lower"),
    ("lseries.conductor.s", "s", "lower"),
    ("lseries.an_list.s", "s", "lower"),
    ("lseries.l1_sum.s", "s", "lower"),
    ("lseries.terms", "count", "lower"),
    ("lseries.ap.us", "us", "lower"),
    ("lseries.ap.calls", "count", "lower"),
    ("lseries.failed", "count", "lower"),
    ("maass.ms_derivative.s", "s", "lower"),
    ("maass.ms_derivative.calls", "count", "lower"),
    ("maass.laguerre.calls", "count", "lower"),
    ("maass.verify_identity.s", "s", "lower"),
    ("maass.hecke_A.s", "s", "lower"),
    ("maass.hecke_E.s", "s", "lower"),
    ("maass.omega.s", "s", "lower"),
    ("symbolic.vz_sequence.s", "s", "lower"),
    ("symbolic.normalize_to_t.s", "s", "lower"),
    ("symbolic.cross_check.s", "s", "lower"),
    ("symbolic.monomials", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_cal", "cal", "lower"),
]


def _ctm_name(family, N, p):
    return f"recurrences.constant_term_mod.{family.key}"


def _is_residue_ring(family, N, ring=None):
    # mod-p generation is timed by the enclosing constant_term_mod span
    return ring is not None and type(ring).__name__ == "ResidueRing"


# (module, attribute, span name or name function, attrs(args) -> dict,
#  result -> dict, skip(args) -> bool)
_SPANS = [
    ("criteria", "primes_in", "primality.primes_in", None, None, None),
    ("criteria", "constant_term_mod", _ctm_name, lambda f, N, p: {"N": N, "p": p}, None, None),
    ("recurrences", "generate", "recurrences.generate", None, None, _is_residue_ring),
    ("maass", "generate", "recurrences.generate", None, None, _is_residue_ring),
    ("polyring", "render", "polyring.render", None, lambda s: {"chars": len(s)}, None),
    ("criteria", "scan", "criteria.scan", None, None, None),
    ("criteria", "verdict_Ep", "criteria.verdict", None, lambda v: {"verdicts": 1}, None),
    ("criteria", "verdict_Ap", "criteria.verdict", None, lambda v: {"verdicts": len(v)}, None),
    ("lseries", "sp", "lseries.sp", None, None, None),
    ("lseries", "l1_detail", "lseries.l1_sum", None, None, None),
    ("lseries", "conductor", "lseries.conductor", None, None, None),
    ("lseries", "an_list", "lseries.an_list", lambda curve, M, jobs=1: {"M": M}, None, None),
    ("maass", "ms_derivative", "maass.ms_derivative", None, None, None),
    ("maass", "verify_theta2_identity", "maass.verify_identity", None, None, None),
    ("maass", "verify_eta_identity", "maass.verify_identity", None, None, None),
    ("maass", "hecke_value_A", "maass.hecke_A", None, None, None),
    ("maass", "hecke_value_A_from_theta_forms", "maass.hecke_A", None, None, None),
    ("maass", "hecke_value_E", "maass.hecke_E", None, None, None),
    ("maass", "hecke_value_E_from_constants", "maass.hecke_E", None, None, None),
    ("maass", "omega_E", "maass.omega", None, None, None),
    ("maass", "omega_A", "maass.omega", None, None, None),
    ("symbolic", "cross_check", "symbolic.cross_check", None, None, None),
    ("symbolic", "vz_sequence", "symbolic.vz_sequence", None,
     lambda seq: {"monomials": sum(len(f.terms) for f in seq)}, None),
    ("symbolic", "normalize_to_t", "symbolic.normalize_to_t", None, None, None),
    ("cli", "main", "cli.main", None, None, None),
]

# Called once per series term: a counter, not a span.
_COUNTERS = [("maass", "laguerre", "maass.laguerre.calls")]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def _span_wrapper(self, fn, name, attrs, on_result, skip):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return fn(*args, **kwargs)
            rec = {"id": len(spans), "parent": stack[-1] if stack else None, "pass": self.pass_id,
                   "name": name if isinstance(name, str) else name(*args, **kwargs)}
            if attrs is not None:
                rec.update(attrs(*args, **kwargs))
            spans.append(rec)
            stack.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                rec.update(on_result(result))
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        def wrapper(*args, **kwargs):
            self.counts[self.pass_id][counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Install every wrapper for one pass; the originals are back afterwards."""
        self.pass_id = pass_id
        saved = []
        try:
            for mod, attr, name, attrs, on_result, skip in _SPANS:
                module = importlib.import_module(f"rankcrit.{mod}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._span_wrapper(fn, name, attrs, on_result, skip))
            for mod, attr, counter in _COUNTERS:
                module = importlib.import_module(f"rankcrit.{mod}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._count_wrapper(fn, counter))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.pass_id = None

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass: every PER_LAYER name except the
        ones run.py measures itself (cli.output_bytes, lseries.ap.*, trace.overhead_cal)."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        dur = {s["id"]: s["end"] - s["start"] for s in spans}
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += dur[s["id"]]
        total, calls, self_by_name, layer_self = Counter(), Counter(), Counter(), Counter()
        attr_sum = Counter()
        for s in spans:
            own = dur[s["id"]] - child[s["id"]]
            total[s["name"]] += dur[s["id"]]
            calls[s["name"]] += 1
            self_by_name[s["name"]] += own
            layer_self[s["name"].split(".")[0]] += own
            for a in ("chars", "verdicts", "monomials", "M"):
                attr_sum[s["name"], a] += s.get(a, 0)
            if s.get("error"):
                attr_sum[s["name"], "errors"] += 1
                attr_sum[s["name"], s["error"]] += 1

        steps = {"p_lt_500": [0, 0.0], "p_ge_500": [0, 0.0]}
        for s in spans:
            if s["name"].startswith("recurrences.constant_term_mod."):
                bucket = steps["p_lt_500" if s["p"] < 500 else "p_ge_500"]
                bucket[0] += s["N"]
                bucket[1] += dur[s["id"]]

        m = {
            "primality.primes_in.s": total["primality.primes_in"],
            "primality.primes_in.calls": calls["primality.primes_in"],
        }
        for k in "fax":
            m[f"recurrences.constant_term_mod.{k}.s"] = total[f"recurrences.constant_term_mod.{k}"]
            m[f"recurrences.constant_term_mod.{k}.calls"] = calls[f"recurrences.constant_term_mod.{k}"]
        m["recurrences.steps"] = sum(n for n, _ in steps.values())
        for bucket, (n, t) in steps.items():
            m[f"recurrences.us_per_step.{bucket}"] = 1e6 * t / n if n else 0.0
        m.update({
            "recurrences.generate.s": total["recurrences.generate"],
            "recurrences.generate.calls": calls["recurrences.generate"],
            "polyring.render.s": total["polyring.render"],
            "polyring.render.chars": attr_sum["polyring.render", "chars"],
            "criteria.verdict.s": total["criteria.verdict"],
            "criteria.verdicts": attr_sum["criteria.verdict", "verdicts"],
            "criteria.crosscheck_failed": attr_sum["criteria.verdict", "CrossCheckError"],
            "lseries.sp.s": total["lseries.sp"],
            "lseries.conductor.s": total["lseries.conductor"],
            "lseries.an_list.s": total["lseries.an_list"],
            "lseries.l1_sum.s": self_by_name["lseries.l1_sum"],
            "lseries.terms": attr_sum["lseries.an_list", "M"],
            "lseries.failed": attr_sum["lseries.sp", "errors"],
            "maass.ms_derivative.s": total["maass.ms_derivative"],
            "maass.ms_derivative.calls": calls["maass.ms_derivative"],
            "maass.laguerre.calls": self.counts[pass_id]["maass.laguerre.calls"],
            "maass.verify_identity.s": total["maass.verify_identity"],
            "maass.hecke_A.s": total["maass.hecke_A"],
            "maass.hecke_E.s": total["maass.hecke_E"],
            "maass.omega.s": total["maass.omega"],
            "symbolic.vz_sequence.s": total["symbolic.vz_sequence"],
            "symbolic.normalize_to_t.s": total["symbolic.normalize_to_t"],
            "symbolic.cross_check.s": total["symbolic.cross_check"],
            "symbolic.monomials": attr_sum["symbolic.vz_sequence", "monomials"],
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {**s, "start": s["start"] - self._t0, "end": s["end"] - self._t0}
                fh.write(json.dumps(rec) + "\n")
