"""The benchmark's hooks still fit the package.

perfbench/spans.py wraps rankcrit functions by (module, attribute) name and
reads their results (``len(f.terms)`` over ``vz_sequence``, for one), and
perfbench/warm.py calls maass and lseries directly, so a rename in the
package would otherwise show only when the benchmark runs.  The files are
loaded as they are, without changes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("criterion", "oracle", "verify", "exact")

# Counters each workload's own operations must drive above zero in a traced pass.
OWN_COUNTERS = {
    "criterion": ("primality.primes_in.calls", "recurrences.constant_term_mod.f.calls",
                  "recurrences.constant_term_mod.a.calls", "recurrences.constant_term_mod.x.calls",
                  "recurrences.steps", "criteria.verdicts"),
    "oracle": ("lseries.terms",),
    "verify": ("symbolic.monomials", "maass.laguerre.calls", "maass.ms_derivative.calls"),
    "exact": ("recurrences.generate.calls", "polyring.render.chars"),
}


@pytest.fixture(scope="module")
def perfbench():
    """Load spans.py and warm.py; warm.py imports its sibling workloads.py."""
    had_workloads = "workloads" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = {}
        for name in ("spans", "warm"):
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
        modules["workloads"] = sys.modules["workloads"]
        yield modules
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_workloads:
            sys.modules.pop("workloads", None)


def test_span_and_counter_targets_resolve(perfbench):
    spans = perfbench["spans"]
    targets = [(mod, attr) for mod, attr, *_ in spans._SPANS + spans._COUNTERS]
    assert targets
    for mod, attr in targets:
        module = importlib.import_module(f"rankcrit.{mod}")
        assert callable(getattr(module, attr, None)), f"rankcrit.{mod}.{attr}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warm_smoke(perfbench, workload):
    perfbench["warm"].warm(workload, smoke=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_pass(perfbench, workload, capsys):
    from rankcrit import cli

    tracer = perfbench["spans"].Tracer()
    with tracer.traced_pass(0):
        codes = {" ".join(argv): cli.main(list(argv))
                 for argv in perfbench["workloads"].ops(workload, smoke=True)}
    capsys.readouterr()
    assert set(codes.values()) == {0}, codes
    metrics = tracer.pass_metrics(0)
    assert all(metrics[name] > 0 for name in OWN_COUNTERS[workload]), metrics
