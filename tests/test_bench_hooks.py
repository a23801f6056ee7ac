"""The benchmark's hooks still fit the package.

perfbench/spans.py wraps rankcrit functions by (module, attribute) name and
perfbench/warm.py calls maass and lseries directly, so a rename in the
package would otherwise show only when the benchmark runs.  Both files are
loaded as they are, without changes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("criterion", "oracle", "verify", "exact")


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
