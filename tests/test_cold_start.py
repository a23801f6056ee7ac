"""What a fresh interpreter loads: numpy, mpmath, the mod-p kernel (``rankcrit._modp``),
``inspect`` (which numpy imports) and the criteria, lseries, maass and symbolic layers only
for the subcommands that run them, and the process pool only for --jobs > 1.  Every record
of the package is a ``NamedTuple``, so no subcommand imports ``dataclasses``.

Each check runs in a new ``python`` with ``PYTHONPATH=src``, so that nothing the test session
imported is already in ``sys.modules``.  A module made by ``rankcrit._lazy`` counts as loaded
once it has executed: its type is then ``ModuleType`` (``type`` reads no attribute, so the
check does not execute it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankcrit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("criteria", "lseries", "maass", "symbolic")
WATCHED = ("numpy", "mpmath", *(f"rankcrit.{layer}" for layer in LAYERS), "rankcrit._modp", "dataclasses",
           "inspect", "concurrent.futures.process")

# Runs the argv list given on stdin through cli.main and prints, as JSON, the exit code, the
# stdout and which of the watched modules have executed.
_SCRIPT = f"""
import contextlib, io, json, sys
from types import ModuleType
from rankcrit import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(json.load(sys.stdin))
print(json.dumps([code, buf.getvalue(), [m for m in {WATCHED!r} if type(sys.modules.get(m)) is ModuleType]]))
"""

# Checks that numpy is loaded when the process pool of a --jobs 2 scan starts (a pool that
# small a scan would not start at the measured _STEPS_PER_WORKER, which the script lowers).
_POOL_SCRIPT = """
import contextlib, io, sys
from concurrent.futures import process
seen = []
init = process.ProcessPoolExecutor.__init__
def spy(self, *args, **kwargs):
    seen.append("numpy._core" in sys.modules)
    init(self, *args, **kwargs)
process.ProcessPoolExecutor.__init__ = spy
from rankcrit import cli
cli.criteria._STEPS_PER_WORKER = 1
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["criterion", "--family", "Ep", "--range", "2..200", "--jobs", "2"])
print(code, seen)
"""

# Imports the modules named on the command line, in that order, then prints, as JSON, the
# rankcrit submodules in sys.modules that are not bound on the package (before and after a
# star import), the names of __all__ that do not resolve, that the star import misses and
# that dir() misses, and whether rankcrit.criteria.scan and the like resolve.
_PACKAGE_SCRIPT = f"""
import json, sys
for name in sys.argv[1:]:
    __import__(name)
import rankcrit

def unbound():
    return sorted(n for n, m in list(sys.modules.items())
                  if n.startswith("rankcrit.") and vars(rankcrit).get(n.split(".")[1]) is not m)

before = unbound()
star = {{}}
exec("from rankcrit import *", star)
print(json.dumps({{
    "unbound": before + unbound(),
    "unresolved": [n for n in rankcrit.__all__ if not hasattr(rankcrit, n)],
    "star": sorted(set(rankcrit.__all__) - set(star)),
    "dir": sorted({{*rankcrit.__all__, *{LAYERS!r}}} - set(dir(rankcrit))),
    "layers": [rankcrit.criteria.scan is rankcrit.scan, rankcrit.lseries.sp is rankcrit.sp,
               rankcrit.maass.laguerre is rankcrit.laguerre, rankcrit.symbolic.vz_sequence is rankcrit.vz_sequence],
}}))
"""

# Each subcommand, its exit code and the watched modules it executes.
RUNS = [
    (["poly", "--family", "f", "--n", "40"], 0, []),
    (["poly", "--n", "-1"], 1, []),
    (["poly", "--family", "x", "--n", "12", "--mod", "7"], 0, ["numpy", "rankcrit._modp", "inspect"]),
    (["verify", "--thm", "5", "--max-n", "2", "--format", "json"], 0,
     ["mpmath", "rankcrit.maass"]),
    (["verify", "--symbolic", "--max-n", "6", "--format", "json"], 0, ["rankcrit.symbolic"]),
    (["criterion", "--family", "Ep", "--range", "2..200", "--format", "json", "--jobs", "1"], 0,
     ["numpy", "rankcrit.criteria", "rankcrit._modp", "inspect"]),
    (["oracle", "--p", "73", "--no-cache", "--format", "json"], 0,
     ["numpy", "rankcrit.lseries", "inspect"]),
]


def _fresh(script: str, stdin: str = "", args: tuple = ()) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *args], input=stdin, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_each_subcommand_loads_only_what_it_runs(capsys):
    for argv, exit_code, executed in RUNS:
        code, out, loaded = json.loads(_fresh(_SCRIPT, json.dumps(argv)))
        assert loaded == executed, argv
        assert (code, out) == (main(argv), capsys.readouterr().out), argv
        assert code == exit_code, argv


def test_pool_starts_after_numpy_loads():
    assert _fresh(_POOL_SCRIPT).split() == ["0", "[True]"]


@pytest.mark.parametrize("imports", [(), ("rankcrit.cli", "rankcrit.criteria"), ("rankcrit.criteria", "rankcrit.cli")])
def test_package_names_resolve_in_any_import_order(imports):
    got = json.loads(_fresh(_PACKAGE_SCRIPT, args=imports))
    assert got == {"unbound": [], "unresolved": [], "star": [], "dir": [], "layers": [True] * 4}
