"""Every function in ``src/rankcrit`` is one that a subcommand runs.

``_TRACE`` runs ``RUNS`` through ``cli.main`` in a fresh interpreter, under a
``sys.setprofile`` hook installed before ``rankcrit`` is imported (so module-level
calls count), and prints where each Python function it entered was defined.  Every
``def`` in the package, read from the ASTs, must be among them or on ``ALLOWED``
with its reason.  An ``ALLOWED`` entry must name a def that exists and that no run
reaches, so the list shrinks when a route starts to call one.  Code that only the
tests use as a reference lives in ``tests/_oracles.py``.

Process-pool workers are not traced, so every criterion run passes ``--jobs 1``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "rankcrit"

# The defs no run reaches on purpose, each with its reason.
ALLOWED = {
    "lseries:ap": "a_q for one prime is a layer of its own; a route for it (the torsion bound) is planned",
    "lseries:_cornacchia": "ap's primary alpha of norm q",
    "lseries:CurveSpec.discriminant": "ap's bad-reduction check",
    "criteria:sp_congruence_rhs": "the benchmark's criterion check calls it; a route for it is planned",
    "lseries:_divisor_count": "the tail bound counts d(n) only for n <= 60, and no admissible p stops the L-sum there",
    "__init__:__getattr__": "PEP 562: `rankcrit.scan` and the like; the CLI reads its layers from lazy_import",
    "__init__:__dir__": "PEP 562: dir(rankcrit)",
    "recurrences:RecurrenceFamily.__repr__": "names the family in a refusal that no table family triggers",
}

# (argv, exit code) for each run; None overwrites every record in the cache with bytes that
# do not parse, and CACHE in an argument is the cache directory.
RUNS = [
    (["poly", "--n", "12"], 0),
    *((["poly", "--family", key, "--n", "12"], 0) for key in "axyz"),
    *((["poly", "--family", key, "--n", "12", "--mod", "7"], 0) for key in "faxyz"),
    *((["poly", "--emit-table", table], 0) for table in "124"),
    (["poly", "--family", "f"], 1),
    *((["criterion", "--family", family, "--range", "2..200", "--format", fmt, "--jobs", "1"], 0)
      for family in ("Ep", "Ap") for fmt in ("csv", "json", "pretty")),
    (["criterion", "--family", "Ep", "--range", "17..17", "--format", "json", "--jobs", "1"], 0),
    (["criterion", "--family", "Ap", "--range", "19..19", "--format", "json", "--jobs", "1"], 0),
    (["criterion", "--family", "Zp", "--range", "2..10"], 1),
    (["oracle", "--p", "73", "--no-cache", "--format", "json"], 0),
    (["oracle", "--p", "19", "--family", "Ap", "--no-cache"], 0),
    (["oracle", "--p", "73", "--cache", "CACHE", "--format", "json"], 0),  # miss
    (["oracle", "--p", "73", "--cache", "CACHE", "--format", "json"], 0),  # hit
    (None, None),
    (["oracle", "--p", "73", "--cache", "CACHE", "--format", "json"], 0),  # corrupt record
    *((["verify", "--thm", thm, "--max-n", "2", "--precision", "64", "--format", "json"], 0) for thm in "3456"),
    (["verify", "--thm", "5", "--max-n", "1", "--precision", "64"], 0),
    (["verify", "--symbolic", "--max-n", "4", "--format", "json"], 0),
    (["verify", "--symbolic", "--max-n", "4"], 0),
]

_TRACE = """
import contextlib, io, json, sys
from pathlib import Path
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(hook)
from rankcrit.cli import main  # as the console script imports it
runs, cache = json.loads(sys.argv[1]), sys.argv[2]
exits = []
for argv in runs:
    if argv is None:
        for path in Path(cache).glob("*.json"):
            path.write_bytes(b"{")
        exits.append(None)
        continue
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(main([cache if arg == "CACHE" else arg for arg in argv]))
sys.setprofile(None)
print(json.dumps([exits, sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered})]))
"""


def package_defs() -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): "module:qualified name"} for every def in the package; the
    first line is that of the first decorator, as in ``co_firstlineno``."""
    out = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[str(path), first, child.name] = f"{path.stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def faults(defs: set[str], reached: set[str], allowed: dict[str, str]) -> list[str]:
    """One line per fault: a def that no run reaches and that is not allowed, and an allowed
    entry that names no def or a def that a run reaches."""
    return ([f"{name}: no subcommand reaches it" for name in sorted(defs - reached - allowed.keys())]
            + [f"{name}: allowed, but there is no such def" for name in sorted(allowed.keys() - defs)]
            + [f"{name}: allowed, but a subcommand reaches it" for name in sorted(allowed.keys() & reached)])


def test_faults_names_unreached_defs_and_stale_entries():
    defs = {"m:run", "m:oracle", "m:hook", "m:routed"}
    allowed = {"m:hook": "kept", "m:gone": "deleted since", "m:routed": "routed since"}
    assert faults(defs, {"m:run", "m:routed"}, allowed) == [
        "m:oracle: no subcommand reaches it",
        "m:gone: allowed, but there is no such def",
        "m:routed: allowed, but a subcommand reaches it",
    ]
    assert faults(defs, {"m:run", "m:oracle"}, allowed) == ["m:gone: allowed, but there is no such def"]


def test_every_def_is_reached_or_allowed(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _TRACE, json.dumps([argv for argv, _ in RUNS]), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exits, entered = json.loads(proc.stdout)
    assert exits == [code for _, code in RUNS]
    defs = package_defs()
    reached = {defs[key] for key in map(tuple, entered) if key in defs}
    assert faults(set(defs.values()), reached, ALLOWED) == []
