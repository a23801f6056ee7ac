"""What a fresh interpreter imports: numpy only at the first kernel call, the process pool only for --jobs > 1.

Each check runs ``cli.main`` in a new ``python`` with ``PYTHONPATH=src``, so
that nothing the test session imported is already in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from rankcrit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each argv list given on stdin through cli.main and prints, as JSON, the exit code and
# stdout of each, and which of the watched modules were loaded after each.
_SCRIPT = """
import contextlib, io, json, sys
from rankcrit import cli
watched = ("numpy._core", "concurrent.futures.process")
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, buf.getvalue(), [m for m in watched if m in sys.modules]])
print(json.dumps(out))
"""

# Checks that numpy is loaded when the process pool of a --jobs 2 scan starts.
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
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["criterion", "--family", "Ep", "--range", "2..200", "--jobs", "2"])
print(code, seen)
"""

LIGHT = [["poly", "--family", "f", "--n", "40"],
         ["verify", "--thm", "5", "--max-n", "2"],
         ["verify", "--symbolic", "--max-n", "6"]]
HEAVY = [["criterion", "--family", "Ep", "--range", "2..200", "--format", "json", "--jobs", "1"],
         ["oracle", "--p", "73", "--no-cache", "--format", "json"]]


def _fresh(script: str, stdin: str = "") -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], input=stdin, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numpy_loads_only_at_the_first_kernel_call(capsys):
    runs = json.loads(_fresh(_SCRIPT, json.dumps(LIGHT + HEAVY)))
    for argv, (code, _, loaded) in zip(LIGHT, runs):
        assert code == 0, argv
        assert loaded == [], argv
    for argv, (code, out, loaded) in zip(HEAVY, runs[len(LIGHT):]):
        assert "numpy._core" in loaded, argv
        assert "concurrent.futures.process" not in loaded, argv
        assert (code, out) == (main(argv), capsys.readouterr().out), argv


def test_pool_starts_after_numpy_loads():
    assert _fresh(_POOL_SCRIPT).split() == ["0", "[True]"]
