"""Which package code each verification route may reach, read from the modules' ASTs.

The L-value route (lseries) and the CM and theta-ring routes (maass, symbolic) check
the criterion's verdicts, so they must not share its mod-p code: lseries reaches only
the prime listing and the lazy loader, maass and symbolic reach the recurrences only
for the exact walk, called with no modulus, and none of them imports the mod-p kernel
(``_modp``) by name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankcrit"
EXACT_WALK = {"F_E", "X_A", "Y_A", "Z_A", "iter_family", "generate", "generate_all"}
WALKS = {"iter_family": 1, "generate": 2, "generate_all": 2}  # positional arguments before the modulus


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _package_imports(tree: ast.Module) -> dict[str, set[str]]:
    """{package module: names imported from it, "*" for the module itself}, from every
    import statement at any depth and every ``lazy_import`` or ``import_module`` of a
    package module."""
    found = {}

    def add(dotted: str, name: str) -> None:
        found.setdefault(dotted.split(".")[0], set()).add(name)

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                for alias in node.names:
                    add(module or alias.name, alias.name if module else "*")
            elif module == "rankcrit" or module.startswith("rankcrit."):
                for alias in node.names:
                    add(module[9:] or alias.name, alias.name if module[9:] else "*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rankcrit."):
                    add(alias.name[9:], "*")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("lazy_import", "import_module") and node.args and isinstance(node.args[0], ast.Constant)):
            name = str(node.args[0].value)
            if name.startswith("rankcrit."):
                add(name[9:], "*")
            elif name.startswith(".") and name != ".":
                add(name[1:], "*")
    return found


class TestImportGraph:
    def test_the_reader_sees_every_form(self):
        tree = ast.parse("from . import polyring\nfrom .recurrences import step as s\n"
                         "import rankcrit.cli\nfrom rankcrit.maass import omega_E\n"
                         "def f():\n    from ._primality import is_prime\n"
                         "x = lazy_import('rankcrit.lseries')\ny = importlib.import_module('.symbolic', 'rankcrit')\n")
        assert _package_imports(tree) == {"polyring": {"*"}, "recurrences": {"step"}, "cli": {"*"},
                                          "maass": {"omega_E"}, "_primality": {"is_prime"}, "lseries": {"*"},
                                          "symbolic": {"*"}}

    def test_lseries_reaches_only_primes_and_the_loader(self):
        assert set(_package_imports(_tree("lseries"))) <= {"_primality", "_lazy"}

    @pytest.mark.parametrize("module", ["polyring", "_primality", "_lazy"])
    def test_leaf_modules_import_nothing_from_the_package(self, module):
        assert _package_imports(_tree(module)) == {}

    @pytest.mark.parametrize("module", ["maass", "symbolic"])
    def test_theta_routes_import_only_the_exact_layer(self, module):
        assert set(_package_imports(_tree(module))) <= {"recurrences", "polyring", "_lazy"}

    @pytest.mark.parametrize("module", ["maass", "symbolic"])
    def test_theta_routes_reach_only_the_exact_walk(self, module):
        tree = _tree(module)
        names = _package_imports(tree).get("recurrences", set())
        assert names and names <= EXACT_WALK, names - EXACT_WALK
        # every use of a walk is a call with no modulus: no argument past the family (and N)
        walks = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module in ("recurrences", "rankcrit.recurrences")
                 for alias in node.names if alias.name in WALKS}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        used = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in walks:
                call = calls.get(id(node))
                assert call is not None, f"{module} line {node.lineno}: {node.id} used but not called"
                assert len(call.args) <= WALKS[walks[node.id]] and not call.keywords, f"{module} line {node.lineno}"
                used += 1
        assert used
