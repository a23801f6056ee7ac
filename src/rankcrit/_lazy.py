"""Modules imported at their first attribute read (the ``importlib.util.LazyLoader`` recipe).

``_modp`` and ``lseries`` take ``np`` from here and ``maass`` and
``cli`` take ``mpmath``, so ``import rankcrit`` runs neither numpy's import
(about 160 ms on a 2-vCPU VM) nor mpmath's (about 35 ms): ``poly`` on
Python ints never loads either, ``criterion`` and ``oracle`` load numpy at
their first kernel call, and ``verify`` loads mpmath at its first
precision-bound call.  ``recurrences`` takes its mod-p kernel ``_modp``
from here, so only a mod-p call compiles it, and ``cli`` takes the layers
``criteria``, ``lseries``, ``maass`` and ``symbolic``, so each subcommand
compiles only the layers it runs (``poly`` none of them).
``python -X importtime -m rankcrit poly --n 1`` shows no ``numpy``, no
``mpmath``, no ``rankcrit._modp`` and none of those four layers.

A lazy submodule is bound on its parent package, as the import system binds
an imported one, so ``import rankcrit.criteria; rankcrit.criteria.scan``
works whichever of ``cli`` and that import ran first.

Limit: in Python 3.11 the lazy module is not thread-safe on its first
attribute read (3.12 added a lock), so two threads touching numpy, mpmath or
one of rankcrit's lazy layers at once could both run its import.  rankcrit
starts no threads, and ``criteria.scan`` loads numpy before it forks its
process pool, so every worker inherits the loaded module.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, executed at its first attribute read; the module itself if it is
    already in ``sys.modules`` (loaded, or lazy from an earlier call)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)  # imports the parent package first
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
