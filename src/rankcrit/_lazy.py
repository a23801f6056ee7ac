"""Modules imported at their first attribute read (the ``importlib.util.LazyLoader`` recipe).

``recurrences`` and ``lseries`` take ``np`` from here, so ``import rankcrit``
does not run numpy's import (about 160 ms on a 2-vCPU VM): ``poly`` on Python
ints and ``verify`` on ints and mpmath never load it, and ``criterion`` and
``oracle`` load it at their first kernel call.  ``python -X importtime -m
rankcrit poly --n 1`` shows no ``numpy`` line.

Limit: in Python 3.11 the lazy module is not thread-safe on its first
attribute read (3.12 added a lock), so two threads touching it at once could
both run numpy's import.  rankcrit starts no threads, and ``criteria.scan``
loads numpy before it forks its process pool, so every worker inherits the
loaded module.
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
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
