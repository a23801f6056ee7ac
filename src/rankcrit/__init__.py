"""Recurrence-polynomial rank criteria for the curve families y^2 = x^3 + p x
and x^3 + y^3 = p, with independent numerical cross-checks.

Layers:

* :mod:`rankcrit.polyring` -- polynomials as integer coefficient tuples, and their printing.
* :mod:`rankcrit.recurrences` -- the five polynomial families f, a, x, y, z and their exact walks.
* :mod:`rankcrit._modp` -- the mod-p kernel: generation mod p and F_N(0) mod p.
* :mod:`rankcrit.criteria` -- divisibility of constant terms -> rank verdicts.
* :mod:`rankcrit.symbolic` -- theta-constant ring re-derivation of the f family.
* :mod:`rankcrit.lseries` -- traces of Frobenius from CM, conductors, L(1), normalized S_p.
* :mod:`rankcrit.maass` -- extended-precision CM derivatives of theta series.
* :mod:`rankcrit.cli` -- poly / criterion / oracle / verify subcommands.

Every function here is one that a subcommand runs, but for a short allow-list in
``tests/test_reachable.py``.  The references that only the tests use (the
defining Laguerre sum, Hermite, E2*, the theta-ring derivation ``rs_derivation``
and the dense ``step``) are in ``tests/_oracles.py``.

The names of ``_modp``, ``criteria``, ``lseries``, ``maass`` and ``symbolic``
load their layer at the first read (PEP 562), so ``import rankcrit`` compiles
only ``polyring`` and the exact layer of ``recurrences``, and each subcommand of
``cli`` only the layers it runs.  Every record (``RecurrenceFamily``, the
verdicts and reports, ``CurveSpec``, ``ThetaPolynomial``) is a ``NamedTuple``,
so a subcommand imports ``inspect`` only through numpy.
"""

import importlib

from .polyring import render
from .recurrences import (
    A_VZ,
    F_E,
    FAMILIES,
    X_A,
    Y_A,
    Z_A,
    generate,
    generate_all,
)

__version__ = "0.1.0"

# The names of the layers that load at their first read, by layer.
_LAZY = {
    "_modp": ("constant_term_mod", "constant_terms_mod"),
    "criteria": ("CriterionVerdict", "CrossCheckError", "admissible", "scan",
                 "sp_congruence_rhs", "verdict_Ap", "verdict_Ep"),
    "lseries": ("CurveSpec", "LValueReport", "an_list", "ap", "conductor",
                "curve_ap", "curve_ep", "sp"),
    "maass": ("MSDerivativeReport", "laguerre", "ms_derivative", "omega_A", "omega_E",
              "verify_eta_identity", "verify_theta2_identity"),
    "symbolic": ("ThetaPolynomial", "normalize_to_t", "vz_sequence"),
}
__all__ = [
    "render",
    "A_VZ", "F_E", "FAMILIES", "X_A", "Y_A", "Z_A",
    "generate", "generate_all",
    *(name for names in _LAZY.values() for name in names),
]
_HOME = {name: layer for layer, names in _LAZY.items() for name in (layer, *names)}


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if name == layer else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
