"""Recurrence-polynomial rank criteria for the curve families y^2 = x^3 + p x
and x^3 + y^3 = p, with independent numerical cross-checks.

Layers:

* :mod:`rankcrit.polyring` -- polynomials as integer coefficient tuples, and their printing.
* :mod:`rankcrit.recurrences` -- the five polynomial families f, a, x, y, z, exact or mod p.
* :mod:`rankcrit.criteria` -- divisibility of constant terms -> rank verdicts.
* :mod:`rankcrit.symbolic` -- theta-constant ring re-derivation of the f family.
* :mod:`rankcrit.lseries` -- point counts, conductors, L(1), normalized S_p.
* :mod:`rankcrit.maass` -- extended-precision CM derivatives of theta series.
* :mod:`rankcrit.cli` -- poly / criterion / oracle / verify subcommands.
"""

from .polyring import render
from .recurrences import (
    A_VZ,
    F_E,
    FAMILIES,
    X_A,
    Y_A,
    Z_A,
    constant_term_mod,
    generate,
    generate_all,
    step,
)
from .criteria import (
    CriterionVerdict,
    CrossCheckError,
    admissible,
    scan,
    sp_congruence_rhs,
    verdict_Ap,
    verdict_Ep,
)
from .lseries import (
    CurveSpec,
    LValueReport,
    an_list,
    ap,
    conductor,
    curve_ap,
    curve_ep,
    l1,
    sp,
)
from .maass import (
    MSDerivativeReport,
    e2star,
    hermite,
    laguerre,
    ms_derivative,
    omega_A,
    omega_E,
    verify_eta_identity,
    verify_theta2_identity,
)
from .symbolic import ThetaPolynomial, normalize_to_t, rs_derivation, vz_sequence

__version__ = "0.1.0"

__all__ = [
    "render",
    "A_VZ", "F_E", "FAMILIES", "X_A", "Y_A", "Z_A",
    "constant_term_mod", "generate", "generate_all", "step",
    "CriterionVerdict", "CrossCheckError", "admissible", "scan",
    "sp_congruence_rhs", "verdict_Ap", "verdict_Ep",
    "CurveSpec", "LValueReport", "an_list", "ap", "conductor",
    "curve_ap", "curve_ep", "l1", "sp",
    "MSDerivativeReport", "e2star", "hermite", "laguerre", "ms_derivative",
    "omega_A", "omega_E", "verify_eta_identity", "verify_theta2_identity",
    "ThetaPolynomial", "normalize_to_t", "rs_derivation", "vz_sequence",
]
