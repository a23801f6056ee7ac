"""Set-up that precedes the first timed pass: imports plus the caches that
stay warm across passes in one process.

* every workload imports ``rankcrit.cli``, which imports every layer, numpy
  and mpmath;
* ``oracle`` fills the ``lseries`` ``lru_cache``s (minimal model and
  conductor) for each curve of the pass;
* ``verify`` computes mpmath's cached constants (pi, the gamma values behind
  omega_E and omega_A, and those of exp) at each precision of the pass.

run.py times this in fresh interpreters for ``setup_s`` and then runs it in
its own process, so every timed pass starts equally warm.
"""

from __future__ import annotations

from fractions import Fraction

import workloads


def warm(workload: str, smoke: bool = False) -> None:
    from rankcrit import cli, lseries, maass  # noqa: F401  (import cost is part of set-up)

    all_ops = workloads.ops(workload, smoke)
    if workload == "oracle":
        for family, p in {workloads.oracle_target(a) for a in all_ops}:
            lseries.conductor(lseries.curve_ep(p) if family == "Ep" else lseries.curve_ap(p))
    elif workload == "verify":
        for prec in workloads.verify_precisions(all_ops):
            maass.omega_E(prec)
            maass.omega_A(prec)
            # order-1 derivatives at both CM points: pi, sqrt(3) and exp's constants at this precision
            maass.ms_derivative(maass.THETA2, Fraction(1, 2), 1, maass.CM_I, prec)
            maass.ms_derivative(maass.ETA, Fraction(1, 2), 1, maass.CM_OMEGA, prec)
