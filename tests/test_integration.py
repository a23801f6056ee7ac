"""Cross-module ties: the CM-derivative route and the Frobenius-trace route
compute the same central L-values.

The weight-1 Hecke value attached to each CM curve equals the curve's own
L(1).  One side comes from Laguerre-weighted theta sums at a CM point (the
squared derivatives need no period); the other from traces of Frobenius (integer
arithmetic in Z[i] or Z[omega], pinned to finite-field character sums in
test_lseries), the CM-shape conductor rule (pinned to Tate's algorithm in
test_lseries), and the functional-equation exponential sum.  They share no code
below the Python runtime, so agreement here validates both stacks at once.
"""

import math

from rankcrit.lseries import OMEGA_A, OMEGA_E, CurveSpec, l1
from rankcrit.maass import hecke_value_A, hecke_value_E, omega_A, omega_E


def test_square_family_central_value_two_routes():
    via_series = l1(CurveSpec(A=1, B=0), 1e-9)  # y^2 = x^3 + x
    via_theta = float(hecke_value_E(1, 128))
    assert abs(via_series - via_theta) < 1e-9


def test_cube_family_central_value_two_routes():
    via_series = l1(CurveSpec(A=0, B=-432), 1e-9)  # x^3 + y^3 = 1 model
    via_theta = float(hecke_value_A(1, 128))
    assert abs(via_series - via_theta) < 1e-9


def test_float_periods_equal_agm_periods():
    # the oracle divides by lseries' math.gamma floats; maass computes the periods by the AGM
    assert math.isclose(OMEGA_E, float(omega_E(64)), rel_tol=1e-15)
    assert math.isclose(OMEGA_A, float(omega_A(64)), rel_tol=1e-15)
