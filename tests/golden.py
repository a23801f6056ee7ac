"""Reference data for the golden-table and criterion tests.

Polynomials are given as {degree: coefficient} maps.  Two entries repair
printing slips in the published reference rows, each forced by the rows that
follow them under the stated recurrences and confirmed by the high-precision
CM-derivative identities:

* A9's row 7 carries -10206 at t^11 (rows 8-9 are reproducible only with the
  minus sign);
* X9's row 6 carries the constant term -152 (rows 7-9 need it, and the
  squared CM derivative at k=13 matches the -152 prediction, not zero).
"""

A_TABLE = {
    0: {0: 1},
    1: {2: -3},
    2: {4: 9, 1: 2},
    3: {6: -27, 3: -18, 0: -2},
    4: {8: 81, 5: 108, 2: 36},
    5: {10: -243, 7: -540, 4: -360, 1: 152},
    6: {12: 729, 9: 2430, 6: 2700, 3: -16440, 0: -152},
    7: {14: -2187, 11: -10206, 8: -17010, 5: 1311840, 2: 24240},
    8: {16: 6561, 13: 40824, 10: 95256, 7: -99234720, 4: -2974800, 1: 6848},
    9: {18: -19683, 15: -157464, 12: -489888, 9: 7449816240, 6: 359465040, 3: -578304, 0: -6848},
}

X_TABLE = {
    0: {0: 1},
    1: {},
    2: {1: -1},
    3: {0: 2},
    4: {2: -33},
    5: {1: 76},
    6: {3: -339, 0: -152},
    7: {2: 4314},
    8: {4: -72687, 1: -3424},
    9: {3: 228168, 0: 6848},
}

# Rows 0-4 are printed in full; rows 5-9 elide middle coefficients, so only
# the visible leading/trailing entries are pinned here (the implementation
# computes the full rows).
F_TABLE_FULL = {
    0: {0: 1},
    1: {1: 2, 0: 3},
    2: {2: -6, 1: -18, 0: -9},
    3: {3: 12, 2: 54, 1: 108, 0: 81},
    4: {4: 60, 3: 360, 2: 1296, 1: 2268, 0: 1377},
}

F_TABLE_VISIBLE = {
    5: {5: -1512, 4: -11340, 2: -34992, 1: -13122, 0: 2187},
    6: {6: 21816, 5: 196344, 2: 1027890, 1: 433026, 0: 80919},
    7: {7: -280368, 6: -2943864, 2: -46517490, 1: -24074496, 0: -5189751},
    8: {8: 3319056, 7: 39828672, 2: 1016482608, 1: 423420696, 0: 82097793},
    9: {9: -32283360, 8: -435825360, 2: 2060573904, 1: 4373050842, 0: 1702205523},
}

F_TABLE_DEGREES = {5: 5, 6: 6, 7: 7, 8: 8, 9: 9}

# 20 admissible primes below 460 with the divisibility of f_{3(p-1)/8}(0) by p.
EP_SCAN_TABLE = {
    17: False, 41: False, 73: True, 89: True, 97: False,
    113: True, 137: False, 193: False, 233: True, 241: False,
    257: False, 281: True, 313: False, 337: True, 353: True,
    401: False, 409: False, 433: False, 449: False, 457: False,
}


def poly_to_map(poly) -> dict[int, int]:
    return {k: c for k, c in enumerate(poly) if c != 0}
