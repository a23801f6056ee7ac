"""Tests of the polynomial helpers in tests/_util.py, the references of the polyring tests."""

from ._util import add


class TestAdd:
    def test_identity(self):
        assert add((3, 2), ()) == (3, 2)

    def test_inverse(self):
        assert add((3, 2), (-3, -2)) == ()

    def test_table_row(self):
        # (-6t^2 - 18t - 9) + 6t^2 = -18t - 9
        assert add((-9, -18, -6), (0, 0, 6)) == (-9, -18)
