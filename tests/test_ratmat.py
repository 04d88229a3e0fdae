"""Exact rational matrix arithmetic."""

from fractions import Fraction

import pytest

from runlength.errors import InvariantError
from runlength.ratmat import RationalMatrix, matrix_times_column, row_times_matrix


def test_from_rows_coerces_ints():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m[0, 1] == Fraction(2)
    assert isinstance(m[1, 0], Fraction)


def test_identity_and_shape():
    eye = RationalMatrix.identity(3)
    assert eye.shape == (3, 3)
    assert eye[0, 0] == 1 and eye[0, 1] == 0


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_add_sub_scale():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert (a + b)[0, 0] == Fraction(3, 2)
    assert (a - b)[1, 1] == Fraction(7, 2)
    assert a.scale(Fraction(1, 2))[0, 1] == 1


def test_matmul_known_product():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[5, 6], [7, 8]])
    assert (a @ b).entries == RationalMatrix.from_rows([[19, 22], [43, 50]]).entries


def test_matmul_shape_mismatch():
    a = RationalMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_inverse_roundtrip():
    m = RationalMatrix.from_rows(
        [
            [Fraction(1, 2), Fraction(1, 3), 0],
            [1, 1, Fraction(2, 5)],
            [0, Fraction(7, 2), 3],
        ]
    )
    eye = RationalMatrix.identity(3)
    assert m @ m.inverse() == eye
    assert m.inverse() @ m == eye


def test_inverse_requires_row_swap():
    m = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert m.inverse() == m


def test_singular_matrix_raises():
    singular = RationalMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(InvariantError):
        singular.inverse()


def test_nonsquare_inverse_rejected():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).inverse()


def test_vector_products_match_matmul():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    row = (Fraction(1), Fraction(2))
    as_matrix = RationalMatrix.from_rows([row]) @ m
    assert row_times_matrix(row, m) == as_matrix.entries[0]
    col = (Fraction(5), Fraction(6))
    assert matrix_times_column(m, col) == tuple(
        r[0] for r in (m @ RationalMatrix.from_rows([[5], [6]])).entries
    )


def test_equality_is_by_value():
    a = RationalMatrix.from_rows([[Fraction(1, 2)]])
    b = RationalMatrix.from_rows([[Fraction(2, 4)]])
    assert a == b
