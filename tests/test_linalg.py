from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomega.errors import ShapeMismatch, Singular
from bihomega.linalg import (Matrix, mat_inverse, mat_mul, mats_commute,
                             rows_times, vec)
from reference import mat_vec

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def square(n):
    return st.lists(rationals, min_size=n * n, max_size=n * n).map(
        lambda vals: Matrix(n, n, tuple(vals)))


def test_identity_times_matrix():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mat_mul(Matrix.identity(3), m) == m
    assert mat_mul(m, Matrix.identity(3)) == m


def test_identity_holds_one_one_and_one_zero():
    m = Matrix.identity(400)
    assert len({id(v) for v in m.entries}) == 2
    assert all(m.get(i, j) == (i == j) for i in range(400) for j in range(400))


def test_diagonal_puts_each_value_on_the_diagonal():
    assert Matrix.diagonal([2, Fraction(1, 3), 0]) == Matrix.from_rows(
        [[2, 0, 0], [0, Fraction(1, 3), 0], [0, 0, 0]])
    assert Matrix.diagonal([]) == Matrix(0, 0, ())


def test_zero_annihilates():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert mat_mul(m, Matrix.zero(2, 2)) == Matrix.zero(2, 2)


def test_column_swap_product():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert mat_mul(a, b) == Matrix.from_rows([[2, 1], [4, 3]])


def test_mul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mat_mul(Matrix.identity(2), Matrix.identity(3))


def test_inverse_identity():
    assert mat_inverse(Matrix.identity(4)) == Matrix.identity(4)


def test_inverse_diagonal():
    m = Matrix.diagonal([2, 3])
    assert mat_inverse(m) == Matrix.diagonal([Fraction(1, 2), Fraction(1, 3)])


def test_inverse_unipotent():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    assert mat_inverse(m) == Matrix.from_rows([[1, -1], [0, 1]])


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],
    [[0, 2, 1], [3, 0, 0], [1, 1, Fraction(5, 2)]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
])
def test_inverse_with_row_swaps(rows):
    # each has a zero pivot in row order, so elimination swaps rows
    m = Matrix.from_rows(rows)
    assert mat_mul(m, mat_inverse(m)) == Matrix.identity(len(rows))


def test_inverse_of_identity_divides_nothing(monkeypatch):
    # a pivot of 1 leaves its row as it is
    divisions = []
    divide = Fraction.__truediv__
    monkeypatch.setattr(Fraction, "__truediv__", lambda a, b: (
        divisions.append((a, b)), divide(a, b))[1])
    assert mat_inverse(Matrix.identity(50)) == Matrix.identity(50)
    assert divisions == []


def test_inverse_singular():
    with pytest.raises(Singular):
        mat_inverse(Matrix.from_rows([[1, 2], [2, 4]]))


def test_inverse_needs_square():
    with pytest.raises(ShapeMismatch):
        mat_inverse(Matrix.zero(2, 3))


def test_commute_with_identity():
    m = Matrix.from_rows([[5, -1], [2, 7]])
    assert mats_commute(m, Matrix.identity(2))


def test_diagonals_commute():
    assert mats_commute(Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4]))


def test_nilpotent_pair_does_not_commute():
    a = Matrix.from_rows([[0, 1], [0, 0]])
    b = Matrix.from_rows([[0, 0], [1, 0]])
    assert not mats_commute(a, b)


@given(square(3), square(3), square(3))
@settings(max_examples=40, deadline=None)
def test_mat_mul_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(square(3))
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(m):
    try:
        inv = mat_inverse(m)
    except Singular:
        return
    assert mat_mul(m, inv) == Matrix.identity(3)
    assert mat_mul(inv, m) == Matrix.identity(3)


@given(square(2), st.lists(rationals, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_apply_is_linear(m, raw):
    # x times s in ints, applied at den
    x, s, den = vec(raw), lcm(*(v.denominator for v in raw)), m.den
    xi = tuple(int(v * s) for v in x)
    e0, e1 = m.apply((1, 0), den), m.apply((0, 1), den)
    combined = tuple(xi[0] * u + xi[1] * v for u, v in zip(e0, e1))
    assert m.apply(xi, den) == combined
    assert combined == tuple(v * s * den for v in mat_vec(m, x))


@st.composite
def sparse_matrix_and_vector(draw):
    """A matrix of any small shape with many zero entries and zero rows,
    its entries as drawn, and a vector with many zero entries."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
    entries = []
    for _ in range(rows):
        zero_row = draw(st.booleans())
        entries += [Fraction(0) if zero_row else draw(entry)
                    for _ in range(cols)]
    x = tuple(draw(entry) for _ in range(cols))
    return Matrix(rows, cols, tuple(entries)), entries, x


@given(sparse_matrix_and_vector())
@settings(max_examples=80, deadline=None)
def test_apply_matches_dense_sum(case):
    m, entries, x = case
    dense = []
    for i in range(m.rows):
        total = Fraction(0)
        for j in range(m.cols):
            total += entries[i * m.cols + j] * x[j]
        dense.append(total)
    assert mat_vec(m, x) == tuple(dense)
    # x times s in ints, applied at den; the second call at a den reads
    # the cached nonzero pairs
    s = lcm(*(v.denominator for v in x))
    xi = tuple(int(v * s) for v in x)
    for den in (m.den, m.den, 5 * m.den):
        expected = tuple(v * s * den for v in dense)
        assert rows_times(m.int_rows(den), xi) == expected
        out = m.apply(xi, den)
        assert out == expected
        assert all(type(v) is int for v in out)


def test_apply_rejects_wrong_length():
    with pytest.raises(ShapeMismatch):
        Matrix.identity(2).apply((1, 2, 3), 1)


def test_apply_in_integers_at_a_multiple_of_den():
    m = Matrix.from_rows([[Fraction(1, 2), 0, 3],
                          [0, Fraction(-2, 9), Fraction(5, 6)]])
    assert m.den == 18
    x = vec([Fraction(7, 5), 1, Fraction(-1, 5)])
    xi = tuple(int(v * 5) for v in x)
    for den in (18, 36, 18 * 7):
        out = m.apply(xi, den)
        assert all(type(v) is int for v in out)
        assert out == tuple(v * 5 * den for v in mat_vec(m, x))
    assert m.int_rows(36) is m.int_rows(36)
    # at a den that is not a multiple, no int form is exact
    third = Matrix.from_rows([[Fraction(1, 3), 1], [0, Fraction(5, 2)]])
    with pytest.raises(ValueError, match="not a multiple of 6"):
        third.apply((1, 1), 2)


@given(sparse_matrix_and_vector(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_int_cols_are_the_images_of_the_basis(case, k):
    m = case[0]
    den = m.den * k
    cols = m.int_cols(den)
    assert cols == tuple(m.apply(tuple(int(i == j) for i in range(m.cols)), den)
                         for j in range(m.cols))
    assert m.int_cols(den) is cols


def test_int_cols_reject_a_den_that_is_no_multiple():
    third = Matrix.from_rows([[Fraction(1, 3), 1], [0, Fraction(5, 2)]])
    with pytest.raises(ValueError, match="not a multiple of 6"):
        third.int_cols(2)


@st.composite
def matrix_pair(draw):
    """The rows of two matrices that multiply, of any shape up to 4x4,
    square or not, with many zero entries."""
    n, k, m = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    return ([[draw(entry) for _ in range(k)] for _ in range(n)],
            [[draw(entry) for _ in range(m)] for _ in range(k)])


@given(matrix_pair())
@settings(max_examples=80, deadline=None)
def test_mat_mul_matches_dense_sum(case):
    a, b = case
    dense = []
    for i in range(len(a)):
        for j in range(len(b[0])):
            total = Fraction(0)
            for k in range(len(b)):
                total += a[i][k] * b[k][j]
            dense.append(total)
    out = mat_mul(Matrix.from_rows(a), Matrix.from_rows(b))
    assert (out.rows, out.cols) == (len(a), len(b[0]))
    assert out.entries == tuple(dense)
    assert all(type(v) is Fraction for v in out.entries)
