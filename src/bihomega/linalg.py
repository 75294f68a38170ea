"""Exact rational matrices and vectors, with no rounding anywhere.

Entries are `fractions.Fraction`s; `apply`, `int_rows` and `int_cols`
give ints over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import ShapeMismatch, Singular

Vector = tuple[Fraction, ...]
# a matrix times an integer: each row's nonzero (column, entry) pairs
IntRows = tuple[tuple[tuple[int, int], ...], ...]

_ZERO = Fraction(0)


def frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def vec(values: Iterable) -> Vector:
    """The values as a tuple of Fractions; such a tuple is kept as it is."""
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        return values
    return tuple(frac(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeMismatch("ragged rows")
            flat.extend(frac(v) for v in row)
        return Matrix(nrows, ncols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal((Fraction(1),) * n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        """The values down the diagonal, and one zero shared by the rest."""
        n = len(values)
        entries = [_ZERO] * (n * n)
        entries[::n + 1] = map(frac, values)
        return Matrix(n, n, tuple(entries))

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @cached_property
    def den(self) -> int:
        """The lcm of the entries' denominators."""
        return lcm(*(v.denominator for v in self.entries))

    @cached_property
    def _int_rows(self) -> dict[int, IntRows]:
        return {}

    def int_rows(self, den: int) -> IntRows:
        """The matrix times den, a multiple of self.den, as each row's
        nonzero (column, entry) pairs; built once per den."""
        forms = self._int_rows
        if den not in forms:
            if den % self.den:
                raise ValueError(f"den {den} is not a multiple of {self.den}")
            forms[den] = tuple(tuple((j, v.numerator * (den // v.denominator))
                                     for j, v in enumerate(self.row(i)) if v)
                               for i in range(self.rows))
        return forms[den]

    @cached_property
    def _int_cols(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    def int_cols(self, den: int) -> tuple[tuple[int, ...], ...]:
        """The matrix times den, a multiple of self.den, column by column:
        column j is apply(e_j, den); built once per den."""
        forms = self._int_cols
        if den not in forms:
            if den % self.den:
                raise ValueError(f"den {den} is not a multiple of {self.den}")
            n, es = self.cols, self.entries
            forms[den] = tuple(tuple(v.numerator * (den // v.denominator)
                                     for v in es[j::n]) for j in range(n))
        return forms[den]

    def apply(self, x: Sequence, den: int) -> tuple:
        """The matrix times x times den, for den a multiple of self.den:
        x and the result are int vectors."""
        if len(x) != self.cols:
            raise ShapeMismatch(f"cannot apply {self.rows}x{self.cols} to length-{len(x)}")
        return rows_times(self.int_rows(den), x)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)


def rows_times(rows: IntRows, x: Sequence) -> tuple:
    """The matrix given by its rows' nonzero entries times x, each sum
    started from int 0."""
    out = []
    for row in rows:
        acc = 0
        for j, v in row:
            xj = x[j]
            if xj:
                acc += v * xj
        out.append(acc)
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Multiplied on the integer forms, then divided by both denominators."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    rows = _int_mul(a.int_rows(a.den), b.int_rows(b.den), b.cols)
    den = a.den * b.den
    return Matrix(a.rows, b.cols, tuple(Fraction(v, den) for row in rows for v in row))


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gaussian elimination.

    Pivot rule: first nonzero entry in row order, for deterministic
    elimination and reproducible failure points.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("only square matrices invert")
    n = a.rows
    work = [list(a.row(i)) for i in range(n)]
    ident = Matrix.identity(n)
    inv = [list(ident.row(i)) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise Singular(f"matrix is singular at column {col}")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        if scale != 1:
            work[col] = [v / scale for v in work[col]]
            inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
                inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return Matrix.from_rows(inv)


def mats_commute(a: Matrix, b: Matrix) -> bool:
    """Decided on the integer forms: both products are scaled by the same
    two denominators."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeMismatch("commutation needs square matrices of equal size")
    ra, rb = a.int_rows(a.den), b.int_rows(b.den)
    return _int_mul(ra, rb, a.rows) == _int_mul(rb, ra, a.rows)


def _int_mul(left: IntRows, right: IntRows, cols: int) -> list[list[int]]:
    out = []
    for row in left:
        acc = [0] * cols
        for k, v in row:
            for j, w in right[k]:
                acc[j] += v * w
        out.append(acc)
    return out
