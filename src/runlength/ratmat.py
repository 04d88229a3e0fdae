"""Dense matrices over exact rationals, the tests' reference for the walk.

Entries are ``fractions.Fraction`` values (arbitrary-precision, always in
lowest terms, positive denominator), so every operation here is exact:
there is no rounding anywhere in this module.  No command builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable rectangular matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("matrix rows must all have the same length")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(_as_fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, size: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(
            tuple(
                tuple(one if i == j else zero for j in range(size))
                for i in range(size)
            )
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        cols = tuple(zip(*other.entries))
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def scale(self, factor) -> "RationalMatrix":
        f = _as_fraction(factor)
        return RationalMatrix(tuple(tuple(f * x for x in row) for row in self.entries))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination.

        Pivots on the first nonzero entry of each column; with exact
        arithmetic no magnitude-based pivoting is needed.
        """
        if not self.is_square():
            raise ValueError("only square matrices can be inverted")
        size = self.rows
        work = [list(row) for row in self.entries]
        inv = [list(row) for row in RationalMatrix.identity(size).entries]
        for col in range(size):
            pivot_row = next(
                (r for r in range(col, size) if work[r][col] != 0), None
            )
            if pivot_row is None:
                raise InvariantError(f"matrix is singular: no pivot in column {col}")
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            pivot = work[col][col]
            if pivot != 1:
                work[col] = [x / pivot for x in work[col]]
                inv[col] = [x / pivot for x in inv[col]]
            for r in range(size):
                if r == col or work[r][col] == 0:
                    continue
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
        return RationalMatrix.from_rows(inv)


def row_times_matrix(
    vector: Sequence[Fraction], matrix: RationalMatrix
) -> tuple[Fraction, ...]:
    """Exact row-vector times matrix product."""
    if len(vector) != matrix.rows:
        raise ValueError(f"length {len(vector)} vector vs {matrix.shape} matrix")
    return tuple(
        sum(v * row[j] for v, row in zip(vector, matrix.entries))
        for j in range(matrix.cols)
    )


def matrix_times_column(
    matrix: RationalMatrix, vector: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Exact matrix times column-vector product."""
    if len(vector) != matrix.cols:
        raise ValueError(f"{matrix.shape} matrix vs length {len(vector)} vector")
    return tuple(sum(a * v for a, v in zip(row, vector)) for row in matrix.entries)
