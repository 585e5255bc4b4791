"""Exact dense linear algebra: rank and span membership with certificates.

One elimination kernel serves both questions.  It runs fraction-free
(Bareiss) row elimination on integer rows: over the rationals each row is
first scaled by the lcm of its denominators and every update is divided
exactly by the previous pivot; over a prime field the update is reduced
mod p instead.  Pivots are taken first-nonzero, left to right, so the
pivot columns are the greedy independent columns.  No floating point.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .fields import Field, Raw, Scalar
from .reports import CertificateError, check_deadline


class ExactMatrix:
    """Immutable row-major matrix of raw field values."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def from_columns(
        cls, field: Field, nrows: int, columns: Sequence[Sequence]
    ) -> "ExactMatrix":
        """The matrix with the given columns; ``nrows`` keeps the row count
        when there are no columns, and the column count holds with no rows."""
        if any(len(col) != nrows for col in columns):
            raise ValueError(f"column length differs from row count {nrows}")
        matrix = cls(field, list(zip(*columns)) if columns else [()] * nrows)
        matrix.ncols = len(columns)
        return matrix

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_columns(self.field, self.ncols, self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"


def _integer_rows(field: Field, rows: Iterable[Sequence[Raw]]) -> list[list[int]]:
    """Mutable integer copies of the rows; scaling a row by the lcm of its
    denominators keeps its row space and the solutions it imposes."""
    if not field.is_rationals:
        return [list(row) for row in rows]
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _echelon(field: Field, rows: list[list[int]], deadline: float | None = None) -> list[int]:
    """Bring integer rows to row echelon form in place; return the pivot
    columns, pivot row r holding the pivot of column ``pivots[r]``.
    ``deadline`` (a ``time.monotonic()`` instant) is checked per column."""
    p = field.p
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        check_deadline(deadline)
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            m = row[c]
            if p:
                if m:
                    rows[i] = [(piv * x - m * y) % p for x, y in zip(row, top)]
            else:
                # every entry is a minor of the input, so the division by
                # the previous pivot is exact
                rows[i] = [(piv * x - m * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(c)
    return pivots


def rank(matrix: ExactMatrix, *, deadline: float | None = None) -> int:
    """Exact rank: the number of pivots the elimination kernel finds."""
    rows = _integer_rows(matrix.field, matrix.rows)
    return len(_echelon(matrix.field, rows, deadline))


def in_span(vector: Sequence, matrix: ExactMatrix) -> tuple[bool, list[Scalar] | None]:
    """Decide whether the vector lies in the span of the matrix columns.

    Returns ``(True, certificate)`` with one coefficient per column
    (zeros off the greedy left-to-right independent columns), re-verified
    by multiplication before returning, or ``(False, None)``.
    """
    field = matrix.field
    v = [field.coerce(x) for x in vector]
    if len(v) != matrix.nrows:
        raise ValueError(f"vector length {len(v)} != row count {matrix.nrows}")
    n = matrix.ncols
    rows = _integer_rows(field, (row + (x,) for row, x in zip(matrix.rows, v)))
    pivots = _echelon(field, rows)
    if pivots and pivots[-1] == n:
        return False, None

    zero = field.zero
    certificate = [zero] * n
    for r in reversed(range(len(pivots))):
        row = rows[r]
        rest = field.coerce(row[n])
        for c in pivots[r + 1:]:
            rest = field.sub(rest, field.mul(row[c], certificate[c]))
        certificate[pivots[r]] = field.div(rest, row[pivots[r]])
    # re-verify: columns . certificate == vector
    support = [(j, c) for j, c in enumerate(certificate) if c != zero]
    for row, x in zip(matrix.rows, v):
        total = zero
        for j, c in support:
            total = field.add(total, field.mul(row[j], c))
        if total != x:
            raise CertificateError("span certificate failed re-verification")
    return True, [Scalar(field, c) for c in certificate]
