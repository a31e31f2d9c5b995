"""Exact factorization M = b1 w b2 with b1, b2 unit lower triangular and w monomial.

The elimination uses only operations that keep the accumulated factors unit
lower triangular: adding a multiple of an earlier row to a later row (left
factor) and adding a multiple of a later column to an earlier column (right
factor).  Both start at the identity, so det(b1) = det(b2) = 1 and
det(w) = det(M).
Columns are processed right to left; within a column the pivot is the
not-yet-claimed nonzero row of lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ShapeError, SingularMatrixError
from .ff_linalg import GFMatrix


def is_lower_triangular(m: GFMatrix) -> bool:
    if not m.is_square:
        raise ShapeError("structural predicates need a square matrix")
    return not np.any(np.triu(m.array, k=1))


def is_monomial(m: GFMatrix) -> bool:
    """Exactly one nonzero entry in every row and every column."""
    if not m.is_square:
        raise ShapeError("structural predicates need a square matrix")
    nz = m.array != 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


@dataclass(frozen=True)
class BruhatTriple:
    b1: GFMatrix
    w: GFMatrix
    b2: GFMatrix

    def recompose(self) -> GFMatrix:
        return self.b1 @ self.w @ self.b2

    @property
    def permutation(self) -> tuple[int, ...]:
        """sigma with w e_j = c_j e_{sigma(j)} (column convention)."""
        cols = []
        for j in range(self.w.cols):
            nz = np.nonzero(self.w.array[:, j])[0]
            cols.append(int(nz[0]))
        return tuple(cols)


def bruhat_decompose(m: GFMatrix) -> BruhatTriple:
    """Factor an invertible matrix as b1 @ w @ b2, b1 and b2 unit lower triangular."""
    if not m.is_square:
        raise ShapeError("decomposition needs a square matrix")
    p = m.field.p
    n = m.rows
    work = m.array.copy()
    left = np.eye(n, dtype=np.int64)  # accumulates row ops: work = left @ m @ right
    right = np.eye(n, dtype=np.int64)
    pivot_of_row: dict[int, int] = {}  # claimed row -> its pivot column

    for c in range(n - 1, -1, -1):
        # clear dirt previously introduced at claimed rows, using their
        # single-nonzero pivot columns (all to the right of c)
        for rr, cc in pivot_of_row.items():
            if work[rr, c]:
                lam = (-work[rr, c] * pow(int(work[rr, cc]), -1, p)) % p
                work[:, c] = (work[:, c] + lam * work[:, cc]) % p
                right[:, c] = (right[:, c] + lam * right[:, cc]) % p
        col = work[:, c]
        free_rows = [r for r in range(n) if r not in pivot_of_row and col[r]]
        if not free_rows:
            raise SingularMatrixError("matrix is singular")
        r = free_rows[0]
        inv_piv = pow(int(work[r, c]), -1, p)
        # clear below the pivot in this column (row ops, target below source)
        for i in range(r + 1, n):
            if work[i, c] and i not in pivot_of_row:
                lam = (-work[i, c] * inv_piv) % p
                work[i] = (work[i] + lam * work[r]) % p
                left[i] = (left[i] + lam * left[r]) % p
        # clear to the left of the pivot in this row (col ops, target left of source)
        for j in range(c):
            if work[r, j]:
                lam = (-work[r, j] * inv_piv) % p
                work[:, j] = (work[:, j] + lam * work[:, c]) % p
                right[:, j] = (right[:, j] + lam * right[:, c]) % p
        pivot_of_row[r] = c

    w = GFMatrix(m.field, work)
    b1 = GFMatrix(m.field, left).inv()
    b2 = GFMatrix(m.field, right).inv()
    triple = BruhatTriple(b1, w, b2)
    unit_lower = all(
        is_lower_triangular(b) and np.all(np.diagonal(b.array) == 1) for b in (b1, b2)
    )
    if not (is_monomial(w) and unit_lower):
        raise InvariantError("elimination left a factor outside its Bruhat shape")
    if triple.recompose() != m:
        raise InvariantError("Bruhat factors do not recompose the input")
    return triple
