"""Exact factorization M = b1 w b2 with b1, b2 unit lower triangular and w monomial.

The elimination subtracts multiples of an earlier row from later rows and
multiples of a later column from earlier columns, so it reduces M to w with
unit lower triangular operations and det(w) = det(M).  Columns are processed
right to left; within a column the pivot is the not-yet-claimed nonzero row
of lowest index.

b1 and b2 are the stored multipliers, as in LU: the pivot at (r, c) writes its
row multipliers into column r of b1 and its column multipliers into row c of
b2, which are still unit vectors then, so no factor is inverted afterwards.
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
    work = m.array.copy()  # work = b1^-1 @ m @ b2^-1 after every pivot
    b1 = np.eye(n, dtype=np.int64)
    b2 = np.eye(n, dtype=np.int64)
    unclaimed = np.ones(n, dtype=bool)

    for c in range(n - 1, -1, -1):
        free_rows = np.flatnonzero(unclaimed & (work[:, c] != 0))
        if not free_rows.size:
            raise SingularMatrixError("matrix is singular")
        r = int(free_rows[0])
        inv_piv = pow(int(work[r, c]), -1, p)
        # clear below the pivot in this column (row ops, target below source)
        rows = free_rows[1:]
        lam = work[rows, c] * inv_piv % p
        b1[rows, r] = lam
        work[rows] = (work[rows] - lam[:, None] * work[r]) % p
        # clear to the left of the pivot in this row (col ops, target left of source)
        cols = np.flatnonzero(work[r, :c])
        mu = work[r, cols] * inv_piv % p
        b2[c, cols] = mu
        work[:, cols] = (work[:, cols] - work[:, c, None] * mu) % p
        unclaimed[r] = False

    b1, w, b2 = (GFMatrix(m.field, a) for a in (b1, work, b2))
    triple = BruhatTriple(b1, w, b2)
    unit_lower = all(
        is_lower_triangular(b) and np.all(np.diagonal(b.array) == 1) for b in (b1, b2)
    )
    if not (is_monomial(w) and unit_lower):
        raise InvariantError("elimination left a factor outside its Bruhat shape")
    if triple.recompose() != m:
        raise InvariantError("Bruhat factors do not recompose the input")
    return triple
