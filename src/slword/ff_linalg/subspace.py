"""Subspaces of F_p^n in canonical reduced-row-echelon form.

Two Subspace values describe the same subspace exactly when their basis
arrays are entry-wise identical, so equality and hashing are cheap, and
`with_vector` and `tail_meet` can update or read off a basis with no elimination.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from ..errors import ShapeError
from .field import PrimeField
from .matrix import GFMatrix, _kernel_rows, _rref_in_place, as_residues, mulmod


class Subspace:
    __slots__ = ("field", "ambient_dim", "_basis", "pivot_cols")

    def __init__(self, field: PrimeField, ambient_dim: int, basis: np.ndarray, pivot_cols: tuple[int, ...]):
        # internal: callers go through span()
        basis = basis.astype(np.int64, copy=True)
        basis.setflags(write=False)
        self.field = field
        self.ambient_dim = ambient_dim
        self._basis = basis
        self.pivot_cols = pivot_cols

    @classmethod
    def span(cls, field: PrimeField, vectors: Iterable[np.ndarray], ambient_dim: int | None = None) -> "Subspace":
        vs = [as_residues(field, v) for v in vectors]
        if ambient_dim is None:
            if not vs:
                raise ShapeError("cannot infer ambient dimension from an empty span")
            ambient_dim = len(vs[0])
        for v in vs:
            if v.shape != (ambient_dim,):
                raise ShapeError(f"vector of shape {v.shape} in ambient dimension {ambient_dim}")
        if not vs:
            return cls(field, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())
        stacked = np.vstack(vs)
        pivots = _rref_in_place(stacked, field.p)
        return cls(field, ambient_dim, stacked[: len(pivots)], tuple(pivots))

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls.span(field, [], ambient_dim)

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls.coordinate_span(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate_span(cls, field: PrimeField, ambient_dim: int, coords: Sequence[int]) -> "Subspace":
        """Span of the standard basis vectors with the given indices.

        The unit rows in increasing coordinate order are already the RREF
        basis, with the coordinates as pivots, so no elimination runs.
        Duplicate coordinates collapse.
        """
        cols = sorted({int(c) for c in coords})
        if cols and not (0 <= cols[0] and cols[-1] < ambient_dim):
            raise ShapeError(f"coordinates {cols} outside [0, {ambient_dim})")
        rows = np.zeros((len(cols), ambient_dim), dtype=np.int64)
        rows[np.arange(len(cols)), cols] = 1
        return cls(field, ambient_dim, rows, tuple(cols))

    @classmethod
    def tail(cls, field: PrimeField, n: int, t: int) -> "Subspace":
        """<e_{t+1}, ..., e_n>: the last n - t coordinates."""
        return cls.coordinate_span(field, n, range(t, n))

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def basis_rows(self) -> np.ndarray:
        return self._basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other._basis.shape == self._basis.shape
            and np.array_equal(other._basis, self._basis)
        )

    def __hash__(self):
        return hash((self.field.p, self.ambient_dim, self._basis.tobytes()))

    def __repr__(self):
        return f"Subspace(p={self.field.p}, dim={self.dim}, ambient={self.ambient_dim})"

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residual of v after eliminating against the basis (zero iff v is a member).

        `v` is one vector or a (k, n) stack of row vectors, reduced in one
        product.  The basis is in RREF, so the coefficient of each basis row
        is the entry of v at that row's pivot column.
        """
        p = self.field.p
        w = as_residues(self.field, v)
        if w.ndim not in (1, 2) or w.shape[-1] != self.ambient_dim:
            raise ShapeError(f"cannot reduce shape {w.shape} in ambient dimension {self.ambient_dim}")
        return (w - mulmod(w[..., list(self.pivot_cols)], self._basis, p)) % p

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.span(
            self.field, np.vstack([self._basis, other._basis]), self.ambient_dim
        )

    def with_vector(self, v: np.ndarray) -> "Subspace":
        """The span of self and v, with no elimination; a member v returns self.

        v's residual is zero at every pivot column.  Normalized at its leading
        column c, it is the new RREF row: one rank-1 update clears column c
        from the other rows, and the row is inserted in pivot order.
        """
        r = self.reduce(v)
        if r.ndim != 1:
            raise ShapeError(f"expected one vector, got shape {r.shape}")
        nz = r.nonzero()[0]
        if nz.size == 0:
            return self
        p, c = self.field.p, int(nz[0])
        r = (r * pow(int(r[c]), -1, p)) % p
        rows = (self._basis - np.outer(self._basis[:, c], r)) % p
        k = bisect_left(self.pivot_cols, c)
        pivots = (*self.pivot_cols[:k], c, *self.pivot_cols[k:])
        return Subspace(self.field, self.ambient_dim, np.vstack([rows[:k], r, rows[k:]]), pivots)

    def tail_meet(self, t: int) -> "Subspace":
        """self meet <e_{t+1}, ..., e_n> in the last n - t coordinates, with no elimination.

        A member with zero head has zero coefficients on the rows with pivot
        < t, so the rows with pivot >= t span the meet; without their zero
        head columns they are already its RREF.
        """
        if not 0 <= t <= self.ambient_dim:
            raise ShapeError(f"tail start {t} outside [0, {self.ambient_dim}]")
        k = bisect_left(self.pivot_cols, t)
        pivots = tuple(c - t for c in self.pivot_cols[k:])
        return Subspace(self.field, self.ambient_dim - t, self._basis[k:, t:], pivots)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product.

        The form is non-degenerate over F_p, so dim(perp) = n - dim and
        perp(perp(U)) = U; intersections reduce to sums of complements.
        """
        n = self.ambient_dim
        # the null space of the basis, which is already in RREF
        kernel = _kernel_rows(self._basis, list(self.pivot_cols), n, self.field.p)
        return Subspace.span(self.field, kernel, n)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.perp().sum(other.perp()).perp()

    def image_under(self, m: GFMatrix) -> "Subspace":
        """The subspace {m v : v in self}."""
        if m.cols != self.ambient_dim:
            raise ShapeError("matrix does not act on this ambient space")
        if self.dim == 0:
            return Subspace.zero(self.field, m.rows)
        images = mulmod(self._basis, m.array.T, self.field.p)
        return Subspace.span(self.field, images, m.rows)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")

