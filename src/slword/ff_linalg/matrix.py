"""Exact dense matrices over F_p.

Matrices are immutable: every operation returns a fresh value.  Entries are
canonical residues held in an int64 numpy array.  Every product of residue
arrays goes through `mulmod`, which stays exact in int64 for every modulus
PrimeField accepts (p < 2**31) and inner dimension below 2**16.

Every elimination except the determinant's goes through one kernel,
`_rref_in_place`: GFMatrix.inv/rref here, Subspace.span/perp and
complete_to_basis, and the solves in maps.py.  `_kernel_rows` reads a null
space basis off its output.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from ..errors import FieldMismatchError, ShapeError, SingularMatrixError
from .field import PrimeField

_I64_MAX = 2**63 - 1
_LIMB_BITS = 16


def as_residues(field: PrimeField, data) -> np.ndarray:
    """Coerce array-like data to a canonical int64 residue array."""
    a = np.asarray(data, dtype=np.int64)
    return a % field.p


def vec(field: PrimeField, data) -> np.ndarray:
    v = as_residues(field, data)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {v.shape}")
    return v


def unit_vector(n: int, i: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.int64)
    e[i] = 1
    return e


def _rref_in_place(a: np.ndarray, p: int) -> list[int]:
    """Reduce `a` (writable int64, canonical residues) to its RREF in place.

    Returns the pivot columns; the rank is their number.  Each pivot clears
    its column with one vectorized update of the rows that are nonzero
    there; every product is below p^2 < 2^62, so int64 stays exact for
    p < 2^31.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[:, c].nonzero()[0]
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        pr = int(nz[k])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        # entries left of c in row r are zero, so updates start at column c;
        # pow(x, -1, p) runs Euclid, about 5x faster than x^(p-2) near p = 2^31
        row = a[r, c:] = (a[r, c:] * pow(int(a[r, c]), -1, p)) % p
        if nz.size > 1:
            # the rows to clear; after a swap, row pr holds the old row r,
            # which is zero in column c
            hit = nz[nz != pr]
            sub = a[hit, c:]
            a[hit, c:] = (sub - sub[:, :1] * row) % p
        pivots.append(c)
        r += 1
    return pivots


def _kernel_rows(reduced: np.ndarray, pivots: list[int], ncols: int, p: int) -> np.ndarray:
    """Basis of {x : reduced[:, :ncols] @ x = 0}, one row per free column.

    `reduced` is in RREF with the given pivots (all below `ncols`); the row for
    free column f has a 1 at f and -reduced[r, f] at the r-th pivot column.
    """
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    out = np.zeros((free.size, ncols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = (-reduced[: len(pivots), free].T) % p
    return out


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for canonical int64 residue arrays.

    `a` is a vector or a matrix; `b` a vector, a matrix or a stack of
    matrices, which numpy's matmul broadcasts over.

    When k * (p-1)^2 fits in int64, with k the inner dimension, this is one
    int64 matmul.  Otherwise `a` is split into 16-bit limbs, a = hi * 2^16 + lo
    with hi < 2^15 and lo < 2^16, and the result is
    ((((hi @ b) % p) << 16) + lo @ b) % p: every partial sum stays below 2^63
    while k < 2^16.
    """
    k = a.shape[-1]
    if k * (p - 1) ** 2 <= _I64_MAX:
        return (a @ b) % p
    if k >= 1 << _LIMB_BITS:
        raise ShapeError(f"inner dimension {k} too large for exact products mod {p}")
    hi = a >> _LIMB_BITS
    lo = a & ((1 << _LIMB_BITS) - 1)
    return ((((hi @ b) % p) << _LIMB_BITS) + lo @ b) % p


class RrefResult(NamedTuple):
    matrix: "GFMatrix"
    pivot_cols: tuple[int, ...]
    rank: int


class GFMatrix:
    """An immutable rows x cols matrix over F_p.

    Because the entries never change, the hash, determinant and inverse are
    computed on first use and kept.
    """

    __slots__ = ("field", "_a", "_hash", "_det", "_inv")

    def __init__(self, field: PrimeField, entries):
        a = as_residues(field, entries)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix must be at least 1x1, got {a.shape}")
        a.setflags(write=False)
        self.field = field
        self._a = a
        self._hash = None
        self._det = None
        self._inv = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "GFMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "GFMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def diagonal(cls, field: PrimeField, entries: Iterable[int]) -> "GFMatrix":
        d = vec(field, list(entries))
        return cls(field, np.diag(d))

    @classmethod
    def from_columns(cls, field: PrimeField, columns: Iterable[np.ndarray]) -> "GFMatrix":
        return cls(field, np.column_stack(list(columns)))

    # -- basic accessors -----------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only residue array."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> np.ndarray:
        return self._a[:, j].copy()

    def __eq__(self, other):
        return (
            isinstance(other, GFMatrix)
            and other.field == self.field
            and other.shape == self.shape
            and np.array_equal(other._a, self._a)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.p, self.shape, self._a.tobytes()))
        return self._hash

    def key(self) -> bytes:
        """Stable byte key of the entries, for hashing matrices by value."""
        return self._a.tobytes()

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._a)
        return f"GFMatrix(p={self.field.p}, [{body}])"

    def is_identity(self) -> bool:
        return self.is_square and np.array_equal(self._a, np.eye(self.rows, dtype=np.int64))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "GFMatrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"F_{self.field.p} vs F_{other.field.p}")

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return GFMatrix(self.field, mulmod(self._a, other._a, self.field.p))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix action on a column vector."""
        if v.shape != (self.cols,):
            raise ShapeError(f"cannot apply {self.shape} to vector of shape {v.shape}")
        return mulmod(self._a, v, self.field.p)

    def scale(self, c: int) -> "GFMatrix":
        return GFMatrix(self.field, (self._a * (c % self.field.p)) % self.field.p)

    def det(self) -> int:
        """Determinant by Gaussian elimination, exact over F_p."""
        if self._det is None:
            self._det = self._compute_det()
        return self._det

    def _compute_det(self) -> int:
        # Forward elimination only, not the Gauss-Jordan `_rref_in_place`:
        # clearing above the pivots too doubles the time at n <= 4, and
        # enumerate_sl takes the determinant of every small candidate matrix.
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        # Python ints, not numpy rows: per-call numpy overhead dominates at
        # the sizes this runs on, and Python ints cannot overflow.
        p = self.field.p
        rows = self._a.tolist()
        det = 1
        while rows:
            # rows holds the trailing square block still to eliminate
            r = next((i for i, row in enumerate(rows) if row[0]), None)
            if r is None:
                return 0
            if r:
                rows[0], rows[r] = rows[r], rows[0]
                det = -det
            pivot, *rest = rows[0]
            det = det * pivot % p
            inv = pow(pivot, -1, p)
            rows = [
                [(x - k * y) % p for x, y in zip(row[1:], rest)] if (k := row[0] * inv % p) else row[1:]
                for row in rows[1:]
            ]
        return det % p

    def inv(self) -> "GFMatrix":
        # No back-reference from the inverse to this matrix: the cycle would
        # keep each pair alive until the cycle collector runs, raising peak
        # memory.
        if self._inv is None:
            self._inv = self._compute_inv()
        return self._inv

    def _compute_inv(self) -> "GFMatrix":
        if not self.is_square:
            raise ShapeError("inverse of a non-square matrix")
        p = self.field.p
        n = self.rows
        aug = np.concatenate([self._a.copy(), np.eye(n, dtype=np.int64)], axis=1)
        pivots = _rref_in_place(aug, p)
        # invertible iff every pivot falls in the left half
        if pivots != list(range(n)):
            got = len([c for c in pivots if c < n])
            raise SingularMatrixError(f"matrix of rank {got} < {n} has no inverse")
        return GFMatrix(self.field, aug[:, n:])

    def rref(self) -> RrefResult:
        a = self._a.copy()
        pivots = _rref_in_place(a, self.field.p)
        return RrefResult(GFMatrix(self.field, a), tuple(pivots), len(pivots))

    # -- block structure -----------------------------------------------------

    def embed_principal(self, n: int, offset: int) -> "GFMatrix":
        """Embed this square matrix as a principal block of I_n at `offset`."""
        if not self.is_square:
            raise ShapeError("block embedding requires a square matrix")
        if offset + self.rows > n:
            raise ShapeError("block does not fit")
        out = np.eye(n, dtype=np.int64)
        out[offset : offset + self.rows, offset : offset + self.cols] = self._a
        return GFMatrix(self.field, out)

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as 'p rows cols' header plus one line per row."""
        lines = [f"{self.field.p} {self.rows} {self.cols}"]
        lines.extend(" ".join(str(int(x)) for x in row) for row in self._a)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GFMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"bad matrix header: {lines[0]!r}")
        p, rows, cols = (int(x) for x in head)
        if len(lines) != rows + 1:
            raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
        field = PrimeField(p)
        data = []
        for ln in lines[1:]:
            entries = [int(x) for x in ln.split()]
            if len(entries) != cols:
                raise ValueError(f"bad row width in {ln!r}")
            if any(x < 0 or x >= p for x in entries):
                raise ValueError(f"entry out of range [0, {p}) in {ln!r}")
            data.append(entries)
        return cls(field, data)
