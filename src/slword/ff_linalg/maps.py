"""Determinant-one linear maps with prescribed behavior.

The word-building searches repeatedly need an element of SL_m(F_p) that
sends given vectors to given targets, where a target may be a single point
or any point of an affine subspace.  `sl_map_frame` handles the point case;
`solve_block_map` handles mixed affine constraints, including inputs that
are linearly dependent on one another.  Both affine searches walk one
deterministic candidate stream: the particular point, then at most
`_CANDIDATE_DRAWS` seeded random points of the affine space.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from ..errors import InvariantError, ShapeError
from .field import PrimeField
from .matrix import GFMatrix, _kernel_rows, _rref_in_place, as_residues, mulmod
from .subspace import Subspace

_CANDIDATE_DRAWS = 400


def _solve_system(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """All solutions of a @ x = b over F_p as (particular, kernel rows), or None.

    `b` is a vector or a matrix; a matrix is solved column by column, and
    None means some column is inconsistent.  One reduction of [a | b]: the
    particular solution sets each pivot variable to the reduced right-hand
    side and every free variable to 0.  A pivot among b's columns marks an
    inconsistent column; pivots come out in increasing order, so the last
    one tells.
    """
    k = a.shape[1]
    aug = np.concatenate([a % p, (b if b.ndim == 2 else b[:, None]) % p], axis=1)
    pivots = _rref_in_place(aug, p)
    if pivots and pivots[-1] >= k:
        return None
    x = np.zeros((k, aug.shape[1] - k), dtype=np.int64)
    x[pivots] = aug[: len(pivots), k:]
    return (x if b.ndim == 2 else x[:, 0]), _kernel_rows(aug, pivots, k, p)


def solve_linear(field: PrimeField, columns: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve columns @ x = rhs over F_p.  Returns one solution or None.

    `columns` is an (m x k) array whose k columns are the spanning vectors.
    `rhs` is a vector of length m or an (m x s) matrix; a matrix is solved
    column by column in one reduction, giving a (k x s) solution, and None
    when any column has no solution.
    """
    solved = _solve_system(columns, rhs, field.p)
    return None if solved is None else solved[0]


class AffineSet:
    """offset + row-space(directions): an affine subspace of F_p^m."""

    __slots__ = ("field", "offset", "directions", "_ann")

    def __init__(self, field: PrimeField, offset: np.ndarray, directions: Subspace):
        self.field = field
        self.offset = as_residues(field, offset)
        if directions.ambient_dim != len(self.offset):
            raise ShapeError("offset and directions have mismatched dimension")
        self.directions = directions
        self._ann = None

    @classmethod
    def subspace(cls, s: Subspace) -> "AffineSet":
        return cls(s.field, np.zeros(s.ambient_dim, dtype=np.int64), s)

    @property
    def annihilator(self) -> np.ndarray:
        """Rows spanning {a : a . d = 0 for all directions d}."""
        if self._ann is None:
            self._ann = self.directions.perp().basis_rows
        return self._ann

    def contains(self, v: np.ndarray) -> bool:
        return self.directions.contains((v - self.offset) % self.field.p)


def _greedy_extension(frame: np.ndarray, p: int) -> list[int]:
    """The coordinates c whose unit vectors extend the rows of `frame` to a basis.

    The extension is the one a greedy scan in index order picks: e_c raises
    the rank of the rows and e_0..e_{c-1} exactly when column c adds no rank
    to the columns to its right.  So it is the non-pivots of one RREF of the
    frame with its columns reversed.  Raises ValueError on dependent rows.
    """
    k, m = frame.shape
    pivots = _rref_in_place(frame[:, ::-1].copy(), p)
    if len(pivots) < k:
        raise ValueError("frame vectors are linearly dependent")
    reach = {m - 1 - c for c in pivots}
    return [c for c in range(m) if c not in reach]


def _frame_det(field: PrimeField, frame: np.ndarray, ext: list[int]) -> int:
    """det of the basis [frame; e_c for c in ext], from the k x k minor off ext.

    Moving the ext columns last leaves [[frame[:, keep], *], [0, I]], at one
    sign flip per pair (c in keep, e in ext) with e < c.
    """
    keep = [c for c in range(frame.shape[1]) if c not in ext]
    return (-1) ** sum(e < c for c in keep for e in ext) * GFMatrix(field, frame[:, keep]).det() % field.p


def sl_map_frame(
    field: PrimeField, us: Sequence[np.ndarray], ws: Sequence[np.ndarray], m: int
) -> GFMatrix:
    """An X in SL_m(F_p) with X us[j] = ws[j] for all j.

    Requires both frames independent with k = len(us) <= m.  For k = m the
    map is fixed, and ValueError is raised unless its determinant is 1.  For
    k < m both frames are extended to bases by the unit vectors a greedy
    scan in index order picks, and the last extension image is scaled by
    det U / det W, so the result is deterministic.  Both determinants are
    k x k minors, and the columns of X at U's extension are the extension
    images, so only a k x k system with m right-hand sides is reduced.
    """
    p = field.p
    us = [as_residues(field, u) for u in us]
    ws = [as_residues(field, w) for w in ws]
    if len(us) != len(ws):
        raise ShapeError("input and target frames differ in length")
    k = len(us)
    for v in (*us, *ws):
        if v.shape != (m,):
            raise ShapeError(f"frame vector of shape {v.shape} in dimension {m}")
        if not v.any():
            raise ValueError("frame vectors must be nonzero")
    if k == 0:
        return GFMatrix.identity(field, m)
    if k > m:
        raise ValueError(f"a frame of {k} vectors does not fit in dimension {m}")

    u_frame, w_frame = np.vstack(us), np.vstack(ws)
    u_ext, w_ext = _greedy_extension(u_frame, p), _greedy_extension(w_frame, p)
    images = np.eye(m, dtype=np.int64)[w_ext]  # of U's extension, as rows
    if k < m:
        delta = _frame_det(field, u_frame, u_ext) * field.inv(_frame_det(field, w_frame, w_ext)) % p
        images[-1] = (images[-1] * delta) % p
    # X u_j = w_j reads U_keep Y = W_frame - U_ext images, where the rows of
    # Y are the columns of X off the extension: one k x k solve
    keep = [c for c in range(m) if c not in u_ext]
    x_t = np.empty((m, m), dtype=np.int64)
    x_t[keep] = solve_linear(field, u_frame[:, keep], (w_frame - mulmod(u_frame[:, u_ext], images, p)) % p)
    x_t[u_ext] = images
    x = GFMatrix(field, x_t.T)
    if k == m and x.det() != 1:
        raise ValueError(f"prescribed basis map has determinant {x.det()} != 1")
    if x.det() != 1 or any(not np.array_equal(x.apply(u), w) for u, w in zip(us, ws)):
        raise InvariantError("frame map misses its determinant or a prescribed image")
    return x


def _independent_core(
    field: PrimeField, inputs: list[np.ndarray]
) -> tuple[list[int], np.ndarray]:
    """Greedy maximal independent subset; returns (core indices, coefficients).

    In the RREF of the columns [inputs], column j is a pivot exactly when
    input j is independent of inputs 0..j-1, so the pivots are the greedy
    core, and column r of the reduced matrix expands input r over the core
    (a unit column for a core input).  coeffs has shape (len(core), len(inputs)).
    """
    a = np.column_stack(inputs)
    core = _rref_in_place(a, field.p)
    return core, a[: len(core)]


def _solution_candidates(particular: np.ndarray, null_rows: np.ndarray, p: int):
    """Deterministic stream of points in particular + row-space(null_rows).

    The particular point first, then `_CANDIDATE_DRAWS` points with
    coefficients drawn from a fixed-seed stdlib generator.
    """
    yield particular
    k = null_rows.shape[0]
    if k == 0:
        return
    rng = random.Random(0x51D)
    for _ in range(_CANDIDATE_DRAWS):
        c = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        yield (particular + mulmod(c, null_rows, p)) % p


def solve_block_map(
    field: PrimeField,
    inputs: Sequence[np.ndarray],
    targets: Sequence[AffineSet],
    m: int,
) -> GFMatrix:
    """Find X in SL_m(F_p) with X inputs[r] in targets[r] for every r.

    Inputs may be dependent; dependencies turn into coupled affine conditions
    on the images of an independent core.  Raises ValueError when the
    constraint system is inconsistent or no solution with independent core
    images exists within the candidate budget, and InvariantError when a
    solved map misses a target, which the algebra rules out.
    """
    p = field.p
    ins = [as_residues(field, v) for v in inputs]
    if len(ins) != len(targets):
        raise ShapeError("inputs and targets differ in length")
    for v in ins:
        if v.shape != (m,):
            raise ShapeError("bad input dimension")
        if not v.any():
            raise ValueError("inputs must be nonzero")
    if not ins:
        return GFMatrix.identity(field, m)

    core, coeffs = _independent_core(field, ins)
    K = len(core)
    if K >= m:
        raise ValueError(f"core of size {K} leaves no determinant freedom in SL_{m}")

    # stack equations A_r (sum_k coeffs[k, r] zeta_k) = A_r offset_r, with the
    # unknown core images zeta_k side by side in one vector of length K * m
    eqs = np.vstack([np.kron(coeffs[:, r], t.annihilator) for r, t in enumerate(targets)])
    rhs = np.concatenate([mulmod(t.annihilator, t.offset, p) for t in targets])
    solved = _solve_system(eqs, rhs, p)
    if solved is None:
        raise ValueError("constraint system is inconsistent")
    particular, null_rows = solved

    core_inputs = [ins[c] for c in core]
    for sol in _solution_candidates(particular, null_rows, p):
        # K < m, so sl_map_frame's ValueError means a zero or dependent zeta
        try:
            x = sl_map_frame(field, core_inputs, list(sol.reshape(K, m)), m)
        except ValueError:
            continue
        # sl_map_frame sends each core input to its solved image, which meets every
        # target through the core expansion; a miss here is a bug, not a search miss
        if not all(t.contains(x.apply(v)) for v, t in zip(ins, targets)):
            raise InvariantError("solved block map misses a target")
        return x
    raise ValueError("no admissible solution found within the candidate budget")


def pick_in_coset_avoiding(
    field: PrimeField, coset: AffineSet, accept: Callable[[np.ndarray], bool]
) -> np.ndarray | None:
    """First element of `coset` that `accept` passes, deterministically.

    Candidates are the offset, then seeded pseudo-random points of the
    coset; None when `accept` passes none of them.
    """
    for cand in _solution_candidates(coset.offset, coset.directions.basis_rows, field.p):
        if accept(cand):
            return cand.copy()
    return None
