"""Determinant-one linear maps with prescribed behavior.

The word-building searches repeatedly need an element of SL_m(F_p) that
sends given vectors to given targets, where a target may be a single point
or any point of an affine subspace.  `sl_map_vector` / `sl_map_frame`
handle the point case; `solve_block_map` handles mixed affine constraints,
including inputs that are linearly dependent on one another.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ShapeError
from .field import PrimeField
from .matrix import GFMatrix, _rref_in_place, as_residues, mulmod
from .subspace import Subspace, complete_to_basis


def solve_linear(field: PrimeField, columns: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve columns @ x = rhs over F_p.  Returns one solution or None.

    `columns` is an (m x k) array whose k columns are the spanning vectors.
    """
    m, k = columns.shape
    aug = np.concatenate([columns % field.p, (rhs % field.p).reshape(m, 1)], axis=1)
    pivots, _ = _rref_in_place(aug, field.p)
    if k in pivots:
        return None
    x = np.zeros(k, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = aug[r, k]
    return x


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
    def point(cls, field: PrimeField, z: np.ndarray) -> "AffineSet":
        return cls(field, z, Subspace.zero(field, len(z)))

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


def sl_map_vector(field: PrimeField, u: np.ndarray, w: np.ndarray, m: int) -> GFMatrix:
    """An X in SL_m(F_p) with X u = w, for nonzero u, w.

    Built by extending u and w to bases and patching the determinant on the
    final extension direction, so the result is deterministic.
    """
    return sl_map_frame(field, [u], [w], m)


def sl_map_frame(
    field: PrimeField, us: Sequence[np.ndarray], ws: Sequence[np.ndarray], m: int
) -> GFMatrix:
    """An X in SL_m(F_p) with X us[j] = ws[j] for all j.

    Requires both families independent and k = len(us) < m, except k = m = 1
    with us == ws (SL_1 is trivial).  The determinant is absorbed by scaling
    the last basis-extension image.
    """
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
    if m == 1:
        if k == 0 or int(us[0][0]) == int(ws[0][0]):
            return GFMatrix.identity(field, 1)
        raise ValueError("SL_1 is trivial: cannot map u to w != u")
    if k == 0:
        return GFMatrix.identity(field, m)
    if k >= m:
        raise ValueError(f"need k < m to absorb the determinant, got k={k}, m={m}")

    full = Subspace.full(field, m)
    ub = complete_to_basis(field, us, full)  # raises if dependent
    wb = complete_to_basis(field, ws, full)
    u_cols = GFMatrix.from_columns(field, ub)
    w_cols = GFMatrix.from_columns(field, wb)
    # scale the final extension image so det(X) = 1
    delta = field.mul(u_cols.det(), field.inv(w_cols.det()))
    patched = w_cols.array.copy()
    patched[:, m - 1] = (patched[:, m - 1] * delta) % field.p
    x = GFMatrix(field, patched) @ u_cols.inv()
    assert x.det() == 1
    for u, w in zip(us, ws):
        assert np.array_equal(x.apply(u), w)
    return x


def sl_from_basis_images(
    field: PrimeField, us: Sequence[np.ndarray], ws: Sequence[np.ndarray]
) -> GFMatrix:
    """The unique X with X us[j] = ws[j] for full bases us, ws; must have det 1."""
    m = len(us)
    u_cols = GFMatrix.from_columns(field, [as_residues(field, u) for u in us])
    w_cols = GFMatrix.from_columns(field, [as_residues(field, w) for w in ws])
    x = w_cols @ u_cols.inv()
    d = x.det()
    if d != 1:
        raise ValueError(f"prescribed basis map has determinant {d} != 1")
    return x


def _independent_core(
    field: PrimeField, inputs: list[np.ndarray]
) -> tuple[list[int], list[np.ndarray]]:
    """Greedy maximal independent subset; returns (core indices, coefficient rows).

    coeffs[r][k] expands input r over the core vectors; a core input expands
    to a unit row.  Dependent expansions only involve earlier core members,
    so short rows are zero-padded to the final core size.
    """
    core: list[int] = []
    partial: dict[int, np.ndarray] = {}
    for r, v in enumerate(inputs):
        x = None
        if core:
            x = solve_linear(field, np.column_stack([inputs[c] for c in core]), v)
        elif not v.any():
            x = np.zeros(0, dtype=np.int64)
        if x is None:
            core.append(r)
        else:
            partial[r] = x
    coeffs = []
    for r in range(len(inputs)):
        row = np.zeros(len(core), dtype=np.int64)
        if r in partial:
            row[: len(partial[r])] = partial[r]
        else:
            row[core.index(r)] = 1
        coeffs.append(row)
    return core, coeffs


def _solution_candidates(particular: np.ndarray, null_rows: np.ndarray, p: int, cap: int = 400):
    """Deterministic stream of points in an affine solution space."""
    yield particular
    k = null_rows.shape[0]
    if k == 0:
        return
    for i in range(k):
        yield (particular + null_rows[i]) % p
    for i in range(k):
        for j in range(i + 1, k):
            yield (particular + null_rows[i] + null_rows[j]) % p
    rng = np.random.default_rng(0x51D)
    for _ in range(cap):
        c = rng.integers(0, p, size=k, dtype=np.int64)
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
    images exists within the candidate budget.
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

    # stack equations A_r (sum_k coeffs[r][k] zeta_k) = A_r offset_r
    rows: list[np.ndarray] = []
    rhs: list[int] = []
    for r, tgt in enumerate(targets):
        ann = tgt.annihilator
        if ann.shape[0] == 0:
            continue
        crow = coeffs[r]
        for a in ann:
            eq = np.zeros(K * m, dtype=np.int64)
            for k in range(K):
                if crow[k]:
                    eq[k * m : (k + 1) * m] = (crow[k] * a) % p
            rows.append(eq)
            rhs.append(int(mulmod(a, tgt.offset, p)))
    if rows:
        aug = np.concatenate(
            [np.vstack(rows) % p, np.array(rhs, dtype=np.int64).reshape(-1, 1) % p], axis=1
        )
        pivots, _ = _rref_in_place(aug, p)
        ncols = K * m
        if ncols in pivots:
            raise ValueError("constraint system is inconsistent")
        particular = np.zeros(ncols, dtype=np.int64)
        for r, c in enumerate(pivots):
            particular[c] = aug[r, ncols]
        free = [c for c in range(ncols) if c not in pivots]
        null_rows = np.zeros((len(free), ncols), dtype=np.int64)
        for i, fc in enumerate(free):
            null_rows[i, fc] = 1
            for r, pc in enumerate(pivots):
                null_rows[i, pc] = (-aug[r, fc]) % p
    else:
        particular = np.zeros(K * m, dtype=np.int64)
        null_rows = np.eye(K * m, dtype=np.int64)

    core_inputs = [ins[c] for c in core]
    for sol in _solution_candidates(particular, null_rows, p):
        zetas = sol.reshape(K, m)
        if any(not z.any() for z in zetas):
            continue
        stacked = zetas.copy()
        _, rank = _rref_in_place(stacked, p)
        if rank < K:
            continue
        x = sl_map_frame(field, core_inputs, list(zetas), m)
        if all(t.contains(x.apply(v)) for v, t in zip(ins, targets)):
            return x
    raise ValueError("no admissible solution found within the candidate budget")


def pick_in_coset_avoiding(
    field: PrimeField,
    coset: AffineSet,
    predicates: Sequence[Callable[[np.ndarray], bool]],
    cap: int = 400,
) -> np.ndarray | None:
    """First element of `coset` passing all predicates, deterministically.

    Candidates are the offset, offset plus single and pairwise direction
    basis vectors, then a seeded pseudo-random sweep.
    """
    p = field.p
    dirs = coset.directions.basis_rows
    for cand in _solution_candidates(coset.offset, dirs, p, cap=cap):
        if all(pred(cand) for pred in predicates):
            return cand.copy()
    return None
