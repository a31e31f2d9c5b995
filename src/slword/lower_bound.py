"""The hard generating set, its potential function, and exact BFS covering.

The generating set couples the full block copy of SL_{n-t} (every element a
single cost-1 generator) with the t signed swaps e_i -> -e_{i+1},
e_{i+1} -> e_i.  A potential attached to the head basis vectors drops by at
most one per generator step, which certifies that any word for the
coordinate-swap normal form needs at least t(t+1)/2 steps.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, ParameterError
from .ff_linalg import GFMatrix, PrimeField, mulmod
from .group_model import (
    GenStep,
    Generator,
    GeneratorSet,
    Groumvirate,
    Word,
    check_block_step,
    evaluate_word,
    swap_target,
)


def signed_swap_matrix(field: PrimeField, n: int, i: int) -> GFMatrix:
    """e_i -> -e_{i+1}, e_{i+1} -> e_i (0-based i), fixing the other basis vectors."""
    if not (0 <= i < n - 1):
        raise ParameterError(f"swap index {i} out of range for n={n}")
    a = np.eye(n, dtype=np.int64)
    a[i, i] = a[i + 1, i + 1] = 0
    a[i + 1, i] = -1 % field.p
    a[i, i + 1] = 1
    return GFMatrix(field, a)


class LowerBoundSet(NamedTuple):
    gs: GeneratorSet
    gv: Groumvirate


def lb_generating_set(field: PrimeField, n: int) -> LowerBoundSet:
    """Signed swaps as explicit cost-1 generators plus the block subgroup.

    t = ceil(n/3).  Because the block elements literally belong to the set,
    block steps carry cost 1 here rather than the default 4.
    """
    if n < 3:
        raise ParameterError(f"need n >= 3, got n={n}")
    t = math.ceil(n / 3)
    gens = []
    for i in range(t):
        s = signed_swap_matrix(field, n, i)
        gens.append(Generator(f"s{i + 1}", s))
        if s.inv() != s:  # over F_2 each swap is its own inverse
            gens.append(Generator(f"s{i + 1}~", s.inv()))
    return LowerBoundSet(GeneratorSet(gens), Groumvirate(n, t, step_cost=1))


def sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


# Most entry tuples p^(m^2) that `enumerate_sl` walks by brute force.
ENUMERATION_CAP = 2_000_000


def enumerate_sl(field: PrimeField, m: int) -> list[GFMatrix]:
    """All of SL_m(F_p) by brute force over the p^(m^2) entry tuples."""
    total = field.p ** (m * m)
    if total > ENUMERATION_CAP:
        raise ParameterError(f"p^(m^2) = {total} exceeds enumeration cap {ENUMERATION_CAP}")
    out = []
    for code in range(total):
        entries = []
        c = code
        for _ in range(m * m):
            entries.append(c % field.p)
            c //= field.p
        mat = GFMatrix(field, np.array(entries, dtype=np.int64).reshape(m, m))
        if mat.det() == 1:
            out.append(mat)
    if len(out) != sl_order(m, field.p):
        raise InvariantError(f"enumerated {len(out)} elements of SL_{m}(F_{field.p}), not {sl_order(m, field.p)}")
    return out


def block_generators(field: PrimeField, gv: Groumvirate) -> list[Generator]:
    """The embedded block subgroup as explicit cost-1 generators (small cases)."""
    gens = []
    for i, x in enumerate(enumerate_sl(field, gv.block_dim)):
        gens.append(Generator(f"b{i}", gv.embed(x)))
    return gens


def lb_generating_set_explicit(field: PrimeField, n: int) -> GeneratorSet:
    """The hard set with its block subgroup enumerated into explicit generators."""
    gs, gv = lb_generating_set(field, n)
    return GeneratorSet([*gs, *block_generators(field, gv)])


# -- potential traces ---------------------------------------------------------


@dataclass(frozen=True)
class PotentialTrace:
    """d_0, ..., d_k and the frozen index sets F_l along a word.

    Steps are walked in application order (the last stored factor acts
    first), so the l-th entry scores the product of the last l step
    matrices and the final entry scores the evaluated word.  F_l holds the
    1-based head indices that every prefix up to l kept scored.
    """

    word: Word
    d_values: tuple[int, ...]
    f_sets: tuple[frozenset[int], ...]
    signed: bool

    @property
    def d0(self) -> int:
        return self.d_values[0]


def _head_image(col: list[int], t: int, units: tuple[int, ...]) -> int | None:
    """k when col is c*e_k with k < t and c in units, else None."""
    nz = [k for k, c in enumerate(col) if c]
    return nz[0] if len(nz) == 1 and nz[0] < t and col[nz[0]] in units else None


# GeneratorSet -> {(t, signed): potential_trace's head table}; a table dies with its set
_HEAD_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _head_move(
    table: dict, state: tuple[int, ...], s: GenStep, gs: GeneratorSet, t: int, units: tuple[int, ...]
) -> tuple[tuple[int, ...], int, frozenset[int]]:
    """Compute, store and return table[state, s.index, s.inverse]: (next state, d, F).

    `gs.step_matrix` checks the index before anything is stored, so every key
    names a checked step and a bad index never hits.
    """
    cols = gs.step_matrix(s.index, s.inverse).array[:, :t].T.tolist()
    moves = [_head_image(col, t, units) for col in cols]
    nxt = tuple(-1 if j < 0 or moves[j] is None else moves[j] for j in state)
    move = (nxt, sum(t - k for k in nxt if k >= 0), frozenset(i + 1 for i, k in enumerate(nxt) if k >= 0))
    table[state, s.index, s.inverse] = move
    return move


def potential_trace(word: Word, gs: GeneratorSet, gv: Groumvirate, signed: bool = False) -> PotentialTrace:
    """Track where the head basis vectors e_1..e_t, t = gv.t, travel and score each prefix.

    An index i contributes t+1-j while every prefix so far has kept e_i
    inside the head basis set and the current prefix sends it to position j.
    With `signed` False (the default) membership and position ignore the
    +-1 factor picked up from signed swaps; with `signed` True the literal
    vector must equal e_j, a reading under which single steps can drop the
    potential by more than one (see verify_descent).

    The walk keeps only the head state: the position j of each unfrozen
    image u*e_j, and -1 for a frozen index.  The allowed units form a group
    ({1} or {1, -1}), so a generator step keeps i at position k exactly when
    the step's column j is c*e_k with k < t and c an allowed unit, and
    freezes it otherwise; no matrix is multiplied.  A block step fixes
    e_1..e_t, so it only goes through the O(1) `check_block_step`, as in
    evaluate_word; its payload's determinant was checked when it was made.

    Generator steps read a transition table kept per (gs, t, signed) in a
    weak-keyed map, so it is shared by every trace over the set and dies
    with it: (state, index, inverse) -> (next state, d, F).  It is filled
    lazily, never in advance (the reachable states of the hard set over
    F_2 number 13327 at t = 6 and about 1.4 M at t = 8), so it holds at
    most one entry per generator step traced.  A miss goes through
    `gs.step_matrix`, which checks the index before the entry is stored.
    """
    t = gv.t
    units = (1,) if signed else (1, gs.field.p - 1)
    table = _HEAD_TABLES.setdefault(gs, {}).setdefault((t, signed), {})
    state = tuple(range(t))
    d = t * (t + 1) // 2
    f = frozenset(i + 1 for i in state)
    d_values, f_sets = [d], [f]
    for s in reversed(word.steps):
        if isinstance(s, GenStep):
            move = table.get((state, s.index, s.inverse))
            if move is None:
                move = _head_move(table, state, s, gs, t, units)
            state, d, f = move
        else:
            check_block_step(s, gs, gv)
        d_values.append(d)
        f_sets.append(f)
    return PotentialTrace(word, tuple(d_values), tuple(f_sets), signed)


def verify_descent(trace: PotentialTrace) -> bool:
    """True when d_{l+1} >= d_l - 1 at every step."""
    d = trace.d_values
    return all(d[l + 1] >= d[l] - 1 for l in range(len(d) - 1))


@dataclass(frozen=True)
class Certificate:
    d0: int
    word_length: int
    binom_display: int  # t(t-1)/2, the weaker displayed constant


def lower_bound_certificate(word: Word, gs: GeneratorSet, gv: Groumvirate) -> Certificate:
    """Replay the descent argument against a word for the swap normal form.

    Requires evaluate(word) to equal `swap_target` at t = gv.t, the block
    swap that determinant-one words reach; the trace scores the full head
    e_1..e_t, so the final potential is then zero, each step loses at most
    one, and the word length is at least d_0 = t(t+1)/2.  Both d_0 and the
    weaker t(t-1)/2 constant are reported.
    """
    t = gv.t
    target = swap_target(gs.field, gs.n, t)
    if evaluate_word(word, gs, gv) != target:
        raise ParameterError("word does not evaluate to the block swap target")
    trace = potential_trace(word, gs, gv)
    d0 = t * (t + 1) // 2
    if trace.d0 != d0 or trace.d_values[-1] != 0 or not verify_descent(trace):
        raise InvariantError(f"potential trace {trace.d_values} breaks the descent argument")
    if len(word) < d0:
        raise InvariantError(f"descent contradiction: word of length {len(word)} below the bound {d0}")
    return Certificate(d0=d0, word_length=len(word), binom_display=t * (t - 1) // 2)


# -- exact breadth-first covering ----------------------------------------------


@dataclass
class BfsResult:
    group_order: int
    covering_number: int | None
    reached_per_depth: list[int]  # newly reached at each depth (depth 0 = identity)
    frontier_per_depth: list[int]
    total_reached: int
    stabilized: bool  # closure stopped growing below the group order
    exhausted: bool  # max_depth hit before closure completed


# Bound on the visited map's p^(n^2) entries, one byte per n x n matrix over
# F_p: 64 MiB, which (n, p) = (3, 7), (4, 3) and (5, 2) fit.
DEFAULT_ELEMENT_CAP = 2**26
# Products keyed per chunk of the walk (a state with more edges takes a chunk
# of its own): 512 KiB of keys; smaller chunks pay per-chunk overhead.
_CHUNK_PRODUCTS = 65536


def _symmetric_edges(gs: GeneratorSet) -> list[tuple[GenStep, GFMatrix]]:
    """Each distinct generator and inverse matrix once, as (step, matrix).

    Order: generator 0, its inverse, generator 1, ...; a matrix equal to an
    earlier one is skipped.
    """
    edges = []
    seen = set()
    for i in range(len(gs)):
        for inv in (False, True):
            m = gs.step_matrix(i, inv)
            if m.key() not in seen:
                seen.add(m.key())
                edges.append((GenStep(i, inv), m))
    return edges


def _key_powers(n: int, p: int, element_cap: int) -> np.ndarray:
    """p^(i*n+j) for each entry, after checking that the visited map fits the cap."""
    size = p ** (n * n)
    if size > min(element_cap, 2**63):  # keys run up to size - 1 in int64
        raise ParameterError(f"visited map of p^(n^2) = {p}^{n * n} entries exceeds cap {element_cap}")
    return p ** np.arange(n * n, dtype=np.int64)


class _Layer(NamedTuple):
    keys: np.ndarray  # base-p keys of the states first reached at this depth
    parents: np.ndarray  # index of each one's parent in the previous layer
    edges: np.ndarray  # index of the edge that reached it


def _walk(edges: np.ndarray, p: int, powers: np.ndarray):
    """Breadth-first layers from the identity under right multiplication.

    Yields one _Layer per depth 1, 2, ... while the previous layer is
    nonempty; the last one yielded may be empty.  States keep their first
    occurrence in (parent, edge) order, the order a state-by-state walk
    would meet them, so counts and shortest words do not depend on chunking.
    Right multiplication acts on each row alone, so one mulmod before the walk
    fills the table, and a product's key is a sum of n lookups, one per row.
    """
    count, n, _ = edges.shape
    right = edges.transpose(1, 0, 2).reshape(n, count * n)  # [g_0 | g_1 | ...]
    q = p**n  # row vectors, keyed in base p like the states
    images = mulmod(np.arange(q)[:, None] // powers[:n] % p, right, p).reshape(q, count, n) @ powers[:n]
    table = images * powers[::n, None, None]  # table[i, r, e]: key of r g_e as row i of a state
    visited = np.zeros(p ** (n * n), dtype=bool)
    frontier = np.eye(n, dtype=np.int64).reshape(1, n * n) @ powers
    visited[frontier] = True
    per_chunk = max(1, _CHUNK_PRODUCTS // count)
    while frontier.size:
        found = []
        for start in range(0, frontier.size, per_chunk):
            rows = frontier[start : start + per_chunk, None] // powers[::n] % q
            keys = table[0, rows[:, 0]]
            for i in range(1, n):
                keys += table[i, rows[:, i]]
            keys = keys.reshape(-1)  # entry f*count + e keys state f times edge e
            fresh = (~visited[keys]).nonzero()[0]
            _, first = np.unique(keys[fresh], return_index=True)
            hit = fresh[np.sort(first)]
            visited[keys[hit]] = True
            found.append((keys[hit], start + hit // count, hit % count))
        layer = _Layer(*(np.concatenate(parts) for parts in zip(*found)))
        yield layer
        frontier = layer.keys


def bfs_covering(
    gs: GeneratorSet,
    max_depth: int | None = None,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> BfsResult:
    """Exact closure A^k from the identity until the whole group is covered.

    The generator list is closed under inverses before the walk, which keeps
    a dense visited map of one byte per n x n matrix over F_p.  Refuses to
    start when that map's p^(n^2) entries exceed `element_cap`.
    """
    p = gs.field.p
    powers = _key_powers(gs.n, p, element_cap)
    order = sl_order(gs.n, p)
    layers = _walk(np.stack([m.array for _, m in _symmetric_edges(gs)]), p, powers)
    reached = [1]
    total = 1
    exhausted = False
    while reached[-1] and total < order:
        if max_depth is not None and len(reached) - 1 >= max_depth:
            exhausted = True
            break
        size = len(next(layers).keys)
        reached.append(size)
        total += size
    complete = total == order
    return BfsResult(
        group_order=order,
        covering_number=len(reached) - 1 if complete else None,
        reached_per_depth=reached,
        frontier_per_depth=list(reached),
        total_reached=total,
        stabilized=not (complete or exhausted),
        exhausted=exhausted,
    )


def bfs_shortest_word(
    gs: GeneratorSet, target: GFMatrix, max_depth: int = 64
) -> Word | None:
    """A minimum-length word over the explicit generators evaluating to target.

    Walks right multiplications so the recovered step list, read in order,
    multiplies out to the target.  Inverse flags are used for edges that are
    inverses of declared generators.  The walk keeps the same visited map as
    `bfs_covering` under its default cap.
    """
    n, p = gs.n, gs.field.p
    if target.field != gs.field or target.shape != (n, n):
        raise ParameterError(f"target must be an {n} x {n} matrix over F_{p}")
    powers = _key_powers(n, p, DEFAULT_ELEMENT_CAP)
    if target.is_identity():
        return Word.empty()
    tkey = int(target.array.reshape(-1) @ powers)
    steps, mats = zip(*_symmetric_edges(gs))
    layers = []
    # zip asks the range first, so the walk computes at most max_depth layers
    for _, layer in zip(range(max_depth), _walk(np.stack([m.array for m in mats]), p, powers)):
        layers.append(layer)
        where = (layer.keys == tkey).nonzero()[0]
        if where.size:
            out = []
            i = int(where[0])
            for back in reversed(layers):
                out.append(steps[back.edges[i]])
                i = back.parents[i]
            return Word(tuple(reversed(out)))
    return None
