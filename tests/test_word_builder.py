import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from slword import word_builder
from slword import (
    GenStep,
    GFMatrix,
    Generator,
    GeneratorSet,
    Groumvirate,
    InvariantError,
    NotGeneratingError,
    ParameterError,
    PrimeField,
    SearchExhaustedError,
    Subspace,
    Word,
    WordBuilder,
    block_generators,
    enumerate_sl,
    evaluate_word,
    lb_generating_set,
    random_sl,
    random_word,
    signed_block_swap,
    swap_target,
    unit_vector,
    unsigned_block_swap,
    word_cost,
    word_to_text,
)

GRID = [(3, 1, 2), (3, 1, 5), (6, 2, 3), (9, 3, 2)]


def _setup(n, p):
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    return f, gs, gv


def _block_only_set(p=2, n=3):
    """A non-generating set: the embedded block subgroup alone."""
    f = PrimeField(p)
    gv = Groumvirate(n, 1, step_cost=1)
    gens = block_generators(f, gv)
    return f, GeneratorSet(gens), gv


def test_tail_nonzero_single_swap_witness():
    f, gs, gv = _setup(3, 5)
    w = WordBuilder(gs, gv).tail_nonzero_word()
    assert len(w) == 1
    img = evaluate_word(w, gs, gv).apply(unit_vector(3, 0))
    assert np.array_equal(img, np.array([0, 4, 0]))  # -e_2 mod 5


@pytest.mark.parametrize("n,t,p", GRID)
def test_tail_nonzero_contract(n, t, p):
    f, gs, gv = _setup(n, p)
    m = evaluate_word(WordBuilder(gs, gv).tail_nonzero_word(), gs, gv)
    for i in range(t):
        assert m.column(i)[t:].any()


def test_tail_nonzero_non_generating_set_errors():
    f, gs, gv = _block_only_set()
    with pytest.raises(SearchExhaustedError) as exc:
        WordBuilder(gs, gv).tail_nonzero_word()
    assert exc.value.stuck_index == 1


def test_tail_nonzero_head_invariant_set_is_not_generating():
    f, gs, gv = _head_invariant_set()
    with pytest.raises(NotGeneratingError) as exc:
        WordBuilder(gs, gv).tail_nonzero_word()
    assert exc.value.stuck_index == 1


def test_escape_candidates_track_vectors_not_matrices(monkeypatch):
    """The escape search multiplies no matrices; its vector is the word's image."""
    f, gs, gv = _setup(9, 5)
    builder = WordBuilder(gs, gv)
    x = unit_vector(9, 0)

    def refuse(self, other):
        raise AssertionError("the escape search multiplied two matrices")

    monkeypatch.setattr(GFMatrix, "__matmul__", refuse)
    word, v = next(builder._escape_candidates(x))
    monkeypatch.undo()
    assert len(word) >= 1
    assert np.array_equal(evaluate_word(word, gs, gv).apply(x), v)
    assert v[gv.t :].any()


def test_head_basis_frames_small_case():
    f, gs, gv = _setup(3, 5)
    frames = WordBuilder(gs, gv).head_basis_frames()
    assert len(frames) == 1
    for position, fr in enumerate(frames, 1):
        assert len(fr.a_word) == position
        moved = evaluate_word(fr.a_word, gs, gv).apply(fr.v)
        assert moved[0] != 0  # head projection nonzero


@pytest.mark.parametrize("n,t,p", GRID)
def test_head_basis_frames_contract(n, t, p):
    f, gs, gv = _setup(n, p)
    frames = WordBuilder(gs, gv).head_basis_frames()
    assert len(frames) == t
    heads = []
    grown = Subspace.tail(f, n, t)
    for position, fr in enumerate(frames, 1):
        assert Subspace.tail(f, n, t).contains(fr.v)
        assert len(fr.a_word) <= position
        moved = evaluate_word(fr.a_word, gs, gv).apply(fr.v)
        assert np.array_equal(fr.image, moved)
        assert not grown.contains(moved)  # strictly new direction each time
        grown = grown.sum(Subspace.span(f, [moved], n))
        heads.append(moved[:t])
    assert Subspace.span(f, heads, t).dim == t


def test_head_basis_frames_non_generating():
    f, gs, gv = _block_only_set()
    with pytest.raises(SearchExhaustedError):
        WordBuilder(gs, gv).head_basis_frames()


# -- the batched searches against their per-vector reference loops -------------


def _reference_escape_candidates(builder, x):
    """The escape search with one `apply` and one `contains` per child vector."""
    gs, f, n, t = builder.gs, builder.field, builder.n, builder.t
    options = [(i, False) for i in range(len(gs))] + [(i, True) for i in range(len(gs))]
    span = Subspace.span(f, [x], n)
    queue = deque([(Word.empty(), x)])
    while queue:
        word, v = queue.popleft()
        if len(word) >= builder.escape_budget:
            continue
        for idx, inv in options:
            v2 = gs.step_matrix(idx, inv).apply(v)
            w2 = Word.single(GenStep(idx, inv)) + word
            if v2[t:].any():
                yield w2, v2
            if not span.contains(v2):
                span = span.sum(Subspace.span(f, [v2], n))
                queue.append((w2, v2))


def _reference_head_basis_frames(builder):
    """The frame search with one `apply` and one `contains` per (option, candidate)."""
    gs, f, n, t = builder.gs, builder.field, builder.n, builder.t
    options = [(i, False) for i in range(len(gs))] + [(i, True) for i in range(len(gs))]
    grown = Subspace.tail(f, n, t)
    frames = []
    for i in range(t):
        found = None
        for idx, inv in options:
            step = gs.step_matrix(idx, inv)
            candidates = [(fr.v, fr.a_word, fr.image) for fr in frames]
            candidates += [(unit_vector(n, k), Word.empty(), unit_vector(n, k)) for k in range(t, n)]
            for v, base_word, img in candidates:
                moved = step.apply(img)
                if not grown.contains(moved):
                    found = (v, Word.single(GenStep(idx, inv)) + base_word, moved)
                    break
            if found:
                break
        if found is None:
            raise NotGeneratingError("no frame", stuck_index=i + 1)
        v, a_word, moved = found
        frames.append(word_builder.FramePair(v=v.copy(), a_word=a_word, image=moved))
        grown = grown.sum(Subspace.span(f, [moved], n))
    return frames


def _head_invariant_set():
    """Symmetric and block upper triangular: every generator preserves <e_1>."""
    f = PrimeField(5)
    gens = []
    for label, (i, j) in [("u", (0, 1)), ("v", (0, 2)), ("w", (1, 2))]:
        a = np.eye(3, dtype=np.int64)
        a[i, j] = 1
        gens.append(Generator(label, GFMatrix(f, a)))
        gens.append(Generator(label + "~", GFMatrix(f, a).inv()))
    return f, GeneratorSet(gens), Groumvirate(3, 1)


def _random_symmetric_set(n, t, p):
    f = PrimeField(p)
    rng = random.Random(n * p + t)
    gens = []
    for k in range(2):
        g = random_sl(rng, f, n)
        gens += [Generator(f"r{k}", g), Generator(f"r{k}~", g.inv())]
    return f, GeneratorSet(gens), Groumvirate(n, t)


def _search_set(kind, n, t, p):
    if kind == "hard":
        return _setup(n, p)
    if kind == "loose":
        return _loose_setup(n, t, p)
    if kind == "random":
        return _random_symmetric_set(n, t, p)
    if kind == "block-only":
        return _block_only_set(p, n)
    return _head_invariant_set()


SEARCH_SETS = (
    [("hard", 3 * t, t, p) for p in (2, 5, 2**31 - 1) for t in range(1, 7)]
    + [("loose", 7, 2, 3), ("loose", 8, 2, 2), ("loose", 10, 3, 5), ("random", 6, 2, 5)]
    + [("block-only", 3, 1, 2), ("head-invariant", 3, 1, 5)]
)


def _search_outcome(fn):
    """fn()'s frames as comparable tuples, or the type and stuck index of its error."""
    try:
        return [(position, fr.v.tolist(), fr.a_word, fr.image.tolist()) for position, fr in enumerate(fn(), 1)]
    except SearchExhaustedError as exc:
        return type(exc), exc.stuck_index


@pytest.mark.parametrize("kind,n,t,p", SEARCH_SETS)
def test_escape_candidates_match_reference_loop(kind, n, t, p):
    f, gs, gv = _search_set(kind, n, t, p)
    builder = WordBuilder(gs, gv)
    rng = random.Random(n * p)
    head = np.zeros(n, dtype=np.int64)
    head[:t] = [rng.randrange(1, p) for _ in range(t)]
    for x in (unit_vector(n, 0), head):
        got = list(itertools.islice(builder._escape_candidates(x), 200))
        want = list(itertools.islice(_reference_escape_candidates(builder, x), 200))
        assert [w for w, _ in got] == [w for w, _ in want]
        assert all(np.array_equal(v, ref) for (_, v), (_, ref) in zip(got, want))


@pytest.mark.parametrize("kind,n,t,p", SEARCH_SETS)
def test_head_basis_frames_match_reference_loop(kind, n, t, p):
    f, gs, gv = _search_set(kind, n, t, p)
    builder = WordBuilder(gs, gv)
    got = _search_outcome(builder.head_basis_frames)
    assert got == _search_outcome(lambda: _reference_head_basis_frames(builder))
    if kind == "block-only":
        assert got == (NotGeneratingError, 1)


# sha256 over word_to_text of the swap words for t=1..8 at p in {2, 5}, then
# t=1..4 at p = 2^31-1, with n = 3t: the words of the per-vector searches
SWAP_WORDS_SHA256 = "339dea1d8ebf327406b843b3115277e5b20e6e88beab02ea5ff5fca043b70986"


def test_swap_words_are_pinned():
    digest = hashlib.sha256()
    for p, t_max in [(2, 8), (5, 8), (2**31 - 1, 4)]:
        for t in range(1, t_max + 1):
            f, gs, gv = _setup(3 * t, p)
            digest.update(word_to_text(WordBuilder(gs, gv).swap_word()).encode())
    assert digest.hexdigest() == SWAP_WORDS_SHA256


def test_frames_to_tail_base_case():
    f, gs, gv = _setup(3, 2)
    builder = WordBuilder(gs, gv)
    frames = builder.head_basis_frames()
    b = builder.frames_to_tail_word(frames)
    assert b == frames[0].a_word.inverse()
    moved = evaluate_word(frames[0].a_word, gs, gv).apply(frames[0].v)
    back = evaluate_word(b, gs, gv).apply(moved)
    assert Subspace.tail(f, 3, 1).contains(back)


@pytest.mark.parametrize("n,t,p", GRID)
def test_frames_to_tail_contract(n, t, p):
    f, gs, gv = _setup(n, p)
    builder = WordBuilder(gs, gv)
    frames = builder.head_basis_frames()
    b = builder.frames_to_tail_word(frames)
    bm = evaluate_word(b, gs, gv)
    tail = Subspace.tail(f, n, t)
    for fr in frames:
        mv = evaluate_word(fr.a_word, gs, gv).apply(fr.v)
        assert tail.contains(bm.apply(mv))


def test_regime_violation_rejected():
    f = PrimeField(5)
    gs, gv = lb_generating_set(f, 4)  # t = ceil(4/3) = 2, but 3t > n
    assert gv.t == 2
    with pytest.raises(ParameterError, match="n=4, t=2"):
        WordBuilder(gs, gv)


@pytest.mark.parametrize("n,t,p", GRID)
def test_move_word_contract(n, t, p):
    f, gs, gv = _setup(n, p)
    m = evaluate_word(WordBuilder(gs, gv).move_word(), gs, gv)
    tail = Subspace.tail(f, n, t)
    for i in range(t):
        assert tail.contains(m.column(i))


def test_move_word_witness_short_circuit():
    # t = 1: the first signed swap already moves e_1 into the tail span
    f, gs, gv = _setup(3, 5)
    w = WordBuilder(gs, gv).move_word()
    assert len(w) == 1 and word_cost(w, gs, gv) == 1


def test_swap_exact_small():
    f, gs, gv = _setup(3, 2)
    w = WordBuilder(gs, gv).swap_word()
    m = evaluate_word(w, gs, gv)
    assert m == GFMatrix(f, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert (m @ m).is_identity()


@pytest.mark.parametrize("n,t,p", [(6, 2, 3), (6, 2, 5), (12, 4, 7), (9, 3, 2)])
def test_swap_exact_unsigned_when_attainable(n, t, p):
    f, gs, gv = _setup(n, p)
    m = evaluate_word(WordBuilder(gs, gv).swap_word(), gs, gv)
    assert m == unsigned_block_swap(f, n, t)
    assert (m @ m).is_identity()


SWAP_COSTS = [5, 23, 43, 69, 101, 139]  # word_cost of swap_word at t = 1..6


@pytest.mark.parametrize("p", [2, 2**31 - 1])
@pytest.mark.parametrize("t", range(1, len(SWAP_COSTS) + 1))
def test_swap_cost_pinned_at_extreme_primes(t, p):
    n = 3 * t
    f, gs, gv = _setup(n, p)
    word = WordBuilder(gs, gv).swap_word()
    assert word_cost(word, gs, gv) == SWAP_COSTS[t - 1]
    assert evaluate_word(word, gs, gv) == swap_target(f, n, t)


# eliminations, determinants and determinant entries (rows x cols, summed) in
# the swap_word calls of one cold t = 1..6, p = 5 sweep with n = 3t
SWEEP_ELIMINATIONS, SWEEP_DETERMINANTS, SWEEP_DETERMINANT_CELLS = 425, 129, 5216


def test_swap_sweep_elimination_counts(monkeypatch):
    """The swap searches re-eliminate no basis they already hold in RREF.

    Every `_rref_in_place` and `GFMatrix._compute_det` call is counted; the
    counts are deterministic, and re-reducing a known RREF or taking an
    m x m determinant where a k x k minor gives it raises them.
    """
    from slword.ff_linalg import maps, matrix, subspace

    sets = [_setup(3 * t, 5)[1:] for t in range(1, 7)]
    counts = {"rref": 0, "det": 0, "cells": 0}
    rref, det = matrix._rref_in_place, GFMatrix._compute_det

    def counted_rref(a, p):
        counts["rref"] += 1
        return rref(a, p)

    def counted_det(self):
        counts["det"] += 1
        counts["cells"] += self.rows * self.cols
        return det(self)

    for module in (matrix, maps, subspace):
        monkeypatch.setattr(module, "_rref_in_place", counted_rref)
    monkeypatch.setattr(GFMatrix, "_compute_det", counted_det)
    for gs, gv in sets:
        WordBuilder(gs, gv).swap_word()
    assert counts["rref"] <= SWEEP_ELIMINATIONS
    assert counts["det"] <= SWEEP_DETERMINANTS
    assert counts["cells"] <= SWEEP_DETERMINANT_CELLS


# eliminations and determinants at (12, 5): a warm-up of every window
# conjugator after swap_word, then construct on 8 seeded random_sl targets
WARMUP_ELIMINATIONS, WARMUP_DETERMINANTS = 9, 69
CONSTRUCT_ELIMINATIONS, CONSTRUCT_DETERMINANTS = 147, 33


def test_construct_elimination_counts(monkeypatch):
    """Window conjugators and window actions re-derive no inverse or determinant they hold.

    Counted as in `test_swap_sweep_elimination_counts`; inverting a conjugator
    word per window, or re-taking det(z) in `window_action`, raises them.
    """
    from slword.ff_linalg import maps, matrix, subspace

    f, gs, gv = _setup(12, 5)
    rng = random.Random(12)
    targets = [random_sl(rng, f, gv.n) for _ in range(8)]
    builder = WordBuilder(gs, gv)
    builder.swap_word()
    counts = {"rref": 0, "det": 0}
    rref, det = matrix._rref_in_place, GFMatrix._compute_det

    def counted_rref(a, p):
        counts["rref"] += 1
        return rref(a, p)

    def counted_det(self):
        counts["det"] += 1
        return det(self)

    for module in (matrix, maps, subspace):
        monkeypatch.setattr(module, "_rref_in_place", counted_rref)
    monkeypatch.setattr(GFMatrix, "_compute_det", counted_det)
    for moved in itertools.combinations(range(gv.t, gv.n), gv.n - 2 * gv.t):
        builder.window_conjugator(moved)
    assert counts["rref"] <= WARMUP_ELIMINATIONS
    assert counts["det"] <= WARMUP_DETERMINANTS
    counts.update(rref=0, det=0)
    for target in targets:
        assert builder.construct(target).ok
    assert counts["rref"] <= CONSTRUCT_ELIMINATIONS
    assert counts["det"] <= CONSTRUCT_DETERMINANTS


def test_swap_word_that_misses_its_target_raises(monkeypatch):
    """The finished swap word is compared with its target by a typed check, not an assert."""
    f, gs, gv = _setup(6, 5)
    monkeypatch.setattr(word_builder, "swap_target", lambda field, n, t: GFMatrix.identity(field, n))
    with pytest.raises(InvariantError):
        WordBuilder(gs, gv).swap_word()


@pytest.mark.parametrize("n,t,p", [(3, 1, 3), (3, 1, 5), (9, 3, 7)])
def test_swap_determinant_obstruction(n, t, p):
    """For odd t over odd p the unsigned swap lies outside SL_n.

    Its determinant is (-1)^t = p-1 != 1, so no product of determinant-one
    generators can reach it; the builder delivers the signed normal form,
    which is entry-exact and has determinant one.
    """
    f, gs, gv = _setup(n, p)
    unsigned = unsigned_block_swap(f, n, t)
    assert unsigned.det() == p - 1  # provably unreachable by det-1 words
    m = evaluate_word(WordBuilder(gs, gv).swap_word(), gs, gv)
    assert m == signed_block_swap(f, n, t)
    assert m.det() == 1
    assert m == swap_target(f, n, t)


def _window_block(gv, moved, conjugated):
    """The window (head + moved) block of a matrix that fixes the other coordinates."""
    win = list(range(gv.t)) + list(moved)
    return GFMatrix(conjugated.field, conjugated.array[np.ix_(win, win)])


def test_upgrade_identity_and_partition():
    f, gs, gv = _setup(6, 3)
    builder = WordBuilder(gs, gv)
    t, n = gv.t, gv.n
    moved = tuple(range(t, t + (n - 2 * t)))
    ident = GFMatrix.identity(f, gv.block_dim)
    assert evaluate_word(builder.window_action(moved, ident), gs, gv).is_identity()

    rng = random.Random(4)
    x = random_sl(rng, f, gv.block_dim)
    T = gv.embed(x)
    moved = tuple(range(2 * t, n))  # identity partition
    s = evaluate_word(builder.swap_word(), gs, gv)
    w = builder.window_action(moved, _window_block(gv, moved, s @ T @ s.inv()))
    assert evaluate_word(w, gs, gv) == s @ T @ s.inv()


def test_upgrade_moves_action_to_chosen_window():
    f, gs, gv = _setup(3, 2)
    builder = WordBuilder(gs, gv)
    x = GFMatrix(f, [[0, 1], [1, 1]])
    assert x.det() == 1
    T = gv.embed(x)
    s = evaluate_word(builder.swap_word(), gs, gv)
    w = builder.window_action((2,), _window_block(gv, (2,), s @ T @ s.inv()))  # act on {0, 2}, fix e_2
    r = evaluate_word(w, gs, gv)
    assert np.array_equal(r.apply(unit_vector(3, 1)), unit_vector(3, 1))
    window = Subspace.coordinate_span(f, 3, [0, 2])
    for v in window.basis_rows:
        assert window.contains(r.apply(v.copy()))
    assert r == s @ T @ s.inv()


def test_upgrade_validation():
    f, gs, gv = _setup(6, 3)
    builder = WordBuilder(gs, gv)
    with pytest.raises(ParameterError):
        builder.window_action((2,), GFMatrix.diagonal(f, [2, 2, 1]))  # wrong moved size
    with pytest.raises(ParameterError):
        builder.window_action((0, 3), GFMatrix.diagonal(f, [2, 2, 1, 1]))  # head coordinate


@pytest.mark.parametrize("moved", [(4, 5), (3, 5)])  # the identity window, then a reordered one
def test_window_action_refuses_a_determinant_other_than_one(moved):
    f, gs, gv = _setup(6, 5)
    builder = WordBuilder(gs, gv)
    with pytest.raises(ParameterError, match="determinant 2 != 1"):
        builder.window_action(moved, GFMatrix.diagonal(f, [2, 1, 1, 1]))
    z = GFMatrix(f, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    target = np.eye(gv.n, dtype=np.int64)
    win = list(range(gv.t)) + list(moved)
    target[np.ix_(win, win)] = z.array
    assert evaluate_word(builder.window_action(moved, z), gs, gv) == GFMatrix(f, target)


def _lower_triangular(rng, f, n):
    """A random lower-triangular matrix of determinant one."""
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, :i] = [rng.randrange(f.p) for _ in range(i)]
        a[i, i] = rng.randrange(1, f.p)
    a[0, 0] = a[0, 0] * pow(GFMatrix(f, a).det(), -1, f.p) % f.p
    return GFMatrix(f, a)


def _monomial(f, perm, entries):
    """The monomial matrix sending e_j to entries[j] e_perm[j], rescaled to det 1."""
    n = len(perm)
    a = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        a[perm[j], j] = entries[j] % f.p
    a[perm[0], 0] = a[perm[0], 0] * pow(GFMatrix(f, a).det(), -1, f.p) % f.p
    return GFMatrix(f, a)


def _loose_setup(n, t, p):
    """The t signed swaps with a block of size n - t, so n may exceed 3t."""
    from slword import signed_swap_matrix

    f = PrimeField(p)
    gens, seen = [], set()
    for i in range(t):
        s = signed_swap_matrix(f, n, i)
        gens.append(Generator(f"s{i + 1}", s))
        seen.add(s.key())
        si = s.inv()
        if si.key() not in seen:
            gens.append(Generator(f"s{i + 1}~", si))
    return f, GeneratorSet(gens), Groumvirate(n, t, step_cost=4)


def test_lower_triangular_cases(rng):
    f, gs, gv = _setup(6, 3)
    builder = WordBuilder(gs, gv)
    assert builder.lower_triangular_word(GFMatrix.identity(f, 6)) == Word.empty()
    for _ in range(5):
        l_mat = _lower_triangular(rng, f, 6)
        assert evaluate_word(builder.lower_triangular_word(l_mat), gs, gv) == l_mat
    # p = 2, p = 2^31 - 1 and n > 3t; n is even, so the scalar -1 has det 1
    for f, gs, gv in [_setup(6, 2), _setup(6, 2**31 - 1), _loose_setup(10, 3, 5)]:
        builder = WordBuilder(gs, gv)
        targets = [_lower_triangular(rng, f, gv.n) for _ in range(3)]
        for l_mat in targets + [GFMatrix.diagonal(f, [f.p - 1] * gv.n)]:
            assert evaluate_word(builder.lower_triangular_word(l_mat), gs, gv) == l_mat


def test_lower_triangular_rejections():
    f, gs, gv = _setup(6, 3)
    builder = WordBuilder(gs, gv)
    upper = GFMatrix(f, np.triu(np.ones((6, 6), dtype=np.int64)))
    with pytest.raises(ParameterError):
        builder.lower_triangular_word(upper)
    a = np.eye(6, dtype=np.int64)
    a[0, 0] = 0  # zero diagonal entry: singular
    with pytest.raises(ParameterError):
        builder.lower_triangular_word(GFMatrix(f, a))
    with pytest.raises(ParameterError):
        builder.lower_triangular_word(GFMatrix.diagonal(f, [2, 1, 1, 1, 1, 1]))


def test_monomial_cases():
    f, gs, gv = _setup(3, 2)
    builder = WordBuilder(gs, gv)
    assert builder.monomial_word(GFMatrix.identity(f, 3)) == Word.empty()
    # cross-check against the swap construction path
    target = unsigned_block_swap(f, 3, 1)
    via_monomial = evaluate_word(builder.monomial_word(target), gs, gv)
    via_swap = evaluate_word(builder.swap_word(), gs, gv)
    assert via_monomial == target and via_swap == target

    f5, gs5, gv5 = _setup(3, 5)
    b5 = WordBuilder(gs5, gv5)
    scalar = GFMatrix.diagonal(f5, [2, 3, 1])  # 2 * 3 = 6 = 1 mod 5
    assert scalar.det() == 1
    assert evaluate_word(b5.monomial_word(scalar), gs5, gv5) == scalar


def test_monomial_random(rng):
    f, gs, gv = _setup(6, 5)
    builder = WordBuilder(gs, gv)
    targets = []
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        targets.append(_monomial(f, perm, [rng.randrange(1, 5) for _ in range(6)]))
    targets += [
        _monomial(f, [4, 5, 2, 3, 0, 1], [1] * 6),  # head <-> far tail
        _monomial(f, [2, 3, 0, 1, 4, 5], [3] * 6),  # head <-> middle, scaled
        _monomial(f, [5, 4, 3, 2, 1, 0], [2, 1, 4, 1, 3, 1]),  # full reversal
        GFMatrix.diagonal(f, [4] * 6),  # scalar: 4^6 = 1 mod 5
    ]
    for m in targets:
        assert m.det() == 1
        assert evaluate_word(builder.monomial_word(m), gs, gv) == m
    # p = 2, p = 2^31 - 1 and n > 3t
    for f, gs, gv in [_setup(6, 2), _setup(6, 2**31 - 1), _loose_setup(10, 3, 5)]:
        builder = WordBuilder(gs, gv)
        n, t = gv.n, gv.t
        perms = [rng.sample(range(n), n) for _ in range(3)]
        perms.append(list(range(n - t, n)) + list(range(t, n - t)) + list(range(t)))  # head <-> far tail
        for perm in perms:
            m = _monomial(f, perm, [rng.randrange(1, f.p) for _ in range(n)])
            assert evaluate_word(builder.monomial_word(m), gs, gv) == m


def _pairing_degenerate(target, t):
    """True when the window pairing y D u on left-ker C x ker A has rank < t.

    Computed apart from the builder, by the rank identity
    rank [[0, A], [C, D]] = rank A + rank C + rank of that pairing.
    """
    f, a = target.field, target.array.copy()
    a[:t, :t] = 0

    def rank(x):
        return GFMatrix(f, x).rref().rank

    return rank(a) - rank(a[:t, t:]) - rank(a[t:, :t]) < t


def _counting_window_actions(monkeypatch):
    calls = []
    original = WordBuilder._window_built
    monkeypatch.setattr(
        WordBuilder, "_window_built", lambda self, moved, z: calls.append(1) or original(self, moved, z)
    )
    return calls


def test_each_factor_takes_one_window_action(monkeypatch, rng):
    f, gs, gv = _setup(6, 5)
    builder = WordBuilder(gs, gv)
    calls = _counting_window_actions(monkeypatch)
    monomial = _monomial(f, rng.sample(range(6), 6), [rng.randrange(1, 5) for _ in range(6)])
    draws = [random_sl(rng, f, 6) for _ in range(30)]
    general = next(m for m in draws if not _pairing_degenerate(m, gv.t))
    degenerate = next(m for m in draws if _pairing_degenerate(m, gv.t))
    for build, target, windows in [
        (builder.lower_triangular_word, _lower_triangular(rng, f, 6), 1),
        (builder.monomial_word, monomial, 1),
        (builder.construct, general, 1),
        (builder.construct, degenerate, 2),  # one window action for b1 . w, one for b2
    ]:
        calls.clear()
        build(target)
        assert len(calls) == windows


@pytest.mark.parametrize("seed", [1, 8191])
@pytest.mark.parametrize("n,p", [(6, 2), (6, 3), (12, 5), (6, 2**31 - 1)])
def test_construct_takes_the_bruhat_route_only_for_a_degenerate_pairing(monkeypatch, n, p, seed):
    """A target of pairing rank >= t is one window action; the rest take two, at an exact cost."""
    f, gs, gv = _setup(n, p)
    builder = WordBuilder(gs, gv)
    swap = word_cost(builder.swap_word(), gs, gv)
    calls = _counting_window_actions(monkeypatch)
    rng = random.Random(seed)
    kinds = set()
    for _ in range(16):
        target = random_sl(rng, f, n)
        degenerate = _pairing_degenerate(target, gv.t)
        kinds.add(degenerate)
        calls.clear()
        rep = builder.construct(target)
        assert rep.ok and evaluate_word(rep.word, gs, gv) == target
        if degenerate:
            assert len(calls) == 2
            assert rep.cost == 4 * swap + 6 * gv.step_cost
        else:
            assert len(calls) == 1
            assert rep.cost == 2 * swap + 3 * gv.step_cost
    if (n, p) in [(6, 2), (12, 5)]:
        assert kinds == {False, True}


def test_every_sl3_f2_element_within_two_window_factors():
    """All 168 elements of SL_3(F_2): the costliest are exactly the degenerate targets, at 4 |swap| + 6 b."""
    f, gs, gv = _setup(3, 2)
    builder = WordBuilder(gs, gv)
    top = 4 * word_cost(builder.swap_word(), gs, gv) + 6 * gv.step_cost
    assert top == 26
    elements = enumerate_sl(f, 3)
    assert len(elements) == 168
    costs = {}
    for target in elements:
        rep = builder.construct(target)
        assert rep.ok and evaluate_word(rep.word, gs, gv) == target
        costs[target.key()] = rep.cost
    assert max(costs.values()) == top
    degenerate = {m.key() for m in elements if _pairing_degenerate(m, gv.t)}
    assert degenerate and {k for k, c in costs.items() if c == top} == degenerate


def _tail_preserving(rng, f, n, t):
    """A seeded det-1 matrix N with a zero head-tail block, so N maps the tail span onto itself."""
    c = rng.randrange(1, f.p)
    head = random_sl(rng, f, t).with_line_scaled(0, 0, c)
    tail = random_sl(rng, f, n - t).with_line_scaled(0, 0, pow(c, -1, f.p))
    a = np.zeros((n, n), dtype=np.int64)
    a[:t, :t], a[t:, t:] = head.array, tail.array
    a[t:, :t] = [[rng.randrange(f.p) for _ in range(t)] for _ in range(n - t)]
    return GFMatrix(f, a)


@pytest.mark.parametrize("seed", [1, 8191])
@pytest.mark.parametrize("n,p", [(6, 2), (6, 3), (12, 5), (6, 2**31 - 1)])
def test_tail_preserving_times_monomial_never_degenerates(n, p, seed):
    """The lemma behind the two-factor route, checked by the rank identity and not by the builder.

    N . w with N T = T (T the tail span) and w monomial has window pairing
    rank >= n - 2t >= t; b1 . w and b2 of a Bruhat split are of this form.
    """
    f, _, gv = _setup(n, p)
    rng = random.Random(seed)
    assert _pairing_degenerate(_degenerate_target(rng, f, gv), gv.t)  # the check does see rank < t here
    for _ in range(40):
        w = _monomial(f, rng.sample(range(n), n), [rng.randrange(1, f.p) for _ in range(n)])
        product = _tail_preserving(rng, f, n, gv.t) @ w
        assert product.det() == 1
        assert not _pairing_degenerate(product, gv.t)


@pytest.mark.parametrize("seed", [1, 8191])
def test_sparse_degenerate_target_at_the_largest_prime(monkeypatch, seed):
    """A seeded sparse {-1, 0, 1} target of pairing rank < t at p = 2^31 - 1 takes two window actions, cost 98."""
    f, gs, gv = _setup(6, 2**31 - 1)
    rng = random.Random(seed)
    for _ in range(200):
        a = np.array([[rng.choice((-1, 0, 0, 1)) for _ in range(6)] for _ in range(6)]) % f.p
        d = GFMatrix(f, a).det()
        if d == 0:
            continue
        target = GFMatrix(f, a).with_line_scaled(1, 0, pow(d, -1, f.p))
        if _pairing_degenerate(target, gv.t):
            break
    else:
        pytest.fail("no degenerate sparse target in 200 draws")
    builder = WordBuilder(gs, gv)
    calls = _counting_window_actions(monkeypatch)
    rep = builder.construct(target)
    assert rep.ok and evaluate_word(rep.word, gs, gv) == target
    assert len(calls) == 2
    assert rep.cost == 98 == 4 * word_cost(builder.swap_word(), gs, gv) + 6 * gv.step_cost


def test_monomial_rejections():
    f, gs, gv = _setup(3, 5)
    builder = WordBuilder(gs, gv)
    with pytest.raises(ParameterError):
        builder.monomial_word(GFMatrix(f, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ParameterError):
        builder.monomial_word(GFMatrix.diagonal(f, [2, 1, 1]))


def test_construct_shortcuts():
    f, gs, gv = _setup(6, 3)
    builder = WordBuilder(gs, gv)
    rep = builder.construct(GFMatrix.identity(f, 6))
    assert rep.ok and rep.cost == 0 and len(rep.word) == 0

    g0 = gs.step_matrix(0)
    rep = builder.construct(g0)
    assert rep.ok and rep.word == Word.single(GenStep(0))
    # the generator s1~ is s1^-1, and the match tries s1's inverse step first
    assert gs.step_matrix(1) == gs.step_matrix(0, True)
    rep = builder.construct(gs.step_matrix(0, True))
    assert rep.ok and rep.word == Word.single(GenStep(0, True))

    rng = random.Random(8)
    block = gv.embed(random_sl(rng, f, gv.block_dim))
    rep = builder.construct(block)
    assert rep.ok and rep.cost == gv.step_cost and len(rep.word) == 1


def test_construct_random_targets(rng):
    f, gs, gv = _setup(6, 2)
    builder = WordBuilder(gs, gv)
    for _ in range(15):
        target = evaluate_word(random_word(rng, gs, gv, 24), gs, gv)
        rep = builder.construct(target)
        assert rep.ok
        assert evaluate_word(rep.word, gs, gv) == target
        assert rep.cost <= 64 * 36


def test_construct_rejects_non_special():
    f, gs, gv = _setup(3, 5)
    with pytest.raises(ParameterError):
        WordBuilder(gs, gv).construct(GFMatrix.diagonal(f, [2, 1, 1]))


def test_construct_budget_failure_reported():
    f, gs, gv = _setup(6, 3)
    rng = random.Random(13)
    target = evaluate_word(random_word(rng, gs, gv, 24), gs, gv)
    rep = WordBuilder(gs, gv, budget_constant=0).construct(target)
    assert not rep.ok
    assert rep.cost > 0  # the achieved cost is still reported
    assert evaluate_word(rep.word, gs, gv) == target


def test_construct_evaluates_no_word(monkeypatch):
    """A warm builder's `construct` checks the matrix it built, and evaluates no word."""
    f, gs, gv = _setup(6, 5)
    builder = WordBuilder(gs, gv)
    rng = random.Random(21)
    targets = [evaluate_word(random_word(rng, gs, gv, 24), gs, gv) for _ in range(4)]
    assert builder.construct(targets[0]).ok  # warm the swap and its inverse
    calls = []

    def counted(word, gs_, gv_=None):
        calls.append(len(word))
        return evaluate_word(word, gs_, gv_)

    monkeypatch.setattr(word_builder, "evaluate_word", counted)
    for target in targets:
        rep = builder.construct(target)
        assert rep.ok and evaluate_word(rep.word, gs, gv) == target
    assert calls == []


def test_window_action_reuses_the_inverse_conjugator(monkeypatch):
    f, gs, gv = _setup(6, 5)
    builder = WordBuilder(gs, gv)
    moved = (3, 5)
    c_word, c_mat = builder.window_conjugator(moved)
    calls = []
    original = Word.inverse
    monkeypatch.setattr(Word, "inverse", lambda self: calls.append(1) or original(self))
    z = GFMatrix(f, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for _ in range(3):
        word = builder.window_action(moved, z)
        assert word.steps[-len(c_word) :] == original(c_word).steps
    assert calls == []
    assert builder.window_conjugator(moved) == (c_word, c_mat)


def test_window_warm_up_keeps_nothing_per_window(monkeypatch):
    """Every window conjugator is built when asked for; only the swap's inverse word is kept."""
    f, gs, gv = _setup(12, 5)
    builder = WordBuilder(gs, gv)
    builder.swap_word()
    calls = []
    original = Word.inverse
    monkeypatch.setattr(Word, "inverse", lambda self: calls.append(1) or original(self))
    windows = list(itertools.combinations(range(gv.t, gv.n), gv.n - 2 * gv.t))
    first = [builder.window_conjugator(moved) for moved in windows]
    assert len(calls) <= 1
    assert not any(isinstance(v, dict) for v in vars(builder).values())
    assert [builder.window_conjugator(moved) for moved in windows] == first


@pytest.mark.parametrize("n,t,p", [(9, 3, 5), (10, 3, 5)])
def test_cached_matrices_equal_their_words(n, t, p):
    """The swap and every window conjugator carry exactly their word's product."""
    f, gs, gv = _setup(n, p) if n == 3 * t else _loose_setup(n, t, p)
    builder = WordBuilder(gs, gv)
    assert evaluate_word(builder.swap_word(), gs, gv) == swap_target(f, gv.n, gv.t)
    # the identity partition (2t..n-1) hands back the cached swap with its matrix
    for moved in itertools.combinations(range(gv.t, gv.n), gv.n - 2 * gv.t):
        c_word, c_mat = builder.window_conjugator(moved)
        assert c_mat == evaluate_word(c_word, gs, gv)


def test_construct_reports_a_wrong_word_without_raising(monkeypatch):
    f, gs, gv = _setup(6, 5)
    rng = random.Random(22)
    target = evaluate_word(random_word(rng, gs, gv, 24), gs, gv)
    original = WordBuilder._window_built

    def spoiled(self, moved, z):  # both routes take window actions; the step comes with its matrix
        return original(self, moved, z) + word_builder._Built(Word.single(GenStep(0)), gs.step_matrix(0))

    monkeypatch.setattr(WordBuilder, "_window_built", spoiled)
    rep = WordBuilder(gs, gv).construct(target)
    assert not rep.ok
    assert evaluate_word(rep.word, gs, gv) != target


def _recording_builts(monkeypatch):
    """Every word-with-matrix value the builder makes from now on, in the order made."""
    made = []

    class Recorded(word_builder._Built):
        def __init__(self, word, mat):
            super().__init__(word, mat)
            made.append(self)

    monkeypatch.setattr(word_builder, "_Built", Recorded)
    return made


def _assert_leaves_paired(made, gs, gv):
    assert made
    for built in made:
        assert built.mat == evaluate_word(built.word, gs, gv)


def _degenerate_target(rng, f, gv):
    """A seeded target of window pairing rank 0 < t, at n = 3t, from the double coset of one such matrix.

    Head rows (I, I, 0), middle rows (I, 0, I), last rows (0, I, 0): A = (I 0) and
    C = (I 0)^T leave the pairing the last-rows-last-columns block of D, which is zero.
    """
    t = gv.t
    eye, zero = np.eye(t, dtype=np.int64), np.zeros((t, t), dtype=np.int64)
    core = GFMatrix(f, np.block([[eye, eye, zero], [eye, zero, eye], [zero, eye, zero]]))
    core = core.with_line_scaled(0, 0, pow(core.det(), -1, f.p))
    return gv.embed(random_sl(rng, f, gv.block_dim)) @ core @ gv.embed(random_sl(rng, f, gv.block_dim))


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_every_built_word_carries_its_matrix(monkeypatch, p):
    """Each word the builder pairs with a matrix evaluates to that matrix: the leaves are paired right."""
    f, gs, gv = _setup(6, p)
    made = _recording_builts(monkeypatch)
    builder = WordBuilder(gs, gv)
    rng = random.Random(p)
    assert evaluate_word(builder.swap_word(), gs, gv) == swap_target(f, 6, gv.t)
    degenerate = _degenerate_target(rng, f, gv)
    assert _pairing_degenerate(degenerate, gv.t)
    for target in [random_sl(rng, f, 6) for _ in range(3)] + [degenerate]:
        rep = builder.construct(target)
        assert rep.ok and evaluate_word(rep.word, gs, gv) == target
    builder.window_action((3, 5), random_sl(rng, f, 4))  # block order (2, 4, 3, 5): an odd reordering
    _assert_leaves_paired(made, gs, gv)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,t,p", [(6, 2, 3), (9, 3, 5), (7, 2, 3)])
def test_general_symmetric_sets(monkeypatch, n, t, p, seed):
    """Two seeded SL_n elements and their inverses: no generator is a signed swap.

    Such sets reach the nonzero-tail branch of `frames_to_tail_word`, which
    the signed-swap sets never take.
    """
    f = PrimeField(p)
    rng = random.Random(seed)
    g = random_sl(rng, f, n)
    h = random_sl(rng, f, n)
    gs = GeneratorSet([Generator("g", g), Generator("g~", g.inv()), Generator("h", h), Generator("h~", h.inv())])
    gv = Groumvirate(n, t)
    made = _recording_builts(monkeypatch)
    fibers = []
    original = WordBuilder._affine_fiber
    monkeypatch.setattr(WordBuilder, "_affine_fiber", lambda self, q, x: fibers.append(1) or original(self, q, x))
    builder = WordBuilder(gs, gv)
    assert evaluate_word(builder.swap_word(), gs, gv) == swap_target(f, n, t)
    for _ in range(3):
        target = random_sl(rng, f, n)
        rep = builder.construct(target)
        assert rep.ok and evaluate_word(rep.word, gs, gv) == target
    _assert_leaves_paired(made, gs, gv)
    if (n, t, p) != (6, 2, 3):
        assert fibers


@pytest.mark.parametrize("n,t,p", [(7, 2, 3), (8, 2, 2), (10, 3, 5)])
def test_loose_regime_with_padded_windows(n, t, p):
    """n strictly greater than 3t: the window is wider than the fixed coordinates."""
    f, gs, gv = _loose_setup(n, t, p)
    builder = WordBuilder(gs, gv)
    assert evaluate_word(builder.swap_word(), gs, gv) == swap_target(f, n, t)
    rng = random.Random(n * p + t)
    for _ in range(3):
        target = evaluate_word(random_word(rng, gs, gv, 3 * n), gs, gv)
        rep = builder.construct(target)
        assert rep.ok and evaluate_word(rep.word, gs, gv) == target


def test_flattening_fallback_mover():
    """A pinned set where the primary mover cannot place the next frame.

    Flattening frame i+1 with the inverse of its own frame word requires the
    current image's head part to be visible in that mover's preimage of the
    tail span; for this generating set it is not, and the builder must fall
    back to another mover from the pool.  The contract is unchanged.
    """
    f = PrimeField(3)
    g = GFMatrix(
        f,
        [
            [1, 1, 2, 2, 0, 1],
            [1, 2, 1, 1, 0, 0],
            [1, 1, 0, 2, 1, 2],
            [2, 1, 0, 0, 1, 1],
            [1, 2, 0, 1, 0, 1],
            [0, 1, 0, 1, 2, 0],
        ],
    )
    h = GFMatrix(
        f,
        [
            [1, 1, 2, 1, 0, 2],
            [2, 0, 2, 1, 2, 1],
            [0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 0, 0],
            [1, 1, 1, 2, 1, 1],
            [1, 0, 2, 1, 0, 1],
        ],
    )
    gs = GeneratorSet(
        [
            Generator("g", g),
            Generator("g~", g.inv()),
            Generator("h", h),
            Generator("h~", h.inv()),
        ]
    )
    gv = Groumvirate(6, 2, step_cost=4)
    builder = WordBuilder(gs, gv)
    frames = builder.head_basis_frames()
    b = evaluate_word(builder.frames_to_tail_word(frames), gs, gv)
    tail = Subspace.tail(f, 6, 2)
    for fr in frames:
        mv = evaluate_word(fr.a_word, gs, gv).apply(fr.v)
        assert tail.contains(b.apply(mv))
    # and the full pipeline still lands the exact swap form
    assert evaluate_word(builder.swap_word(), gs, gv) == swap_target(f, 6, 2)


def test_assembly_cost_quadratic_sweep():
    """Full-construction cost stays under one constant times n^2 across a t sweep."""
    f = PrimeField(5)
    ratios = []
    rng = random.Random(31)
    for t in range(1, 7):
        n = 3 * t
        gs, gv = lb_generating_set(f, n)
        builder = WordBuilder(gs, gv)
        worst = 0
        for _ in range(3):
            target = evaluate_word(random_word(rng, gs, gv, 3 * n), gs, gv)
            rep = builder.construct(target)
            assert rep.ok
            worst = max(worst, rep.cost)
        ratios.append(worst / (n * n))
    assert max(ratios) <= 64  # one constant covers the whole sweep


def test_builder_requires_symmetric_set():
    f = PrimeField(5)
    rot = Generator("r", GFMatrix(f, [[0, 1, 0], [4, 0, 0], [0, 0, 1]]))
    gs = GeneratorSet([rot])
    with pytest.raises(ParameterError):
        WordBuilder(gs, Groumvirate(3, 1))


_UNDER_O = """
import json, random
from slword import PrimeField, WordBuilder, lb_generating_set, lower_bound_certificate, random_sl
f = PrimeField(5)
gs, gv = lb_generating_set(f, 6)
builder = WordBuilder(gs, gv)
rng = random.Random(5)
oks = [builder.construct(random_sl(rng, f, 6)).ok for _ in range(3)]
gs2, gv2 = lb_generating_set(PrimeField(2), 6)
cert = lower_bound_certificate(WordBuilder(gs2, gv2).swap_word(), gs2, gv2)
print(json.dumps([__debug__, oks, cert.d0, cert.word_length, cert.binom_display]))
"""


def test_construct_and_certificate_under_python_O():
    """python -O strips asserts; the words and the certificate must not depend on them."""
    src = str(Path(word_builder.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    gs, gv = lb_generating_set(PrimeField(2), 6)
    swap = WordBuilder(gs, gv).swap_word()
    assert json.loads(out) == [False, [True] * 3, 3, len(swap), 1]
