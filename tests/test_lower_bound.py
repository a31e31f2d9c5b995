import gc
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import slword
from slword import (
    BlockStep,
    FieldMismatchError,
    GFMatrix,
    GeneratorSet,
    Generator,
    GenStep,
    Groumvirate,
    ParameterError,
    PotentialTrace,
    PrimeField,
    ShapeError,
    Word,
    WordBuilder,
    bfs_covering,
    bfs_shortest_word,
    block_generators,
    enumerate_sl,
    evaluate_word,
    lb_generating_set,
    lb_generating_set_explicit,
    lower_bound_certificate,
    potential_trace,
    random_sl,
    random_word,
    signed_swap_matrix,
    sl_order,
    unsigned_block_swap,
    verify_descent,
)
from slword import lower_bound
from slword.ff_linalg import mulmod
from slword.lower_bound import _symmetric_edges


def test_signed_swap_matrix_exact():
    f = PrimeField(5)
    s = signed_swap_matrix(f, 3, 0)
    assert s == GFMatrix(f, [[0, 1, 0], [4, 0, 0], [0, 0, 1]])
    assert s.det() == 1
    for n, p, i in [(4, 3, 1), (6, 7, 4), (5, 2, 2)]:
        m = signed_swap_matrix(PrimeField(p), n, i)
        assert m.det() == 1


def test_lb_generating_set_structure():
    f = PrimeField(2)
    gs, gv = lb_generating_set(f, 3)
    assert gv.t == 1 and gv.step_cost == 1
    assert len(gs) == 1  # over F_2 the signed swap is an involution
    assert gs.symmetric

    f5 = PrimeField(5)
    gs5, gv5 = lb_generating_set(f5, 6)
    assert gv5.t == 2
    labels = [g.label for g in gs5]
    assert labels == ["s1", "s1~", "s2", "s2~"]
    keys = {g.matrix.key() for g in gs5}
    for g in gs5:
        assert g.matrix.inv().key() in keys  # symmetric closure

    with pytest.raises(ParameterError):
        lb_generating_set(f5, 2)


def test_block_enumeration():
    f = PrimeField(2)
    gs, gv = lb_generating_set(f, 3)
    block = block_generators(f, gv)
    assert len(block) == 6  # |SL_2(F_2)|
    assert sl_order(2, 2) == 6
    assert sl_order(2, 3) == 24
    assert sl_order(3, 2) == 168
    assert len(enumerate_sl(PrimeField(3), 2)) == 24
    with pytest.raises(ParameterError):
        enumerate_sl(PrimeField(7), 4)  # 7^16 beyond the cap


def test_trace_d0_and_single_swap_step():
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    t = gv.t
    empty = potential_trace(Word.empty(), gs, gv)
    assert empty.d0 == t * (t + 1) // 2 == 3
    assert empty.f_sets[0] == frozenset({1, 2})

    # the swap of e_t and e_{t+1} costs exactly one unit of potential
    idx = next(i for i, g in enumerate(gs.generators) if g.label == f"s{t}")
    tr = potential_trace(Word.single(GenStep(idx)), gs, gv)
    assert tr.d_values == (3, 2)

    # a swap inside the head costs nothing (position reading)
    idx1 = next(i for i, g in enumerate(gs.generators) if g.label == "s1")
    tr = potential_trace(Word.single(GenStep(idx1)), gs, gv)
    assert tr.d_values == (3, 3)


def block_word(rng, field, gv, length):
    """A word of `length` uniform block steps."""
    return Word(tuple(BlockStep(random_sl(rng, field, gv.block_dim)) for _ in range(length)))


def test_block_steps_leave_potential_unchanged(rng):
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    for _ in range(50):
        w = block_word(rng, f, gv, 12)
        tr = potential_trace(w, gs, gv)
        assert all(d == tr.d0 for d in tr.d_values)


def test_monotone_freeze_and_descent(rng):
    for n, p in [(3, 2), (3, 3), (6, 2), (6, 3)]:
        f = PrimeField(p)
        gs, gv = lb_generating_set(f, n)
        for _ in range(300):
            w = random_word(rng, gs, gv, 20)
            tr = potential_trace(w, gs, gv)
            assert verify_descent(tr)
            for a, b in zip(tr.f_sets, tr.f_sets[1:]):
                assert b <= a


def test_verify_descent_rejects_illegal_trace():
    assert verify_descent(PotentialTrace(Word.empty(), (3,), (frozenset(),), False))
    bad = PotentialTrace(Word.empty(), (3, 1), (frozenset(), frozenset()), False)
    assert not verify_descent(bad)


def test_signed_reading_discrepancy_is_observable():
    """The literal signed reading can lose two units in one step.

    Applying s_2 then s_1 (t = 2, p = 3): s_2 freezes index 2; s_1 then sends
    e_1 to -e_2, which the signed reading scores as frozen (losing its full
    value 2) while the position reading keeps it at position 2 (losing 1).
    The descent inequality therefore only holds for the position reading,
    which is the default.
    """
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    idx = {g.label: i for i, g in enumerate(gs.generators)}
    word = Word((GenStep(idx["s1"]), GenStep(idx["s2"])))  # s2 applies first
    signed = potential_trace(word, gs, gv, signed=True)
    position = potential_trace(word, gs, gv, signed=False)
    assert signed.d_values == (3, 2, 0)
    assert not verify_descent(signed)
    assert position.d_values == (3, 2, 1)
    assert verify_descent(position)


def test_certificate_small():
    f = PrimeField(2)
    gs = lb_generating_set_explicit(f, 3)
    _, gv = lb_generating_set(f, 3)
    target = unsigned_block_swap(f, 3, 1)
    w = bfs_shortest_word(gs, target)
    cert = lower_bound_certificate(w, gs, gv)
    assert cert.d0 == 1
    assert cert.word_length >= 1
    assert cert.binom_display == 0

    with pytest.raises(ParameterError):
        lower_bound_certificate(Word.empty(), gs, gv)  # identity is not the target


def test_certificate_on_builder_word():
    f = PrimeField(2)
    gs, gv = lb_generating_set(f, 6)
    builder = WordBuilder(gs, gv)
    w = builder.swap_word()
    cert = lower_bound_certificate(w, gs, gv)
    assert cert.d0 == 3
    assert cert.word_length >= 3


def test_bfs_full_group_as_generators():
    f = PrimeField(3)
    gens = [Generator(f"g{i}", m) for i, m in enumerate(enumerate_sl(f, 2))]
    gs = GeneratorSet(gens)
    res = bfs_covering(gs)
    assert res.group_order == 24
    assert res.covering_number == 1
    assert res.total_reached == 24


def test_bfs_exact_covering_sl3_f2():
    f = PrimeField(2)
    gs = lb_generating_set_explicit(f, 3)
    res = bfs_covering(gs)
    assert res.group_order == 168
    assert res.total_reached == 168
    assert res.covering_number is not None and res.covering_number >= 1
    assert not res.stabilized and not res.exhausted
    # growth profile is a partition of the group
    assert sum(res.reached_per_depth) == 168


def test_bfs_non_generating_stabilizes():
    f = PrimeField(2)
    gv = Groumvirate(3, 1, step_cost=1)
    gs = GeneratorSet(block_generators(f, gv))
    res = bfs_covering(gs)
    assert res.stabilized
    assert res.covering_number is None
    assert res.total_reached == 6  # the embedded SL_2(F_2)


def test_bfs_cap_and_depth_limits():
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    with pytest.raises(ParameterError):
        bfs_covering(gs, element_cap=100)
    f2 = PrimeField(2)
    gs2 = lb_generating_set_explicit(f2, 3)
    res = bfs_covering(gs2, max_depth=2)
    assert res.exhausted and res.covering_number is None
    assert res.total_reached < 168


def test_bfs_shortest_word_is_minimal_and_exact():
    f = PrimeField(2)
    gs = lb_generating_set_explicit(f, 3)
    _, gv = lb_generating_set(f, 3)
    res = bfs_covering(gs)
    # identity at distance zero
    ident = GFMatrix.identity(f, 3)
    assert bfs_shortest_word(gs, ident) == Word.empty()
    rng = random.Random(3)
    for _ in range(10):
        target = evaluate_word(random_word(rng, gs, None, 6), gs, None)
        w = bfs_shortest_word(gs, target)
        assert evaluate_word(w, gs, None) == target
        assert len(w) <= res.covering_number


# -- the frontier walker against the state-by-state loops it replaced ---------


def reference_bfs_covering(gs, max_depth=None):
    """The state-by-state BFS that bfs_covering ran before the frontier walker."""
    order = sl_order(gs.n, gs.field.p)
    edges = np.stack([m.array for _, m in _symmetric_edges(gs)])
    p = gs.field.p
    ident = np.eye(gs.n, dtype=np.int64)
    visited = {ident.tobytes()}
    frontier = [ident]
    reached = [1]
    depth = 0
    while frontier and len(visited) < order:
        if max_depth is not None and depth >= max_depth:
            return reached, len(visited), False, True
        nxt = []
        for cur in frontier:
            for new in mulmod(cur, edges, p):
                key = new.tobytes()
                if key not in visited:
                    visited.add(key)
                    nxt.append(new.copy())
        depth += 1
        reached.append(len(nxt))
        frontier = nxt
    return reached, len(visited), len(visited) != order, False


def reference_bfs_shortest_word(gs, target, max_depth=64):
    """The state-by-state search that bfs_shortest_word ran before the walker."""
    p = gs.field.p
    steps, mats = zip(*_symmetric_edges(gs))
    edges = np.stack([m.array for m in mats])
    ident = np.eye(gs.n, dtype=np.int64)
    tkey = target.array.tobytes()
    parents = {ident.tobytes(): None}
    if tkey in parents:
        return Word.empty()
    frontier = [ident]
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            ckey = cur.tobytes()
            for step, new in zip(steps, mulmod(cur, edges, p)):
                key = new.tobytes()
                if key in parents:
                    continue
                parents[key] = (ckey, step)
                if key == tkey:
                    out = []
                    k = key
                    while parents[k] is not None:
                        prev, st = parents[k]
                        out.append(st)
                        k = prev
                    return Word(tuple(reversed(out)))
                nxt.append(new.copy())
        if not nxt:
            return None
        frontier = nxt
    return None


def _full_sl2_f3():
    f = PrimeField(3)
    return GeneratorSet([Generator(f"g{i}", m) for i, m in enumerate(enumerate_sl(f, 2))])


def _matrix_set(p, *arrays):
    """The given matrices, without their inverses; the walk adds those as edges."""
    f = PrimeField(p)
    return GeneratorSet([Generator(f"g{i}", GFMatrix(f, np.array(a, dtype=np.int64) % p)) for i, a in enumerate(arrays)])


def _transvections_sl3_f3():
    """The six elementary transvections I + E_ij, i != j."""
    mats = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = np.eye(3, dtype=np.int64)
                m[i, j] = 1
                mats.append(m)
    return _matrix_set(3, *mats)


def _involution_and_transvection_sl3_f3():
    """x = x^-1 (a signed transposition) beside one transvection and a 3-cycle."""
    x = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    return _matrix_set(3, x, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: lb_generating_set_explicit(PrimeField(2), 3),
        lambda: lb_generating_set_explicit(PrimeField(3), 3),
        lambda: lb_generating_set_explicit(PrimeField(2), 4),
        _full_sl2_f3,
        lambda: GeneratorSet(block_generators(PrimeField(2), Groumvirate(3, 1, step_cost=1))),
        lambda: _matrix_set(11, [[1, 1], [0, 1]], [[1, 0], [1, 1]]),
        _transvections_sl3_f3,
        _involution_and_transvection_sl3_f3,
    ],
    ids=["n3-p2", "n3-p3", "n4-p2", "full-sl2-p3", "block-only-n3-p2", "unipotent-sl2-p11",
         "transvections-sl3-p3", "involution-sl3-p3"],
)
@pytest.mark.parametrize("max_depth", [None, 2])
def test_bfs_covering_matches_reference_loop(make, max_depth):
    gs = make()
    res = bfs_covering(gs, max_depth=max_depth)
    reached, total, stabilized, exhausted = reference_bfs_covering(gs, max_depth)
    assert res.reached_per_depth == reached
    assert res.frontier_per_depth == reached
    assert res.total_reached == total
    assert (res.stabilized, res.exhausted) == (stabilized, exhausted)


def test_bfs_shortest_words_match_reference_on_all_of_sl3_f2():
    f = PrimeField(2)
    gs = lb_generating_set_explicit(f, 3)
    for target in enumerate_sl(f, 3):
        w = bfs_shortest_word(gs, target)
        assert w == reference_bfs_shortest_word(gs, target)
        assert evaluate_word(w, gs, None) == target


def test_bfs_shortest_word_depth_limit_and_bad_target():
    f = PrimeField(2)
    gs = lb_generating_set_explicit(f, 3)
    swap = unsigned_block_swap(f, 3, 1)
    depth = len(bfs_shortest_word(gs, swap))
    assert bfs_shortest_word(gs, swap, max_depth=depth - 1) is None
    assert reference_bfs_shortest_word(gs, swap, max_depth=depth - 1) is None
    assert bfs_shortest_word(gs, GFMatrix.identity(f, 3), max_depth=0) == Word.empty()
    with pytest.raises(ParameterError):
        bfs_shortest_word(gs, GFMatrix.identity(PrimeField(3), 3))


def test_bfs_cap_bounds_the_visited_map():
    # 3^16 map entries fit the default cap although |SL_4(F_3)| > 10^7
    f = PrimeField(3)
    gs = lb_generating_set_explicit(f, 4)
    res = bfs_covering(gs, max_depth=1)
    assert res.group_order == 12_130_560
    assert res.exhausted and res.reached_per_depth == [1, len(_symmetric_edges(gs)) - 1]
    with pytest.raises(ParameterError):
        bfs_covering(gs, element_cap=3**16 - 1)
    with pytest.raises(ParameterError):
        bfs_shortest_word(lb_generating_set(f, 6).gs, GFMatrix.identity(f, 6))


def test_involution_is_one_edge():
    gs = _involution_and_transvection_sl3_f3()
    assert (gs.step_matrix(0) @ gs.step_matrix(0)).is_identity()
    assert len(_symmetric_edges(gs)) == 5


@pytest.mark.parametrize("n, p", [(3, 3), (4, 2)])
def test_walk_does_not_depend_on_chunking(monkeypatch, n, p):
    gs = lb_generating_set_explicit(PrimeField(p), n)
    edges = np.stack([m.array for _, m in _symmetric_edges(gs)])
    powers = lower_bound._key_powers(n, p, lower_bound.DEFAULT_ELEMENT_CAP)
    rng = random.Random(20)
    targets = [evaluate_word(random_word(rng, gs, None, 12), gs, None) for _ in range(20)]

    def run():
        layers = list(lower_bound._walk(edges, p, powers))
        return layers, bfs_covering(gs).reached_per_depth, [bfs_shortest_word(gs, t) for t in targets]

    layers, reached, words = run()
    edge_count = len(_symmetric_edges(gs))
    for chunk in (1, edge_count - 1):
        monkeypatch.setattr(lower_bound, "_CHUNK_PRODUCTS", chunk)
        chunked_layers, chunked_reached, chunked_words = run()
        assert len(chunked_layers) == len(layers)
        for got, want in zip(chunked_layers, layers):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert chunked_reached == reached
        assert chunked_words == words


def test_walk_multiplies_once(monkeypatch):
    calls = []

    def counted(a, b, p):
        calls.append(a.shape)
        return mulmod(a, b, p)

    monkeypatch.setattr(lower_bound, "mulmod", counted)
    assert bfs_covering(lb_generating_set_explicit(PrimeField(3), 3)).covering_number == 7
    assert calls == [(27, 3)]  # the table: every row vector of F_3^3


def test_bfs_covering_sl3_f5_is_pinned():
    res = bfs_covering(lb_generating_set_explicit(PrimeField(5), 3))
    assert res.covering_number == 7
    assert res.reached_per_depth == [1, 121, 475, 14271, 25932, 286400, 43520, 1280]


# -- the head-position walk against the matrix-product trace it replaced -------


def reference_potential_trace(word, gs, gv, signed=False):
    """The trace that multiplied each step matrix into the head images.

    Returns (d_values, f_sets) as potential_trace did before the walk kept
    only head positions.
    """
    t = gv.t
    n, p = gs.n, gs.field.p
    cols = np.eye(n, t, dtype=np.int64)  # images of e_1..e_t under the prefix
    in_f = [True] * t
    units = (1,) if signed else (1, p - 1)

    def freeze_and_score():
        total = 0
        for i in range(t):
            if not in_f[i]:
                continue
            col = cols[:, i]
            nz = np.nonzero(col)[0]
            if len(nz) == 1 and nz[0] < t and int(col[nz[0]]) in units:
                total += t - int(nz[0])
            else:
                in_f[i] = False
        return total

    d_values = [freeze_and_score()]
    f_sets = [frozenset(i + 1 for i in range(t) if in_f[i])]
    for s in reversed(word.steps):
        mat = gs.step_matrix(s.index, s.inverse) if isinstance(s, GenStep) else gv.embed(s.payload)
        cols = mulmod(mat.array, cols, p)
        d_values.append(freeze_and_score())
        f_sets.append(frozenset(i + 1 for i in range(t) if in_f[i]))
    return tuple(d_values), tuple(f_sets)


def assert_traces_match_reference(words, gs, gv):
    for word in words:
        for signed in (False, True):
            tr = potential_trace(word, gs, gv, signed=signed)
            assert (tr.d_values, tr.f_sets) == reference_potential_trace(word, gs, gv, signed)


@pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (6, 2), (6, 3), (9, 5), (7, 7), (12, 3), (6, 2**31 - 1)])
def test_trace_matches_reference_on_descent_words(n, p):
    gs, gv = lb_generating_set(PrimeField(p), n)
    rng = random.Random(n * p)
    words = [random_word(rng, gs, gv, 16) for _ in range(20)]
    assert_traces_match_reference(words, gs, gv)


@pytest.mark.parametrize("block_prob", [0.0, 1.0])
def test_trace_matches_reference_on_single_kind_words(block_prob):
    for n, p in [(6, 3), (9, 5)]:
        gs, gv = lb_generating_set(PrimeField(p), n)
        rng = random.Random(7)
        if block_prob:
            words = [block_word(rng, gs.field, gv, 12) for _ in range(15)]
        else:
            words = [random_word(rng, gs, None, 12) for _ in range(15)]
        assert_traces_match_reference(words, gs, gv)


def test_trace_freezes_a_head_column_scaled_outside_the_units():
    """A step whose head column is 2*e_k freezes that index in both readings at p = 5."""
    f = PrimeField(5)
    n = 6
    flip = np.eye(n, dtype=np.int64)
    flip[:2, :2] = [[0, 2], [2, 0]]  # e_1 -> 2 e_2, e_2 -> 2 e_1; det = -4 = 1
    scale = np.diag([2, 3, 1, 1, 1, 1])
    mix = np.eye(n, dtype=np.int64)
    mix[3, 0] = 1  # e_1 -> e_1 + e_4 leaves the head
    gens = []
    for label, a in [("f", flip), ("d", scale), ("m", mix), ("s", signed_swap_matrix(f, n, 1).array)]:
        m = GFMatrix(f, a)
        gens += [Generator(label, m), Generator(label + "~", m.inv())]
    gs = GeneratorSet(gens)
    gv = Groumvirate(n, 2, step_cost=1)
    for signed in (False, True):
        for idx in (0, 1, 2, 3):  # flip, its inverse, scale, its inverse
            tr = potential_trace(Word.single(GenStep(idx)), gs, gv, signed=signed)
            assert tr.d_values == (3, 0) and tr.f_sets[-1] == frozenset()
    rng = random.Random(5)
    words = [random_word(rng, gs, gv, 12) for _ in range(30)]
    assert_traces_match_reference(words, gs, gv)


def test_trace_refuses_mismatched_block_subgroups():
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    word = Word((GenStep(0), BlockStep(GFMatrix.identity(f, 5))))
    wide = Groumvirate(7, 2, step_cost=1)
    with pytest.raises(ValueError):
        reference_potential_trace(word, gs, wide)
    with pytest.raises(ShapeError):
        potential_trace(word, gs, wide)


def test_trace_refuses_generator_indices_outside_the_set():
    """A generator index the set does not have raises IndexError, as in evaluate_word."""
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    for idx in (-1, len(gs)):
        word = Word.single(GenStep(idx))
        with pytest.raises(IndexError):
            evaluate_word(word, gs, gv)
        with pytest.raises(IndexError):
            potential_trace(word, gs, gv)
        with pytest.raises(IndexError):
            potential_trace(word, gs, gv, signed=True)


def test_trace_and_evaluation_refuse_a_payload_over_another_field():
    """An F_5 payload in an F_3 word: both raise FieldMismatchError, naming the same step."""
    f3, f5 = PrimeField(3), PrimeField(5)
    gs, gv = lb_generating_set(f3, 6)
    good = BlockStep(GFMatrix.identity(f3, gv.block_dim))
    bad = BlockStep(GFMatrix.identity(f5, gv.block_dim))
    word = Word((GenStep(0), good, bad, good, GenStep(1)))
    with pytest.raises(FieldMismatchError) as evaluated:
        evaluate_word(word, gs, gv)
    for signed in (False, True):
        with pytest.raises(FieldMismatchError) as traced:
            potential_trace(word, gs, gv, signed=signed)
        assert str(traced.value) == str(evaluated.value) == "F_5 payload in a word over F_3"
    fixed = Word((GenStep(0), good, good, good, GenStep(1)))
    evaluate_word(fixed, gs, gv)
    assert len(potential_trace(fixed, gs, gv).d_values) == len(fixed) + 1


def test_trace_checks_every_payload_under_optimize():
    """Block steps move nothing, but their payloads are still checked, under python -O too.

    A det != 1 payload is refused where its `BlockStep` is made.  Each word
    holds two bad payloads; the one applied first (the later one in the word)
    raises, as in the matrix-product trace.
    """
    f = PrimeField(5)
    gs, gv = lb_generating_set(f, 6)
    for d in (3, 2):
        with pytest.raises(ParameterError, match=f"payload determinant {d} != 1"):
            BlockStep(GFMatrix(f, np.diag([d, 1, 1, 1])))
    f7, f11 = (GFMatrix.identity(PrimeField(q), 4) for q in (7, 11))
    wide, narrow = GFMatrix.identity(f, 3), GFMatrix.identity(f, 2)
    words = {
        "field": Word((BlockStep(f7), GenStep(0), BlockStep(f11), GenStep(1))),
        "shape": Word((BlockStep(narrow), GenStep(2), BlockStep(wide))),
    }
    with pytest.raises(ShapeError) as ref:
        reference_potential_trace(words["shape"], gs, gv)
    expected = {"field": "FieldMismatchError: F_11 payload in a word over F_5", "shape": f"ShapeError: {ref.value}"}
    for name, word in words.items():
        with pytest.raises((FieldMismatchError, ShapeError)) as got:
            potential_trace(word, gs, gv)
        assert f"{type(got.value).__name__}: {got.value}" == expected[name]
    assert expected["shape"] == "ShapeError: payload must be 4x4, got (3, 3)"
    code = (
        "from slword import BlockStep, GenStep, GFMatrix, PrimeField, Word, lb_generating_set, potential_trace\n"
        "import numpy as np\n"
        "f = PrimeField(5)\n"
        "gs, gv = lb_generating_set(f, 6)\n"
        "for d in (3, 2):\n"
        "    try:\n"
        "        BlockStep(GFMatrix(f, np.diag([d, 1, 1, 1])))\n"
        "    except Exception as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
        "    else:\n"
        "        print('made')\n"
        "f7, f11 = (GFMatrix.identity(PrimeField(q), 4) for q in (7, 11))\n"
        "wide, narrow = GFMatrix.identity(f, 3), GFMatrix.identity(f, 2)\n"
        "for word in [Word((BlockStep(f7), GenStep(0), BlockStep(f11), GenStep(1))),\n"
        "             Word((BlockStep(narrow), GenStep(2), BlockStep(wide)))]:\n"
        "    try:\n"
        "        potential_trace(word, gs, gv)\n"
        "    except Exception as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
        "    else:\n"
        "        print('returned')\n"
    )
    src = str(Path(slword.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ParameterError: payload determinant 3 != 1",
        "ParameterError: payload determinant 2 != 1",
        expected["field"],
        expected["shape"],
    ]


# -- the shared head-state transition table ----------------------------------


def _flip_scale_mix_set():
    """The set of test_trace_freezes_a_head_column_scaled_outside_the_units, t = 2 at (6, 5)."""
    f = PrimeField(5)
    n = 6
    flip = np.eye(n, dtype=np.int64)
    flip[:2, :2] = [[0, 2], [2, 0]]
    scale = np.diag([2, 3, 1, 1, 1, 1])
    mix = np.eye(n, dtype=np.int64)
    mix[3, 0] = 1
    gens = []
    for label, a in [("f", flip), ("d", scale), ("m", mix), ("s", signed_swap_matrix(f, n, 1).array)]:
        m = GFMatrix(f, a)
        gens += [Generator(label, m), Generator(label + "~", m.inv())]
    return GeneratorSet(gens), Groumvirate(n, 2, step_cost=1)


def test_a_warm_table_masks_no_check():
    """After 50 traced words every bad step still raises, and later traces still match the reference."""
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    rng = random.Random(50)
    warm = [random_word(rng, gs, gv, 30) for _ in range(50)]
    for signed in (False, True):
        for word in warm:
            potential_trace(word, gs, gv, signed=signed)
    with pytest.raises(ParameterError, match="payload determinant 2 != 1"):
        BlockStep(GFMatrix(f, np.diag([2, 1, 1, 1])))  # refused where it is made
    wide = BlockStep(GFMatrix.identity(f, gv.block_dim + 1))
    f7 = BlockStep(GFMatrix.identity(PrimeField(7), gv.block_dim))
    for _ in range(2):  # a bad step stored before its check would pass the second time
        for signed in (False, True):
            for idx in (-1, len(gs)):
                for inverse in (False, True):
                    with pytest.raises(IndexError):
                        potential_trace(Word((GenStep(0), GenStep(idx, inverse), GenStep(1))), gs, gv, signed=signed)
            with pytest.raises(ShapeError, match=re.escape("payload must be 4x4, got (5, 5)")):
                potential_trace(Word((GenStep(0), wide, GenStep(1))), gs, gv, signed=signed)
            with pytest.raises(FieldMismatchError, match="F_7 payload in a word over F_3"):
                potential_trace(Word((GenStep(2), f7, GenStep(3, True))), gs, gv, signed=signed)
    sets = [(gs, gv), lb_generating_set(PrimeField(5), 6), _flip_scale_mix_set()]
    for _ in range(20):  # every set has t = 2, so a table shared across sets would show here
        for other_gs, other_gv in sets:
            assert_traces_match_reference([random_word(rng, other_gs, other_gv, 20)], other_gs, other_gv)


def test_a_dropped_set_takes_its_table_with_it():
    gs, gv = lb_generating_set(PrimeField(3), 6)
    potential_trace(random_word(random.Random(1), gs, gv, 30), gs, gv)
    assert gs in lower_bound._HEAD_TABLES
    ref = weakref.ref(gs)
    del gs, gv
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n, p", [(12, 5), (6, 2**31 - 1)])
def test_long_words_match_reference_mostly_on_table_hits(n, p):
    gs, gv = lb_generating_set(PrimeField(p), n)
    word = random_word(random.Random(n), gs, gv, 2000)
    assert_traces_match_reference([word], gs, gv)
    generator_steps = sum(isinstance(s, GenStep) for s in word)
    for table in lower_bound._HEAD_TABLES[gs].values():
        assert len(table) <= generator_steps // 4  # at most one entry per step, here far fewer
