import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slword
from slword import (
    GFMatrix,
    GeneratorSet,
    Generator,
    GenStep,
    Groumvirate,
    ParameterError,
    PotentialTrace,
    PrimeField,
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
    random_word,
    signed_swap_matrix,
    sl_order,
    unsigned_block_swap,
    verify_descent,
)
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
    for g in gs5:
        assert g.cost == 1
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


def test_block_steps_leave_potential_unchanged(rng):
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    for _ in range(50):
        w = random_word(rng, gs, gv, 12, block_prob=1.0)
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
    gs = GeneratorSet(gens, symmetric=True)
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
    gs = GeneratorSet(block_generators(f, gv), symmetric=True)
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
        target = evaluate_word(random_word(rng, gs, None, 6, block_prob=0.0), gs, None)
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
    return GeneratorSet([Generator(f"g{i}", m) for i, m in enumerate(enumerate_sl(f, 2))], symmetric=True)


@pytest.mark.parametrize(
    "make",
    [
        lambda: lb_generating_set_explicit(PrimeField(2), 3),
        lambda: lb_generating_set_explicit(PrimeField(3), 3),
        lambda: lb_generating_set_explicit(PrimeField(2), 4),
        _full_sl2_f3,
        lambda: GeneratorSet(block_generators(PrimeField(2), Groumvirate(3, 1, step_cost=1)), symmetric=True),
    ],
    ids=["n3-p2", "n3-p3", "n4-p2", "full-sl2-p3", "block-only-n3-p2"],
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


# -- typed checks ---------------------------------------------------------------


def test_trace_head_larger_than_block_t_is_refused_under_optimize():
    """A trace head beyond the block subgroup's t is refused even under python -O.

    The block step below moves e_2, which a t = 2 trace scores; before the
    up-front check only an `assert` caught it, and -O strips asserts.
    """
    code = (
        "from slword import BlockStep, GFMatrix, PrimeField, Word, lb_generating_set, potential_trace\n"
        "f = PrimeField(3)\n"
        "gs, gv = lb_generating_set(f, 3)\n"
        "word = Word.single(BlockStep(GFMatrix(f, [[0, 1], [2, 0]])))\n"
        "try:\n"
        "    potential_trace(word, gs, gv, t=2)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
        "else:\n"
        "    print('returned')\n"
    )
    src = str(Path(slword.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ParameterError"
