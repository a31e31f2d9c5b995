import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slword
from slword import (
    BlockStep,
    FieldMismatchError,
    GenStep,
    Generator,
    GeneratorSet,
    GFMatrix,
    Groumvirate,
    ParameterError,
    PrimeField,
    ShapeError,
    Word,
    WordBuilder,
    density_threshold,
    evaluate_word,
    generator_set_from_text,
    generator_set_to_text,
    lb_generating_set,
    lb_generating_set_explicit,
    potential_trace,
    random_sl,
    random_word,
    unit_vector,
    word_cost,
    word_from_text,
    word_to_text,
)


@pytest.fixture
def setup():
    f = PrimeField(5)
    gs, gv = lb_generating_set(f, 6)
    return f, gs, gv


def test_generator_validation():
    f = PrimeField(5)
    with pytest.raises(ParameterError):
        Generator("g", GFMatrix.diagonal(f, [2, 1]))  # det 2
    with pytest.raises(ValueError):
        Generator("bad label", GFMatrix.identity(f, 2))


def test_symmetric_flag_verified():
    """`symmetric` is computed as inverse-closure and survives the text round trip."""
    f = PrimeField(5)
    rot = Generator("r", GFMatrix(f, [[0, 1, 0], [4, 0, 0], [0, 0, 1]]))  # order 4
    inv = Generator("r~", rot.matrix.inv())
    assert lb_generating_set(f, 6).gs.symmetric
    assert lb_generating_set_explicit(PrimeField(2), 3).symmetric
    for gens, closed in [([rot], False), ([rot, inv], True)]:
        gs = GeneratorSet(gens)
        assert gs.symmetric is closed
        loaded, _ = generator_set_from_text(generator_set_to_text(gs, Groumvirate(3, 1)))
        assert loaded.symmetric is closed


def test_step_matrix_rejects_indices_outside_the_set(setup):
    f, gs, gv = setup
    for index in (-1, len(gs)):
        for inverse in (False, True):
            with pytest.raises(IndexError):
                gs.step_matrix(index, inverse)


def test_step_table_lists_generators_then_inverses(setup):
    f, gs, gv = setup
    k = len(gs)
    assert gs.options == tuple(GenStep(i, inv) for inv in (False, True) for i in range(k))
    assert gs.steps.shape == (2 * k, gs.n, gs.n)
    for step, o in zip(gs.steps, gs.options):
        assert np.array_equal(step, gs.step_matrix(o.index, o.inverse).array)
    with pytest.raises(ValueError):
        gs.steps[0, 0, 0] = 0


def test_groumvirate_validation():
    with pytest.raises(ParameterError):
        Groumvirate(3, 0)
    with pytest.raises(ParameterError):
        Groumvirate(3, 2)  # block would be 1x1
    gv = Groumvirate(6, 2)
    assert gv.block_dim == 4 and gv.step_cost == 4
    f = PrimeField(3)
    with pytest.raises(ParameterError):
        gv.check_payload(GFMatrix.diagonal(f, [2, 1, 1, 1]))
    with pytest.raises(Exception):
        gv.check_payload(GFMatrix.identity(f, 3))


def test_evaluate_basics(setup):
    f, gs, gv = setup
    assert evaluate_word(Word.empty(), gs, gv).is_identity()
    w = Word((GenStep(0), GenStep(0, True)))
    assert evaluate_word(w, gs, gv).is_identity()


def test_block_step_embedding():
    f = PrimeField(7)
    gs, gv = lb_generating_set(f, 3)
    x = GFMatrix(f, [[0, -1], [1, 0]])
    w = Word.single(gv.check_payload(x))
    m = evaluate_word(w, gs, gv)
    assert np.array_equal(m.apply(unit_vector(3, 0)), unit_vector(3, 0))
    assert m == GFMatrix(f, [[1, 0, 0], [0, 0, 6], [0, 1, 0]])


def test_evaluate_is_morphism(setup):
    f, gs, gv = setup
    rng = random.Random(9)
    for _ in range(25):
        w1 = random_word(rng, gs, gv, rng.randrange(6))
        w2 = random_word(rng, gs, gv, rng.randrange(6))
        lhs = evaluate_word(w1 + w2, gs, gv)
        rhs = evaluate_word(w1, gs, gv) @ evaluate_word(w2, gs, gv)
        assert lhs == rhs
        assert lhs.det() == 1


def test_inverse_matrix_is_the_generator_inverse(setup):
    f, gs, gv = setup
    for i, g in enumerate(gs):
        assert gs.step_matrix(i) is g.matrix
        assert gs.step_matrix(i, True) is g.matrix.inv()
        assert (gs.step_matrix(i) @ gs.step_matrix(i, True)).is_identity()


def test_word_inverse(setup):
    f, gs, gv = setup
    rng = random.Random(11)
    w = random_word(rng, gs, gv, 8)
    assert (evaluate_word(w, gs, gv) @ evaluate_word(w.inverse(), gs, gv)).is_identity()
    assert word_cost(w.inverse(), gs, gv) == word_cost(w, gs, gv)


def test_cost_model(setup):
    f, gs, gv = setup
    assert word_cost(Word.empty(), gs, gv) == 0
    gv4 = Groumvirate(gv.n, gv.t, step_cost=4)
    one_block = Word.single(BlockStep(GFMatrix.identity(f, gv.block_dim)))
    assert word_cost(one_block, gs, gv4) == 4
    w = Word(
        (GenStep(0), GenStep(1), GenStep(0, True))
        + one_block.steps
        + one_block.steps
    )
    assert word_cost(w, gs, gv4) == 3 + 8
    # additivity
    rng = random.Random(5)
    a = random_word(rng, gs, gv, 5)
    b = random_word(rng, gs, gv, 7)
    assert word_cost(a + b, gs, gv) == word_cost(a, gs, gv) + word_cost(b, gs, gv)


def test_groumvirate_step_validation(setup):
    f, gs, gv = setup
    with pytest.raises(ParameterError):
        Word.single(gv.check_payload(GFMatrix.diagonal(f, [2, 1, 1, 1])))


def test_density_threshold_exact():
    assert density_threshold(4, 0, 3).exponent == Fraction(16)
    b = density_threshold(6, 2, 10)
    assert b.exponent == Fraction(34)
    assert b.c_eps == Fraction(5, 9 * 10)
    # eps = 1/3 gives 5/(9d) for any n divisible by 3
    for n, d in [(3, 2), (9, 7), (12, 11)]:
        assert density_threshold(n, n // 3, d).c_eps == Fraction(5, 9 * d)
    with pytest.raises(ParameterError):
        density_threshold(3, 4, 1)
    with pytest.raises(ParameterError):
        density_threshold(3, 1, 0)


def test_generator_set_round_trip(setup):
    f, gs, gv = setup
    text = generator_set_to_text(gs, gv)
    gs2, gv2 = generator_set_from_text(text)
    assert gs2.n == gs.n and gs2.field == gs.field
    assert gv2.t == gv.t and gv2.step_cost == gv.step_cost
    assert len(gs2) == len(gs)
    for a, b in zip(gs, gs2):
        assert a.label == b.label and a.matrix == b.matrix
    assert gs2.symmetric  # closure detected
    assert generator_set_to_text(gs2, gv2) == text


def test_generator_set_text_keeps_block_step_cost():
    """The header stores the block step cost, so a read-back set prices words as before."""
    gs, gv = lb_generating_set(PrimeField(3), 6)
    word = WordBuilder(gs, gv).swap_word()
    text = generator_set_to_text(gs, gv)
    assert text.splitlines()[0] == "3 6 2 4 1"
    gs2, gv2 = generator_set_from_text(text)
    assert word_cost(word, gs, gv) == word_cost(word, gs2, gv2) == 23
    body = text.splitlines()[1:]
    for header in ("3 6 2 4", "3 6 2 4 1 0"):
        with pytest.raises(ValueError, match="header"):
            generator_set_from_text("\n".join([header, *body]) + "\n")
    # each generator is a bare label line and its block; a 'label cost' line is refused
    labels = [g.label for g in gs]
    assert [ln for ln in body if not ln[0].isdigit()] == labels
    assert generator_set_to_text(gs2, gv2) == text
    costed = [f"{ln} 1" if ln in labels else ln for ln in body]
    with pytest.raises(ValueError, match="label"):
        generator_set_from_text("\n".join([text.splitlines()[0], *costed]) + "\n")


def test_word_round_trip(setup):
    f, gs, gv = setup
    rng = random.Random(21)
    w = random_word(rng, gs, gv, 9)
    text = word_to_text(w)
    back = word_from_text(text, gs, gv)
    assert evaluate_word(back, gs, gv) == evaluate_word(w, gs, gv)
    assert word_to_text(back) == text
    assert word_from_text("", gs, gv) == Word.empty()


def test_random_sl_is_special():
    rng = random.Random(2)
    f = PrimeField(7)
    for _ in range(20):
        assert random_sl(rng, f, 3).det() == 1


def test_random_sl_is_uniform():
    # SL_2(F_3) has 24 elements; 2400 uniform draws give each about 100 times
    rng = random.Random(3)
    f = PrimeField(3)
    counts = {}
    for _ in range(2400):
        key = random_sl(rng, f, 2).key()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    assert all(50 <= c <= 150 for c in counts.values()), sorted(counts.values())


def test_evaluate_word_index_errors(setup):
    f, gs, gv = setup
    m = gv.block_dim
    with pytest.raises(IndexError):
        evaluate_word(Word.single(GenStep(99)), gs, gv)
    block = Word.single(BlockStep(GFMatrix.identity(f, m)))
    with pytest.raises(ParameterError):
        evaluate_word(block, gs, None)  # block step with no block subgroup
    with pytest.raises(ParameterError):
        word_cost(block, gs, None)
    # a det-2 payload is refused where its step is made
    with pytest.raises(ParameterError, match="payload determinant 2 != 1"):
        BlockStep(GFMatrix.diagonal(f, [2] + [1] * (m - 1)))
    # a det-1 payload of the wrong size, a 2x2 and an m x m payload over F_7:
    # word_cost refuses each as evaluate_word does
    errors = []
    for payload in (GFMatrix.identity(f, m + 1), GFMatrix.identity(PrimeField(7), 2), GFMatrix.identity(PrimeField(7), m)):
        word = Word((GenStep(0), BlockStep(payload)))
        with pytest.raises(ValueError) as evaluated:
            evaluate_word(word, gs, gv)
        with pytest.raises(ValueError) as costed:
            word_cost(word, gs, gv)
        assert (type(costed.value), str(costed.value)) == (type(evaluated.value), str(evaluated.value))
        errors.append(f"{type(evaluated.value).__name__}: {evaluated.value}")
    assert errors == [
        "ShapeError: payload must be 4x4, got (5, 5)",
        "ShapeError: payload must be 4x4, got (2, 2)",
        "FieldMismatchError: F_7 payload in a word over F_5",
    ]


def test_word_cost_refuses_indices_outside_the_set():
    """-1 would be counted as a step of the last generator; word_cost raises as evaluate_word does."""
    gs, gv = lb_generating_set(PrimeField(3), 6)
    for idx in (-1, len(gs)):
        word = Word.single(GenStep(idx))
        with pytest.raises(IndexError):
            evaluate_word(word, gs, gv)
        with pytest.raises(IndexError):
            word_cost(word, gs, gv)


# -- the stacked product tree against the step-by-step loop it replaced ---------


def reference_evaluate_word(word, gs, gv):
    acc = GFMatrix.identity(gs.field, gs.n)
    for s in word:
        acc = acc @ (gs.step_matrix(s.index, s.inverse) if isinstance(s, GenStep) else gv.embed(s.payload))
    return acc


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
@pytest.mark.parametrize("n", [3, 6, 12])
def test_evaluate_word_matches_reference_loop(p, n):
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    rng = random.Random(p * n)
    for length in (0, 1, 63, 64, 65, 128, 129):
        w = random_word(rng, gs, gv, length)
        if length >= 63:  # generator, inverse and block steps all occur
            kinds = {(type(s), getattr(s, "inverse", None)) for s in w}
            assert kinds == {(GenStep, False), (GenStep, True), (BlockStep, None)}
        assert evaluate_word(w, gs, gv) == reference_evaluate_word(w, gs, gv)


def test_evaluate_word_does_not_multiply_per_step(monkeypatch, setup):
    f, gs, gv = setup
    w = random_word(random.Random(4), gs, gv, 200)

    def refuse(self, other):
        raise AssertionError("evaluate_word multiplied two GFMatrix values")

    monkeypatch.setattr(GFMatrix, "__matmul__", refuse)
    got = evaluate_word(w, gs, gv)
    monkeypatch.undo()
    assert got == reference_evaluate_word(w, gs, gv)


def test_evaluate_word_checks_steps_in_later_chunks_in_order(setup):
    f, gs, gv = setup
    m = gv.block_dim
    good = random_word(random.Random(6), gs, gv, 150).steps
    bad = {
        IndexError: GenStep(99),
        ShapeError: BlockStep(GFMatrix.identity(f, m + 1)),
        FieldMismatchError: BlockStep(GFMatrix.identity(PrimeField(7), m)),
    }
    for error, step in bad.items():
        with pytest.raises(error):
            evaluate_word(Word(good[:100] + (step,) + good[100:]), gs, gv)
    # the earlier bad step decides the error, in the same chunk or the next
    for first, second in [
        (IndexError, FieldMismatchError),
        (FieldMismatchError, IndexError),
        (ShapeError, FieldMismatchError),
        (FieldMismatchError, ShapeError),
    ]:
        for later in (90, 130):
            w = Word(good[:70] + (bad[first],) + good[70:later] + (bad[second],) + good[later:])
            with pytest.raises(first):
                evaluate_word(w, gs, gv)


_BAD_STEPS_UNDER_O = """
import random
from slword import BlockStep, GFMatrix, GenStep, PrimeField, Word, evaluate_word, lb_generating_set, random_word
f = PrimeField(5)
gs, gv = lb_generating_set(f, 6)
good = random_word(random.Random(6), gs, gv, 150).steps
m = gv.block_dim
try:
    BlockStep(GFMatrix.diagonal(f, [2] + [1] * (m - 1)))
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
else:
    print("made")
for step in [GenStep(99), BlockStep(GFMatrix.identity(f, m + 1)), BlockStep(GFMatrix.identity(PrimeField(7), m))]:
    try:
        evaluate_word(Word(good[:100] + (step,) + good[100:]), gs, gv)
    except Exception as exc:
        print(type(exc).__name__)
    else:
        print("returned")
"""


def test_evaluate_word_checks_steps_under_python_O():
    src = str(Path(slword.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_STEPS_UNDER_O], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ParameterError: payload determinant 2 != 1",
        "IndexError",
        "ShapeError",
        "FieldMismatchError",
    ]


def test_a_word_is_checked_once_where_its_steps_are_made(monkeypatch):
    """Uses of a word take no determinant: `BlockStep` checked each payload when it was made.

    With `GFMatrix.det` refused, evaluate_word, word_cost and potential_trace
    (both readings) return what they returned before, on a random word, a
    construct word and a swap word, each holding block steps.  With the
    determinant kernel refused, a word's inverse still has its payloads'
    determinants, carried over by `GFMatrix.inv`.
    """
    f3, f5 = PrimeField(3), PrimeField(5)
    gs6, gv6 = lb_generating_set(f3, 6)
    gs12, gv12 = lb_generating_set(f5, 12)
    construct = WordBuilder(gs12, gv12).construct(random_sl(random.Random(12), f5, 12))
    assert construct.ok
    cases = [
        (random_word(random.Random(6), gs6, gv6, 60), gs6, gv6),
        (construct.word, gs12, gv12),
        (WordBuilder(gs6, gv6).swap_word(), gs6, gv6),
    ]
    assert all(any(isinstance(s, BlockStep) for s in w) for w, _, _ in cases)

    def uses():
        return [
            (evaluate_word(w, gs, gv), word_cost(w, gs, gv), potential_trace(w, gs, gv),
             potential_trace(w, gs, gv, signed=True))
            for w, gs, gv in cases
        ]

    def refuse(self):
        raise AssertionError("a determinant was taken")

    before = uses()
    monkeypatch.setattr(GFMatrix, "det", refuse)
    assert uses() == before
    monkeypatch.undo()
    monkeypatch.setattr(GFMatrix, "_compute_det", refuse)
    for (w, gs, gv), (mat, *_) in zip(cases, before):
        inverse = w.inverse()
        assert all(s.payload.det() == 1 for s in inverse if isinstance(s, BlockStep))
        assert evaluate_word(inverse, gs, gv) == mat.inv()


def test_word_text_rejects_bad_payload(setup):
    f, gs, gv = setup
    m = gv.block_dim
    bad = "V\n" + "\n".join(" ".join("2" if i == j == 0 else ("1" if i == j else "0") for j in range(m)) for i in range(m)) + "\n"
    with pytest.raises(ParameterError):
        word_from_text(bad, gs, gv)  # payload determinant 2
    with pytest.raises(ValueError):
        word_from_text("G 99 0\n", gs, gv)
    with pytest.raises(ValueError):
        word_from_text("Q 1 2\n", gs, gv)


@pytest.mark.parametrize("line", ["G 1", "G 0 5", "G 0 1 7", "G 0 -1", "G", "V junk 7"])
def test_word_text_rejects_malformed_generator_line(setup, line):
    f, gs, gv = setup
    # a `V` line is followed by a valid payload, so only its head line is at fault
    payload = "".join(" ".join(map(str, row)) + "\n" for row in np.eye(gv.block_dim, dtype=int))
    with pytest.raises(ValueError):
        word_from_text(line + "\n" + (payload if line.startswith("V") else ""), gs, gv)


def test_generator_set_text_rejects_truncation(setup):
    f, gs, gv = setup
    lines = generator_set_to_text(gs, gv).splitlines()
    for k in range(1, len(lines)):
        with pytest.raises(ValueError):
            generator_set_from_text("\n".join(lines[:k]) + "\n")


def test_loader_detects_asymmetric_set():
    f = PrimeField(5)
    s = GFMatrix(f, [[0, 1, 0], [4, 0, 0], [0, 0, 1]])  # order 4, inverse absent
    gs = GeneratorSet([Generator("r", s)])
    text = generator_set_to_text(gs, Groumvirate(3, 1))
    loaded, _ = generator_set_from_text(text)
    assert not loaded.symmetric


def test_text_formats_reject_entries_outside_the_residue_range():
    """All three text formats read rows of residues in [0, p) and reduce nothing."""
    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    m = gv.block_dim
    with pytest.raises(ValueError, match="out of range"):
        GFMatrix.from_text("3 2 2\n1 7\n0 1\n")
    gen_text = generator_set_to_text(gs, gv).splitlines()
    row = gen_text[2].split()
    for bad in (str(int(row[0]) + 6), "-1"):
        lines = gen_text[:2] + [" ".join([bad] + row[1:])] + gen_text[3:]
        with pytest.raises(ValueError, match="out of range"):
            generator_set_from_text("\n".join(lines) + "\n")
    lines = gen_text[:2] + [gen_text[2] + " 0"] + gen_text[3:]
    with pytest.raises(ValueError, match="row width"):
        generator_set_from_text("\n".join(lines) + "\n")
    ident = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
    ident[0][0] = "4"  # 4 = 1 mod 3: reduced, this block would be the identity
    with pytest.raises(ValueError, match="out of range"):
        word_from_text("V\n" + "\n".join(map(" ".join, ident)) + "\n", gs, gv)
    with pytest.raises(ValueError, match="row width"):
        word_from_text("V\n" + "\n".join(["1 0 0"] + [" ".join(r) for r in ident[1:]]) + "\n", gs, gv)
