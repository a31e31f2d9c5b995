"""Acceptance suite: one test (or parametrized family) per criterion.

Every criterion prints a `[criterion N] PASS ...` line on success so a
`pytest -s` run reads as a checklist.  Criterion 1 is asserted at all 16
grid points as stated; the six points with odd t over odd p are expected to
fail, because the unsigned swap matrix has determinant (-1)^t = p-1 != 1
there and is therefore provably outside SL_n(F_p), hence unreachable by any
word over determinant-one generators.  See README ("Known impossible
acceptance points").
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from slword import (
    PrimeField,
    Subspace,
    WordBuilder,
    bfs_covering,
    bfs_shortest_word,
    bruhat_decompose,
    density_threshold,
    enumerate_sl,
    evaluate_word,
    is_lower_triangular,
    is_monomial,
    lb_generating_set,
    lb_generating_set_explicit,
    lower_bound_certificate,
    potential_trace,
    random_word,
    unsigned_block_swap,
    verify_descent,
    word_cost,
)

from conftest import random_invertible


def report(criterion, message):
    print(f"[criterion {criterion}] PASS {message}")


# -- criterion 1: exact swap synthesis ----------------------------------------

C1_GRID = [(t, p) for t in (1, 2, 3, 4) for p in (2, 3, 5, 7)]


@pytest.mark.parametrize("t,p", C1_GRID, ids=[f"t{t}-p{p}" for t, p in C1_GRID])
def test_c1_swap_exact(t, p):
    n = 3 * t
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    assert gv.t == t
    builder = WordBuilder(gs, gv)
    achieved = evaluate_word(builder.swap_word(), gs, gv)
    target = unsigned_block_swap(f, n, t)
    if achieved != target:
        pytest.fail(
            f"swap_word(t={t}, p={p}) evaluates to the signed normal form, not the "
            f"unsigned block swap: det(target) = (-1)^{t} = {target.det()} != 1 in F_{p}, "
            "so the unsigned matrix lies outside SL_n and cannot be a product of "
            "determinant-one generators. This acceptance point is mathematically "
            "unattainable; the achieved matrix differs only by the sign of the upper "
            "identity block."
        )
    assert (achieved @ achieved).is_identity()
    report(1, f"t={t} p={p}: swap word evaluates entry-exact to the block swap")


# -- criterion 2: quadratic cost scaling --------------------------------------


def test_c2_swap_cost_scaling():
    import json

    from click.testing import CliRunner

    from slword.cli import main as cli_main

    res = CliRunner().invoke(cli_main, ["swap-bench", "--t-max", "10", "--p", "5"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    constant = doc["fit_constant"]
    slope = doc["loglog_slope"]
    costs = [(row["t"], row["cost"]) for row in doc["rows"]]
    assert [t for t, _ in costs] == list(range(1, 11))
    for t, c in costs:
        assert c <= constant * t * t, f"c({t}) = {c} > {constant} * t^2"
    assert 1.0 <= slope <= 2.5, f"log-log slope {slope} outside [1.0, 2.5]"
    # independent recomputation of the sweep through the library surface
    f = PrimeField(5)
    for t, c in costs:
        gs, gv = lb_generating_set(f, 3 * t)
        assert word_cost(WordBuilder(gs, gv).swap_word(), gs, gv) == c
    report(2, f"sweep t=1..10 p=5: reported C = {constant:.2f}, log-log slope = {slope:.3f}")


# -- criterion 3: full construction soundness ----------------------------------

C3_GRID = [(3, 5), (6, 2), (6, 3), (9, 2)]


@pytest.mark.parametrize("n,p", C3_GRID, ids=[f"n{n}-p{p}" for n, p in C3_GRID])
def test_c3_construction_soundness(n, p):
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    builder = WordBuilder(gs, gv)
    rng = random.Random(1000 * n + p)
    worst = 0
    for _ in range(100):
        target = evaluate_word(random_word(rng, gs, gv, 4 * n), gs, gv)
        rep = builder.construct(target)
        assert evaluate_word(rep.word, gs, gv) == target
        assert rep.cost <= 64 * n * n, f"cost {rep.cost} over budget {64 * n * n}"
        assert rep.ok
        worst = max(worst, rep.cost)
    report(3, f"n={n} p={p}: 100/100 random targets rebuilt exactly, worst cost {worst} <= {64*n*n}")


# -- criterion 4: triangular/monomial factorization round-trip ------------------


def test_c4_factorization_exhaustive_small():
    for p in (2, 3):
        f = PrimeField(p)
        for m in enumerate_sl(f, 2):
            triple = bruhat_decompose(m)
            assert triple.recompose() == m
            assert is_lower_triangular(triple.b1) and is_lower_triangular(triple.b2)
            assert is_monomial(triple.w)
    report(4, "exhaustive SL_2(F_2) and SL_2(F_3) round-trips exact")


C4_GRID = [(n, p) for n in (2, 3, 4, 5) for p in (2, 3, 5, 7)]


@pytest.mark.parametrize("n,p", C4_GRID, ids=[f"n{n}-p{p}" for n, p in C4_GRID])
def test_c4_factorization_random(n, p):
    f = PrimeField(p)
    rng = random.Random(97 * n + p)
    for _ in range(1000):
        m = random_invertible(rng, f, n)
        triple = bruhat_decompose(m)
        assert triple.recompose() == m
        assert is_lower_triangular(triple.b1) and is_lower_triangular(triple.b2)
        assert is_monomial(triple.w)
    report(4, f"n={n} p={p}: 1000 random round-trips exact")


# -- criterion 5: descent property ----------------------------------------------

C5_GRID = [(3, 2, 1), (3, 3, 1), (6, 2, 2), (6, 3, 2)]


@pytest.mark.parametrize("n,p,t", C5_GRID, ids=[f"n{n}-p{p}-t{t}" for n, p, t in C5_GRID])
def test_c5_descent(n, p, t):
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    assert gv.t == t
    rng = random.Random(555 + 7 * n + p)
    for k in range(10_000):
        w = random_word(rng, gs, gv, 20)
        trace = potential_trace(w, gs, gv)
        if not verify_descent(trace):
            from slword import word_to_text

            pytest.fail(
                "descent violated by word #%d:\n%s\nd-values: %s"
                % (k, word_to_text(w), trace.d_values)
            )
    report(5, f"n={n} p={p} t={t}: 10^4 random traces all satisfy d_(l+1) >= d_l - 1")


# -- criterion 6: lower-bound certificate consistency ----------------------------


def test_c6_certificate_bfs_words():
    f = PrimeField(2)
    explicit = lb_generating_set_explicit(f, 3)
    _, gv = lb_generating_set(f, 3)
    target = unsigned_block_swap(f, 3, 1)
    word = bfs_shortest_word(explicit, target)
    cert = lower_bound_certificate(word, explicit, gv)
    assert cert.d0 == 1  # t(t+1)/2; the weaker displayed constant is 0
    assert cert.word_length >= cert.d0
    report(
        6,
        f"(3,2): BFS shortest swap word length {cert.word_length} >= d0 = {cert.d0} "
        f"(displayed constant {cert.binom_display})",
    )


@pytest.mark.parametrize("n,p", [(6, 2), (9, 2), (9, 3)])
def test_c6_certificate_builder_words(n, p):
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    builder = WordBuilder(gs, gv)
    word = builder.swap_word()
    cert = lower_bound_certificate(word, gs, gv)
    expected = gv.t * (gv.t + 1) // 2
    assert cert.d0 == expected
    assert cert.word_length >= expected
    report(
        6,
        f"(n={n},p={p}): builder swap word length {cert.word_length} >= d0 = {cert.d0} "
        f"(displayed constant {cert.binom_display})",
    )


# -- criterion 7: exact covering number vs the builder ----------------------------


def test_c7_covering_number_consistency():
    f = PrimeField(2)
    explicit = lb_generating_set_explicit(f, 3)
    res = bfs_covering(explicit)
    assert res.group_order == 168
    assert res.total_reached == 168
    k = res.covering_number
    assert k is not None and k >= 1

    gs, gv = lb_generating_set(f, 3)
    builder = WordBuilder(gs, gv)
    worst = 0
    for target in enumerate_sl(f, 3):
        rep = builder.construct(target)
        assert rep.ok
        worst = max(worst, rep.cost)
    assert k <= worst, f"BFS covering {k} exceeds worst builder cost {worst}"
    report(7, f"SL_3(F_2): exact covering number {k}, worst builder cost {worst}")


# -- criterion 8: moving-machinery unit contracts ---------------------------------

C8_GRID = [(3, 1, 2), (3, 1, 5), (6, 2, 3), (9, 3, 2)]


@pytest.mark.parametrize("n,t,p", C8_GRID, ids=[f"n{n}-t{t}-p{p}" for n, t, p in C8_GRID])
def test_c8_moving_contracts(n, t, p):
    f = PrimeField(p)
    gs, gv = lb_generating_set(f, n)
    assert gv.t == t
    tail = Subspace.tail(f, n, t)
    builder = WordBuilder(gs, gv)

    a = evaluate_word(builder.tail_nonzero_word(), gs, gv)
    for i in range(t):
        assert a.column(i)[t:].any(), f"tail projection of moved e_{i + 1} vanishes"

    frames = builder.head_basis_frames()
    moved = [evaluate_word(fr.a_word, gs, gv).apply(fr.v) for fr in frames]
    heads = np.vstack([mv[:t] for mv in moved])
    assert Subspace.span(f, heads, t).dim == t, "head projections are dependent"

    b = evaluate_word(builder.frames_to_tail_word(frames), gs, gv)
    for mv in moved:
        assert tail.contains(b.apply(mv)), "flattened frame leaves the tail span"

    gsb = WordBuilder(gs, gv)
    mword = gsb.move_word()
    m = evaluate_word(mword, gs, gv)
    for i in range(t):
        assert not m.column(i)[:t].any(), "moving word leaves a head component"
    report(8, f"n={n} t={t} p={p}: all four moving-machinery contracts hold")


# -- criterion 9: density exponent table -------------------------------------------


def test_c9_density_exponents():
    # c_eps at eps = 1/3 is exactly 5/(9d)
    for d in (1, 2, 3, 7, 10, 100):
        got = density_threshold(3, 1, d).c_eps
        assert got == Fraction(5, 9 * d), f"c_eps mismatch at d={d}: {got}"

    grid = [
        (2, 0, 1), (3, 1, 2), (4, 1, 3), (5, 2, 4), (6, 2, 10),
        (7, 3, 5), (8, 2, 7), (9, 3, 6), (10, 4, 9), (12, 4, 11),
    ]
    for n, t, d in grid:
        got = density_threshold(n, t, d)
        # independent arithmetic, exact rationals throughout
        expected_e = Fraction(d - 1, d) * n * n + Fraction((n - t) ** 2, d)
        eps = Fraction(t, n)
        expected_c = (1 - (1 - eps) ** 2) / d
        assert got.exponent == expected_e, (n, t, d)
        assert got.c_eps == expected_c, (n, t, d)
    report(9, "c_eps = 5/(9d) at eps = 1/3 and a 10-point exponent grid match exactly")
