"""Exactness at the top of the advertised range, p = 2^31 - 1.

Every property compares the library against plain Python-int arithmetic,
which cannot overflow.  At this modulus a single int64 dot product of
length >= 3 can, so these properties catch any residue product that skips
the exact kernel.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slword import (
    GenStep,
    GFMatrix,
    PrimeField,
    ShapeError,
    Subspace,
    lb_generating_set,
    potential_trace,
    random_word,
    sl_map_frame,
)
from slword.ff_linalg import AffineSet, mulmod, solve_block_map, solve_linear
from slword.ff_linalg.matrix import _kernel_rows, _rref_in_place

P = 2**31 - 1
F = PrimeField(P)
EXAMPLES = settings(max_examples=25)
KERNEL_EXAMPLES = settings(max_examples=10)  # per inner dimension

# Residues near p - 1 are the ones whose int64 dot products overflow.
residue = st.integers(0, P - 1) | st.integers(P - 2**16, P - 1)


def matrices(rows, cols):
    return st.lists(st.lists(residue, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def vectors(k):
    return st.lists(residue, min_size=k, max_size=k)


# -- Python-int references ------------------------------------------------------


def ref_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*b)] for row in a]


def ref_apply(a, v):
    return [sum(x * y for x, y in zip(row, v)) % P for row in a]


def ref_rref(rows):
    """Nonzero rows of the reduced row-echelon form, pivots scaled to 1."""
    a = [list(r) for r in rows]
    out_rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(out_rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[out_rank], a[piv] = a[piv], a[out_rank]
        inv = pow(a[out_rank][c], P - 2, P)
        a[out_rank] = [x * inv % P for x in a[out_rank]]
        for i in range(len(a)):
            if i != out_rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % P for x, y in zip(a[i], a[out_rank])]
        out_rank += 1
    return a[:out_rank]


def ref_rank(rows):
    return len(ref_rref(rows))


def ref_det(a):
    a = [list(r) for r in a]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % P
        inv = pow(a[c][c], P - 2, P)
        for i in range(c + 1, n):
            f = a[i][c] * inv % P
            a[i] = [(x - f * y) % P for x, y in zip(a[i], a[c])]
    return det % P


def _arr(data):
    return np.array(data, dtype=np.int64)


# -- the kernel ----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 6, 40])
@KERNEL_EXAMPLES
@given(data=st.data())
def test_mulmod_matrix_matrix(k, data):
    a = data.draw(matrices(2, k))
    b = data.draw(matrices(k, 2))
    assert mulmod(_arr(a), _arr(b), P).tolist() == ref_matmul(a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 40])
@KERNEL_EXAMPLES
@given(data=st.data())
def test_mulmod_one_dimensional(k, data):
    v = data.draw(vectors(k))
    w = data.draw(vectors(k))
    b = data.draw(matrices(k, 2))
    assert mulmod(_arr(v), _arr(b), P).tolist() == ref_matmul([v], b)[0]
    assert mulmod(_arr(b).T, _arr(v), P).tolist() == ref_apply(list(zip(*b)), v)
    assert int(mulmod(_arr(v), _arr(w), P)) == ref_apply([v], w)[0]


@KERNEL_EXAMPLES
@given(matrices(2, 6), st.lists(matrices(6, 3), min_size=3, max_size=3))
def test_mulmod_matrix_stack(a, stack):
    got = mulmod(_arr(a), _arr(stack), P).tolist()
    assert got == [ref_matmul(a, b) for b in stack]


@pytest.mark.parametrize("k", [1, 2, 3, 40, 2**16 - 1])
def test_mulmod_extreme_residues(k):
    a = np.full(k, P - 1, dtype=np.int64)
    assert int(mulmod(a, a, P)) == k * (P - 1) ** 2 % P


def test_mulmod_rejects_inner_dimension_beyond_limbs():
    a = np.zeros(2**16, dtype=np.int64)
    with pytest.raises(ShapeError):
        mulmod(a, a, P)


# -- the elimination kernel ------------------------------------------------------


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (5, 5)])
@KERNEL_EXAMPLES
@given(data=st.data())
def test_rref_kernel(shape, data):
    rows = data.draw(matrices(*shape))
    if data.draw(st.booleans()):  # rank-deficient: a product through inner dimension 2
        rows = ref_matmul(data.draw(matrices(shape[0], 2)), data.draw(matrices(2, shape[1])))
    a = _arr(rows)
    pivots = _rref_in_place(a, P)
    ref = ref_rref(rows)
    assert a[: len(pivots)].tolist() == ref
    assert not a[len(pivots) :].any()
    kernel = _kernel_rows(a, pivots, shape[1], P).tolist()
    assert len(kernel) == shape[1] - len(ref)
    for x in kernel:
        assert ref_apply(rows, x) == [0] * shape[0]


@EXAMPLES
@given(st.integers(3, 5), matrices(5, 6), vectors(6), st.lists(residue, min_size=5, max_size=5), st.booleans())
def test_subspace_contains(dim, rows, v, coeffs, member):
    # dim >= 3 puts the reduction product on mulmod's limb path
    rows = rows[:dim]
    if member:
        v = [sum(c * r[i] for c, r in zip(coeffs, rows)) % P for i in range(6)]
    s = Subspace.span(F, _arr(rows), 6)
    assume(s.dim >= 3)
    assert s.contains(_arr(v)) == (ref_rank(rows + [v]) == ref_rank(rows))


# -- GFMatrix ------------------------------------------------------------------


@EXAMPLES
@given(matrices(4, 6), matrices(6, 5), vectors(6))
def test_matmul_and_apply(a, b, v):
    ma, mb = GFMatrix(F, a), GFMatrix(F, b)
    assert (ma @ mb).array.tolist() == ref_matmul(a, b)
    assert ma.apply(_arr(v)).tolist() == ref_apply(a, v)


@EXAMPLES
@given(matrices(5, 5))
def test_det_and_inv(a):
    m = GFMatrix(F, a)
    d = ref_det(a)
    assert m.det() == d
    assume(d != 0)
    ident = [[int(i == j) for j in range(5)] for i in range(5)]
    assert ref_matmul(a, m.inv().array.tolist()) == ident


# -- subspaces and maps ----------------------------------------------------------


@EXAMPLES
@given(st.integers(1, 4), matrices(4, 6), matrices(6, 6))
def test_image_under(dim, rows, m):
    rows = rows[:dim]
    s = Subspace.span(F, _arr(rows), 6)
    images = [ref_apply(m, r) for r in s.basis_rows.tolist()]
    assert s.image_under(GFMatrix(F, m)).basis_rows.tolist() == ref_rref(images)


@EXAMPLES
@given(st.integers(1, 5), st.integers(1, 5), matrices(5, 6), matrices(5, 6))
def test_intersect(du, dw, u_rows, w_rows):
    u_rows, w_rows = u_rows[:du], w_rows[:dw]
    u, w = Subspace.span(F, _arr(u_rows), 6), Subspace.span(F, _arr(w_rows), 6)
    cap = u.intersect(w)
    ru, rw = ref_rank(u_rows), ref_rank(w_rows)
    assert cap.dim == ru + rw - ref_rank(u_rows + w_rows)
    for row in cap.basis_rows.tolist():
        assert ref_rank(u_rows + [row]) == ru
        assert ref_rank(w_rows + [row]) == rw


@EXAMPLES
@given(matrices(2, 5), vectors(5), matrices(2, 5), st.integers(1, P - 1))
def test_solve_block_map(inputs, z, plane, c):
    m = 5
    assume(ref_rank(inputs) == 2)
    assume(any(z) and ref_rank([z] + plane) == 3)
    u0, u1 = inputs
    dep = [c * x % P for x in u0]  # dependent input: its image is forced by u0's
    targets = [
        AffineSet(F, _arr(z), Subspace.zero(F, m)),
        AffineSet.subspace(Subspace.span(F, _arr(plane), m)),
        AffineSet(F, _arr([c * x % P for x in z]), Subspace.zero(F, m)),
    ]
    x = solve_block_map(F, [_arr(u0), _arr(u1), _arr(dep)], targets, m)
    xa = x.array.tolist()
    assert ref_det(xa) == 1
    assert ref_apply(xa, u0) == z
    assert ref_rank(plane + [ref_apply(xa, u1)]) == 2
    assert ref_apply(xa, dep) == [c * x % P for x in z]


@EXAMPLES
@given(st.integers(1, 4), matrices(4, 5), matrices(4, 5))
def test_sl_map_frame_matches_three_determinant_formula(k, us, ws):
    """X = W' U^-1, with W's last extension column scaled by det U / det W."""
    m = 5
    us, ws = us[:k], ws[:k]
    assume(ref_rank(us) == k and ref_rank(ws) == k)

    def greedy_basis(vs):
        """vs extended by each unit vector, in index order, that raises the rank."""
        out = [list(v) for v in vs]
        for c in range(m):
            e = [int(i == c) for i in range(m)]
            if ref_rank(out + [e]) > ref_rank(out):
                out.append(e)
        return out

    # U and W: the completed bases as columns
    u = list(zip(*greedy_basis(us)))
    w = list(zip(*greedy_basis(ws)))
    delta = ref_det(u) * pow(ref_det(w), -1, P) % P
    patched = [list(row[:-1]) + [row[-1] * delta % P] for row in w]
    u_inv = GFMatrix(F, u).inv().array.tolist()
    assert ref_matmul(u, u_inv) == np.eye(m, dtype=int).tolist()
    x = sl_map_frame(F, _arr(us), _arr(ws), m)
    assert x.array.tolist() == ref_matmul(patched, u_inv)
    assert ref_det(x.array.tolist()) == 1


@EXAMPLES
@given(matrices(4, 3), matrices(3, 3), vectors(4), st.booleans())
def test_solve_linear_matrix_rhs(a, x, extra, low_rank):
    if low_rank:  # a third column dependent on the first two
        a = [row[:2] + [(row[0] + 7 * row[1]) % P] for row in a]
    b = ref_matmul(a, x)
    got = solve_linear(F, _arr(a), _arr(b))
    assert got.shape == (3, 3)
    assert ref_matmul(a, got.tolist()) == b
    for j in range(3):
        assert got[:, j].tolist() == solve_linear(F, _arr(a), _arr([row[j] for row in b])).tolist()
    inconsistent = [row[:1] + [e] + row[1:] for row, e in zip(b, extra)]
    consistent = ref_rank(list(zip(*a)) + [extra]) == ref_rank(list(zip(*a)))
    assert (solve_linear(F, _arr(a), _arr(inconsistent)) is None) == (not consistent)


def ref_potential(word, gs, gv, t):
    """d-values and F sets of the position-reading potential, from Python-int prefix images."""
    n = gs.n
    cols = [[int(r == c) for c in range(t)] for r in range(n)]
    in_f = [True] * t
    steps = [gs.step_matrix(s.index, s.inverse) if isinstance(s, GenStep) else gv.embed(s.payload)
             for s in reversed(word.steps)]
    d, f_sets = [], []
    for step in [None] + steps:
        if step is not None:
            cols = ref_matmul(step.array.tolist(), cols)
        total = 0
        for i in range(t):
            nz = [r for r in range(n) if cols[r][i]]
            single = len(nz) == 1 and cols[nz[0]][i] in (1, P - 1)
            in_f[i] = in_f[i] and single and nz[0] < t
            if in_f[i]:
                total += t - nz[0]
        d.append(total)
        f_sets.append(frozenset(i + 1 for i in range(t) if in_f[i]))
    return d, f_sets


@settings(max_examples=10)
@given(st.integers(0, 2**32))
def test_potential_trace(seed):
    gs, gv = lb_generating_set(F, 6)
    word = random_word(random.Random(seed), gs, gv, 12)
    trace = potential_trace(word, gs, gv)
    assert (list(trace.d_values), list(trace.f_sets)) == ref_potential(word, gs, gv, gv.t)
