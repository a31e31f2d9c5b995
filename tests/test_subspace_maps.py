import itertools
import random

import numpy as np
import pytest

from slword import (
    GFMatrix,
    InvariantError,
    PrimeField,
    ShapeError,
    Subspace,
    sl_map_frame,
    unit_vector,
    vec,
)
from slword.ff_linalg import AffineSet, mulmod, pick_in_coset_avoiding, solve_block_map, solve_linear
from slword.ff_linalg import maps
from slword.ff_linalg.maps import _CANDIDATE_DRAWS, _greedy_extension, _independent_core
from slword.ff_linalg.matrix import _kernel_rows, _rref_in_place

from conftest import random_invertible, random_matrix


def _all_vectors(p, n):
    for combo in itertools.product(range(p), repeat=n):
        yield np.array(combo, dtype=np.int64)


def _random_subspace(rng, field, n, dim):
    while True:
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(dim)]
        s = Subspace.span(field, np.array(rows, dtype=np.int64), n)
        if s.dim == dim:
            return s


def test_span_examples():
    f3 = PrimeField(3)
    s = Subspace.span(f3, [unit_vector(3, 0), unit_vector(3, 1)], 3)
    assert s.dim == 2 and s.pivot_cols == (0, 1)

    f5 = PrimeField(5)
    v = vec(f5, [1, 2, 3])
    assert Subspace.span(f5, [v, (2 * v) % 5], 3).dim == 1

    f2 = PrimeField(2)
    vs = [vec(f2, [1, 1, 0]), vec(f2, [0, 1, 1]), vec(f2, [1, 0, 1])]
    assert Subspace.span(f2, vs, 3).dim == 2  # the three sum to zero mod 2


def test_coordinate_span_is_the_span_of_its_unit_vectors(rng):
    f = PrimeField(5)
    for n in (1, 4, 7):
        for _ in range(5):
            coords = rng.sample(range(n), rng.randrange(n + 1))  # any order
            s = Subspace.coordinate_span(f, n, coords)
            assert s == Subspace.span(f, [unit_vector(n, c) for c in coords], n)
            assert s.pivot_cols == tuple(sorted(coords))
    assert Subspace.full(f, 4) == Subspace.span(f, np.eye(4, dtype=np.int64), 4)
    assert Subspace.tail(f, 5, 2).pivot_cols == (2, 3, 4)


def test_coordinate_span_rejects_coordinates_outside_the_ambient_space():
    f = PrimeField(5)
    for coords in ([-1], [3], [0, 3], [2, -1]):
        with pytest.raises(ShapeError):
            Subspace.coordinate_span(f, 3, coords)


def test_coordinate_span_collapses_duplicates():
    f = PrimeField(5)
    s = Subspace.coordinate_span(f, 3, [2, 0, 2, 0])
    assert s.dim == 2 and s == Subspace.coordinate_span(f, 3, [0, 2])


def test_reduce_takes_a_vector_or_a_stack(rng):
    f = PrimeField(7)
    for dim in range(5):
        s = _random_subspace(rng, f, 4, dim)
        stack = random_matrix(rng, f, 6, 4).array
        reduced = s.reduce(stack)
        assert reduced.shape == (6, 4)
        for row, res in zip(stack, reduced):
            assert np.array_equal(res, s.reduce(row))
            assert s.contains(row) == (not res.any())
            assert s.contains((row - res) % 7)
    # a vector or stack of the wrong length is refused, not broadcast
    line = Subspace.span(f, [unit_vector(3, 0)], 3)
    for bad in (np.array([1]), np.zeros(5, dtype=np.int64), np.zeros((2, 2), dtype=np.int64), np.zeros((1, 1, 3))):
        with pytest.raises(ShapeError):
            line.contains(bad)


def test_span_canonical_equality(rng):
    f = PrimeField(5)
    s = _random_subspace(rng, f, 4, 2)
    # a different spanning set of the same space reduces to the same basis
    mixed = [(s.basis_rows[0] + 2 * s.basis_rows[1]) % 5, (3 * s.basis_rows[1]) % 5]
    assert Subspace.span(f, mixed, 4) == s


def test_intersect_trivial_cases():
    f = PrimeField(7)
    s = Subspace.span(f, [vec(f, [1, 2, 3])], 3)
    assert s.intersect(s) == s
    e1 = Subspace.span(f, [unit_vector(2, 0)], 2)
    e2 = Subspace.span(f, [unit_vector(2, 1)], 2)
    assert e1.intersect(e2).dim == 0


def test_intersect_brute_force_equivalence(rng):
    f = PrimeField(2)
    for _ in range(5):
        u = _random_subspace(rng, f, 6, 4)
        v = _random_subspace(rng, f, 6, 4)
        w = u.intersect(v)
        assert w.dim >= 2  # 4 + 4 - 6
        for x in _all_vectors(2, 6):
            assert w.contains(x) == (u.contains(x) and v.contains(x))
    f3 = PrimeField(3)
    u = _random_subspace(rng, f3, 4, 2)
    v = _random_subspace(rng, f3, 4, 3)
    w = u.intersect(v)
    for x in _all_vectors(3, 4):
        assert w.contains(x) == (u.contains(x) and v.contains(x))


def test_dimension_formula(rng):
    f = PrimeField(3)
    for _ in range(10):
        u = _random_subspace(rng, f, 5, rng.randrange(1, 4))
        v = _random_subspace(rng, f, 5, rng.randrange(1, 4))
        assert u.intersect(v).dim + u.sum(v).dim == u.dim + v.dim


def test_perp_involution(rng):
    f = PrimeField(5)
    u = _random_subspace(rng, f, 5, 2)
    assert u.perp().dim == 3
    assert u.perp().perp() == u


def test_sl_map_vector_examples():
    f7 = PrimeField(7)
    x = sl_map_frame(f7, [unit_vector(2, 0)], [unit_vector(2, 0)], 2)
    assert np.array_equal(x.apply(unit_vector(2, 0)), unit_vector(2, 0))
    assert x.det() == 1

    x = sl_map_frame(f7, [unit_vector(2, 0)], [unit_vector(2, 1)], 2)
    assert x == GFMatrix(f7, [[0, -1], [1, 0]])

    x = sl_map_frame(f7, [unit_vector(2, 0)], [vec(f7, [3, 0])], 2)
    assert x == GFMatrix.diagonal(f7, [3, 5])  # 3 * 5 = 15 = 1 mod 7


def test_sl_map_vector_errors():
    f = PrimeField(5)
    with pytest.raises(ValueError):
        sl_map_frame(f, [vec(f, [0, 0])], [unit_vector(2, 0)], 2)
    with pytest.raises(ValueError):
        sl_map_frame(f, [vec(f, [1])], [vec(f, [2])], 1)
    assert sl_map_frame(f, [vec(f, [2])], [vec(f, [2])], 1).is_identity()


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (5, 2), (5, 3), (7, 4)])
def test_sl_map_vector_contract_random(p, m, rng):
    f = PrimeField(p)
    done = 0
    while done < 1000:
        u = vec(f, [rng.randrange(p) for _ in range(m)])
        w = vec(f, [rng.randrange(p) for _ in range(m)])
        if not u.any() or not w.any():
            continue
        x = sl_map_frame(f, [u], [w], m)
        assert x.det() == 1
        assert np.array_equal(x.apply(u), w)
        done += 1


def test_sl_map_frame_contract(rng):
    f = PrimeField(5)
    us = [unit_vector(4, 0), unit_vector(4, 1)]
    x = sl_map_frame(f, us, us, 4)
    assert x.det() == 1
    for u in us:
        assert np.array_equal(x.apply(u), u)

    x = sl_map_frame(f, [unit_vector(3, 0)], [unit_vector(3, 1)], 3)
    assert x.det() == 1
    assert np.array_equal(x.apply(unit_vector(3, 0)), unit_vector(3, 1))

    for p, m in [(2, 3), (3, 4), (5, 4)]:
        f = PrimeField(p)
        for _ in range(1000):
            us, ws = [], []
            while Subspace.span(f, us, m).dim != 2 if us else True:
                us = [vec(f, [rng.randrange(p) for _ in range(m)]) for _ in range(2)]
            while Subspace.span(f, ws, m).dim != 2 if ws else True:
                ws = [vec(f, [rng.randrange(p) for _ in range(m)]) for _ in range(2)]
            x = sl_map_frame(f, us, ws, m)
            assert x.det() == 1
            for u, w in zip(us, ws):
                assert np.array_equal(x.apply(u), w)


def test_sl_map_frame_errors():
    f = PrimeField(3)
    dep = [vec(f, [1, 0, 0]), vec(f, [2, 0, 0])]
    with pytest.raises(ValueError):
        sl_map_frame(f, dep, [unit_vector(3, 0), unit_vector(3, 1)], 3)
    too_many = [unit_vector(2, 0), unit_vector(2, 1), vec(f, [1, 1])]
    with pytest.raises(ValueError):
        sl_map_frame(f, too_many, too_many, 2)


def test_sl_map_frame_full_frames(rng):
    """k = m: the map is fixed, and it is returned only when its determinant is 1."""
    f = PrimeField(5)
    m = 4
    for _ in range(50):
        u = random_invertible(rng, f, m)
        x_want = random_invertible(rng, f, m)
        us = [u.column(j) for j in range(m)]
        ws = [x_want.apply(v) for v in us]
        if x_want.det() == 1:
            assert sl_map_frame(f, us, ws, m) == x_want
        else:
            with pytest.raises(ValueError):
                sl_map_frame(f, us, ws, m)
    # the swap center's shape: (us, ws) -> (ws, -us) on 2t vectors has det 1
    t = 2
    frame = [random_invertible(rng, f, 2 * t).column(j) for j in range(2 * t)]
    us, ws = frame[:t], frame[t:]
    x = sl_map_frame(f, us + ws, ws + [(-v) % f.p for v in us], 2 * t)
    assert x.det() == 1
    for v, w in zip(us + ws, ws + [(-v) % f.p for v in us]):
        assert np.array_equal(x.apply(v), w)


def test_solve_linear(rng):
    f = PrimeField(7)
    a = random_invertible(rng, f, 3)
    x = vec(f, [2, 4, 6])
    b = a.apply(x)
    got = solve_linear(f, a.array.copy(), b)
    assert np.array_equal(got, x)
    # inconsistent system
    cols = np.array([[1], [0]], dtype=np.int64)
    assert solve_linear(f, cols, vec(f, [0, 1])) is None


def test_solve_linear_matrix_rhs_matches_column_solves(rng):
    f = PrimeField(5)
    for rows, k, rank in [(4, 3, 3), (5, 4, 2), (3, 3, 3)]:
        a = mulmod(random_matrix(rng, f, rows, rank).array, random_matrix(rng, f, rank, k).array, f.p)
        b = mulmod(a, random_matrix(rng, f, k, 3).array, f.p)
        got = solve_linear(f, a, b)
        assert got.shape == (k, 3)
        for j in range(3):
            assert np.array_equal(got[:, j], solve_linear(f, a, b[:, j]))
        assert np.array_equal(mulmod(a, got, f.p), b)
    cols = np.array([[1], [0]], dtype=np.int64)
    assert solve_linear(f, cols, np.array([[1, 0], [0, 1]], dtype=np.int64)) is None  # second column
    assert solve_linear(f, cols, np.array([[0, 1], [1, 0]], dtype=np.int64)) is None  # first column
    # no equations: every right-hand side is solved by zero
    none = np.zeros((0, 3), dtype=np.int64)
    assert np.array_equal(solve_linear(f, none, np.zeros(0, dtype=np.int64)), np.zeros(3))
    assert np.array_equal(solve_linear(f, none, np.zeros((0, 2), dtype=np.int64)), np.zeros((3, 2)))


def test_solve_block_map_mixed_targets(rng):
    f = PrimeField(3)
    m = 4
    point = AffineSet(f, vec(f, [0, 1, 0, 0]), Subspace.zero(f, m))
    line = AffineSet(f, vec(f, [0, 0, 1, 0]), Subspace.span(f, [unit_vector(m, 3)], m))
    x = solve_block_map(f, [unit_vector(m, 0), unit_vector(m, 1)], [point, line], m)
    assert x.det() == 1
    assert point.contains(x.apply(unit_vector(m, 0)))
    assert line.contains(x.apply(unit_vector(m, 1)))
    # dependent input: image forced by linearity must satisfy its own target
    u0, u1 = unit_vector(m, 0), unit_vector(m, 1)
    dep = (u0 + u1) % 3
    wide = AffineSet.subspace(Subspace.full(f, m))
    x = solve_block_map(f, [u0, u1, dep], [point, line, wide], m)
    assert np.array_equal(x.apply(dep), (x.apply(u0) + x.apply(u1)) % 3)


def test_solve_block_map_inconsistent():
    f = PrimeField(3)
    m = 4
    u = unit_vector(m, 0)
    p1 = AffineSet(f, unit_vector(m, 1), Subspace.zero(f, m))
    p2 = AffineSet(f, unit_vector(m, 2), Subspace.zero(f, m))
    with pytest.raises(ValueError):
        solve_block_map(f, [u, u], [p1, p2], m)


def test_solve_block_map_raises_when_a_solved_map_misses_its_target(monkeypatch):
    """A map that misses a target is a bug in the frame map, not a search miss to retry."""
    f = PrimeField(3)
    m = 4
    point = AffineSet(f, unit_vector(m, 1), Subspace.zero(f, m))
    monkeypatch.setattr(maps, "sl_map_frame", lambda field, us, ws, m: GFMatrix.identity(field, m))
    with pytest.raises(InvariantError):
        solve_block_map(f, [unit_vector(m, 0)], [point], m)


def test_solve_block_map_matches_brute_force(rng):
    """Dual route: solver verdicts agree with exhaustive SL_m enumeration."""
    from slword import enumerate_sl

    for p, m in [(2, 3), (3, 2)]:
        f = PrimeField(p)
        all_sl = enumerate_sl(f, m)
        for _ in range(60):
            k = rng.randrange(1, m)  # keep determinant freedom, like the callers
            inputs = []
            while len(inputs) < k:
                v = vec(f, [rng.randrange(p) for _ in range(m)])
                if v.any():
                    inputs.append(v)
            targets = []
            for _ in range(k):
                off = vec(f, [rng.randrange(p) for _ in range(m)])
                dirs = Subspace.span(f, [vec(f, [rng.randrange(p) for _ in range(m)])], m)
                targets.append(AffineSet(f, off, dirs))
            feasible = any(
                all(t.contains(x.apply(v)) for v, t in zip(inputs, targets)) for x in all_sl
            )
            try:
                x = solve_block_map(f, inputs, targets, m)
            except ValueError:
                assert not feasible  # never a false negative
            else:
                assert all(t.contains(x.apply(v)) for v, t in zip(inputs, targets))
                assert feasible


def test_pick_in_coset_avoiding_walks_one_seeded_stream():
    """The offset first, then a fixed budget of seeded points of the coset."""
    f = PrimeField(5)
    coset = AffineSet(f, vec(f, [1, 0, 2]), Subspace.span(f, [vec(f, [0, 1, 3])], 3))
    seen = []

    def reject(v):
        seen.append(v.copy())
        return False

    assert pick_in_coset_avoiding(f, coset, reject) is None
    assert len(seen) == 1 + _CANDIDATE_DRAWS
    assert np.array_equal(seen[0], coset.offset)
    assert all(coset.contains(v) for v in seen)
    # the same stream on every call: the first non-offset point is picked again
    moved = next(v for v in seen if not np.array_equal(v, coset.offset))
    got = pick_in_coset_avoiding(f, coset, lambda v: not np.array_equal(v, coset.offset))
    assert np.array_equal(got, moved)


# -- the elimination kernel ----------------------------------------------------

KERNEL_PRIMES = [2, 5, 2**31 - 1]


def _ref_rref(rows, p):
    """Reduced row-echelon form with Python ints: (all rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _ref_rank(rows, p):
    return len(_ref_rref(rows, p)[1]) if rows else 0


def _kernel_inputs(rng, p):
    """Wide, tall, rank-deficient, sparse near-identity and zero matrices."""

    def rand(r, c):
        return [[rng.randrange(p) for _ in range(c)] for _ in range(r)]

    left, right = rand(6, 2), rand(2, 5)
    low_rank = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
    near_identity = [[int(i == j) for j in range(6)] for i in range(6)]
    near_identity[4][1] = rng.randrange(1, p)
    near_identity[0][5] = rng.randrange(1, p)
    near_identity[2], near_identity[3] = near_identity[3], near_identity[2]
    near_identity[5] = [0] * 6  # one dependent row
    return {
        "wide": rand(3, 7),
        "tall": rand(7, 3),
        "rank-deficient": low_rank,
        "near-identity": near_identity,
        "zero": [[0] * 4 for _ in range(3)],
    }


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rref_kernel_matches_reference(p):
    rng = random.Random(p)
    for _ in range(5):
        for name, rows in _kernel_inputs(rng, p).items():
            a = np.array(rows, dtype=np.int64)
            pivots = _rref_in_place(a, p)
            ref, ref_pivots = _ref_rref(rows, p)
            assert pivots == ref_pivots, name
            assert a.tolist() == ref, name


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_rows_span_the_null_space(p):
    rng = random.Random(p + 1)
    for _ in range(5):
        for name, rows in _kernel_inputs(rng, p).items():
            a = np.array(rows, dtype=np.int64)
            cols = a.shape[1]
            pivots = _rref_in_place(a, p)
            kernel = _kernel_rows(a, pivots, cols, p)
            assert kernel.shape == (cols - len(pivots), cols), name
            for x in kernel.tolist():
                assert all(sum(r * v for r, v in zip(row, x)) % p == 0 for row in rows), name
            assert _ref_rank(kernel.tolist(), p) == cols - len(pivots), name


def _greedy_completion(vs, m, p):
    """vs extended to a basis of F_p^m by each unit vector, in index order, that raises the rank."""
    out = [list(map(int, v)) for v in vs]
    for c in range(m):
        row = [int(i == c) for i in range(m)]
        if _ref_rank(out + [row], p) > _ref_rank(out, p):
            out.append(row)
    return out


def _ref_det(rows, p):
    """Determinant by forward elimination over Python ints."""
    a = [list(r) for r in rows]
    det = 1
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, len(a)):
            k = a[i][c] * inv % p
            a[i] = [(x - k * y) % p for x, y in zip(a[i], a[c])]
    return det % p


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_sl_map_frame_matches_three_determinant_formula_small(p):
    """X U = W', with U, W the greedy completions as columns and W's last column scaled by det U / det W."""
    rng = random.Random(p + 2)
    f = PrimeField(p)
    m = 5
    for _ in range(30):
        k = rng.randrange(1, m)
        us = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
        ws = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
        if _ref_rank(us, p) < k or _ref_rank(ws, p) < k:
            continue
        u_rows, w_rows = _greedy_completion(us, m, p), _greedy_completion(ws, m, p)
        delta = _ref_det(u_rows, p) * pow(_ref_det(w_rows, p), -1, p) % p
        w_rows[-1] = [x * delta % p for x in w_rows[-1]]
        x = sl_map_frame(f, [np.array(v) for v in us], [np.array(w) for w in ws], m).array.tolist()
        # X u_j = w'_j for every basis vector, which is X U = W' column by column
        for u, w in zip(u_rows, w_rows):
            assert [sum(a * b for a, b in zip(row, u)) % p for row in x] == w
        assert _ref_det(x, p) == 1


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_independent_core_rebuilds_every_input(p):
    rng = random.Random(p + 3)
    f = PrimeField(p)
    m = 5
    for _ in range(20):
        base = [[rng.randrange(p) for _ in range(m)] for _ in range(rng.randrange(1, 4))]
        inputs = list(base)
        for _ in range(rng.randrange(1, 4)):  # dependent inputs: combinations of other inputs
            a, b = rng.choice(inputs), rng.choice(inputs)
            c = rng.randrange(1, p)
            inputs.insert(rng.randrange(len(inputs) + 1), [(x + c * y) % p for x, y in zip(a, b)])
        inputs = [v for v in inputs if any(v)]  # callers pass nonzero inputs
        if not inputs:
            continue
        core, coeffs = _independent_core(f, [np.array(v, dtype=np.int64) for v in inputs])
        greedy = [r for r in range(len(inputs))
                  if _ref_rank(inputs[: r + 1], p) > _ref_rank(inputs[:r], p)]
        assert core == greedy
        assert coeffs.shape == (len(core), len(inputs))
        for r, v in enumerate(inputs):
            rebuilt = [sum(int(coeffs[k, r]) * inputs[c][i] for k, c in enumerate(core)) % p for i in range(m)]
            assert rebuilt == v


# -- kernels that skip an elimination, against the eliminating references -----

REFERENCE_PRIMES = [2, 3, 5, 2**31 - 1]


def _spread_rows(rng, p, n, k):
    """k seeded rows, each zero before a random column, so pivots spread out."""
    rows = np.zeros((k, n), dtype=np.int64)
    for row in rows:
        lead = rng.randrange(n)
        row[lead:] = [rng.randrange(p) for _ in range(n - lead)]
    return rows


def _assert_same_rref(got, want):
    assert got == want
    assert got.pivot_cols == want.pivot_cols
    assert got.basis_rows.tolist() == want.basis_rows.tolist()


@pytest.mark.parametrize("p", REFERENCE_PRIMES)
def test_with_vector_matches_the_sum_with_a_span(p):
    rng = random.Random(p + 4)
    f = PrimeField(p)
    for _ in range(60):
        n = rng.randrange(1, 8)
        s = Subspace.span(f, _spread_rows(rng, p, n, rng.randrange(n + 1)), n)
        coeffs = np.array([rng.randrange(p) for _ in range(s.dim)], dtype=np.int64)
        member = mulmod(coeffs, s.basis_rows, p)
        zero = np.zeros(n, dtype=np.int64)
        for v in (_spread_rows(rng, p, n, 1)[0], member, zero):
            _assert_same_rref(s.with_vector(v), s.sum(Subspace.span(f, [v], n)))
        assert s.with_vector(member) is s and s.with_vector(zero) is s
        # grown one vector at a time from zero, the span is the span of all
        rows = _spread_rows(rng, p, n, rng.randrange(1, n + 2))
        grown = Subspace.zero(f, n)
        for row in rows:
            grown = grown.with_vector(row)
        _assert_same_rref(grown, Subspace.span(f, rows, n))


def test_with_vector_takes_one_vector():
    f = PrimeField(5)
    s = Subspace.coordinate_span(f, 3, [0])
    with pytest.raises(ShapeError):
        s.with_vector(np.eye(3, dtype=np.int64))
    with pytest.raises(ShapeError):
        s.with_vector(unit_vector(4, 0))


@pytest.mark.parametrize("p", REFERENCE_PRIMES)
def test_tail_meet_matches_intersect_then_block_rewrite(p):
    rng = random.Random(p + 5)
    f = PrimeField(p)
    for _ in range(60):
        n = rng.randrange(1, 8)
        t = rng.randrange(n + 1)
        s = Subspace.span(f, _spread_rows(rng, p, n, rng.randrange(n + 1)), n)
        meet = s.intersect(Subspace.tail(f, n, t))
        _assert_same_rref(s.tail_meet(t), Subspace.span(f, meet.basis_rows[:, t:], n - t))
    with pytest.raises(ShapeError):
        Subspace.full(f, 3).tail_meet(4)


def _full_solve_sl_map_frame(field, us, ws, m):
    """The frame map from both completed m x m bases: two m x m determinants and one m x 2m solve."""
    p = field.p
    eye = np.eye(m, dtype=np.int64)
    u_rows = np.vstack([*us, eye[_greedy_extension(np.vstack(us), p)]])
    w_rows = np.vstack([*ws, eye[_greedy_extension(np.vstack(ws), p)]])
    if len(us) < m:
        delta = GFMatrix(field, u_rows).det() * field.inv(GFMatrix(field, w_rows).det()) % p
        w_rows[m - 1] = (w_rows[m - 1] * delta) % p
    return GFMatrix(field, solve_linear(field, u_rows, w_rows).T)


@pytest.mark.parametrize("p", REFERENCE_PRIMES)
def test_sl_map_frame_matches_the_full_solve(p):
    """k = 0, 1, m - 1 and m, with extensions on any columns, so the minor's sign takes both values."""
    rng = random.Random(p + 6)
    f = PrimeField(p)
    signs = set()
    for _ in range(150):
        m = rng.randrange(2, 7)
        k = rng.choice([0, 1, m - 1, m])
        us, ws = _spread_rows(rng, p, m, k), _spread_rows(rng, p, m, k)
        if k == 0:
            assert sl_map_frame(f, list(us), list(ws), m).is_identity()
            continue
        if Subspace.span(f, us, m).dim < k or Subspace.span(f, ws, m).dim < k:
            continue
        for frame in (us, ws):
            ext = _greedy_extension(frame, p)
            signs.add(sum(e < c for c in range(m) if c not in ext for e in ext) % 2)
        want = _full_solve_sl_map_frame(f, list(us), list(ws), m)
        if want.det() == 1:
            assert sl_map_frame(f, list(us), list(ws), m) == want
        else:
            assert k == m
            with pytest.raises(ValueError):
                sl_map_frame(f, list(us), list(ws), m)
    assert signs == {0, 1}
