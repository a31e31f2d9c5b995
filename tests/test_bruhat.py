import numpy as np
import pytest

from slword import (
    GFMatrix,
    PrimeField,
    SingularMatrixError,
    bruhat_decompose,
    enumerate_sl,
    is_lower_triangular,
    is_monomial,
)

from conftest import random_invertible, random_matrix


def test_structural_predicates():
    f = PrimeField(5)
    ident = GFMatrix.identity(f, 2)
    assert is_monomial(ident) and is_lower_triangular(ident)
    anti = GFMatrix(f, [[0, 1], [1, 0]])
    assert is_monomial(anti) and not is_lower_triangular(anti)
    lower = GFMatrix(f, [[1, 0], [1, 1]])
    assert not is_monomial(lower) and is_lower_triangular(lower)


def test_predicates_match_brute_force(rng):
    f = PrimeField(3)
    for _ in range(50):
        m = GFMatrix(f, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        a = m.array
        mono = all(
            sum(1 for x in a[i] if x) == 1 for i in range(3)
        ) and all(sum(1 for i in range(3) if a[i][j]) == 1 for j in range(3))
        low = all(a[i][j] == 0 for i in range(3) for j in range(3) if j > i)
        assert is_monomial(m) == mono
        assert is_lower_triangular(m) == low


def test_identity_and_monomial_targets():
    f = PrimeField(7)
    triple = bruhat_decompose(GFMatrix.identity(f, 3))
    assert triple.recompose().is_identity()
    assert triple.permutation == (0, 1, 2)

    w = GFMatrix(f, [[0, 0, 2], [3, 0, 0], [0, 5, 0]])
    triple = bruhat_decompose(w)
    assert triple.recompose() == w
    assert is_monomial(triple.w)


def _monomial_2x2_candidates(p):
    f = PrimeField(p)
    for perm in ((0, 1), (1, 0)):
        for a in range(1, p):
            for b in range(1, p):
                m = np.zeros((2, 2), dtype=np.int64)
                m[perm[0], 0] = a
                m[perm[1], 1] = b
                yield GFMatrix(f, m), perm


def _lower_2x2_candidates(p):
    f = PrimeField(p)
    for a in range(1, p):
        for d in range(1, p):
            for c in range(p):
                yield GFMatrix(f, [[a, 0], [c, d]])


def test_upper_unipotent_lands_in_antidiagonal_cell():
    f = PrimeField(5)
    m = GFMatrix(f, [[1, 1], [0, 1]])
    triple = bruhat_decompose(m)
    assert triple.recompose() == m
    # independent oracle: exhaust every (b1, w, b2) candidate and record
    # achievable permutations for this target
    achievable = set()
    for w, perm in _monomial_2x2_candidates(5):
        for b1 in _lower_2x2_candidates(5):
            need = b1.inv() @ m  # = w @ b2, so w^{-1} @ need must be lower
            cand = w.inv() @ need
            if is_lower_triangular(cand):
                achievable.add(perm)
    assert achievable == {(1, 0)}
    assert triple.permutation == (1, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_exhaustive_sl2(p):
    f = PrimeField(p)
    for m in enumerate_sl(f, 2):
        triple = bruhat_decompose(m)
        assert triple.recompose() == m
        assert is_monomial(triple.w)
        assert is_lower_triangular(triple.b1)
        assert is_lower_triangular(triple.b2)


def test_permutation_part_is_cell_invariant():
    """Every valid (b1, w, b2) factorization of a matrix shares w's permutation."""
    f = PrimeField(3)
    by_product: dict[bytes, set] = {}
    lowers = list(_lower_2x2_candidates(3))
    for w, perm in _monomial_2x2_candidates(3):
        for b1 in lowers:
            for b2 in lowers:
                prod = b1 @ w @ b2
                by_product.setdefault(prod.key(), set()).add(perm)
    for m in enumerate_sl(f, 2):
        perms = by_product[m.key()]
        assert len(perms) == 1
        assert bruhat_decompose(m).permutation == next(iter(perms))


def test_random_grid_recomposition(rng):
    for n in (2, 3, 4, 5):
        for p in (2, 3, 5, 7):
            f = PrimeField(p)
            for _ in range(40):
                m = random_invertible(rng, f, n)
                triple = bruhat_decompose(m)
                assert triple.recompose() == m
                assert is_monomial(triple.w)
                assert is_lower_triangular(triple.b1)
                assert is_lower_triangular(triple.b2)
                assert np.all(np.diagonal(triple.b1.array) == 1)
                assert np.all(np.diagonal(triple.b2.array) == 1)


def test_determinant_split(rng):
    f = PrimeField(7)
    for _ in range(20):
        m = random_invertible(rng, f, 4)
        triple = bruhat_decompose(m)
        dets = triple.b1.det() * triple.w.det() * triple.b2.det() % 7
        assert dets == m.det()


def test_singular_rejected():
    f = PrimeField(5)
    with pytest.raises(SingularMatrixError):
        bruhat_decompose(GFMatrix(f, [[1, 2], [2, 4]]))


def reference_bruhat_decompose(m: GFMatrix):
    """Entry-by-entry elimination with accumulated operations, inverted at the end."""
    p = m.field.p
    n = m.rows
    work = m.array.copy()
    left = np.eye(n, dtype=np.int64)  # accumulates row ops: work = left @ m @ right
    right = np.eye(n, dtype=np.int64)
    pivot_of_row: dict[int, int] = {}  # claimed row -> its pivot column
    for c in range(n - 1, -1, -1):
        for rr, cc in pivot_of_row.items():
            if work[rr, c]:
                lam = (-work[rr, c] * pow(int(work[rr, cc]), -1, p)) % p
                work[:, c] = (work[:, c] + lam * work[:, cc]) % p
                right[:, c] = (right[:, c] + lam * right[:, cc]) % p
        col = work[:, c]
        free_rows = [r for r in range(n) if r not in pivot_of_row and col[r]]
        if not free_rows:
            raise SingularMatrixError("matrix is singular")
        r = free_rows[0]
        inv_piv = pow(int(work[r, c]), -1, p)
        for i in range(r + 1, n):
            if work[i, c] and i not in pivot_of_row:
                lam = (-work[i, c] * inv_piv) % p
                work[i] = (work[i] + lam * work[r]) % p
                left[i] = (left[i] + lam * left[r]) % p
        for j in range(c):
            if work[r, j]:
                lam = (-work[r, j] * inv_piv) % p
                work[:, j] = (work[:, j] + lam * work[:, c]) % p
                right[:, j] = (right[:, j] + lam * right[:, c]) % p
        pivot_of_row[r] = c
    return GFMatrix(m.field, left).inv(), GFMatrix(m.field, work), GFMatrix(m.field, right).inv()


def _sparse_monomial_plus_noise(rng, f, n):
    """A scaled permutation matrix with about n extra random entries."""
    a = np.zeros((n, n), dtype=np.int64)
    for j, i in enumerate(rng.sample(range(n), n)):
        a[i, j] = rng.randrange(1, f.p)
    for _ in range(rng.randrange(n + 1)):
        a[rng.randrange(n), rng.randrange(n)] = rng.randrange(f.p)
    return GFMatrix(f, a)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_factors_match_the_reference_elimination(rng, p):
    """Same b1, w and b2 entry for entry, and the same singular inputs rejected."""
    f = PrimeField(p)
    for n in range(1, 16):
        for draw in (random_matrix, None):
            for _ in range(3):
                if draw is None:
                    m = _sparse_monomial_plus_noise(rng, f, n)
                else:
                    m = draw(rng, f, n, n)
                try:
                    expected = reference_bruhat_decompose(m)
                except SingularMatrixError:
                    with pytest.raises(SingularMatrixError):
                        bruhat_decompose(m)
                    continue
                triple = bruhat_decompose(m)
                assert (triple.b1, triple.w, triple.b2) == expected
        singular = random_matrix(rng, f, n, n).array.copy()
        singular[n - 1] = singular[: n - 1].sum(axis=0) % p
        with pytest.raises(SingularMatrixError):
            reference_bruhat_decompose(GFMatrix(f, singular))
        with pytest.raises(SingularMatrixError):
            bruhat_decompose(GFMatrix(f, singular))
