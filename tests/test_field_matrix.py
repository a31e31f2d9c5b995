import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slword import GFMatrix, ParameterError, PrimeField, ShapeError, SingularMatrixError
from slword.errors import FieldMismatchError
from slword.ff_linalg import parse_rows

from conftest import random_invertible, random_matrix

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    f = PrimeField(p)
    for a in range(p):
        if a != 0:
            assert a * f.inv(a) % p == 1
        for b in range(p):
            for c in range(p):
                assert a * (b + c) % p == (a * b + a * c) % p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 2**31])
def test_modulus_validation(bad):
    with pytest.raises((ValueError, TypeError)):
        PrimeField(bad)


@pytest.mark.parametrize("bad", [0, 4, 2**31])
def test_bad_modulus_is_a_parameter_error(bad):
    with pytest.raises(ParameterError):
        PrimeField(bad)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def _matmul_oracle(a, b, p):
    """Scalar triple-loop product, independent of the numpy path."""
    rows, inner, cols = a.rows, a.cols, b.cols
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0
            for k in range(inner):
                s += int(a.array[i, k]) * int(b.array[k, j])
            out[i][j] = s % p
    return out


def test_matmul_identity():
    f = PrimeField(5)
    m = GFMatrix(f, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    assert GFMatrix.identity(f, 3) @ m == m


def test_matmul_hand_example_mod2():
    f = PrimeField(2)
    a = GFMatrix(f, [[1, 1], [0, 1]])
    b = GFMatrix(f, [[1, 0], [1, 1]])
    prod = a @ b
    assert prod == GFMatrix(f, [[0, 1], [1, 1]])
    assert prod.array.tolist() == _matmul_oracle(a, b, 2)


def test_coordinate_swap_is_involution():
    f = PrimeField(7)
    s = GFMatrix(f, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert (s @ s).is_identity()


def test_matmul_matches_oracle_random(rng):
    for p in (2, 5, 13):
        f = PrimeField(p)
        for _ in range(10):
            a = random_matrix(rng, f, 3, 4)
            b = random_matrix(rng, f, 4, 2)
            assert (a @ b).array.tolist() == _matmul_oracle(a, b, p)


def test_matmul_associative_random(rng):
    f = PrimeField(11)
    for _ in range(20):
        a = random_matrix(rng, f, 3, 3)
        b = random_matrix(rng, f, 3, 3)
        c = random_matrix(rng, f, 3, 3)
        assert (a @ b) @ c == a @ (b @ c)


def test_matmul_shape_and_field_errors():
    f, g = PrimeField(5), PrimeField(7)
    a = GFMatrix(f, [[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        a @ GFMatrix(f, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(FieldMismatchError):
        a @ GFMatrix(g, [[1, 2], [3, 4]])


def test_inverse_identity_and_rotation():
    for p in (3, 7, 13):
        f = PrimeField(p)
        assert GFMatrix.identity(f, 4).inv().is_identity()
        r = GFMatrix(f, [[0, 1], [p - 1, 0]])
        assert r.inv() == GFMatrix(f, [[0, p - 1], [1, 0]])


def test_inverse_random_round_trip(rng):
    f = PrimeField(7)
    for _ in range(10):
        a = random_invertible(rng, f, 4)
        assert (a @ a.inv()).is_identity()
        assert (a.inv() @ a).is_identity()


def test_singular_inverse_rejected():
    f = PrimeField(5)
    with pytest.raises(SingularMatrixError):
        GFMatrix(f, [[1, 2], [2, 4]]).inv()


def _det_oracle(m):
    """Permutation expansion; exact reference for small sizes."""
    n = m.rows
    p = m.field.p
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term = term * int(m.array[i, perm[i]])
        total += term
    return total % p


def test_det_examples():
    f7 = PrimeField(7)
    assert GFMatrix.identity(f7, 5).det() == 1
    assert GFMatrix.diagonal(f7, [2, 4]).det() == 1  # 2 * 2^{-1} mod 7
    f5 = PrimeField(5)
    swap = GFMatrix(f5, [[0, 1, 0], [4, 0, 0], [0, 0, 1]])  # e_1 -> -e_2, e_2 -> e_1
    assert swap.det() == 1
    assert swap.det() == _det_oracle(swap)


def test_det_matches_oracle_random(rng):
    f = PrimeField(5)
    for _ in range(25):
        m = random_matrix(rng, f, 3, 3)
        assert m.det() == _det_oracle(m)


def test_det_and_inverse_computed_once(rng, monkeypatch):
    calls = {"det": 0, "inv": 0}
    for name in calls:
        original = getattr(GFMatrix, f"_compute_{name}")

        def counted(self, original=original, name=name):
            calls[name] += 1
            return original(self)

        monkeypatch.setattr(GFMatrix, f"_compute_{name}", counted)
    m = random_invertible(rng, PrimeField(7), 4)
    d = m.det()
    assert m.det() == d == _det_oracle(m)
    inv = m.inv()
    assert m.inv() is inv
    assert (m @ inv).is_identity()
    assert calls == {"det": 1, "inv": 1}


def test_inverse_carries_a_known_determinant(rng, monkeypatch):
    """A known determinant d gives the inverse d^-1 without another elimination.

    It carries over whether the inverse was taken after the determinant or before.
    """
    f = PrimeField(7)
    after, before = random_invertible(rng, f, 4), random_invertible(rng, f, 4)
    before.inv()
    expected = [pow(_det_oracle(m), -1, 7) for m in (after, before)]
    assert after.det() == _det_oracle(after) and before.det() == _det_oracle(before)

    def refuse(self):
        raise AssertionError("a determinant was eliminated")

    monkeypatch.setattr(GFMatrix, "_compute_det", refuse)
    assert [after.inv().det(), before.inv().det()] == expected
    with pytest.raises(AssertionError):
        random_invertible(rng, f, 4).inv().det()  # nothing known, nothing carried


@pytest.mark.parametrize("axis,index", [(0, 0), (0, -1), (1, 0), (1, 2)])
def test_scaled_line_carries_a_known_determinant(rng, monkeypatch, axis, index):
    """Scaling one row or column by c scales a known determinant by c, with no elimination."""
    f = PrimeField(7)
    m = random_invertible(rng, f, 4)
    d = _det_oracle(m)
    assert m.det() == d
    expected = m.array.copy()
    if axis == 0:
        expected[index] = expected[index] * 3 % 7
    else:
        expected[:, index] = expected[:, index] * 3 % 7

    def refuse(self):
        raise AssertionError("a determinant was eliminated")

    monkeypatch.setattr(GFMatrix, "_compute_det", refuse)
    scaled = m.with_line_scaled(axis, index, 3)
    assert scaled == GFMatrix(f, expected) and scaled.det() == d * 3 % 7 == _det_oracle(scaled)
    assert m.with_line_scaled(axis, index, pow(d, -1, 7)).det() == 1
    with pytest.raises(AssertionError):
        random_invertible(rng, f, 4).with_line_scaled(axis, index, 3).det()  # nothing known, nothing carried


def test_det_non_square_rejected():
    with pytest.raises(ShapeError):
        GFMatrix(PrimeField(3), [[1, 2, 0], [0, 1, 1]]).det()


def test_rref_examples():
    f = PrimeField(5)
    z = GFMatrix.zeros(f, 3, 3).rref()
    assert z.rank == 0 and z.pivot_cols == ()
    ident = GFMatrix.identity(f, 4).rref()
    assert ident.rank == 4 and ident.pivot_cols == (0, 1, 2, 3)
    assert ident.matrix.is_identity()
    dependent = GFMatrix(f, [[1, 2], [2, 4]]).rref()
    assert dependent.rank == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 5]))
def test_rref_idempotent(seed, p):
    import random as _random

    r = _random.Random(seed)
    f = PrimeField(p)
    m = random_matrix(r, f, 4, 5)
    once = m.rref()
    twice = once.matrix.rref()
    assert once.matrix == twice.matrix
    assert once.pivot_cols == twice.pivot_cols


def test_text_round_trip_bit_exact(rng):
    for p in (2, 7):
        f = PrimeField(p)
        m = random_matrix(rng, f, 3, 4)
        text = m.to_text()
        back = GFMatrix.from_text(text)
        assert back == m
        assert back.to_text() == text


def test_text_format_rejects_bad_input():
    with pytest.raises(ValueError):
        GFMatrix.from_text("")
    with pytest.raises(ValueError):
        GFMatrix.from_text("5 2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        GFMatrix.from_text("5 2 2\n1 2\n3 9\n")  # out-of-range residue


def test_parse_rows_checks_width_and_residue_range():
    assert parse_rows(["0 1 2", " 2 2 0 "], 3, 3) == [[0, 1, 2], [2, 2, 0]]
    for rows in (["0 1"], ["0 1 2 0"], ["0 1 3"], ["0 -1 2"], ["0 x 2"]):
        with pytest.raises(ValueError):
            parse_rows(rows, 3, 3)
