"""Exact F_p arithmetic and seeded input generators, independent of slword's kernels.

The oracle checks outputs with these functions rather than with
`GFMatrix.@`, `GFMatrix.det` or `GFMatrix.inv`, so a defect in the library's
arithmetic cannot hide itself.  The generators replace `slword.random_sl` /
`slword.random_word`, so fixing those cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random

import numpy as np

from slword import BlockStep, GenStep, GFMatrix, PrimeField, Word

_I64_MAX = 2**63 - 1


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p: int64 when no dot product can overflow, Python ints otherwise."""
    if a.shape[1] * (p - 1) ** 2 <= _I64_MAX:
        return (a.astype(np.int64) @ b.astype(np.int64)) % p
    prod = (a.astype(object) @ b.astype(object)) % p
    return prod.astype(np.int64)


def det(a: np.ndarray, p: int) -> int:
    """Determinant mod p by Gaussian elimination on Python ints."""
    m = [[int(x) % p for x in row] for row in a]
    n = len(m)
    d = 1
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            d = -d
        d = d * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return d % p


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p by Gauss-Jordan on Python ints; raises on a singular input."""
    n = a.shape[0]
    m = [[int(x) % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            raise ArithmeticError("singular matrix")
        m[c], m[r] = m[r], m[c]
        inv = pow(m[c][c], p - 2, p)
        m[c] = [x * inv % p for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return np.array([row[n:] for row in m], dtype=np.int64)


def uniform_sl(rng: random.Random, p: int, m: int) -> np.ndarray:
    """A uniform element of SL_m(F_p).

    Draw a uniform invertible matrix, then rescale its first column by
    det^-1.  Every element of SL_m has exactly p-1 preimages under that
    rescaling, so the result is uniform.
    """
    while True:
        a = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(m)], dtype=np.int64)
        d = det(a, p)
        if d:
            col = [int(x) * pow(d, p - 2, p) % p for x in a[:, 0]]
            a[:, 0] = col
            return a


def descent_word(rng: random.Random, field: PrimeField, generators: int, t: int, n: int, length: int) -> Word:
    """A word of `length` steps: each a uniform block payload or a uniform signed generator step."""
    steps = []
    for _ in range(length):
        if rng.random() < 0.5:
            steps.append(BlockStep(GFMatrix(field, uniform_sl(rng, field.p, n - t))))
        else:
            steps.append(GenStep(rng.randrange(generators), rng.random() < 0.5))
    return Word(tuple(steps))


class WordEvaluator:
    """Evaluates words over a generating set with the exact product above."""

    def __init__(self, gens: list[np.ndarray], n: int, t: int, p: int):
        self.n, self.t, self.p = n, t, p
        self.gens = [np.asarray(g, dtype=np.int64) for g in gens]
        self.invs = [inverse(g, p) for g in self.gens]

    def __call__(self, word: Word) -> np.ndarray:
        n, t, p = self.n, self.t, self.p
        acc = np.eye(n, dtype=np.int64)
        for s in word:
            if isinstance(s, GenStep):
                step = self.invs[s.index] if s.inverse else self.gens[s.index]
            else:
                step = np.eye(n, dtype=np.int64)
                step[t:, t:] = s.payload.array
            acc = mat_mul(acc, step, p)
        return acc


def swap_normal_form(p: int, n: int, t: int) -> np.ndarray:
    """The determinant-one swap e_i -> e_{t+i}, e_{t+i} -> sign * e_i.

    sign is -1 for odd t over odd p (the unsigned swap has determinant -1
    there), +1 otherwise; coordinates beyond 2t are fixed.
    """
    sign = 1 if (t % 2 == 0 or p == 2) else -1
    a = np.eye(n, dtype=np.int64)
    for i in range(t):
        a[i, i] = a[t + i, t + i] = 0
        a[t + i, i] = 1
        a[i, t + i] = sign % p
    return a


def sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order
