import random

import numpy as np
import pytest
from hypothesis import settings

from slword import GFMatrix

# Hypothesis draws the same examples on every run: a tier-1 failure always
# reproduces, and no run is slowed by a deadline on a loaded machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return random.Random(12345)


def random_matrix(rng, field, rows, cols):
    return GFMatrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng, field, n):
    """Random invertible matrix built from row operations on the identity."""
    a = np.eye(n, dtype=np.int64)
    for _ in range(3 * n * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        a[i] = (a[i] + rng.randrange(field.p) * a[j]) % field.p
    for i in range(n):
        a[i] = (a[i] * rng.randrange(1, field.p)) % field.p
    return GFMatrix(field, a)
