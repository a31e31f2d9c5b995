"""Prime field F_p scalar arithmetic on canonical residues."""

from __future__ import annotations

# Residues stay below 2**31, so one product of two fits in int64; matrix
# products stay exact through ff_linalg.matrix.mulmod for inner dimension
# below 2**16.
MAX_MODULUS = 2**31


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check, adequate for p < 2**31."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p.  Scalars are plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} too large (must be < 2**31)")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, -1, self.p)

    def elements(self):
        """Iterate all residues.  Only sensible for small p (test oracles)."""
        return range(self.p)
