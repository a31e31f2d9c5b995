"""Generating sets, words with a step-cost model, and the block subgroup.

A Word is a sequence of steps, each either a reference to a generator (with
an inverse flag) or an arbitrary payload X in SL_{n-t} realized through the
block subgroup.  Words evaluate left to right: the product of the step
matrices in list order, acting on column vectors from the left.  Hence
evaluate(w1 + w2) = evaluate(w1) @ evaluate(w2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import FieldMismatchError, ParameterError, ShapeError
from .ff_linalg import GFMatrix, PrimeField, mulmod, parse_rows

DEFAULT_BLOCK_STEP_COST = 4


@dataclass(frozen=True)
class Generator:
    """A named determinant-one matrix; a step by it or its inverse costs one."""

    label: str
    matrix: GFMatrix

    def __post_init__(self):
        if not self.label or any(c.isspace() for c in self.label):
            raise ValueError(f"generator label must be a non-empty token, got {self.label!r}")
        if not self.matrix.is_square:
            raise ShapeError("generators must be square matrices")
        d = self.matrix.det()
        if d != 1:
            raise ParameterError(f"generator {self.label!r} has determinant {d} != 1")


@dataclass(frozen=True)
class GenStep:
    index: int
    inverse: bool = False


class GeneratorSet:
    """An ordered set of generators of (a subgroup of) SL_n(F_p) and its step table.

    A word step is a generator or the inverse of one, at cost one.  The
    table is built once, here: `options` holds every generator step and then
    every inverse step, `steps` their matrices in the same order as one
    read-only (2k, n, n) residue stack, and `step_matrix` is the one
    index-checked accessor.  `symmetric` is computed: True when the set is
    inverse-closed, so every inverse step is also a generator.
    """

    def __init__(self, generators: Sequence[Generator]):
        if not generators:
            raise ValueError("a generating set needs at least one generator")
        first = generators[0].matrix
        for g in generators:
            if g.matrix.field != first.field:
                raise FieldMismatchError("generators over different fields")
            if g.matrix.shape != first.shape:
                raise ShapeError("generators of different sizes")
        self.generators = tuple(generators)
        self.n = first.rows
        self.field = first.field
        mats = [g.matrix for g in self.generators]
        inverses = [m.inv() for m in mats]
        self._step_mats = (*mats, *inverses)
        self.options = tuple(GenStep(i, inv) for inv in (False, True) for i in range(len(mats)))
        self.steps = np.array([m.array for m in self._step_mats])
        self.steps.flags.writeable = False
        self.symmetric = {m.key() for m in inverses} <= {m.key() for m in mats}

    def __len__(self):
        return len(self.generators)

    def check_index(self, index: int):
        """IndexError unless index names a generator; negative indices name none."""
        if not 0 <= index < len(self.generators):
            raise IndexError(f"generator index {index} out of range")

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def step_matrix(self, index: int, inverse: bool = False) -> GFMatrix:
        """The matrix of GenStep(index, inverse); IndexError unless index names a generator."""
        self.check_index(index)
        return self._step_mats[index + len(self.generators) * inverse]


@dataclass(frozen=True)
class Groumvirate:
    """The block-embedded copy of SL_{n-t} fixing the first t coordinates.

    Elements are the matrices block-diag(I_t, X) with X in SL_{n-t}(F_p),
    written in the standard basis.  Each element counts as one word step of
    cost `step_cost` regardless of X.
    """

    n: int
    t: int
    step_cost: int = DEFAULT_BLOCK_STEP_COST

    def __post_init__(self):
        if not (1 <= self.t <= self.n - 2):
            raise ParameterError(f"need 1 <= t <= n-2, got t={self.t}, n={self.n}")
        if self.step_cost < 1:
            raise ParameterError("step cost must be >= 1")

    @property
    def block_dim(self) -> int:
        return self.n - self.t

    def check_payload(self, x: GFMatrix) -> "BlockStep":
        """The block step of x: ShapeError unless x is block_dim square, and `BlockStep` checks det(x) = 1."""
        if x.shape != (self.block_dim, self.block_dim):
            raise ShapeError(
                f"payload must be {self.block_dim}x{self.block_dim}, got {x.shape}"
            )
        return BlockStep(x)

    def embed(self, x: GFMatrix) -> GFMatrix:
        self.check_payload(x)
        return x.embed_principal(self.n, self.t)


@dataclass(frozen=True)
class BlockStep:
    """A block step: its payload is square with determinant 1, checked once, here.

    `det` raises ShapeError for a non-square payload and is kept once computed.
    """

    payload: GFMatrix

    def __post_init__(self):
        d = self.payload.det()
        if d != 1:
            raise ParameterError(f"payload determinant {d} != 1")


Step = GenStep | BlockStep


@dataclass(frozen=True)
class Word:
    """An immutable sequence of steps; concatenation mirrors matrix products."""

    steps: tuple[Step, ...] = dc_field(default=())

    @classmethod
    def empty(cls) -> "Word":
        return cls(())

    @classmethod
    def single(cls, step: Step) -> "Word":
        return cls((step,))

    def __add__(self, other: "Word") -> "Word":
        return Word(self.steps + other.steps)

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def inverse(self) -> "Word":
        inv_steps = []
        for s in reversed(self.steps):
            if isinstance(s, GenStep):
                inv_steps.append(GenStep(s.index, not s.inverse))
            else:
                inv_steps.append(BlockStep(s.payload.inv()))
        return Word(tuple(inv_steps))


def evaluate_word(word: Word, gs: GeneratorSet, gv: Groumvirate | None = None) -> GFMatrix:
    """The product of step matrices in list order (an element of SL_n).

    One left-to-right fold; every step matrix is multiplied, and none is
    reused from an earlier word.  A generator step multiplies the accumulator
    by its matrix; a block step changes only the columns past t, which it
    multiplies by its payload.  Each step gets its O(1) checks as it is
    reached, so a bad step raises before any later one is read.
    """
    p = gs.field.p
    acc = np.eye(gs.n, dtype=np.int64)
    for s in word.steps:
        if isinstance(s, GenStep):
            acc = mulmod(acc, gs.step_matrix(s.index, s.inverse).array, p)
        else:
            check_block_step(s, gs, gv)
            acc[:, gv.t :] = mulmod(acc[:, gv.t :], s.payload.array, p)
    return GFMatrix(gs.field, acc)


def check_block_step(s: BlockStep, gs: GeneratorSet, gv: Groumvirate | None):
    """Raise unless gv realizes the step over gs: a block_dim payload over gs's field, gv.n == gs.n.

    Every check is O(1): `BlockStep` checked det = 1 when the step was made, and no
    use re-checks it.  The field is compared by modulus, which costs no `PrimeField.__eq__` call.
    """
    if gv is None:
        raise ParameterError("word contains block steps but no block subgroup was given")
    if s.payload.shape != (gv.block_dim, gv.block_dim):
        raise ShapeError(f"payload must be {gv.block_dim}x{gv.block_dim}, got {s.payload.shape}")
    if s.payload.field.p != gs.field.p:
        raise FieldMismatchError(f"F_{s.payload.field.p} payload in a word over F_{gs.field.p}")
    if gv.n != gs.n:
        raise ShapeError("block subgroup dimension does not match the generating set")


def word_cost(word: Word, gs: GeneratorSet, gv: Groumvirate | None = None) -> int:
    """Total cost: each generator step costs 1, each block step gv.step_cost.

    Each step is checked as evaluate_word checks it, so both refuse the same words.
    """
    total = 0
    for s in word:
        if isinstance(s, GenStep):
            gs.check_index(s.index)
            total += 1
        else:
            check_block_step(s, gs, gv)
            total += gv.step_cost
    return total


def _block_swap(field: PrimeField, n: int, t: int, upper: int) -> GFMatrix:
    """e_i -> e_{t+i} and e_{t+i} -> upper * e_i for i < t, identity beyond 2t."""
    a = np.eye(n, dtype=np.int64)
    a[: 2 * t, : 2 * t] = 0
    for i in range(t):
        a[t + i, i] = 1
        a[i, t + i] = upper % field.p
    return GFMatrix(field, a)


def unsigned_block_swap(field: PrimeField, n: int, t: int) -> GFMatrix:
    """(0 I_t 0; I_t 0 0; 0 0 I): e_i <-> e_{t+i}, identity beyond 2t."""
    return _block_swap(field, n, t, 1)


def signed_block_swap(field: PrimeField, n: int, t: int) -> GFMatrix:
    """(0 -I_t 0; I_t 0 0; 0 0 I): determinant 1 for every t and p."""
    return _block_swap(field, n, t, -1)


def swap_target(field: PrimeField, n: int, t: int) -> GFMatrix:
    """The swap normal form actually reachable by determinant-one words.

    The unsigned swap is a product of t coordinate transpositions, so its
    determinant is (-1)^t.  For odd t over odd p it therefore lies outside
    SL_n and no word over determinant-one generators can evaluate to it; the
    signed variant (with -I_t in the upper block) has determinant one for
    every t and p and coincides with the unsigned form when p = 2.
    """
    if t % 2 == 0 or field.p == 2:
        return unsigned_block_swap(field, n, t)
    return signed_block_swap(field, n, t)


class DensityBound(NamedTuple):
    exponent: Fraction
    c_eps: Fraction


def density_threshold(n: int, t: int, d) -> DensityBound:
    """Exact exponents for the size threshold |A| >= q^E.

    E(n, t, d) = (1 - 1/d) n^2 + (1/d)(n - t)^2 and
    c_eps = (1 - (1 - eps)^2)/d with eps = t/n, both as exact rationals.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got n={n}")
    if not (0 <= t <= n):
        raise ParameterError(f"need 0 <= t <= n, got t={t}, n={n}")
    d = Fraction(d)
    if d <= 0:
        raise ParameterError("d must be positive")
    exponent = (1 - 1 / d) * n * n + Fraction(1, 1) / d * (n - t) ** 2
    eps = Fraction(t, n)
    c_eps = (1 - (1 - eps) ** 2) / d
    return DensityBound(Fraction(exponent), Fraction(c_eps))


def random_sl(rng: random.Random, field: PrimeField, m: int) -> GFMatrix:
    """A uniform element of SL_m(F_p).

    Draws uniform matrices until one is invertible, then scales column 0 by
    det^-1.  Exactly p - 1 invertible matrices (the column-0 rescalings) map
    to each element of SL_m, so the result is uniform.
    """
    p = field.p
    while True:
        a = GFMatrix(field, [[rng.randrange(p) for _ in range(m)] for _ in range(m)])
        d = a.det()
        if d:
            break
    return a.with_line_scaled(1, 0, field.inv(d))


def random_word(rng: random.Random, gs: GeneratorSet, gv: Groumvirate | None, length: int) -> Word:
    """A seeded random word: each step is a block step with probability 1/2 when gv is given."""
    steps: list[Step] = []
    for _ in range(length):
        if gv is not None and rng.random() < 0.5:
            steps.append(BlockStep(random_sl(rng, gs.field, gv.block_dim)))
        else:
            idx = rng.randrange(len(gs))
            inv = gs.symmetric and rng.random() < 0.5
            steps.append(GenStep(idx, inv))
    return Word(tuple(steps))


# -- serialization -----------------------------------------------------------


def generator_set_to_text(gs: GeneratorSet, gv: Groumvirate) -> str:
    """Header 'p n t count step_cost', then per generator a 'label' line and an n x n block."""
    if gv.n != gs.n:
        raise ShapeError("block subgroup dimension does not match the generating set")
    lines = [f"{gs.field.p} {gs.n} {gv.t} {len(gs)} {gv.step_cost}"]
    for g in gs:
        lines.append(g.label)
        for row in g.matrix.array:
            lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def generator_set_from_text(text: str) -> tuple[GeneratorSet, Groumvirate]:
    """Read generator_set_to_text's format; any other header length raises ValueError.

    A label line holding more than one token, such as an older 'label cost'
    line, raises ValueError from `Generator`.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty generator-set text")
    header = lines[0].split()
    if len(header) != 5:
        raise ValueError(f"expected header 'p n t count step_cost', got {lines[0]!r}")
    p, n, t, count, step_cost = (int(x) for x in header)
    field = PrimeField(p)
    pos = 1
    gens = []
    for _ in range(count):
        if pos + 1 + n > len(lines):
            raise ValueError(f"truncated generator-set text: expected {count} generators")
        label = lines[pos].strip()
        block = lines[pos + 1 : pos + 1 + n]
        pos += 1 + n
        gens.append(Generator(label, GFMatrix(field, parse_rows(block, p, n))))
    return GeneratorSet(gens), Groumvirate(n, t, step_cost)


def word_to_text(word: Word) -> str:
    """One line per step: 'G <index> <0|1>' or 'V' followed by payload rows."""
    lines = []
    for s in word:
        if isinstance(s, GenStep):
            lines.append(f"G {s.index} {1 if s.inverse else 0}")
        else:
            lines.append("V")
            for row in s.payload.array:
                lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + ("\n" if lines else "")


def word_from_text(text: str, gs: GeneratorSet, gv: Groumvirate) -> Word:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    steps: list[Step] = []
    pos = 0
    m = gv.block_dim
    while pos < len(lines):
        head = lines[pos].split()
        if head[0] == "G":
            if len(head) != 3 or head[2] not in ("0", "1"):
                raise ValueError(f"expected 'G <index> <0|1>', got {lines[pos]!r}")
            idx = int(head[1])
            try:
                gs.check_index(idx)
            except IndexError as exc:
                raise ValueError(str(exc)) from exc
            steps.append(GenStep(idx, head[2] == "1"))
            pos += 1
        elif head == ["V"]:
            block = lines[pos + 1 : pos + 1 + m]
            if len(block) < m:
                raise ValueError("truncated block payload")
            steps.append(BlockStep(GFMatrix(gs.field, parse_rows(block, gs.field.p, m))))
            pos += 1 + m
        else:
            raise ValueError(f"bad word line: {lines[pos]!r}")
    return Word(tuple(steps))
