"""Constructive synthesis of generator words for SL_n(F_p) targets.

Given a symmetric generating set together with a standard-basis block
subgroup (every block-diag(I_t, X) available as one step), the builder
produces explicit words for:

  * a "moving" word sending <e_1..e_t> into the tail span <e_{t+1}..e_n>,
  * the coordinate-swap normal form exchanging the head block with the
    next t coordinates, at cost O(t^2) in the step-cost model,
  * window actions: a conjugated block step acting on the head coordinates
    plus any chosen n-2t tail coordinates,
  * arbitrary lower-triangular and monomial targets at cost O(n^2), each
    as one window action between two block steps,
  * arbitrary SL_n targets the same way, one window action and
    2 |swap| + 3 b in all, when the target's window pairing (y D u on
    left-ker C x ker A) has rank >= t; a target whose pairing rank is below
    t is split as (b1 . w) . b2 from its triangular/monomial factorization,
    one window action per factor and 4 |swap| + 6 b in all.

Costs are honest: every factor of every produced word is either a declared
generator (or its inverse; the sets are required to be symmetric) or a
single block step, and nothing is ever edited for free.  The searches try
the generating set's step options in its order, every generator before
every inverse, and multiply by its stack of step matrices.

A word's matrix is computed only where it is read: the escape search tracks
(word, vector) pairs, and each frame carries the image of its vector.  Where
both are needed, a word travels with its matrix as one value whose `+`
concatenates the words and multiplies the matrices in the same order, so the
matrix is the word's product by construction; each leaf (a block step with its
embedding, an evaluated word, a shortcut word with the target it matched) is
paired once, where it is made.  Each public result is checked once, where it
is made: the moving word must clear the head block and the swap word must
equal the swap normal form, or `InvariantError` is raised; `construct`
compares the matrix it built with its target and evaluates no word.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .bruhat import bruhat_decompose, is_lower_triangular, is_monomial
from .errors import InvariantError, NotGeneratingError, ParameterError, SearchExhaustedError, ShapeError
from .ff_linalg import (
    AffineSet,
    GFMatrix,
    Subspace,
    mulmod,
    pick_in_coset_avoiding,
    sl_map_frame,
    solve_block_map,
    solve_linear,
)
from .group_model import (
    GeneratorSet,
    Groumvirate,
    Word,
    evaluate_word,
    swap_target,
    word_cost,
)

DEFAULT_BUDGET_CONSTANT = 64


@dataclass(frozen=True)
class FramePair:
    """A tail vector v and a word a with head(a v) nonzero.

    Collected so that the head projections of the moved vectors a_i v_i form
    a basis of <e_1..e_t>; the i-th frame collected (1-based) has a word of
    at most i generator steps.
    """

    v: np.ndarray
    a_word: Word
    image: np.ndarray  # a_word applied to v


@dataclass(frozen=True)
class _Built:
    """A word together with its matrix; `+` keeps the matrix equal to the word's product.

    Every value is a sum of leaves, each paired where it is made: `_grou`, `of`, or a matched shortcut.
    """

    word: Word
    mat: GFMatrix

    @classmethod
    def of(cls, word: Word, gs: GeneratorSet, gv: Groumvirate) -> "_Built":
        """The word with its matrix, evaluated once."""
        return cls(word, evaluate_word(word, gs, gv))

    def __add__(self, other: "_Built") -> "_Built":
        return _Built(self.word + other.word, self.mat @ other.mat)


@dataclass
class BuildReport:
    target: GFMatrix
    word: Word
    cost: int
    budget: int
    elapsed_us: int
    ok: bool


class WordBuilder:
    """Keeps the swap word and its inverse word, from which each window conjugator is built; needs 3t <= n."""

    def __init__(
        self,
        gs: GeneratorSet,
        gv: Groumvirate,
        *,
        budget_constant: int = DEFAULT_BUDGET_CONSTANT,
    ):
        if gv.n != gs.n:
            raise ParameterError("generating set and block subgroup disagree on n")
        if not gs.symmetric:
            raise ParameterError("the builder requires a symmetric generating set")
        if 3 * gv.t > gs.n:
            raise ParameterError(f"the builder needs n - 2t >= t (3t <= n); got n={gs.n}, t={gv.t}")
        self.gs = gs
        self.gv = gv
        self.field = gs.field
        self.n = gs.n
        self.t = gv.t
        self.m = gv.block_dim
        self.escape_budget = 2 * gv.t + 2
        self.budget_constant = budget_constant
        self._tail = Subspace.tail(self.field, self.n, self.t)
        self._move: _Built | None = None
        self._swap: _Built | None = None
        self._swap_inverse: _Built | None = None

    # -- low-level helpers -------------------------------------------------

    def _grou(self, payload: GFMatrix) -> _Built:
        return _Built(Word.single(self.gv.check_payload(payload)), payload.embed_principal(self.n, self.t))

    def _check_target(self, target: GFMatrix, kind: str, shape_ok: Callable[[GFMatrix], bool] | None = None):
        """Reject a target of the wrong size, failing `shape_ok` or of det != 1."""
        if target.shape != (self.n, self.n):
            raise ShapeError("target size mismatch")
        if shape_ok is not None and not shape_ok(target):
            raise ParameterError(f"target is not {kind}")
        d = target.det()
        if d != 1:
            raise ParameterError(f"target determinant {d} != 1")

    def _escape_candidates(self, x: np.ndarray) -> Iterator[tuple[Word, np.ndarray]]:
        """Nonempty short words w with a nonzero tail in v = (eval w) x, as (w, v).

        Breadth-first over (word, vector) pairs: no word is evaluated.  A
        popped node is expanded with one stacked product, which applies every
        step option to its vector, and its children are reduced against the
        reachable span in one call; the children not yet visited are reduced
        again only when the span grows.  Children are visited in step-option
        order: one is yielded when its tail is nonzero and enqueued when it
        grows the span, and its word is built only then.  Enqueuing only
        span-growing vectors keeps the search state linear in n; since the
        head span is a subspace, a witness always appears among individual
        tracked vectors before the span stabilizes.
        """
        p, t = self.field.p, self.t
        span = Subspace.span(self.field, [x], self.n)
        queue: deque[tuple[Word, np.ndarray]] = deque([(Word.empty(), x)])
        while queue:
            word, v = queue.popleft()
            if len(word) >= self.escape_budget:
                continue
            children = mulmod(self.gs.steps, v, p)
            escapes = children[:, t:].any(axis=1).tolist()
            grows = span.reduce(children).any(axis=1).tolist()
            for k, option in enumerate(self.gs.options):
                if not (escapes[k] or grows[k]):
                    continue
                v2 = children[k]
                w2 = Word.single(option) + word
                if escapes[k]:
                    yield w2, v2
                if grows[k]:
                    span = span.with_vector(v2)
                    queue.append((w2, v2))
                    grows[k + 1 :] = span.reduce(children[k + 1 :]).any(axis=1).tolist()

    # -- simultaneous nonzero (and independent) tail projections -----------

    def tail_nonzero_word(self) -> Word:
        """A word a with tail(a e_i) != 0 for every head index i.

        The implementation maintains the stronger invariant that the tail
        projections of the moved head basis are linearly independent, which
        the later single-block-step retargeting relies on.
        """
        cur = _Built(Word.empty(), GFMatrix.identity(self.field, self.n))
        for i in range(self.t):
            cur = self._fix_tail_index(cur, i)
        return cur.word

    def _fix_tail_index(self, cur: _Built, i: int) -> _Built:
        p, t, m = self.field.p, self.t, self.m
        a = cur.mat.array
        prev_tails = a[t:, :i]
        x = cur.mat.column(i)
        coeffs = solve_linear(self.field, prev_tails, x[t:])
        if coeffs is None:
            return cur  # tail already independent of the previous ones

        # y = x - sum(c_j x_j) is a nonzero head vector; once it is moved out
        # of the head span, the new tail of index i is forced out of the span
        # of the protected tails no matter how the block step steers them.
        y = (x - mulmod(a[:, :i], coeffs, p)) % p
        for esc_word, esc_y in self._escape_candidates(y):
            esc = _Built.of(esc_word, self.gs, self.gv)
            if i == 0:
                return esc + cur
            zetas = self._steer_tails(esc.mat, a[:t, :i].T, esc_y[t:])
            if zetas is None:
                continue
            new = esc + self._grou(sl_map_frame(self.field, prev_tails.T, zetas, m)) + cur
            if Subspace.span(self.field, new.mat.array[t:, : i + 1].T, m).dim == i + 1:
                return new
        # The block subgroup fixes the head span, so when every generator
        # does too (zero lower-left block) the head span is a proper
        # invariant subspace and the set provably does not generate.
        if not any(g.matrix.array[t:, :t].any() for g in self.gs):
            raise NotGeneratingError(
                f"every generator preserves the head span <e_1..e_{t}>", stuck_index=i + 1
            )
        raise SearchExhaustedError(
            f"could not give e_{i + 1} an independent tail projection", stuck_index=i + 1
        )

    def _steer_tails(self, esc: GFMatrix, heads: np.ndarray, kappa: np.ndarray) -> list[np.ndarray] | None:
        """Block images zeta_j for the protected tails, one per head in `heads`, or None.

        After the block step, `esc` sends protected vector j to the tail
        tau_j = phi_head head_j + phi_blk zeta_j.  Each zeta_j is the first
        candidate outside the span of the earlier zetas whose tau_j avoids the
        span of kappa and the earlier taus.
        """
        f, p, t, m = self.field, self.field.p, self.t, self.m
        phi_head, phi_blk = esc.array[t:, :t], esc.array[t:, t:]
        taus = Subspace.span(f, [kappa], m)
        zeta_span = Subspace.zero(f, m)
        zetas: list[np.ndarray] = []
        for head in heads:
            base = mulmod(phi_head, head, p)

            def good(z, base=base, taus=taus, zeta_span=zeta_span):
                tau = (base + mulmod(phi_blk, z, p)) % p
                return (not taus.contains(tau)) and (not zeta_span.contains(z))

            zeta = pick_in_coset_avoiding(f, AffineSet.subspace(Subspace.full(f, m)), good)
            if zeta is None:
                return None
            zetas.append(zeta)
            taus = taus.with_vector((base + mulmod(phi_blk, zeta, p)) % p)
            zeta_span = zeta_span.with_vector(zeta)
        return zetas

    # -- head-basis frames ---------------------------------------------------

    def head_basis_frames(self) -> list[FramePair]:
        """Tail vectors v_i and words a_i with {head(a_i v_i)} a head basis.

        Candidate vectors come from linear algebra only: a generator is
        applied to the already-moved vectors and to the tail coordinate
        basis, and accepted when the image leaves the current invariant
        candidate subspace.  Each step option takes one product over all
        candidate images and one reduction; its first image that leaves the
        subspace is taken.
        """
        t, n, p = self.t, self.n, self.field.p
        grown = self._tail
        frames: list[FramePair] = []
        units = np.eye(n, dtype=np.int64)[t:]
        for i in range(t):
            # candidate images: the frames' moved vectors, then the tail unit
            # vectors, which are their own images under the empty word
            images = np.vstack([*(fr.image for fr in frames), units])
            found = None
            for option, step in zip(self.gs.options, self.gs.steps):
                moved = mulmod(images, step.T, p)  # row j: the step applied to image j
                fresh = grown.reduce(moved).any(axis=1)
                if fresh.any():
                    j = int(fresh.argmax())
                    if j < len(frames):
                        v, base_word = frames[j].v, frames[j].a_word
                    else:
                        v, base_word = units[j - len(frames)], Word.empty()
                    found = (v, Word.single(option) + base_word, moved[j].copy())
                    break
            if found is None:
                raise NotGeneratingError(
                    f"a proper subspace of dimension {grown.dim} containing the tail span "
                    "is invariant under every generator",
                    stuck_index=i + 1,
                )
            v, a_word, moved = found
            frames.append(FramePair(v=v.copy(), a_word=a_word, image=moved))
            grown = grown.with_vector(moved)
        return frames

    # -- flattening the frames back into the tail span -----------------------

    def _affine_fiber(self, q: Subspace, x: np.ndarray) -> AffineSet | None:
        """{z in block coords : head(x) + z in q}, or None when empty."""
        t = self.t
        basis = q.basis_rows
        beta = solve_linear(self.field, basis[:, :t].T.copy(), x[:t])
        if beta is None:
            return None
        q0 = mulmod(beta, basis, self.field.p)
        return AffineSet(self.field, q0[t:], q.tail_meet(t))

    def frames_to_tail_word(self, frames: Sequence[FramePair]) -> Word:
        """A word b with b (a_j v_j) in the tail span for every frame j.

        Induction: b_1 undoes the first frame word; at each later step one
        block step stows the already-flattened images inside a mover-safe
        subspace while steering the next image into the mover's preimage of
        the tail span, and the mover finishes the step.  The movers tried are
        the inverted frame words: the next frame's first, then the others in
        frame order.
        """
        frames = list(frames)
        t, m = self.t, self.m
        if len(frames) != t:
            raise ParameterError(f"expected {t} frames, got {len(frames)}")

        @cache
        def preimage(j: int) -> tuple[Subspace, Subspace]:
            """Mover j's preimage of the tail span and its tail meet, made once per frame."""
            # the mover's inverse is frame word j: at most t generator matrices
            q_c = self._tail.image_under(evaluate_word(frames[j].a_word, self.gs, self.gv))
            return q_c, q_c.tail_meet(t)

        b = _Built.of(frames[0].a_word.inverse(), self.gs, self.gv)
        for i in range(1, t):
            y_blocks = [b.mat.apply(frames[j].image)[t:] for j in range(i)]
            x = b.mat.apply(frames[i].image)
            for j in [i] + [k for k in range(t) if k != i]:
                q_c, p_c = preimage(j)
                if p_c.dim < i:
                    continue
                if not x[t:].any():
                    if not q_c.contains(x):
                        continue
                    inputs = y_blocks
                    targets = [AffineSet.subspace(p_c)] * i
                else:
                    fiber = self._affine_fiber(q_c, x)
                    if fiber is None:
                        continue
                    inputs = y_blocks + [x[t:]]
                    targets = [AffineSet.subspace(p_c)] * i + [fiber]
                try:
                    payload = solve_block_map(self.field, inputs, targets, m)
                except ValueError:
                    continue
                b = _Built.of(frames[j].a_word.inverse(), self.gs, self.gv) + self._grou(payload) + b
                break
            else:
                raise SearchExhaustedError(
                    f"no mover flattens frame {i + 1} while protecting the earlier ones",
                    stuck_index=i + 1,
                )
        return b.word

    # -- the moving word ------------------------------------------------------

    def move_word(self) -> Word:
        """A word sending every head basis vector into the tail span."""
        if self._move is not None:
            return self._move.word
        t, m = self.t, self.m

        # witness short-circuit: a single generator may already do the job
        for option, step in zip(self.gs.options, self.gs.steps):
            if not step[:t, :t].any():
                self._move = _Built(Word.single(option), self.gs.step_matrix(option.index, option.inverse))
                return self._move.word

        a = _Built.of(self.tail_nonzero_word(), self.gs, self.gv)
        frames = self.head_basis_frames()
        bt = _Built.of(self.frames_to_tail_word(frames), self.gs, self.gv)

        reach = self._tail.image_under(bt.mat.inv())  # vectors b_t maps into the tail
        k_r = reach.tail_meet(t)
        head_cols = np.column_stack([fr.image[:t] for fr in frames])

        inputs = []
        targets = []
        for i in range(t):
            x = a.mat.column(i)
            alpha = solve_linear(self.field, head_cols, x[:t])  # frame heads form a basis
            u = np.zeros(self.n, dtype=np.int64)
            for fr, c in zip(frames, alpha):
                u = (u + int(c) * fr.image) % self.field.p
            inputs.append(x[t:])
            targets.append(AffineSet(self.field, u[t:], k_r))
        move = bt + self._grou(solve_block_map(self.field, inputs, targets, m)) + a
        if move.mat.array[:t, :t].any():
            raise InvariantError("the moving word leaves a head vector outside the tail span")
        self._move = move
        return move.word

    # -- the swap normal form ---------------------------------------------------

    def swap_word(self) -> Word:
        """A word evaluating exactly to swap_target(field, n, t).

        Composition: conjugate one block step that exchanges the moved head
        frame with a parked tail frame, then normalize with one block step
        on each side.  The middle payload is the `sl_map_frame` of that
        exchange; the two outer payloads are read off the column structure of
        the middle factor as one matrix and one inverse, turning the
        reachability of the normal form into one exact check of the finished
        word.
        """
        if self._swap is not None:
            return self._swap.word
        t, n, m = self.t, self.n, self.m
        p = self.field.p

        self.move_word()
        mv = self._move
        us = [mv.mat.column(i) for i in range(t)]

        parked = self._tail.image_under(mv.mat).intersect(self._tail)
        ws = [parked.basis_rows[i].copy() for i in range(t)]

        # the moved heads avoid the image of the tail span, so the 2t block
        # vectors below are independent (sl_map_frame checks it).  Both
        # frames span one space, so they share their extension, and the
        # signed swap on it has determinant 1: the extension stays fixed.
        us_blk = [u[t:] for u in us]
        ws_blk = [w[t:] for w in ws]
        center = sl_map_frame(self.field, us_blk + ws_blk, ws_blk + [(-u) % p for u in us_blk], m)
        b = _Built(mv.word.inverse(), mv.mat.inv()) + self._grou(center) + mv

        target = swap_target(self.field, n, t)
        sign = 1 if target.array[0, t] == 1 else -1  # target e_{t+i} = sign * e_i
        # b^-1 = mv^-1 (block-diag(I_t, center))^-1 mv: mv's inverse is kept, so one m x m inverse
        b_inv = mv.mat.inv() @ center.inv().embed_principal(n, t) @ mv.mat
        rs = [((sign * b_inv.column(i)) % p) for i in range(t)]

        stay = self._tail.intersect(self._tail.image_under(b_inv))
        rhos = [row.copy() for row in stay.basis_rows]

        # X_R sends the unit basis to these images, so its columns are them;
        # balance det(X_R) to 1 by rescaling the last parked vector, so X_R
        # carries its determinant.  The block step checks X_L's.
        x_r = GFMatrix.from_columns(self.field, [r[t:] for r in rs] + [rho[t:] for rho in rhos])
        d_inv = pow(int(x_r.det()), -1, p)
        rhos[-1] = (rhos[-1] * d_inv) % p
        r = self._grou(x_r.with_line_scaled(1, -1, d_inv))

        # X_L sends these sources to the unit basis
        left_sources = [b.mat.column(i)[t:] for i in range(t)] + [
            (b.mat.apply(rho))[t:] for rho in rhos
        ]
        swap = self._grou(GFMatrix.from_columns(self.field, left_sources).inv()) + b + r
        if swap.mat != target:
            raise InvariantError(f"the swap word misses the swap normal form at n={n}, t={t}")
        self._swap = swap
        return swap.word

    # -- window conjugation -----------------------------------------------------

    def window_conjugator(self, moved: Sequence[int]) -> tuple[Word, GFMatrix]:
        """A word C with C(tail span) = <head + moved coordinates>.

        `moved` selects n-2t tail coordinates; the complementary t tail
        coordinates end up pointwise fixed by any conjugated block action.
        """
        conj, _ = self._conjugator(moved)
        return conj.word, conj.mat

    def _conjugator(self, moved: Sequence[int]) -> tuple[_Built, GFMatrix | None]:
        """The conjugator block(pm) + swap with pm, or (swap, None); evaluates and checks swap^-1 once."""
        t, n, m = self.t, self.n, self.m
        moved_t = tuple(sorted(int(c) for c in moved))
        if len(moved_t) != n - 2 * t or len(set(moved_t)) != len(moved_t):
            raise ParameterError(f"moved set must contain n-2t={n - 2 * t} distinct coordinates")
        if any(c < t or c >= n for c in moved_t):
            raise ParameterError("moved coordinates must lie in the tail range")

        if self._swap_inverse is None:
            inv = _Built.of(self.swap_word().inverse(), self.gs, self.gv)
            if not (inv.mat @ self._swap.mat).is_identity():
                raise InvariantError(f"the swap's inverse word misses the swap's inverse at n={n}, t={t}")
            self._swap_inverse = inv
        # block index j goes to order[j]: the fixed coordinates, then the moved ones
        order = [c - t for c in range(t, n) if c not in moved_t] + [c - t for c in moved_t]
        if order == list(range(m)):
            return self._swap, None
        pm = GFMatrix(self.field, np.eye(m, dtype=np.int64)[:, order])
        if pm.det() != 1:  # an odd permutation: negating a column carries det 1
            pm = pm.with_line_scaled(1, m - 1, -1)
        return self._grou(pm) + self._swap, pm

    def window_action(self, moved: Sequence[int], z: GFMatrix) -> Word:
        """A word realizing z acting on the window (head + moved), det(z) = 1.

        The window transformation is conjugated back into the block subgroup,
        so the whole action costs two conjugators plus one block step; its
        payload has det(z), which `BlockStep` checks.
        """
        return self._window_built(moved, z).word

    def _window_built(self, moved: Sequence[int], z: GFMatrix) -> _Built:
        """`window_action`'s word with its matrix: C + block(inner) + C^-1, inner = C^-1 t_z C."""
        t, n = self.t, self.n
        moved_t = tuple(sorted(int(c) for c in moved))
        win = list(range(t)) + list(moved_t)
        if z.shape != (len(win), len(win)):
            raise ShapeError(f"window action must be {len(win)}x{len(win)}")
        if z.is_identity():
            return _Built(Word.empty(), GFMatrix.identity(self.field, n))
        conj, pm = self._conjugator(moved_t)
        conj_inv = self._swap_inverse
        if pm is not None:
            conj_inv += self._grou(pm.inv())
        full = np.eye(n, dtype=np.int64)
        full[np.ix_(win, win)] = z.array
        t_z = GFMatrix(self.field, full)
        inner = conj_inv.mat @ t_z @ conj.mat  # a block element: C maps the tail span onto the window
        return conj + self._grou(GFMatrix(self.field, inner.array[t:, t:])) + conj_inv

    # -- triangular and monomial targets ----------------------------------------

    def lower_triangular_word(self, l_mat: GFMatrix) -> Word:
        """A word evaluating exactly to a lower-triangular target of det 1.

        The word is built with its matrix from leaves and is not evaluated here.
        """
        self._check_target(l_mat, "lower triangular", is_lower_triangular)
        return self._shaped_word(l_mat, "lower triangular").word

    def monomial_word(self, w_mat: GFMatrix) -> Word:
        """A word evaluating exactly to a monomial target of det 1.

        The word is built with its matrix from leaves and is not evaluated here.
        """
        self._check_target(w_mat, "monomial", is_monomial)
        return self._shaped_word(w_mat, "monomial").word

    def _shaped_word(self, target: GFMatrix, kind: str) -> _Built:
        """One window factorization of a target N . w (see `_window_factor_word`), whose pairing never degenerates."""
        if target.is_identity():
            return _Built(Word.empty(), target)
        built = self._window_factor_word(target)
        if built is None:
            raise InvariantError(f"{kind} target with pairing rank < t={self.t}: no window factorization")
        return built

    def _window_factor_word(self, target: GFMatrix) -> _Built | None:
        """target = block(X1) . window element . block(X2): one window action, or None.

        The window is the head plus moved = (2t..n-1); F = (t..2t-1) is fixed.
        With A, C, D the head-tail, tail-head and tail-tail blocks of the
        target, choose t pairs (y_j, u_j) with y_j C = 0, A u_j = 0 and
        y_j D u_k = delta_jk; the u_j come from one `solve_linear` call whose
        right-hand side is I_t.  X2 has rows y_j D at F and X1^-1 has rows y_j
        at F, each completed by an annihilator basis; then
        X1^-1 . target . X2^-1 is the identity on the rows and columns F.
        Pairs exist exactly when the pairing y D u on left-ker C x ker A has
        rank >= t; otherwise this returns None.  That rank is constant on the
        double coset H . target . H of the block subgroup H, so no block step
        raises it; a general target may fall short.

        The rank is at least n - 2t >= t for every target M = N . w with
        N T = T and w monomial, where T is the tail span, H0 the head span,
        pi_T the projection onto the tail coordinates and E_X the span of the
        unit vectors indexed by X.  With W = M T, D maps ker A onto W cap T,
        and the annihilator of left-ker C is col(C) = pi_T(M H0), so the rank
        is dim((W cap T) + pi_T(M H0)) - dim pi_T(M H0).  Let w H0 = E_R and
        w T = E_S.  N E_(S cap tail) lies in W cap T and N E_(R cap tail) in
        pi_T(M H0); the two sum to N T = T, and dim pi_T(M H0) <= t, so the
        rank is at least (n - t) - t.  Lower-triangular and monomial targets
        have this form, and so do both factors b1 . w and b2 of a Bruhat
        split b1 . w . b2 (N = b1 or b2, unit lower triangular).
        """
        t, n, m = self.t, self.n, self.m
        f, p = self.field, self.field.p
        a = target.array
        a_blk, c_blk, d_blk = a[:t, t:], a[t:, :t], a[t:, t:]
        u_basis = Subspace.span(f, a_blk, m).perp().basis_rows  # ker A
        r_basis = Subspace.span(f, c_blk.T, m).perp().basis_rows  # left-ker C
        pairing = mulmod(mulmod(r_basis, d_blk, p), u_basis.T, p)
        rows = list(GFMatrix(f, pairing.T).rref().pivot_cols[:t])
        if len(rows) < t:
            return None
        ys = r_basis[rows]
        us = mulmod(solve_linear(f, pairing[rows], np.eye(t, dtype=np.int64)).T, u_basis, p)
        x2 = self._rows_at_fixed(mulmod(ys, d_blk, p), us)
        x1_inv = self._rows_at_fixed(ys, mulmod(us, d_blk.T, p))
        inner = x1_inv.embed_principal(n, t) @ target @ x2.inv().embed_principal(n, t)
        win = list(range(t)) + list(range(2 * t, n))
        k = GFMatrix(f, inner.array[np.ix_(win, win)])
        return self._grou(x1_inv.inv()) + self._window_built(win[t:], k) + self._grou(x2)

    def _rows_at_fixed(self, fixed_rows: np.ndarray, annihilated: np.ndarray) -> GFMatrix:
        """The det-1 block payload with `fixed_rows` at F, then a basis of ann(annihilated); its det is kept."""
        rest = Subspace.span(self.field, annihilated, self.m).perp().basis_rows
        payload = GFMatrix(self.field, np.vstack([fixed_rows, rest]))
        return payload.with_line_scaled(0, -1, pow(payload.det(), -1, self.field.p))

    # -- full construction --------------------------------------------------------

    def construct(self, target: GFMatrix) -> BuildReport:
        """A word for an arbitrary SL_n target, with its cost and check.

        A target whose window pairing has rank >= t (see
        `_window_factor_word`) takes one window action between two block
        steps, 2 |swap| + 3 b in all for the block step cost b.  A target
        whose pairing rank is below t is split through its triangular
        decomposition as (b1 . w) . b2 instead, one window action per factor,
        4 |swap| + 6 b in all.  The word's matrix, built with it from leaves,
        is compared with the target; no word is evaluated.  A word that misses
        the target, or costs more than the budget, is reported with ok=False.
        """
        self._check_target(target, "full")
        budget = self.budget_constant * self.n * self.n
        start = time.perf_counter_ns()

        built = self._construct_word(target)
        elapsed_us = (time.perf_counter_ns() - start) // 1000
        cost = word_cost(built.word, self.gs, self.gv)
        ok = built.mat == target and cost <= budget
        return BuildReport(
            target=target,
            word=built.word,
            cost=cost,
            budget=budget,
            elapsed_us=int(elapsed_us),
            ok=ok,
        )

    def _construct_word(self, target: GFMatrix) -> _Built:
        t, f = self.t, self.field
        if target.is_identity():
            return _Built(Word.empty(), target)
        # index order (generator i, its inverse, then i + 1) picks the word of a target equal to two steps
        for option in sorted(self.gs.options, key=lambda o: o.index):
            if self.gs.step_matrix(option.index, option.inverse) == target:
                return _Built(Word.single(option), target)
        arr = target.array
        if (
            np.array_equal(arr[:t, :t], np.eye(t, dtype=np.int64))
            and not arr[:t, t:].any()
            and not arr[t:, :t].any()
        ):
            return self._grou(GFMatrix(f, arr[t:, t:]))

        built = self._window_factor_word(target)
        if built is not None:
            return built
        # the pairing rank is below t on the whole double coset H . target . H,
        # while b1 . w and b2 have pairing rank >= n - 2t >= t (`_window_factor_word`).
        # The factors are not re-checked: `bruhat_decompose` checked their shapes and
        # product, and b1, b2 are unit lower triangular, so det(b1 . w) = det(target) = 1.
        triple = bruhat_decompose(target)
        return self._shaped_word(triple.b1 @ triple.w, "b1 . w") + self._shaped_word(triple.b2, "b2")

