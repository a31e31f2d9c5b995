"""Constructive synthesis of generator words for SL_n(F_p) targets.

Given a symmetric generating set together with a standard-basis block
subgroup (every block-diag(I_t, X) available as one step), the builder
produces explicit words for:

  * a "moving" word sending <e_1..e_t> into the tail span <e_{t+1}..e_n>,
  * the coordinate-swap normal form exchanging the head block with the
    next t coordinates, at cost O(t^2) in the step-cost model,
  * window conjugates that let the block subgroup act on the head
    coordinates plus any chosen n-2t tail coordinates,
  * arbitrary lower-triangular and monomial targets at cost O(n^2),
  * arbitrary SL_n targets through their triangular/monomial factorization.

Costs are honest: every factor of every produced word is either a declared
generator (or its inverse; the sets are required to be symmetric) or a
single block step, and nothing is ever edited for free.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bruhat import bruhat_decompose, is_lower_triangular, is_monomial
from .errors import ParameterError, SearchExhaustedError, NotGeneratingError, ShapeError
from .ff_linalg import (
    AffineSet,
    GFMatrix,
    Subspace,
    complete_to_basis,
    mulmod,
    pick_in_coset_avoiding,
    sl_from_basis_images,
    sl_map_frame,
    solve_block_map,
    solve_linear,
    unit_vector,
)
from .group_model import (
    GenStep,
    GeneratorSet,
    Groumvirate,
    Word,
    evaluate_word,
    groumvirate_step,
    swap_target,
    word_cost,
)

DEFAULT_BUDGET_CONSTANT = 64


@dataclass(frozen=True)
class FramePair:
    """A tail vector v and a word a with head(a v) nonzero.

    Collected so that the head projections of the moved vectors a_i v_i form
    a basis of <e_1..e_t>; `index` is the 1-based collection index, and the
    word is drawn from products of at most `index` generators.
    """

    v: np.ndarray
    a_word: Word
    index: int


@dataclass
class BuildReport:
    target: GFMatrix
    word: Word
    cost: int
    budget: int
    steps: int
    elapsed_us: int
    ok: bool


class WordBuilder:
    """Caches the expensive conjugators so bulk construction stays cheap."""

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
        self.gs = gs
        self.gv = gv
        self.field = gs.field
        self.n = gs.n
        self.t = gv.t
        self.m = gv.block_dim
        self.escape_budget = 2 * gv.t + 2
        self.budget_constant = budget_constant
        self._head = Subspace.head(self.field, self.n, self.t)
        self._tail = Subspace.tail(self.field, self.n, self.t)
        self._move: tuple[Word, GFMatrix] | None = None
        self._swap: tuple[Word, GFMatrix] | None = None
        # moved set -> (conjugator word, its matrix, its inverse word)
        self._conjugators: dict[tuple[int, ...], tuple[Word, GFMatrix, Word]] = {}

    # -- low-level helpers -------------------------------------------------

    def _require_regime(self, what: str):
        if 3 * self.t > self.n:
            raise ParameterError(
                f"{what} needs n - 2t >= t (3t <= n); got n={self.n}, t={self.t}"
            )

    def _step_options(self) -> list[tuple[int, bool]]:
        opts = [(i, False) for i in range(len(self.gs))]
        opts += [(i, True) for i in range(len(self.gs))]
        return opts

    def _grou(self, payload: GFMatrix) -> tuple[Word, GFMatrix]:
        return groumvirate_step(payload, self.gv), self.gv.embed(payload)

    def _eval(self, word: Word) -> GFMatrix:
        return evaluate_word(word, self.gs, self.gv)

    def _block_coords(self, v: np.ndarray) -> np.ndarray:
        assert not v[: self.t].any()
        return v[self.t :]

    def _block_subspace(self, s: Subspace) -> Subspace:
        """Rewrite a subspace of the tail span in block coordinates."""
        rows = s.basis_rows
        assert not rows[:, : self.t].any()
        return Subspace.span(self.field, rows[:, self.t :], self.m)

    def _escape_candidates(
        self, x: np.ndarray, bad: Subspace
    ) -> Iterator[tuple[Word, GFMatrix, np.ndarray]]:
        """Short words w with (eval w) x outside `bad`, by span growth.

        Tracked vectors are only enqueued when they grow the reachable span,
        so the search state stays linear in n; since `bad` is a subspace, a
        witness always appears among individual tracked vectors before the
        span stabilizes.
        """
        ident = GFMatrix.identity(self.field, self.n)
        span = Subspace.span(self.field, [x], self.n)
        queue: deque[tuple[Word, GFMatrix, np.ndarray]] = deque([(Word.empty(), ident, x)])
        if not bad.contains(x):
            yield Word.empty(), ident, x
        while queue:
            word, mat, v = queue.popleft()
            if len(word) >= self.escape_budget:
                continue
            for idx, inv in self._step_options():
                step = self.gs.step_matrix(idx, inv)
                v2 = step.apply(v)
                w2 = Word.single(GenStep(idx, inv)) + word
                m2 = step @ mat
                if not bad.contains(v2):
                    yield w2, m2, v2
                if not span.contains(v2):
                    span = span.sum(Subspace.span(self.field, [v2], self.n))
                    queue.append((w2, m2, v2))

    # -- simultaneous nonzero (and independent) tail projections -----------

    def tail_nonzero_word(self) -> Word:
        """A word a with tail(a e_i) != 0 for every head index i.

        The implementation maintains the stronger invariant that the tail
        projections of the moved head basis are linearly independent, which
        the later single-block-step retargeting relies on.
        """
        self._require_regime("tail activation")
        word = Word.empty()
        mat = GFMatrix.identity(self.field, self.n)
        for i in range(self.t):
            word, mat = self._fix_tail_index(word, mat, i)
        tails = mat.array[self.t :, : self.t]
        assert Subspace.span(self.field, tails.T, self.m).dim == self.t
        return word

    def _fix_tail_index(self, word: Word, mat: GFMatrix, i: int) -> tuple[Word, GFMatrix]:
        p = self.field.p
        t, m = self.t, self.m
        xs = [mat.column(j) for j in range(i + 1)]
        prev_tails = [x[t:] for x in xs[:i]]
        x = xs[i]
        if prev_tails:
            coeffs = solve_linear(self.field, np.column_stack(prev_tails), x[t:])
            if coeffs is None:
                return word, mat  # tail already independent of the previous ones
        else:
            if x[t:].any():
                return word, mat
            coeffs = np.zeros(0, dtype=np.int64)

        # y = x - sum(c_j x_j) is a nonzero head vector; once it is moved out
        # of the head span, the new tail of index i is forced out of the span
        # of the protected tails no matter how the block step steers them.
        y = x.copy()
        for j, c in enumerate(coeffs):
            y = (y - int(c) * xs[j]) % p
        assert y[:t].any() and not y[t:].any()

        for esc_word, esc_mat, _ in self._escape_candidates(y, self._head):
            if len(esc_word) == 0:
                continue
            kappa = (esc_mat.apply(y))[t:] % p
            assert kappa.any()
            if i == 0:
                new_word = esc_word + word
                new_mat = esc_mat @ mat
                return new_word, new_mat
            phi_blk = esc_mat.array[t:, t:] % p  # tail image of a block vector
            phi_head = esc_mat.array[t:, :t] % p
            chosen_img = Subspace.span(self.field, [kappa], m)
            chosen_zeta: list[np.ndarray] = []
            zeta_span = Subspace.zero(self.field, m)
            ok = True
            for j in range(i):
                base = mulmod(phi_head, xs[j][:t], p)
                img_span = chosen_img
                z_span = zeta_span

                def good(z, base=base, img_span=img_span, z_span=z_span):
                    tau = (base + mulmod(phi_blk, z, p)) % p
                    return (not img_span.contains(tau)) and (not z_span.contains(z))

                zeta = pick_in_coset_avoiding(
                    self.field,
                    AffineSet.subspace(Subspace.full(self.field, m)),
                    [good],
                )
                if zeta is None:
                    ok = False
                    break
                chosen_zeta.append(zeta)
                tau = (base + mulmod(phi_blk, zeta, p)) % p
                chosen_img = chosen_img.sum(Subspace.span(self.field, [tau], m))
                zeta_span = zeta_span.sum(Subspace.span(self.field, [zeta], m))
            if not ok:
                continue
            payload = sl_map_frame(self.field, prev_tails, chosen_zeta, m)
            g_word, g_mat = self._grou(payload)
            new_word = esc_word + g_word + word
            new_mat = esc_mat @ g_mat @ mat
            new_tails = new_mat.array[t:, : i + 1]
            if Subspace.span(self.field, new_tails.T, m).dim == i + 1:
                return new_word, new_mat
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

    # -- head-basis frames ---------------------------------------------------

    def head_basis_frames(self) -> list[FramePair]:
        """Tail vectors v_i and words a_i with {head(a_i v_i)} a head basis.

        Candidate vectors come from linear algebra only: a generator is
        applied to the already-moved vectors and to the tail coordinate
        basis, and accepted when the image leaves the current invariant
        candidate subspace.
        """
        self._require_regime("head basis frames")
        t, n = self.t, self.n
        grown = self._tail
        frames: list[FramePair] = []
        images: list[np.ndarray] = []
        for i in range(t):
            found = None
            for idx, inv in self._step_options():
                step = self.gs.step_matrix(idx, inv)
                candidates: list[tuple[np.ndarray, Word, np.ndarray]] = [
                    (frames[j].v, frames[j].a_word, images[j]) for j in range(i)
                ]
                candidates += [
                    (unit_vector(n, k), Word.empty(), unit_vector(n, k)) for k in range(t, n)
                ]
                for v, base_word, img in candidates:
                    moved = step.apply(img)
                    if not grown.contains(moved):
                        found = (v, Word.single(GenStep(idx, inv)) + base_word, moved)
                        break
                if found:
                    break
            if found is None:
                raise NotGeneratingError(
                    f"a proper subspace of dimension {grown.dim} containing the tail span "
                    "is invariant under every generator",
                    stuck_index=i + 1,
                )
            v, a_word, moved = found
            frames.append(FramePair(v=v.copy(), a_word=a_word, index=i + 1))
            images.append(moved)
            grown = grown.sum(Subspace.span(self.field, [moved], n))
        heads = np.vstack([img[:t] for img in images])
        assert Subspace.span(self.field, heads, t).dim == t
        return frames

    # -- flattening the frames back into the tail span -----------------------

    def _mover_pool(self, frames: list[FramePair], i: int) -> Iterator[tuple[Word, GFMatrix]]:
        """Candidate movers for the induction step: frame words inverted.

        The primary mover, the inverse of frame i's word, comes first, then
        the inverses of the other frames' words in frame order.
        """
        for j in [i] + [k for k in range(len(frames)) if k != i]:
            w = frames[j].a_word.inverse()
            yield w, self._eval(w)

    def _affine_fiber(self, q: Subspace, x: np.ndarray) -> AffineSet | None:
        """{z in block coords : head(x) + z in q}, or None when empty."""
        t = self.t
        basis = q.basis_rows
        beta = solve_linear(self.field, basis[:, :t].T.copy(), x[:t])
        if beta is None:
            return None
        q0 = mulmod(beta, basis, self.field.p)
        dirs = self._block_subspace(q.intersect(self._tail))
        return AffineSet(self.field, q0[t:], dirs)

    def frames_to_tail_word(self, frames: Sequence[FramePair]) -> Word:
        """A word b with b (a_j v_j) in the tail span for every frame j.

        Induction: b_1 undoes the first frame word; at each later step one
        block step stows the already-flattened images inside a mover-safe
        subspace while steering the next image into the mover's preimage of
        the tail span, and the mover (primarily the inverse of the next
        frame word) finishes the step.
        """
        self._require_regime("frame flattening")
        frames = list(frames)
        t, m = self.t, self.m
        if len(frames) != t:
            raise ParameterError(f"expected {t} frames, got {len(frames)}")
        f_mats = [self._eval(f.a_word) for f in frames]
        m_vecs = [fm.apply(f.v) for fm, f in zip(f_mats, frames)]

        b_word = frames[0].a_word.inverse()
        b_mat = f_mats[0].inv()
        for i in range(1, t):
            ys = [b_mat.apply(m_vecs[j]) for j in range(i)]
            y_blocks = [self._block_coords(y) for y in ys]
            x = b_mat.apply(m_vecs[i])
            placed = False
            for c_word, c_mat in self._mover_pool(frames, i):
                q_c = self._tail.image_under(c_mat.inv())
                p_c = self._block_subspace(q_c.intersect(self._tail))
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
                g_word, g_mat = self._grou(payload)
                b_word = c_word + g_word + b_word
                b_mat = c_mat @ g_mat @ b_mat
                placed = True
                break
            if not placed:
                raise SearchExhaustedError(
                    f"no mover flattens frame {i + 1} while protecting the earlier ones",
                    stuck_index=i + 1,
                )
        for mv in m_vecs:
            assert self._tail.contains(b_mat.apply(mv))
        return b_word

    # -- the moving word ------------------------------------------------------

    def move_word(self) -> Word:
        """A word sending every head basis vector into the tail span."""
        if self._move is not None:
            return self._move[0]
        self._require_regime("the moving word")
        t, m = self.t, self.m

        # witness short-circuit: a single generator may already do the job
        for idx, inv in self._step_options():
            step = self.gs.step_matrix(idx, inv)
            if not step.array[:t, :t].any():
                w = Word.single(GenStep(idx, inv))
                self._move = (w, step)
                return w

        a_word = self.tail_nonzero_word()
        a_mat = self._eval(a_word)
        frames = self.head_basis_frames()
        bt_word = self.frames_to_tail_word(frames)
        bt_mat = self._eval(bt_word)

        reach = self._tail.image_under(bt_mat.inv())  # vectors b_t maps into the tail
        k_r = self._block_subspace(reach.intersect(self._tail))
        f_mats = [self._eval(f.a_word) for f in frames]
        m_vecs = [fm.apply(f.v) for fm, f in zip(f_mats, frames)]
        head_cols = np.column_stack([mv[: t] for mv in m_vecs])

        inputs = []
        targets = []
        for i in range(t):
            x = a_mat.column(i)
            alpha = solve_linear(self.field, head_cols, x[:t])
            assert alpha is not None  # frame heads form a basis
            u = np.zeros(self.n, dtype=np.int64)
            for j, c in enumerate(alpha):
                u = (u + int(c) * m_vecs[j]) % self.field.p
            assert np.array_equal(u[:t], x[:t])
            inputs.append(x[t:])
            targets.append(AffineSet(self.field, u[t:], k_r))
        payload = solve_block_map(self.field, inputs, targets, m)
        g_word, g_mat = self._grou(payload)

        word = bt_word + g_word + a_word
        mat = bt_mat @ g_mat @ a_mat
        assert not mat.array[:t, :t].any()
        self._move = (word, mat)
        return word

    # -- the swap normal form ---------------------------------------------------

    def swap_word(self) -> Word:
        """A word evaluating exactly to swap_target(field, n, t).

        Composition: conjugate one block step that exchanges the moved head
        frame with a parked tail frame, then normalize with one block step
        on each side.  The two outer payloads are solved from the column
        structure of the middle factor, turning the reachability of the
        normal form into runtime assertions.
        """
        if self._swap is not None:
            return self._swap[0]
        self._require_regime("the swap normal form")
        t, n, m = self.t, self.n, self.m
        p = self.field.p

        mv_word = self.move_word()
        mv_mat = self._move[1]
        us = [mv_mat.column(i) for i in range(t)]
        for u in us:
            assert self._tail.contains(u)

        parked = self._tail.image_under(mv_mat).intersect(self._tail)
        assert parked.dim >= n - 2 * t
        ws = [parked.basis_rows[i].copy() for i in range(t)]

        us_blk = [u[t:] for u in us]
        ws_blk = [w[t:] for w in ws]
        joint = Subspace.span(self.field, us_blk + ws_blk, m)
        assert joint.dim == 2 * t  # the moved heads avoid the image of the tail span
        full = Subspace.full(self.field, m)
        extension = complete_to_basis(self.field, us_blk + ws_blk, full)[2 * t :]
        sources = us_blk + ws_blk + extension
        images = ws_blk + [(-u) % p for u in us_blk] + extension
        center = sl_from_basis_images(self.field, sources, images)
        c_word, c_mat = self._grou(center)

        b_word = mv_word.inverse() + c_word + mv_word
        b_mat = mv_mat.inv() @ c_mat @ mv_mat

        target = swap_target(self.field, n, t)
        sign = 1 if (t % 2 == 0 or p == 2) else -1  # target e_{t+i} = sign * e_i
        b_inv = b_mat.inv()
        rs = [((sign * b_inv.column(i)) % p) for i in range(t)]

        stay = self._tail.intersect(self._tail.image_under(b_inv))
        assert stay.dim == n - 2 * t
        v_span = Subspace.span(self.field, [b_mat.column(i) for i in range(t)], n)
        rhos = [row.copy() for row in stay.basis_rows]
        for rho in rhos:
            assert not v_span.contains(rho)

        # balance det(X_R) to 1 by rescaling the last parked vector
        right_sources = [unit_vector(m, i) for i in range(m)]
        right_images = [r[t:] for r in rs] + [rho[t:] for rho in rhos]
        d = GFMatrix.from_columns(self.field, right_images).det()
        rhos[-1] = (rhos[-1] * pow(int(d), -1, p)) % p
        right_images[-1] = rhos[-1][t:]
        x_right = sl_from_basis_images(self.field, right_sources, right_images)
        r_word, r_mat = self._grou(x_right)

        left_sources = [b_mat.column(i)[t:] for i in range(t)] + [
            (b_mat.apply(rho))[t:] for rho in rhos
        ]
        for rho in rhos:
            assert self._tail.contains(b_mat.apply(rho))
        left_images = [unit_vector(m, i) for i in range(m)]
        x_left = sl_from_basis_images(self.field, left_sources, left_images)
        l_word, l_mat = self._grou(x_left)

        word = l_word + b_word + r_word
        mat = l_mat @ b_mat @ r_mat
        assert mat == target
        self._swap = (word, mat)
        return word

    def swap_matrix(self) -> GFMatrix:
        self.swap_word()
        return self._swap[1]

    # -- window conjugation -----------------------------------------------------

    def window_conjugator(self, moved: Sequence[int]) -> tuple[Word, GFMatrix]:
        """A word C with C(tail span) = <head + moved coordinates>.

        `moved` selects n-2t tail coordinates; the complementary t tail
        coordinates end up pointwise fixed by any conjugated block action.
        """
        c_word, c_mat, _ = self._conjugator(moved)
        return c_word, c_mat

    def _conjugator(self, moved: Sequence[int]) -> tuple[Word, GFMatrix, Word]:
        """The cached window_conjugator entry, with the inverse word built once."""
        t, n, m = self.t, self.n, self.m
        moved_t = tuple(sorted(int(c) for c in moved))
        if moved_t in self._conjugators:
            return self._conjugators[moved_t]
        if len(moved_t) != n - 2 * t or len(set(moved_t)) != len(moved_t):
            raise ParameterError(f"moved set must contain n-2t={n - 2 * t} distinct coordinates")
        if any(c < t or c >= n for c in moved_t):
            raise ParameterError("moved coordinates must lie in the tail range")

        s_word = self.swap_word()
        s_mat = self._swap[1]
        fixed = tuple(c for c in range(t, n) if c not in moved_t)
        perm = {}
        for j, c in enumerate(fixed):
            perm[t + j] = c
        for k, c in enumerate(moved_t):
            perm[2 * t + k] = c
        if all(perm[k] == k for k in perm):
            self._conjugators[moved_t] = (s_word, s_mat, s_word.inverse())
            return self._conjugators[moved_t]
        payload = np.zeros((m, m), dtype=np.int64)
        for src, dst in perm.items():
            payload[dst - t, src - t] = 1
        pm = GFMatrix(self.field, payload)
        if pm.det() != 1:
            payload[:, m - 1] = (-payload[:, m - 1]) % self.field.p
            pm = GFMatrix(self.field, payload)
        p_word, p_mat = self._grou(pm)
        conj_word = p_word + s_word
        conj_mat = p_mat @ s_mat
        self._conjugators[moved_t] = (conj_word, conj_mat, conj_word.inverse())
        return self._conjugators[moved_t]

    def window_action(self, moved: Sequence[int], z: GFMatrix) -> Word:
        """A word realizing z acting on the window (head + moved), det(z) = 1.

        The window transformation is conjugated back into the block subgroup,
        so the whole action costs two conjugators plus one block step.
        """
        t, n = self.t, self.n
        moved_t = tuple(sorted(int(c) for c in moved))
        win = list(range(t)) + list(moved_t)
        if z.shape != (len(win), len(win)):
            raise ShapeError(f"window action must be {len(win)}x{len(win)}")
        if z.is_identity():
            return Word.empty()
        if z.det() != 1:
            raise ParameterError("window action must have determinant 1")
        c_word, c_mat, c_inv_word = self._conjugator(moved_t)
        full = np.eye(n, dtype=np.int64)
        full[np.ix_(win, win)] = z.array
        t_z = GFMatrix(self.field, full)
        inner = c_mat.inv() @ t_z @ c_mat
        arr = inner.array
        assert not arr[:t, t:].any() and not arr[t:, :t].any()
        assert np.array_equal(arr[:t, :t], np.eye(t, dtype=np.int64))
        payload = GFMatrix(self.field, arr[t:, t:])
        g_word, _ = self._grou(payload)
        return c_word + g_word + c_inv_word

    def upgrade_word(self, block_element: GFMatrix, moved: Sequence[int]) -> Word:
        """Conjugate a block-subgroup element onto the chosen window.

        `block_element` must be block-diag(I_t, X); the result acts
        invariantly on <e_1..e_t> + <moved> and fixes the remaining t tail
        coordinates pointwise.
        """
        t, n = self.t, self.n
        if block_element.shape != (n, n):
            raise ShapeError("expected an n x n transformation")
        arr = block_element.array
        admissible = (
            np.array_equal(arr[:t, :t], np.eye(t, dtype=np.int64))
            and not arr[:t, t:].any()
            and not arr[t:, :t].any()
        )
        if not admissible:
            raise ParameterError("transformation is not a standard-basis block element")
        payload = GFMatrix(self.field, arr[t:, t:])
        self.gv.check_payload(payload)
        c_word, c_mat, c_inv_word = self._conjugator(moved)
        g_word, _ = self._grou(payload)
        word = c_word + g_word + c_inv_word
        result = c_mat @ block_element @ c_mat.inv()
        assert self._eval(word) == result
        return word

    # -- triangular and monomial targets ----------------------------------------

    def _default_moved(self) -> tuple[int, ...]:
        return tuple(range(2 * self.t, self.n))

    def _wide_window(self) -> tuple[int, ...]:
        """Moved set covering the middle coordinates, padded from the far tail."""
        t, n = self.t, self.n
        pad = (n - 2 * t) - t
        return tuple(range(t, 2 * t)) + tuple(range(2 * t, 2 * t + pad))

    def lower_triangular_word(self, l_mat: GFMatrix) -> Word:
        """A word evaluating exactly to a lower-triangular target of det 1.

        The word is not evaluated here; `construct` verifies the full word.
        """
        self._require_regime("triangular construction")
        t, n = self.t, self.n
        f = self.field
        if l_mat.shape != (n, n):
            raise ShapeError("target size mismatch")
        if not is_lower_triangular(l_mat):
            raise ParameterError("target is not lower triangular")
        d_l = l_mat.det()
        if d_l != 1:
            raise ParameterError(f"target determinant {d_l} != 1")
        if l_mat.is_identity():
            return Word.empty()

        a = l_mat.array
        l11 = GFMatrix(f, a[:t, :t])
        l21 = GFMatrix(f, a[t : 2 * t, :t])
        l31 = GFMatrix(f, a[2 * t :, :t])
        d1 = l11.det()
        delta = GFMatrix.diagonal(f, [d1] + [1] * (t - 1))
        l11_inv = l11.inv()

        # window A: rows/cols head + next t coordinates (padded window)
        wideA = self._wide_window()
        winA = len(wideA) + t
        za = np.eye(winA, dtype=np.int64)
        za[:t, :t] = (delta @ l11_inv).array
        za[t : 2 * t, :t] = ((l21 @ l11_inv).scale(-1)).array
        z_a = GFMatrix(f, za)

        # window B: rows/cols head + far tail
        movedB = self._default_moved()
        delta3 = GFMatrix.diagonal(f, [d1] + [1] * (n - 2 * t - 1))
        zb = np.eye(t + (n - 2 * t), dtype=np.int64)
        zb[:t, :t] = delta.inv().array
        zb[t:, t:] = delta3.array
        zb[t:, :t] = ((delta3 @ l31 @ delta.inv()).scale(-1)).array
        z_b = GFMatrix(f, zb)

        # after both window steps only a block-subgroup factor remains
        cur = self._embed_window(z_b, list(range(t)) + list(movedB)) @ (
            self._embed_window(z_a, list(range(t)) + list(wideA)) @ l_mat
        )
        ca = cur.array
        assert np.array_equal(ca[:t, :t], np.eye(t, dtype=np.int64))
        assert not ca[:t, t:].any() and not ca[t:, :t].any()
        tail_block = GFMatrix(f, ca[t:, t:])

        return (
            self.window_action(wideA, z_a.inv())
            + self.window_action(movedB, z_b.inv())
            + groumvirate_step(tail_block, self.gv)
        )

    def _embed_window(self, z: GFMatrix, win: list[int]) -> GFMatrix:
        full = np.eye(self.n, dtype=np.int64)
        full[np.ix_(win, win)] = z.array
        return GFMatrix(self.field, full)

    def monomial_word(self, w_mat: GFMatrix) -> Word:
        """A word evaluating exactly to a monomial target of det 1.

        The underlying permutation splits into a window part (handled by one
        conjugated block action) and a tail-only part (one block step); the
        remaining diagonal is split the same way.  The word is not evaluated
        here; `construct` verifies the full word.
        """
        self._require_regime("monomial construction")
        t, n, m = self.t, self.n, self.m
        f = self.field
        p = f.p
        if w_mat.shape != (n, n):
            raise ShapeError("target size mismatch")
        if not is_monomial(w_mat):
            raise ParameterError("target is not monomial")
        if w_mat.det() != 1:
            raise ParameterError("target determinant != 1")
        if w_mat.is_identity():
            return Word.empty()

        sigma = [int(np.nonzero(w_mat.array[:, j])[0][0]) for j in range(n)]
        sources = [sigma.index(k) for k in range(t)]
        out_sources = sorted(s for s in sources if s >= t)
        pad = [c for c in range(t, n) if c not in out_sources]
        moved = tuple(sorted(out_sources + pad[: (n - 2 * t) - len(out_sources)]))
        win = list(range(t)) + list(moved)
        pos = {c: q for q, c in enumerate(win)}

        sig_in: dict[int, int] = {}
        for s in sources:
            sig_in[pos[s]] = pos[sigma[s]]
        free_sources = [q for q in range(len(win)) if q not in sig_in]
        free_targets = [q for q in range(len(win)) if q not in set(sig_in.values())]
        for q, tq in zip(free_sources, free_targets):
            sig_in[q] = tq

        z_in = np.zeros((len(win), len(win)), dtype=np.int64)
        for q, tq in sig_in.items():
            z_in[tq, q] = 1
        zi = GFMatrix(f, z_in)
        if zi.det() != 1:
            fix = free_sources[-1]
            z_in[:, fix] = (-z_in[:, fix]) % p
            zi = GFMatrix(f, z_in)
        word_in = self.window_action(moved, zi)
        r_in = self._embed_window(zi, win)

        sig_in_full = list(range(n))
        for q, tq in sig_in.items():
            sig_in_full[win[q]] = win[tq]
        inv_in = [0] * n
        for s, d in enumerate(sig_in_full):
            inv_in[d] = s
        sig_out = [sigma[inv_in[k]] for k in range(n)]
        assert all(sig_out[k] == k for k in range(t))

        if all(sig_out[k] == k for k in range(n)):
            step_out = Word.empty()
            p_out = GFMatrix.identity(f, n)
        else:
            payload = np.zeros((m, m), dtype=np.int64)
            for k in range(t, n):
                payload[sig_out[k] - t, k - t] = 1
            pm = GFMatrix(f, payload)
            if pm.det() != 1:
                payload[:, m - 1] = (-payload[:, m - 1]) % p
                pm = GFMatrix(f, payload)
            step_out = groumvirate_step(pm, self.gv)
            p_out = self.gv.embed(pm)

        r0 = p_out @ r_in
        diag = w_mat @ r0.inv()
        darr = diag.array
        assert is_monomial(diag) and not np.any(darr - np.diag(np.diagonal(darr)))
        d_entries = np.diagonal(darr).copy()

        head_prod = 1
        for k in range(t):
            head_prod = (head_prod * int(d_entries[k])) % p
        if all(int(d_entries[k]) == 1 for k in range(t)):
            word_dw = Word.empty()
            dw = GFMatrix.identity(f, n)
        else:
            zd = np.eye(len(win), dtype=np.int64)
            for k in range(t):
                zd[k, k] = int(d_entries[k])
            zd[t, t] = pow(head_prod, -1, p)
            zdm = GFMatrix(f, zd)
            word_dw = self.window_action(moved, zdm)
            dw = self._embed_window(zdm, win)

        rest = diag @ dw.inv()
        rarr = rest.array
        assert np.array_equal(rarr[:t, :t], np.eye(t, dtype=np.int64))
        tail_payload = GFMatrix(f, rarr[t:, t:])
        if tail_payload.is_identity():
            step_blk = Word.empty()
        else:
            step_blk = groumvirate_step(tail_payload, self.gv)

        return word_dw + step_blk + step_out + word_in

    # -- full construction --------------------------------------------------------

    def construct(self, target: GFMatrix) -> BuildReport:
        """Factor an arbitrary SL_n target through its triangular decomposition.

        The finished word is evaluated once and compared with the target;
        a word that misses it, or costs more than the budget, is reported
        with ok=False.
        """
        self._require_regime("full construction")
        n = self.n
        f = self.field
        if target.shape != (n, n):
            raise ShapeError("target size mismatch")
        d = target.det()
        if d != 1:
            raise ParameterError(f"target determinant {d} != 1")
        budget = self.budget_constant * n * n
        start = time.perf_counter_ns()

        word = self._construct_word(target)
        elapsed_us = (time.perf_counter_ns() - start) // 1000
        cost = word_cost(word, self.gs, self.gv)
        ok = self._eval(word) == target and cost <= budget
        return BuildReport(
            target=target,
            word=word,
            cost=cost,
            budget=budget,
            steps=len(word),
            elapsed_us=int(elapsed_us),
            ok=ok,
        )

    def _construct_word(self, target: GFMatrix) -> Word:
        t, n = self.t, self.n
        f = self.field
        if target.is_identity():
            return Word.empty()
        for idx in range(len(self.gs)):
            if self.gs.matrix(idx) == target:
                return Word.single(GenStep(idx))
            if self.gs.inverse_matrix(idx) == target:
                return Word.single(GenStep(idx, True))
        arr = target.array
        if (
            np.array_equal(arr[:t, :t], np.eye(t, dtype=np.int64))
            and not arr[:t, t:].any()
            and not arr[t:, :t].any()
        ):
            return groumvirate_step(GFMatrix(f, arr[t:, t:]), self.gv)

        triple = bruhat_decompose(target)
        d1 = triple.b1.det()
        d2 = triple.b2.det()
        dm1 = GFMatrix.diagonal(f, [d1] + [1] * (n - 1))
        dm2 = GFMatrix.diagonal(f, [d2] + [1] * (n - 1))
        b1 = triple.b1 @ dm1.inv()
        b2 = dm2.inv() @ triple.b2
        w = dm1 @ triple.w @ dm2
        return self.lower_triangular_word(b1) + self.monomial_word(w) + self.lower_triangular_word(b2)

