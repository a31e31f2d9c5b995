"""The benchmark's workloads: set-up, seeded inputs, one timed operation, and its oracle.

Each operation is a fixed sequence of timed parts: one construct call; the
ten swap builds of a sweep; a descent batch and the two BFS walks.  `op_ms`
is the run's mean of their sum.  Each operation yields items, and every item
is checked outside the timed region with `exact`.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from statistics import fmean

import numpy as np

from slword import (
    PrimeField,
    GFMatrix,
    WordBuilder,
    bfs_covering,
    lb_generating_set,
    lb_generating_set_explicit,
    potential_trace,
    verify_descent,
    word_cost,
    word_to_text,
)

import exact


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _evaluator(gs, gv) -> exact.WordEvaluator:
    return exact.WordEvaluator([g.matrix.array for g in gs], gs.n, gv.t, gs.field.p)


class Construct:
    """`WordBuilder.construct` on uniform SL_n(F_p) targets with a warm builder."""

    POOL = 256  # distinct targets; a run longer than the pool cycles through it

    def __init__(self, name: str, n: int, p: int, nominal_op_s: float, why: str):
        self.name, self.n, self.p, self.why = name, n, p, why
        self.nominal_op_s = nominal_op_s
        self.params = {"n": n, "p": p, "t": math.ceil(n / 3)}
        self.items_per_op = 1

    def setup(self):
        field = PrimeField(self.p)
        gs, gv = lb_generating_set(field, self.n)
        builder = WordBuilder(gs, gv)
        builder.swap_word()
        for moved in itertools.combinations(range(gv.t, self.n), self.n - 2 * gv.t):
            builder.window_conjugator(moved)
        return builder

    def inputs(self, rng: random.Random) -> list[GFMatrix]:
        field = PrimeField(self.p)
        return [GFMatrix(field, exact.uniform_sl(rng, self.p, self.n)) for _ in range(self.POOL)]

    def run(self, builder, target):
        dt, report = _timed(builder.construct, target)
        return [dt], [report]

    def oracle(self, builder):
        evaluate = _evaluator(builder.gs, builder.gv)

        def check(target, report) -> str | None:
            if not report.ok:
                return f"report not ok (cost {report.cost}, budget {report.budget})"
            if not np.array_equal(evaluate(report.word), target.array):
                return "word does not evaluate to its target"
            return None

        return check

    def word_cost_per_n2(self, items) -> float:
        return fmean(r.cost for r in items) / self.n**2

    def output_text(self, report) -> str:
        return word_to_text(report.word)


class SwapSweep:
    """Cold `WordBuilder(...).swap_word()` for t = 1..t_max with n = 3t (`slword swap-bench`)."""

    name = "swap-sweep-p5"
    why = ("cold swap words for t=1..10, n=3t: the moving machinery, escape search, "
           "mover pool, solve_block_map and Subspace algebra")
    nominal_op_s = 3.6

    def __init__(self, t_max: int = 10, p: int = 5):
        self.t_max, self.p = t_max, p
        self.params = {"t": [1, t_max], "n": [3, 3 * t_max], "p": p}
        self.items_per_op = t_max

    def setup(self):
        field = PrimeField(self.p)
        return [lb_generating_set(field, 3 * t) for t in range(1, self.t_max + 1)]

    def inputs(self, rng: random.Random) -> list[None]:
        return [None]  # the sweep is fixed by (t_max, p); the seed does not enter

    def run(self, sets, _):
        parts, items = [], []
        for gs, gv in sets:
            dt, word = _timed(WordBuilder(gs, gv).swap_word)
            parts.append(dt)
            items.append((gs, gv, word))
        return parts, items

    def oracle(self, sets):
        evaluators = {gv.t: _evaluator(gs, gv) for gs, gv in sets}

        def check(_, item) -> str | None:
            gs, gv, word = item
            want = exact.swap_normal_form(self.p, gs.n, gv.t)
            if not np.array_equal(evaluators[gv.t](word), want):
                return f"swap word at t={gv.t} does not evaluate to the swap normal form"
            return None

        return check

    def word_cost_per_n2(self, items) -> float:
        return max(word_cost(w, gs, gv) / gs.n**2 for gs, gv, w in items)

    def output_text(self, item) -> str:
        return word_to_text(item[2])


class LowerBound:
    """Descent traces on seeded random words, then exact BFS covering numbers."""

    name = "lower-bound"
    why = ("potential_trace + verify_descent on length-30 words at n=6, p=3, then "
           "bfs_covering at (3,3) and (4,2): the only load on lower_bound")
    nominal_op_s = 1.3
    DESCENT_N, DESCENT_P, LENGTH, WORDS = 6, 3, 30, 300
    POOL = 2  # distinct descent batches, cycled
    # covering numbers recorded from the implementation at the time the benchmark was written
    BFS = {(3, 3): 7, (4, 2): 16}

    def __init__(self):
        self.params = {"n": self.DESCENT_N, "p": self.DESCENT_P, "words_per_op": self.WORDS,
                       "word_length": self.LENGTH, "bfs": [list(k) for k in self.BFS]}
        self.items_per_op = self.WORDS + len(self.BFS)

    def setup(self):
        gs, gv = lb_generating_set(PrimeField(self.DESCENT_P), self.DESCENT_N)
        explicit = {(n, p): lb_generating_set_explicit(PrimeField(p), n) for n, p in self.BFS}
        return gs, gv, explicit

    def inputs(self, rng: random.Random) -> list[list]:
        field = PrimeField(self.DESCENT_P)
        gs, gv = lb_generating_set(field, self.DESCENT_N)
        return [
            [exact.descent_word(rng, field, len(gs), gv.t, gs.n, self.LENGTH) for _ in range(self.WORDS)]
            for _ in range(self.POOL)
        ]

    def run(self, state, words):
        gs, gv, explicit = state

        def descent():
            out = []
            for w in words:
                trace = potential_trace(w, gs, gv)
                out.append(("descent", w, trace, verify_descent(trace)))
            return out

        dt, items = _timed(descent)
        parts = [dt]
        for key, ex in explicit.items():
            dt, res = _timed(bfs_covering, ex)
            parts.append(dt)
            items.append(("bfs", key, res, None))
        return parts, items

    def oracle(self, state):
        t = state[1].t

        def check(_, item) -> str | None:
            kind, key, res, verdict = item
            if kind == "bfs":
                order = exact.sl_order(*key)
                if res.group_order != order or res.total_reached != order:
                    return f"bfs at (n,p)={key} reached {res.total_reached} of {order}"
                if res.covering_number != self.BFS[key]:
                    return f"bfs at (n,p)={key} covering number {res.covering_number} != {self.BFS[key]}"
                return None
            d = res.d_values
            if len(d) != len(key) + 1 or d[0] != t * (t + 1) // 2:
                return f"trace has {len(d)} values starting at {d[0]}"
            if any(d[i + 1] < d[i] - 1 for i in range(len(d) - 1)) or verdict is not True:
                return "descent violated"
            return None

        return check

    def word_cost_per_n2(self, items) -> float:
        """Mean over the BFS grid of covering number / n^2: the longest shortest word."""
        return fmean(res.covering_number / key[0] ** 2 for kind, key, res, _ in items if kind == "bfs")

    def output_text(self, item) -> str:
        kind, _, res, verdict = item
        if kind == "bfs":
            return f"bfs {res.covering_number} {res.reached_per_depth}\n"
        return f"descent {list(res.d_values)} {verdict}\n"


WORKLOADS = {
    w.name: w
    for w in [
        Construct(
            "construct-n12-p5", 12, 5, 0.13,
            "construct on uniform SL_12(F_5) targets with a warm builder: evaluate_word "
            "self-checks and payload det re-checks dominate, matmuls stay on int64",
        ),
        Construct(
            "construct-n6-p2147483647", 6, 2147483647, 0.17,
            "the same call at the top of the advertised range: every product takes the "
            "big-int fallback, which int64-only changes bypass",
        ),
        SwapSweep(),
        LowerBound(),
    ]
}
