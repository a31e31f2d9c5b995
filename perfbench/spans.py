"""Span tracing around slword's layer functions, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper at every
place it is bound: the defining class, or every loaded module that holds the
same function object under any name (`word_builder` imports `evaluate_word`,
`solve_block_map` and `bruhat_decompose`, `lower_bound` imports
`evaluate_word`, the benchmark imports `potential_trace`, and so on).
Wrapping only the defining module would read zero for those calls.
`uninstall()` puts every original back.

Each call records one span: name, parent span, the operation it belongs to,
start and end in ns, and optional counts.  Spans stay in memory; per-layer
metrics are folded from them, and `dump()` writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from slword import GFMatrix, Groumvirate, Subspace, Word, WordBuilder
from slword import bruhat, group_model, lower_bound
from slword.ff_linalg import maps

_I64_MAX = 2**63 - 1


def _matmul_counts(args, result, failed):
    a, b = args[0], args[1]
    return {"bigint_calls": int(a.cols * (a.field.p - 1) ** 2 > _I64_MAX), "mac": a.rows * a.cols * b.cols}


def _bfs_counts(args, result, failed):
    if failed:
        return None
    # The set is symmetric, so the walk's edges are its distinct matrices;
    # every frontier but the last is multiplied by every edge.
    edges = len({g.matrix.key() for g in args[0]})
    return {
        "states": result.total_reached,
        "edge_products": sum(result.frontier_per_depth[:-1]) * edges,
    }


# metric prefix -> (owner, attribute, counts(args, result, failed) or None)
TRACED = [
    ("group_model.evaluate_word", group_model, "evaluate_word", lambda a, r, f: {"steps": len(a[0])}),
    ("group_model.check_payload", Groumvirate, "check_payload", None),
    ("group_model.word_inverse", Word, "inverse", None),
    ("ff_linalg.matmul", GFMatrix, "__matmul__", _matmul_counts),
    ("ff_linalg.apply", GFMatrix, "apply", None),
    ("ff_linalg.det", GFMatrix, "det", None),
    ("ff_linalg.inv", GFMatrix, "inv", None),
    ("ff_linalg.subspace.span", Subspace, "span", None),
    ("ff_linalg.subspace.sum", Subspace, "sum", None),
    ("ff_linalg.subspace.intersect", Subspace, "intersect", None),
    ("ff_linalg.subspace.image_under", Subspace, "image_under", None),
    ("ff_linalg.subspace.contains", Subspace, "contains", None),
    ("ff_linalg.solve_block_map", maps, "solve_block_map", lambda a, r, f: {"fails": int(f)}),
    ("ff_linalg.solve_linear", maps, "solve_linear", None),
    ("ff_linalg.sl_map_frame", maps, "sl_map_frame", None),
    ("ff_linalg.pick_in_coset_avoiding", maps, "pick_in_coset_avoiding",
     lambda a, r, f: {"misses": int(not f and r is None)}),
    ("bruhat.decompose", bruhat, "bruhat_decompose", None),
    ("word_builder.construct", WordBuilder, "construct", None),
    ("word_builder.lower_triangular_word", WordBuilder, "lower_triangular_word", None),
    ("word_builder.monomial_word", WordBuilder, "monomial_word", None),
    ("word_builder.window_action", WordBuilder, "window_action", None),
    ("word_builder.swap_word", WordBuilder, "swap_word", None),
    ("word_builder.move_word", WordBuilder, "move_word", None),
    ("word_builder.tail_nonzero_word", WordBuilder, "tail_nonzero_word", None),
    ("word_builder.head_basis_frames", WordBuilder, "head_basis_frames", None),
    ("word_builder.frames_to_tail_word", WordBuilder, "frames_to_tail_word", None),
    ("lower_bound.potential_trace", lower_bound, "potential_trace", None),
    ("lower_bound.bfs_covering", lower_bound, "bfs_covering", _bfs_counts),
    ("lower_bound.enumerate_sl", lower_bound, "enumerate_sl", None),
]

# span record fields
NAME, PARENT, OP, START, END, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1], self.op, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            failed = True
            result = None
            rec[START] = now()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                rec[END] = now()
                stack.pop()
                if counts is not None:
                    rec[COUNTS] = counts(args, result, failed)

        return traced

    @contextmanager
    def root(self, name: str, op: int = -1):
        """A span with no traced caller, such as set-up or one benchmark operation."""
        rec = [name, self._stack[-1], op, time.perf_counter_ns(), 0, None]
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()
            self.op = -1

    # -- installing wrappers --------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [ns for ns in (getattr(m, "__dict__", None) for m in list(sys.modules.values()))
                      if isinstance(ns, dict)]
        for name, owner, attr, counts in TRACED:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counts))
                else:
                    wrapped = self._wrap(name, raw, counts)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counts)
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is original:
                        self._undo.append((ns, key, original))
                        ns[key] = wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- folding spans into metrics -------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_ms and summed counts for every traced name, zero when never called."""
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for s, own in zip(self.spans, self.self_ns()):
            calls[s[NAME]] += 1
            self_ms[s[NAME]] += own / 1e6
            for k, v in (s[COUNTS] or {}).items():
                counts[f"{s[NAME]}.{k}"] += v
        out: dict[str, float] = {}
        for name, *_ in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        out["group_model.evaluate_word.steps"] = counts["group_model.evaluate_word.steps"]
        out["word_builder.evaluations_per_target"] = _ratio(
            self._calls_under("group_model.evaluate_word", "word_builder.construct"),
            calls["word_builder.construct"],
        )
        out["ff_linalg.matmul.bigint_calls"] = counts["ff_linalg.matmul.bigint_calls"]
        out["ff_linalg.matmul.mac"] = counts["ff_linalg.matmul.mac"]
        out["ff_linalg.solve_block_map.fail_ratio"] = _ratio(
            counts["ff_linalg.solve_block_map.fails"], calls["ff_linalg.solve_block_map"]
        )
        out["ff_linalg.pick_in_coset_avoiding.miss_ratio"] = _ratio(
            counts["ff_linalg.pick_in_coset_avoiding.misses"], calls["ff_linalg.pick_in_coset_avoiding"]
        )
        out["lower_bound.bfs.states"] = counts["lower_bound.bfs_covering.states"]
        out["lower_bound.bfs.edge_products"] = counts["lower_bound.bfs_covering.edge_products"]
        return out

    def _calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an `ancestor` span somewhere above them."""
        spans = self.spans
        total = 0
        for s in spans:
            if s[NAME] != name:
                continue
            q = s[PARENT]
            while q >= 0 and spans[q][NAME] != ancestor:
                q = spans[q][PARENT]
            total += q >= 0
        return total

    def dump(self, path):
        """Write spans as gzipped JSON lines: name, parent, op, start_ns, end_ns, counts."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "parent": s[PARENT], "op": s[OP],
                                     "start_ns": s[START], "end_ns": s[END], "counts": s[COUNTS]}))
                fh.write("\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
