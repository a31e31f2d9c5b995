"""Batch experiment driver with reproducible, machine-readable reports.

Identical configuration (including --seed) produces byte-identical output.
Wall-clock timings are therefore excluded from reports unless --timings is
given.  The default generating set for construction experiments is the hard
set from `lower_bound`: the t signed swaps plus the block copy of SL_{n-t}
as cost-1 steps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import sys

import click

from .bruhat import bruhat_decompose
from .errors import ParameterError, SearchExhaustedError
from .ff_linalg import GFMatrix, PrimeField
from .group_model import (
    density_threshold,
    evaluate_word,
    random_sl,
    random_word,
    word_cost,
    word_to_text,
)
from .lower_bound import (
    DEFAULT_ELEMENT_CAP,
    bfs_covering,
    lb_generating_set,
    lb_generating_set_explicit,
    lower_bound_certificate,
    potential_trace,
    sl_order,
    verify_descent,
)
from .word_builder import WordBuilder

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SLWORD_OUTDIR"


def _target_hash(matrix) -> str:
    return hashlib.sha256(matrix.to_text().encode()).hexdigest()[:16]


def _resolve_output(output: str | None):
    if output is None:
        return None
    base = os.environ.get(OUT_DIR_ENV, "")
    if base and not os.path.isabs(output):
        return os.path.join(base, output)
    return output


def _emit(payload_rows, columns, summary, fmt: str, output: str | None):
    """Write CSV rows or a JSON document to the output path or stdout."""
    path = _resolve_output(output)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in payload_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        doc = dict(summary)
        doc["schema"] = SCHEMA_VERSION
        doc["rows"] = [dict(zip(columns, row)) for row in payload_rows]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None:
        click.echo(text, nl=False)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _field(p: int) -> PrimeField:
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _lb_setup(n: int, p: int, t: int | None):
    field = _field(p)
    try:
        gs, gv = lb_generating_set(field, n)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    if t is not None and t != gv.t:
        raise click.UsageError(
            f"the construction set fixes t = ceil(n/3) = {gv.t}; got --t {t}"
        )
    return field, gs, gv


@click.group()
def main():
    """Exact word synthesis and diameter experiments over SL_n(F_p)."""


_common = [
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True),
    click.option("--output", "-o", default=None, help=f"Output file (relative paths join ${OUT_DIR_ENV})."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command()
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--t", type=int, default=None, help="Must equal ceil(n/3) when given.")
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget-constant", type=int, default=64, show_default=True)
@click.option("--timings", is_flag=True, help="Include wall-clock microseconds (breaks byte determinism).")
@click.option("--target-file", type=click.Path(exists=True), default=None,
              help="Build one word for the matrix in this file (text format; n and p are read from it).")
@click.option("--emit-word", type=click.Path(), default=None,
              help="With --target-file: also write the built word in the word format.")
@common_options
def construct(n, p, t, trials, seed, budget_constant, timings, target_file, emit_word, fmt, output):
    """Build words for seeded random SL_n targets (or one target file) and report costs."""
    if target_file is not None:
        with open(target_file) as fh:
            target = GFMatrix.from_text(fh.read())
        if (n is not None and n != target.rows) or (p is not None and p != target.field.p):
            raise click.UsageError("--n/--p disagree with the target file header")
        n, p = target.rows, target.field.p
        targets = [target]
        trials = 1
    elif n is None or p is None:
        raise click.UsageError("--n and --p are required without --target-file")
    else:
        targets = None
    field, gs, gv = _lb_setup(n, p, t)
    if 3 * gv.t > n:
        raise click.UsageError(f"construction needs 3t <= n; got n={n}, t={gv.t}")
    builder = WordBuilder(gs, gv, budget_constant=budget_constant)
    if targets is None:
        rng = random.Random(seed)
        targets = [
            evaluate_word(random_word(rng, gs, gv, 4 * n), gs, gv) for _ in range(trials)
        ]
    columns = ["trial", "target", "ok", "cost", "budget", "steps"]
    if timings:
        columns.append("elapsed_us")
    rows = []
    failures = 0
    for trial, target in enumerate(targets):
        try:
            report = builder.construct(target)
        except ParameterError as exc:
            raise click.UsageError(str(exc))
        except SearchExhaustedError as exc:
            raise click.ClickException(f"{exc} (stuck at index {exc.stuck_index})")
        row = [trial, _target_hash(target), int(report.ok), report.cost, report.budget, report.steps]
        if timings:
            row.append(report.elapsed_us)
        rows.append(row)
        if not report.ok:
            failures += 1
        if emit_word is not None and target_file is not None:
            with open(_resolve_output(emit_word), "w") as fh:
                fh.write(word_to_text(report.word))
    summary = {
        "subcommand": "construct",
        "n": n,
        "p": p,
        "t": gv.t,
        "seed": seed,
        "trials": trials,
        "budget_constant": budget_constant,
        "failures": failures,
    }
    _emit(rows, columns, summary, fmt, output)
    if failures == trials:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--matrix-file", type=click.Path(exists=True), default=None,
              help="Decompose the matrix in this file (text format) instead of sampling.")
@common_options
def bruhat(n, p, trials, seed, matrix_file, fmt, output):
    """Decompose seeded random SL_n matrices (or one matrix file) and verify recomposition."""
    if matrix_file is not None:
        with open(matrix_file) as fh:
            m0 = GFMatrix.from_text(fh.read())
        targets = [m0]
        n, p = m0.rows, m0.field.p
    elif n is None or p is None:
        raise click.UsageError("--n and --p are required without --matrix-file")
    else:
        field = _field(p)
        if n < 2:
            raise click.UsageError("need n >= 2")
        rng = random.Random(seed)
        targets = [random_sl(rng, field, n) for _ in range(trials)]
    columns = ["trial", "target", "recomposed", "permutation"]
    rows = []
    for trial, m in enumerate(targets):
        try:
            triple = bruhat_decompose(m)
        except Exception as exc:
            raise click.UsageError(str(exc))
        rows.append(
            [trial, _target_hash(m), int(triple.recompose() == m), " ".join(map(str, triple.permutation))]
        )
    summary = {"subcommand": "bruhat", "n": n, "p": p, "seed": seed, "trials": len(targets)}
    _emit(rows, columns, summary, fmt, output)


@main.command("swap-bench")
@click.option("--t-max", type=int, default=10, show_default=True)
@click.option("--p", type=int, default=5, show_default=True)
@common_options
def swap_bench(t_max, p, fmt, output):
    """Sweep t = 1..t-max with n = 3t and fit the quadratic cost model."""
    field = _field(p)
    columns = ["t", "n", "cost", "steps", "cost_over_t2"]
    rows = []
    costs = []
    for t in range(1, t_max + 1):
        n = 3 * t
        gs, gv = lb_generating_set(field, n)
        builder = WordBuilder(gs, gv)
        word = builder.swap_word()
        cost = word_cost(word, gs, gv)
        costs.append((t, cost))
        rows.append([t, n, cost, len(word), f"{cost / (t * t):.3f}"])
    c_constant = max(cost / (t * t) for t, cost in costs)
    if len(costs) >= 2:
        xs = [math.log(t) for t, _ in costs]
        ys = [math.log(c) for _, c in costs]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        sxx = sum((x - mean_x) ** 2 for x in xs)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    else:
        slope = float("nan")
    summary = {
        "subcommand": "swap-bench",
        "p": p,
        "t_max": t_max,
        "fit_constant": round(c_constant, 6),
        "loglog_slope": round(slope, 6),
    }
    _emit(rows, columns, summary, fmt, output)


@main.command("lower-bound")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--words", type=int, default=1000, show_default=True)
@click.option("--length", type=int, default=30, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bfs-cross-check/--no-bfs-cross-check", default=False, show_default=True)
@common_options
def lower_bound_cmd(n, p, words, length, seed, bfs_cross_check, fmt, output):
    """Run descent batches over seeded random words; optional BFS cross-check."""
    field = _field(p)
    gs, gv = lb_generating_set(field, n)
    rng = random.Random(seed)
    violations = 0
    min_slack = None
    for _ in range(words):
        w = random_word(rng, gs, gv, length)
        trace = potential_trace(w, gs, gv)
        if not verify_descent(trace):
            violations += 1
        d = trace.d_values
        slack = min((d[l + 1] - (d[l] - 1) for l in range(len(d) - 1)), default=0)
        min_slack = slack if min_slack is None else min(min_slack, slack)
    summary = {
        "subcommand": "lower-bound",
        "n": n,
        "p": p,
        "t": gv.t,
        "seed": seed,
        "words": words,
        "length": length,
        "descent_violations": violations,
        "min_step_slack": min_slack,
        "d0": gv.t * (gv.t + 1) // 2,
        "binom_display": gv.t * (gv.t - 1) // 2,
    }
    rows = []
    columns = ["metric", "value"]
    if bfs_cross_check:
        order = sl_order(n, p)
        if order <= 10**6 and p ** ((n - gv.t) ** 2) <= 2_000_000:
            explicit = lb_generating_set_explicit(field, n)
            res = bfs_covering(explicit)
            summary["covering_number"] = res.covering_number
            summary["group_order"] = res.group_order
            builder = WordBuilder(gs, gv)
            if gv.t % 2 == 0 or p == 2:
                cert = lower_bound_certificate(builder.swap_word(), gs, gv)
                summary["builder_swap_length"] = cert.word_length
        else:
            summary["covering_number"] = None
            summary["bfs_skipped"] = f"group order {order} too large"
    for k in sorted(summary):
        if k != "subcommand":
            rows.append([k, summary[k]])
    _emit(rows, columns, summary, fmt, output)
    if violations:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--max-depth", type=int, default=None)
@click.option(
    "--element-cap",
    type=int,
    default=DEFAULT_ELEMENT_CAP,
    show_default=True,
    help="Largest p^(n^2) accepted: the walk keeps a one-byte visited flag for every n x n matrix over F_p.",
)
@common_options
def bfs(n, p, max_depth, element_cap, fmt, output):
    """Exact covering number of the hard generating set by breadth-first closure."""
    field = _field(p)
    try:
        gs = lb_generating_set_explicit(field, n)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    try:
        res = bfs_covering(gs, max_depth=max_depth, element_cap=element_cap)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    columns = ["depth", "reached", "frontier"]
    rows = [
        [d, res.reached_per_depth[d], res.frontier_per_depth[d]]
        for d in range(len(res.reached_per_depth))
    ]
    summary = {
        "subcommand": "bfs",
        "n": n,
        "p": p,
        "group_order": res.group_order,
        "covering_number": res.covering_number,
        "total_reached": res.total_reached,
        "stabilized": res.stabilized,
        "exhausted": res.exhausted,
    }
    _emit(rows, columns, summary, fmt, output)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--d", type=int, required=True)
@common_options
def density(n, t, d, fmt, output):
    """Print the exact size-threshold exponents as rationals."""
    try:
        bound = density_threshold(n, t, d)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    columns = ["quantity", "exact", "approx"]
    rows = [
        ["exponent", str(bound.exponent), float(bound.exponent)],
        ["c_eps", str(bound.c_eps), float(bound.c_eps)],
    ]
    summary = {
        "subcommand": "density",
        "n": n,
        "t": t,
        "d": d,
        "exponent": str(bound.exponent),
        "c_eps": str(bound.c_eps),
    }
    _emit(rows, columns, summary, fmt, output)


@main.command("show-word")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--what", type=click.Choice(["move", "swap"]), default="swap", show_default=True)
@common_options
def show_word(n, p, what, fmt, output):
    """Emit the move/swap word in the line-oriented word format."""
    field = _field(p)
    gs, gv = lb_generating_set(field, n)
    builder = WordBuilder(gs, gv)
    word = builder.move_word() if what == "move" else builder.swap_word()
    text = word_to_text(word)
    path = _resolve_output(output)
    if path is None:
        click.echo(text, nl=False)
    else:
        with open(path, "w") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
