"""Batch experiment driver with reproducible, machine-readable reports.

Identical configuration (including --seed) produces byte-identical output.
Wall-clock timings are therefore excluded from reports unless --timings is
given.  The default generating set for construction experiments is the hard
set from `lower_bound`: the t signed swaps plus the block copy of SL_{n-t}
as cost-1 steps, with t = ceil(n/3).  Every subcommand is an
`ErrorPolicyCommand`: library input errors exit 2 as usage errors, exhausted
searches exit 1 with an `Error:` line, and bugs (`InvariantError`) propagate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import sys

import click

from .bruhat import bruhat_decompose
from .errors import FieldMismatchError, ParameterError, SearchExhaustedError, ShapeError, SingularMatrixError
from .ff_linalg import GFMatrix, PrimeField
from .group_model import (
    density_threshold,
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
from .word_builder import BUDGET_CONSTANT, WordBuilder

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SLWORD_OUTDIR"


def _target_hash(matrix) -> str:
    return hashlib.sha256(matrix.to_text().encode()).hexdigest()[:16]


def _output_path(ctx, param, output: str | None):
    """Option callback: the path, relative ones joined to $SLWORD_OUTDIR, checked before any work."""
    if output is None:
        return None
    path = os.path.join(os.environ.get(OUT_DIR_ENV, ""), output)
    new = not os.path.lexists(path)
    _write("", path, "a")  # appending truncates nothing
    if new:
        os.remove(path)  # the run writes it once it succeeds
    return path


def _write(text: str, path: str | None, mode: str = "w"):
    """Write text to the path or stdout; an unwritable path is an error."""
    if path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}")


def _emit(payload_rows, columns, summary, fmt: str, output: str | None):
    """Write CSV rows or a JSON document to the output path or stdout."""
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
    _write(text, output)


def _read_matrix(path: str, n: int | None, p: int | None) -> GFMatrix:
    """The square matrix in a text file; a malformed file or a header unlike --n/--p is a usage error."""
    try:
        with open(path) as fh:
            m = GFMatrix.from_text(fh.read())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise click.UsageError(f"{path}: {exc}")
    if not m.is_square:
        raise click.UsageError(f"{path}: expected a square matrix, got {m.rows}x{m.cols}")
    if (n is not None and n != m.rows) or (p is not None and p != m.field.p):
        raise click.UsageError("--n/--p disagree with the target file header")
    return m


class ErrorPolicyCommand(click.Command):
    """Maps library errors to exits in the subcommand's own context, which keeps its usage lines."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ParameterError, ShapeError, FieldMismatchError, SingularMatrixError) as exc:
            raise click.UsageError(str(exc), ctx)
        except SearchExhaustedError as exc:
            raise click.ClickException(f"{exc} (stuck at index {exc.stuck_index})")


@click.group()
def main():
    """Exact word synthesis and diameter experiments over SL_n(F_p)."""


main.command_class = ErrorPolicyCommand


output_option = click.option("--output", "-o", default=None, callback=_output_path,
                             help=f"Output file (relative paths join ${OUT_DIR_ENV}).")


def common_options(fn):
    """--format and --output, for the subcommands that write a report."""
    fn = output_option(fn)
    return click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
                        show_default=True)(fn)


@main.command()
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--timings", is_flag=True, help="Include wall-clock microseconds (breaks byte determinism).")
@click.option("--target-file", type=click.Path(exists=True), default=None,
              help="Build one word for the matrix in this file (text format; n and p are read from it).")
@click.option("--emit-word", type=click.Path(), default=None, callback=_output_path,
              help="With --target-file: also write the built word in the word format.")
@common_options
def construct(n, p, trials, seed, timings, target_file, emit_word, fmt, output):
    """Build words for seeded uniform SL_n targets (or one target file) and report costs."""
    if target_file is not None:
        target = _read_matrix(target_file, n, p)
        n, p = target.rows, target.field.p
        targets = [target]
        trials = 1
    elif n is None or p is None:
        raise click.UsageError("--n and --p are required without --target-file")
    elif emit_word is not None:
        raise click.UsageError("--emit-word needs --target-file")
    else:
        targets = None
    gs, gv = lb_generating_set(PrimeField(p), n)
    builder = WordBuilder(gs, gv)
    if targets is None:
        rng = random.Random(seed)
        targets = [random_sl(rng, gs.field, n) for _ in range(trials)]
    columns = ["trial", "target", "ok", "cost", "budget", "steps"]
    if timings:
        columns.append("elapsed_us")
    rows = []
    failures = 0
    for trial, target in enumerate(targets):
        report = builder.construct(target)
        row = [trial, _target_hash(target), int(report.ok), report.cost, report.budget, len(report.word)]
        if timings:
            row.append(report.elapsed_us)
        rows.append(row)
        if not report.ok:
            failures += 1
        if emit_word is not None:
            _write(word_to_text(report.word), emit_word)
    summary = {
        "subcommand": "construct",
        "n": n,
        "p": p,
        "t": gv.t,
        "seed": seed,
        "trials": trials,
        "budget_constant": BUDGET_CONSTANT,
        "failures": failures,
    }
    _emit(rows, columns, summary, fmt, output)
    if failures and failures == trials:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--matrix-file", type=click.Path(exists=True), default=None,
              help="Decompose the matrix in this file (text format) instead of sampling.")
@common_options
def bruhat(n, p, trials, seed, matrix_file, fmt, output):
    """Decompose seeded random SL_n matrices (or one matrix file) and verify recomposition."""
    if matrix_file is not None:
        m0 = _read_matrix(matrix_file, n, p)
        targets = [m0]
        n, p = m0.rows, m0.field.p
    elif n is None or p is None:
        raise click.UsageError("--n and --p are required without --matrix-file")
    else:
        field = PrimeField(p)
        if n < 2:
            raise click.UsageError("need n >= 2")
        rng = random.Random(seed)
        targets = [random_sl(rng, field, n) for _ in range(trials)]
    columns = ["trial", "target", "recomposed", "permutation"]
    rows = []
    for trial, m in enumerate(targets):
        triple = bruhat_decompose(m)
        rows.append(
            [trial, _target_hash(m), int(triple.recompose() == m), " ".join(map(str, triple.permutation))]
        )
    summary = {"subcommand": "bruhat", "n": n, "p": p, "seed": seed, "trials": len(targets)}
    _emit(rows, columns, summary, fmt, output)


@main.command("swap-bench")
@click.option("--t-max", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--p", type=int, default=5, show_default=True)
@common_options
def swap_bench(t_max, p, fmt, output):
    """Sweep t = 1..t-max with n = 3t and fit the quadratic cost model."""
    columns = ["t", "n", "cost", "steps", "cost_over_t2"]
    rows = []
    costs = []
    for t in range(1, t_max + 1):
        n = 3 * t
        gs, gv = lb_generating_set(PrimeField(p), n)
        builder = WordBuilder(gs, gv)
        word = builder.swap_word()
        cost = word_cost(word, gs, gv)
        costs.append((t, cost))
        rows.append([t, n, cost, len(word), f"{cost / (t * t):.3f}"])
    c_constant = max(cost / (t * t) for t, cost in costs)
    slope = None  # a line through one point has no slope
    if len(costs) >= 2:
        fit = statistics.linear_regression([math.log(t) for t, _ in costs], [math.log(c) for _, c in costs])
        slope = round(fit.slope, 6)
    summary = {
        "subcommand": "swap-bench",
        "p": p,
        "t_max": t_max,
        "fit_constant": round(c_constant, 6),
        "loglog_slope": slope,
    }
    _emit(rows, columns, summary, fmt, output)


@main.command("lower-bound")
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--words", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--length", type=click.IntRange(min=0), default=30, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bfs-cross-check/--no-bfs-cross-check", default=False, show_default=True)
@common_options
def lower_bound_cmd(n, p, words, length, seed, bfs_cross_check, fmt, output):
    """Run descent batches over seeded random words; optional BFS cross-check."""
    gs, gv = lb_generating_set(PrimeField(p), n)
    rng = random.Random(seed)
    violations = 0
    min_slack = None
    for _ in range(words):
        w = random_word(rng, gs, gv, length)
        trace = potential_trace(w, gs, gv)
        if not verify_descent(trace):
            violations += 1
        d = trace.d_values
        for l in range(len(d) - 1):  # a word with no step adds nothing
            slack = d[l + 1] - (d[l] - 1)
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
        if order <= 10**6:
            explicit = lb_generating_set_explicit(gs.field, n)
            res = bfs_covering(explicit)
            summary["covering_number"] = res.covering_number
            summary["group_order"] = res.group_order
            try:
                builder = WordBuilder(gs, gv)
            except ParameterError:  # outside the builder's regime: no swap word
                builder = None
            if builder is not None:
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
@click.option("--max-depth", type=click.IntRange(min=0), default=None)
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
    gs = lb_generating_set_explicit(PrimeField(p), n)
    res = bfs_covering(gs, max_depth=max_depth, element_cap=element_cap)
    columns = ["depth", "reached"]
    rows = [[d, reached] for d, reached in enumerate(res.reached_per_depth)]
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
    bound = density_threshold(n, t, d)
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
@output_option
def show_word(n, p, what, output):
    """Emit the move/swap word in the line-oriented word format."""
    gs, gv = lb_generating_set(PrimeField(p), n)
    builder = WordBuilder(gs, gv)
    word = builder.move_word() if what == "move" else builder.swap_word()
    _write(word_to_text(word), output)


if __name__ == "__main__":
    main()
