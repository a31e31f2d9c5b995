import json

import pytest
from click.testing import CliRunner

from slword import (
    GFMatrix,
    InvariantError,
    PrimeField,
    SearchExhaustedError,
    WordBuilder,
    evaluate_word,
    lb_generating_set,
    swap_target,
    word_from_text,
)
from slword import cli
from slword.cli import construct, main
from slword.word_builder import DEFAULT_BUDGET_CONSTANT


@pytest.fixture
def runner():
    return CliRunner()


def test_density_values(runner):
    res = runner.invoke(main, ["density", "--n", "6", "--t", "2", "--d", "10"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["exponent"] == "34"
    assert doc["c_eps"] == "1/18"
    assert doc["schema"] == 1


def test_density_rejects_bad_params(runner):
    res = runner.invoke(main, ["density", "--n", "3", "--t", "5", "--d", "2"])
    assert res.exit_code != 0
    assert "0 <= t <= n" in res.output


def test_construct_deterministic_bytes(runner):
    args = ["construct", "--n", "3", "--p", "5", "--trials", "8", "--seed", "7", "--format", "csv"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    lines = first.output.strip().splitlines()
    assert lines[0] == "trial,target,ok,cost,budget,steps"
    assert len(lines) == 9
    for row in lines[1:]:
        assert row.split(",")[2] == "1"  # every trial succeeded


def test_construct_exits_nonzero_when_all_trials_fail(runner):
    # a zero budget constant fails every nontrivial trial; rows still emitted
    res = runner.invoke(
        main,
        ["construct", "--n", "3", "--p", "5", "--trials", "3", "--seed", "1",
         "--budget-constant", "0", "--format", "csv"],
    )
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 4
    for row in lines[1:]:
        assert row.split(",")[2] == "0"  # per-trial failure rows


def test_construct_budget_constant_defaults_to_the_builder_constant(runner):
    option = next(o for o in construct.params if o.name == "budget_constant")
    assert option.default == DEFAULT_BUDGET_CONSTANT
    res = runner.invoke(main, ["construct", "--n", "3", "--p", "5", "--trials", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["budget_constant"] == DEFAULT_BUDGET_CONSTANT


def test_construct_reports_exhausted_search_without_traceback(runner, monkeypatch):
    def stuck(self, target):
        raise SearchExhaustedError("no witness found", stuck_index=2)

    monkeypatch.setattr(WordBuilder, "construct", stuck)
    res = runner.invoke(main, ["construct", "--n", "3", "--p", "5", "--trials", "1"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert "no witness found" in res.output
    assert "stuck at index 2" in res.output


def test_every_subcommand_applies_the_one_error_policy():
    assert main.commands
    for name, command in main.commands.items():
        assert isinstance(command, cli.ErrorPolicyCommand), name


@pytest.mark.parametrize(
    "args", [["show-word", "--n", "6", "--p", "3"], ["swap-bench", "--t-max", "2", "--p", "3"]]
)
def test_exhausted_swap_search_is_an_error_line(runner, monkeypatch, args):
    def stuck(self):
        raise SearchExhaustedError("no escape vector", stuck_index=4)

    monkeypatch.setattr(WordBuilder, "swap_word", stuck)
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert res.output == "Error: no escape vector (stuck at index 4)\n"


def test_a_bug_in_bruhat_is_not_a_usage_error(runner, monkeypatch):
    def broken(m):
        raise InvariantError("factors do not recompose")

    monkeypatch.setattr(cli, "bruhat_decompose", broken)
    res = runner.invoke(main, ["bruhat", "--n", "3", "--p", "5", "--trials", "1"])
    assert res.exit_code != 2
    assert isinstance(res.exception, InvariantError)


@pytest.mark.parametrize("flags", [["--n", "3"], ["--p", "7"], ["--n", "2", "--p", "3"]])
def test_bruhat_matrix_file_refuses_disagreeing_flags(runner, tmp_path, flags):
    path = tmp_path / "m.txt"
    path.write_text(GFMatrix(PrimeField(5), [[1, 1], [0, 1]]).to_text())
    res = runner.invoke(main, ["bruhat", "--matrix-file", str(path)] + flags)
    assert res.exit_code == 2
    assert "Error: --n/--p disagree with the target file header" in res.output
    agree = runner.invoke(main, ["bruhat", "--matrix-file", str(path), "--n", "2", "--p", "5"])
    assert agree.exit_code == 0


def test_construct_rejects_bad_regime(runner):
    res = runner.invoke(main, ["construct", "--n", "4", "--p", "3"])
    assert res.exit_code != 0
    res = runner.invoke(main, ["construct", "--n", "6", "--p", "4"])
    assert res.exit_code != 0
    assert "prime" in res.output
    res = runner.invoke(main, ["construct", "--n", "6", "--p", "5", "--t", "3"])
    assert res.exit_code != 0


# matrix-file contents; the test writes each to a file and passes its path
NON_SQUARE = "5 6 7\n" + "0 0 0 0 0 0 0\n" * 6
NON_PRIME = "4 6 6\n" + "0 0 0 0 0 0\n" * 6


@pytest.mark.parametrize(
    "args",
    [
        ["lower-bound", "--n", "2", "--p", "3"],
        ["show-word", "--n", "2", "--p", "3"],
        ["show-word", "--n", "4", "--p", "3"],  # 3t > n
        ["swap-bench", "--t-max", "0"],
        ["construct", "--n", "6", "--p", "3", "--trials", "-1"],
        ["bruhat", "--n", "3", "--p", "5", "--trials", "-2"],
        ["lower-bound", "--n", "6", "--p", "3", "--words", "-4"],
        ["lower-bound", "--n", "6", "--p", "3", "--words", "2", "--length", "-2"],
        ["density", "--n", "0", "--t", "0", "--d", "1"],
        ["construct", "--target-file", NON_SQUARE],
        ["construct", "--target-file", NON_PRIME],
        ["bruhat", "--matrix-file", NON_PRIME],
        ["construct", "--n", "6", "--p", "3", "--budget-constant", "-1"],
        ["bfs", "--n", "3", "--p", "2", "--max-depth", "-3"],
        ["show-word", "--n", "6", "--p", "2", "--format", "csv"],  # show-word writes the word format only
    ],
)
def test_bad_parameters_end_in_a_usage_error(runner, tmp_path, args):
    if args[-1] in (NON_SQUARE, NON_PRIME):
        path = tmp_path / "matrix.txt"
        path.write_text(args[-1])
        args = args[:-1] + [str(path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception


def test_non_utf8_target_file_is_a_usage_error(runner, tmp_path):
    tf = tmp_path / "target.txt"
    tf.write_bytes(b"\xff\xfe 3 2 2\n")
    res = runner.invoke(main, ["construct", "--target-file", str(tf)])
    assert res.exit_code == 2
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--n", "6", "--t", "2", "--d", "10", "-o"],
        ["show-word", "--n", "3", "--p", "2", "--what", "move", "-o"],
        ["construct", "--target-file", "IDENTITY", "--emit-word"],
    ],
)
def test_unwritable_output_is_an_error(runner, tmp_path, args):
    tf = tmp_path / "identity.txt"
    tf.write_text(GFMatrix.identity(PrimeField(3), 6).to_text())
    args = [str(tf) if a == "IDENTITY" else a for a in args]
    res = runner.invoke(main, args + [str(tmp_path / "missing" / "out.txt")])
    assert res.exit_code != 0
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception


@pytest.mark.parametrize(
    "args, work",
    [
        (["lower-bound", "--n", "6", "--p", "3", "--words", "1", "-o", "DIR"], "potential_trace"),
        (["bfs", "--n", "3", "--p", "2", "-o", "DIR"], "bfs_covering"),
        (["construct", "--target-file", "IDENTITY", "--emit-word", "DIR"], "WordBuilder"),
    ],
    ids=["lower-bound-output", "bfs-output", "construct-emit-word"],
)
def test_unwritable_output_fails_before_the_work(runner, tmp_path, monkeypatch, args, work):
    def never(*_, **__):
        raise AssertionError(f"{work} ran although its output path is unwritable")

    monkeypatch.setattr(cli, work, never)
    tf = tmp_path / "identity.txt"
    tf.write_text(GFMatrix.identity(PrimeField(3), 6).to_text())
    args = [{"DIR": str(tmp_path), "IDENTITY": str(tf)}.get(a, a) for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.output == f"Error: cannot write {tmp_path}: Is a directory\n"


def test_output_check_neither_truncates_nor_leaves_a_file(runner, tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for out in (kept, fresh):
        res = runner.invoke(main, ["bfs", "--n", "2", "--p", "2", "-o", str(out)])
        assert res.exit_code == 2  # n < 3 is refused after the path check
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_emit_word_without_target_file_is_a_usage_error(runner, tmp_path):
    wf = tmp_path / "w.txt"
    res = runner.invoke(main, ["construct", "--n", "6", "--p", "3", "--emit-word", str(wf)])
    assert res.exit_code == 2
    assert "--emit-word needs --target-file" in res.output
    assert not wf.exists()


def test_construct_zero_trials_succeeds(runner):
    res = runner.invoke(main, ["construct", "--n", "6", "--p", "3", "--trials", "0"])
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"] == []


def test_bfs_json_summary(runner):
    res = runner.invoke(main, ["bfs", "--n", "3", "--p", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["group_order"] == 168
    assert doc["covering_number"] >= 1
    assert doc["total_reached"] == 168
    reached = [row["reached"] for row in doc["rows"]]
    assert sum(reached) == 168
    # deterministic
    again = runner.invoke(main, ["bfs", "--n", "3", "--p", "2"])
    assert again.output == res.output


def test_bfs_csv_profile(runner):
    res = runner.invoke(main, ["bfs", "--n", "3", "--p", "2", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "depth,reached,frontier"


def test_swap_bench_summary(runner):
    res = runner.invoke(main, ["swap-bench", "--t-max", "3", "--p", "5"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc["rows"]) == 3
    assert doc["fit_constant"] > 0
    assert 1.0 <= doc["loglog_slope"] <= 2.5


def test_swap_bench_single_point_is_strict_json(runner):
    """One point fits no line: the slope is null, never the non-JSON NaN."""
    res = runner.invoke(main, ["swap-bench", "--t-max", "1", "--p", "5"])
    assert res.exit_code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(res.output, parse_constant=reject)
    assert doc["loglog_slope"] is None
    assert len(doc["rows"]) == 1


def test_lower_bound_descent_batch(runner):
    res = runner.invoke(
        main,
        ["lower-bound", "--n", "6", "--p", "3", "--words", "200", "--length", "15", "--seed", "1"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["descent_violations"] == 0
    assert doc["min_step_slack"] >= 0
    assert doc["d0"] == 3
    assert doc["binom_display"] == 1


# Output of `lower-bound --n 6 --p 3 --words 2 --length 1 --seed 2`, recorded
# before words with no step stopped counting towards min_step_slack.
PINNED_LOWER_BOUND_JSON = (
    '{"binom_display":1,"d0":3,"descent_violations":0,"length":1,"min_step_slack":1,"n":6,"p":3,'
    '"rows":[{"metric":"binom_display","value":1},{"metric":"d0","value":3},'
    '{"metric":"descent_violations","value":0},{"metric":"length","value":1},'
    '{"metric":"min_step_slack","value":1},{"metric":"n","value":6},{"metric":"p","value":3},'
    '{"metric":"seed","value":2},{"metric":"t","value":2},{"metric":"words","value":2}],'
    '"schema":1,"seed":2,"subcommand":"lower-bound","t":2,"words":2}\n'
)


def test_lower_bound_slack_is_null_without_steps(runner):
    base = ["lower-bound", "--n", "6", "--p", "3", "--seed", "2"]
    for extra in (["--words", "3", "--length", "0"], ["--words", "0"]):
        res = runner.invoke(main, base + extra)
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["min_step_slack"] is None
        assert {"metric": "min_step_slack", "value": None} in doc["rows"]
    res = runner.invoke(main, base + ["--words", "2", "--length", "1"])
    assert res.exit_code == 0
    assert res.output == PINNED_LOWER_BOUND_JSON


def test_lower_bound_bfs_cross_check(runner):
    res = runner.invoke(
        main,
        ["lower-bound", "--n", "3", "--p", "2", "--words", "50", "--bfs-cross-check"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["covering_number"] >= 1
    assert doc["group_order"] == 168


def test_lower_bound_cross_check_certifies_the_signed_swap(runner):
    # t = 1 is odd and p = 3 is odd: the builder's word reaches the signed swap, which is certified
    res = runner.invoke(main, ["lower-bound", "--n", "3", "--p", "3", "--words", "5", "--bfs-cross-check"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["covering_number"] == 7
    assert doc["builder_swap_length"] >= doc["d0"] == 1


def test_lower_bound_cross_check_outside_the_builder_regime(runner):
    # n = 4 has t = 2 and 3t > n: no swap word, but the BFS still runs
    res = runner.invoke(main, ["lower-bound", "--n", "4", "--p", "2", "--words", "5", "--bfs-cross-check"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["covering_number"] == 16
    assert "builder_swap_length" not in doc


def test_emitted_word_round_trips(runner):
    res = runner.invoke(main, ["show-word", "--n", "6", "--p", "2", "--what", "swap"])
    assert res.exit_code == 0
    f = PrimeField(2)
    gs, gv = lb_generating_set(f, 6)
    word = word_from_text(res.output, gs, gv)
    assert evaluate_word(word, gs, gv) == swap_target(f, 6, 2)


def test_output_file_and_outdir(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SLWORD_OUTDIR", str(tmp_path))
    res = runner.invoke(main, ["density", "--n", "3", "--t", "1", "--d", "2", "-o", "density.json"])
    assert res.exit_code == 0
    path = tmp_path / "density.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["subcommand"] == "density"


def test_bruhat_subcommand(runner):
    res = runner.invoke(main, ["bruhat", "--n", "3", "--p", "5", "--trials", "10", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 11
    for row in lines[1:]:
        assert row.split(",")[2] == "1"


def test_bruhat_matrix_file(runner, tmp_path):
    m = GFMatrix(PrimeField(5), [[1, 1], [0, 1]])
    path = tmp_path / "m.txt"
    path.write_text(m.to_text())
    res = runner.invoke(main, ["bruhat", "--matrix-file", str(path), "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 2
    trial, _, recomposed, perm = lines[1].split(",")
    assert recomposed == "1"
    assert perm == "1 0"  # the upper unipotent lands in the antidiagonal cell


def test_construct_target_file_and_word_emission(runner, tmp_path):
    import random

    from slword import random_word, word_from_text

    f = PrimeField(3)
    gs, gv = lb_generating_set(f, 6)
    target = evaluate_word(random_word(random.Random(5), gs, gv, 12), gs, gv)
    tf = tmp_path / "target.txt"
    tf.write_text(target.to_text())
    wf = tmp_path / "word.txt"
    res = runner.invoke(
        main,
        ["construct", "--target-file", str(tf), "--emit-word", str(wf), "--format", "csv"],
    )
    assert res.exit_code == 0, res.output
    assert res.output.strip().splitlines()[1].split(",")[2] == "1"
    word = word_from_text(wf.read_text(), gs, gv)
    assert evaluate_word(word, gs, gv) == target


def test_construct_target_file_rejects_non_special(runner, tmp_path):
    bad = GFMatrix(PrimeField(5), [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    tf = tmp_path / "bad.txt"
    tf.write_text(bad.to_text())
    res = runner.invoke(main, ["construct", "--target-file", str(tf)])
    assert res.exit_code != 0
    assert "determinant" in res.output
