"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload traced twice with one seed (about a minute in all) and
checks that counts and digests repeat, that each per-layer metric is nonzero
where the layer map in METRICS.md says the layer does its work, that the
metric names match BENCHMARK.json, and that the oracle rejects wrong output.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
SECONDS = "3"


def _family(prefix, names, suffixes):
    return {f"{prefix}.{n}.{s}" for n in names for s in suffixes}


# per-layer metric -> the workload on which METRICS.md predicts it does most of its work
PREDICTED = {
    **dict.fromkeys(
        {
            "group_model.evaluate_word.calls",
            "group_model.evaluate_word.self_ms",
            "group_model.evaluate_word.steps",
            "word_builder.evaluations_per_target",
            "group_model.word_inverse.calls",
            "group_model.word_inverse.self_ms",
        }
        | _family("ff_linalg", ["det", "inv"], ["calls", "self_ms"])
        | _family("bruhat", ["decompose"], ["calls", "self_ms"])
        | _family("word_builder", ["construct", "lower_triangular_word", "monomial_word", "window_action"],
                  ["calls", "self_ms"]),
        "construct-n12-p5",
    ),
    **dict.fromkeys(
        _family("ff_linalg", ["matmul"], ["calls", "self_ms", "bigint_calls", "mac"])
        | _family("ff_linalg", ["apply"], ["calls", "self_ms"]),
        "construct-n6-p2147483647",
    ),
    **dict.fromkeys(
        _family("ff_linalg.subspace", ["span", "sum", "intersect", "image_under", "contains"], ["calls", "self_ms"])
        | _family("ff_linalg", ["solve_block_map", "solve_linear", "sl_map_frame", "pick_in_coset_avoiding"],
                  ["calls", "self_ms"])
        | _family("word_builder", ["swap_word", "move_word", "tail_nonzero_word", "head_basis_frames",
                                   "frames_to_tail_word"], ["calls", "self_ms"]),
        "swap-sweep-p5",
    ),
    **dict.fromkeys(
        _family("lower_bound", ["potential_trace", "bfs_covering", "enumerate_sl"], ["calls", "self_ms"])
        | {"lower_bound.bfs.states", "lower_bound.bfs.edge_products"}
        | _family("group_model", ["check_payload"], ["calls", "self_ms"]),
        "lower-bound",
    ),
}
# waste ratios: they read 0 on every workload today (no solve fails, no coset search misses)
MAY_BE_ZERO = {"ff_linalg.solve_block_map.fail_ratio", "ff_linalg.pick_in_coset_avoiding.miss_ratio"}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return record, result["metrics"]


@pytest.fixture(scope="module")
def traced():
    return {w: (_run(w, 1), _run(w, 1)) for w in WORKLOADS}


def test_same_seed_repeats_counts_and_digests(traced):
    for workload, ((first, _), (second, _)) in traced.items():
        assert first["counts"] == second["counts"], workload
        assert first["output_sha256"] == second["output_sha256"], workload
        for key in ("group_model.evaluate_word.calls", "ff_linalg.matmul.calls",
                    "ff_linalg.matmul.bigint_calls", "ff_linalg.det.calls", "lower_bound.bfs.states"):
            assert key in first["counts"], key


def test_layer_metrics_nonzero_where_predicted(traced):
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert per_layer == set(PREDICTED) | MAY_BE_ZERO | {"trace.overhead_ratio"}
    for metric, workload in PREDICTED.items():
        (_, metrics), _ = traced[workload]
        assert metrics[metric]["value"] > 0, (metric, workload)
    (_, n12), _ = traced["construct-n12-p5"]
    assert n12["ff_linalg.matmul.bigint_calls"]["value"] == 0
    assert n12["word_builder.evaluations_per_target"]["value"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload, ((_, metrics), _) in traced.items():
        assert {k: v["unit"] for k, v in metrics.items()} == units, workload
        assert metrics["trace.overhead_ratio"]["value"] > 0


def test_end_to_end_names_and_units():
    _, metrics = _run("lower-bound", 0)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == run.WORKLOAD_NAMES
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_exits_nonzero_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lower-bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_rejects_a_wrong_word():
    wl = WORKLOADS["construct-n6-p2147483647"]
    builder = wl.setup()
    check = wl.oracle(builder)
    target = wl.inputs(random.Random(0))[0]
    report = builder.construct(target)
    assert check(target, report) is None
    report.word = type(report.word)(report.word.steps[:-1])
    assert check(target, report) is not None


def test_uniform_sl_has_determinant_one_and_hits_every_element():
    rng = random.Random(0)
    seen = set()
    for _ in range(2000):
        a = exact.uniform_sl(rng, 3, 2)
        assert exact.det(a, 3) == 1
        seen.add(a.tobytes())
    assert len(seen) == exact.sl_order(2, 3)
    big = exact.uniform_sl(rng, 2147483647, 4)
    assert np.array_equal(exact.mat_mul(big, exact.inverse(big, 2147483647), 2147483647), np.eye(4))


def test_swap_normal_form_matches_swap_target():
    from slword import PrimeField, swap_target

    for t in (1, 2, 3):
        for p in (2, 3, 5):
            want = swap_target(PrimeField(p), 3 * t, t).array
            assert np.array_equal(exact.swap_normal_form(p, 3 * t, t), want)
