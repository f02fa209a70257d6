"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import MIN_PASSES, WORKLOADS, Query, build_batch, check_answer  # noqa: E402


def _brute_force(n):
    """Histograms of descent sets and peak sets over all permutations of n."""
    descents, peaks = {}, {}
    for p in itertools.permutations(range(1, n + 1)):
        d, pk = ref.perm_descents(p), ref.perm_peaks(p)
        descents[d] = descents.get(d, 0) + 1
        peaks[pk] = peaks.get(pk, 0) + 1
    return descents, peaks


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_batch(workload):
    assert build_batch(workload, 7) == build_batch(workload, 7)
    assert len(build_batch(workload, 7)) * MIN_PASSES >= 100


@pytest.mark.parametrize("workload", ["count-mix", "coeff-table"])
def test_seed_changes_the_inputs(workload):
    assert set(build_batch(workload, 1)) != set(build_batch(workload, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_reference_matches_brute_force(n):
    descents, peaks = _brute_force(n)
    for r in range(n):
        for s in itertools.combinations(range(1, n), r):
            assert ref.descent_count(s, n) == descents.get(s, 0)
            assert ref.peak_class_size(s, n) == peaks.get(s, 0)
            if ref.admissible(s) and s:
                assert ref.peak_value(s, n) * 2 ** (n - len(s) - 1) == peaks[s]


def test_canonical_descents_have_the_requested_spikes():
    for r in range(1, 4):
        for j in itertools.combinations(range(2, 10), r):
            if ref.admissible(j):
                s = ref.canonical_descents(j)
                assert ref.set_spikes(s, max(j) + 1) == j
                assert max(j) - 1 in s  # the rightmost spike is a valley


def test_flip_is_an_involution_that_keeps_the_tail():
    for p in itertools.permutations(range(1, 6)):
        for i in range(1, 6):
            assert ref.flip(ref.flip(p, i), i) == p
            assert ref.flip(p, i)[i:] == p[i:]


def test_corrupted_answer_counts_as_failed(tmp_path):
    runner = harness.Runner(ROOT, str(tmp_path))
    good = Query("count-descent", ((2, 3), 8))
    proc = runner.python("-m", "peakpoly", *good.argv())
    assert check_answer(good, proc.exit_code, proc.stdout) is None
    data = json.loads(proc.stdout)
    data["count"] = str(int(data["count"]) + 1)
    corrupted = harness.ProcResult(proc.wall_s, proc.cpu_s, proc.rss_mb, 0,
                                   json.dumps(data).encode())
    outcomes = [harness.Outcome(good, p, harness._check(good, p)) for p in (proc, corrupted)]
    assert outcomes[0].failure is None and outcomes[1].failure
    metrics = harness.end_to_end([0.1], [(1.0, outcomes)])
    assert metrics["ok_frac"] == (0.5, "ratio")


@pytest.mark.parametrize("q", [
    Query("count-peak", ((2, 4), 7)),
    Query("moebius", ((2, 5), 9)),
    Query("expand", ((2, 3), 7)),
    Query("descent-poly", ((1, 3), 4)),
    Query("peak-poly", ((2, 4), 4)),
    Query("table1", ((2, 4), 4)),
    Query("flips", ((2, 4, 3, 1, 5, 6, 7, 8),)),
    Query("verify", ("flip-table", 4)),
])
def test_each_check_accepts_the_program_and_rejects_a_wrong_exit(q, tmp_path):
    proc = harness.Runner(ROOT, str(tmp_path)).python("-m", "peakpoly", *q.argv())
    assert check_answer(q, proc.exit_code, proc.stdout) is None
    assert check_answer(q, 1, proc.stdout) == "exit code 1"


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_named_metric(workload, trace, monkeypatch, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "build_batch", lambda name, seed: build_batch(name, seed)[:3])
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert not [name for name in os.listdir(BENCH_DIR) if name.startswith(".out-")]


def test_refuses_to_run_without_a_checkout(tmp_path):
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
                           "count-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
                          check=False)
    assert done.returncode == 2
    assert done.stdout == ""
