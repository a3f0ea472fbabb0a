"""Tests of the benchmark itself, at toy sizes.

Run from the repository root: python3 -m pytest -q lpbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from checks import check_report
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def toy(name):
    """The named workload on a few hundred rows, with short walks."""
    w = WORKLOADS[name]
    m = 20 if w.m is not None else None
    return replace(w, inputs=replace(w.inputs, n=300), m=m)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, out_dir):
    result = run.benchmark(toy(name), seed=3, seconds=60, trace=trace,
                           experiments=2, pairs=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    declared = run.declared_metrics(trace)
    assert list(result["metrics"]) == list(declared)
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == declared[metric_name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, metric_name


def test_traced_counts_match_the_workload_shape(out_dir):
    n = 300
    one_pass = run.benchmark(toy("csv-tall"), seed=3, seconds=60, trace=1, pairs=1)
    m = {name: v["value"] for name, v in one_pass["metrics"].items()}
    assert m["stream.rows_yielded"] == 2 * n
    assert m["proposal.update_bank_calls"] == 2 * n
    assert m["proposal.pool_size"] == 9 * 2 * 4 * 19
    assert m["sampler.run_walks_calls"] == 9 * 2
    assert 2.9 < m["stream.bytes_read_ratio"] < 3.1
    assert m["baselines.rows_buffered"] == 0

    exact = run.benchmark(toy("exact-multipass"), seed=3, seconds=60, trace=1, pairs=1)
    m = {name: v["value"] for name, v in exact["metrics"].items()}
    assert m["stream.rows_yielded"] == 5 * n
    assert m["baselines.rows_buffered"] == 4 * n
    assert m["proposal.update_bank_calls"] == m["sampler.walk_steps"] == 0
    assert 5.9 < m["stream.bytes_read_ratio"] < 6.1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(12, 0, -1)]) == (100.0 * 2 / 12, 2.0)


def good_report(workload, out_dir):
    X, path = run.prepare(workload, 5, "checked")
    runner = run.Runner(workload, X, path, out_dir / "report.json")
    _, problems, report = runner.attempt(7)
    assert problems == []
    return X, report


def corrupt_passes(r, X):
    r["selection_passes"] += 1


def corrupt_index(r, X):
    r["selected_members"][0] = X.shape[0]


def corrupt_duplicate(r, X):
    r["selected_members"][1] = r["selected_members"][0]


def corrupt_rank(r, X):
    r["selected_rank"] = 99


def corrupt_final_err(r, X):
    r["final_err"] *= 1.0 + 1e-4


def corrupt_oracle_err(r, X):
    r["oracle_err"] *= 1.0 - 1e-4


CORRUPTIONS = {
    "passes": corrupt_passes,
    "index": corrupt_index,
    "duplicate": corrupt_duplicate,
    "rank": corrupt_rank,
    "final_err": corrupt_final_err,
    "oracle_err": corrupt_oracle_err,
}


@pytest.mark.parametrize("name", ["csv-tall", "exact-multipass"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_each_check_rejects_a_corrupted_report(name, corruption, out_dir):
    workload = toy(name)
    X, report = good_report(workload, out_dir)
    bad = json.loads(json.dumps(report))
    CORRUPTIONS[corruption](bad, X)
    assert check_report(bad, X, workload, 0)
    assert check_report(report, X, workload, 2) == ["exit code 2"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "lpbench", tmp_path / "lpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "lpbench/run.py", "--workload", "csv-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
