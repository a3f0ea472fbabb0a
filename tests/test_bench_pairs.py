import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_a_gain_is_resolved_by_nine_tenths_of_the_pairs_and_the_parents_spread():
    # ten pairs, the change lower in nine: resolved when the medians are
    # further apart than the parent's quartiles
    parent = [5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7, 5.8, 5.9]
    change = [p - 0.4 for p in parent[:9]] + [6.0]
    s = bench_pairs.compare(list(zip(parent, change)), "lower")
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (9, 1, 0, 10)
    assert s["parent"]["median"] == pytest.approx(5.45)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx((5.225, 5.675))
    assert s["gain_resolved"] is False  # 5.45 - 5.05 is under 0.45
    s = bench_pairs.compare([(p, c - 0.1) for p, c in zip(parent, change)], "lower")
    assert s["gain_resolved"] is True
    # "higher" is better: the same pairs are nine losses
    s = bench_pairs.compare(list(zip(parent, change)), "higher")
    assert (s["wins"], s["losses"], s["gain_resolved"]) == (1, 9, False)
    s = bench_pairs.compare([(1.0, 1.0)] * 3, "lower")
    assert (s["ties"], s["gain_resolved"]) == (3, False)


def test_every_run_lasts_the_benchmark_s_run_seconds(monkeypatch, tmp_path, capsys):
    metrics, seconds, _ = bench_pairs.declared(bench_pairs.ROOT)
    calls = []

    def run_once(checkout, workload, seed, run_seconds):
        calls.append((checkout, workload, seed, run_seconds))
        return dict.fromkeys(metrics, 1.0), {}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", str(tmp_path), "--workload", "csv-tall",
                             "--pairs", "2", "--first-seed", "7"]) == 0
    change = str(bench_pairs.ROOT)
    assert calls == [(str(tmp_path), "csv-tall", 7, seconds), (change, "csv-tall", 7, seconds),
                     (change, "csv-tall", 8, seconds), (str(tmp_path), "csv-tall", 8, seconds)]
    assert "csv-tall: 2 pairs, 0 failed runs" in capsys.readouterr().out


def _fake_runs(monkeypatch, metrics):
    """Replace lpbench runs by fixed values: every metric reads the seed."""
    calls = []

    def run_once(checkout, workload, seed, run_seconds):
        calls.append((Path(checkout).name, seed))
        return dict.fromkeys(metrics, float(seed)), {"python": "3"}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_a_parent_sha_given_is_recorded_for_a_copy_outside_git(monkeypatch, tmp_path, capsys):
    # a `git archive` copy of the parent has no SHA of its own to read
    metrics, _, _ = bench_pairs.declared(bench_pairs.ROOT)
    _fake_runs(monkeypatch, metrics)
    parent, out = tmp_path / "parent", tmp_path / "pairs.json"
    parent.mkdir()
    argv = ["--parent", str(parent), "--workload", "pool-deep", "--pairs", "1",
            "--out", str(out)]
    for extra, sha in (([], "unknown"), (["--parent-sha", "85754c3"], "85754c3")):
        assert bench_pairs.main(argv + extra) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["parent_sha"] == sha
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent-sha", "85754c3"])  # a SHA needs its checkout
    capsys.readouterr()


def test_a_checkout_alone_gets_each_metric_s_median_and_quartiles(monkeypatch, tmp_path,
                                                                  capsys):
    metrics, _, _ = bench_pairs.declared(bench_pairs.ROOT)
    calls = _fake_runs(monkeypatch, metrics)
    out = tmp_path / "alone.json"
    assert bench_pairs.main(["--workload", "pool-deep", "--seeds", "4", "--first-seed", "10",
                             "--sha", "abc1234", "--out", str(out)]) == 0
    assert calls == [(bench_pairs.ROOT.name, seed) for seed in (10, 11, 12, 13)]
    results = json.loads(out.read_text(encoding="utf-8"))
    assert results["change_sha"] == "abc1234" and "parent_sha" not in results
    assert results["metadata"] == {"change": {"python": "3"}}
    pool_deep = results["workloads"]["pool-deep"]
    assert pool_deep["seeds"] == [10, 11, 12, 13] and pool_deep["failures"] == []
    assert pool_deep["metrics"]["run_ref"] == {"median": 11.5, "q1": 10.75, "q3": 12.25,
                                               "values": [10.0, 11.0, 12.0, 13.0]}
    assert set(pool_deep["metrics"]) == set(metrics)
    assert "pool-deep: 4 runs, 0 failed runs" in capsys.readouterr().out
