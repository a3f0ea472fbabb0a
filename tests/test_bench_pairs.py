import importlib.util
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
