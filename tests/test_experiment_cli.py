import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsubsel import (DatasetSource, ExperimentSpec, FormatError, InputError,
                      ParameterError, PointSet, SubsetBasis, as_source,
                      brute_force_candidate_err, cli, draw_mixture_pool,
                      exact_adaptive_sample, experiment, open_csv, run_experiment,
                      squared_length_sample, stream, svd_optimal_err2)
from lpsubsel import _parse_helper
from lpsubsel.cli import main
from lpsubsel.geometry import CHUNK_ROWS
from lpsubsel.stream import _BLOCK_ROWS

from helpers import basis_from, low_rank_plus_noise, peak_traced_bytes

ALGORITHMS = ["mcmc-one-pass", "exact-adaptive", "squared-length"]


def _spec(**kw):
    base = dict(input=np.random.default_rng(0).standard_normal((25, 4)),
                algorithm="mcmc-one-pass", k=2, p=2.0, delta=0.5, t=4, seed=9)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ParameterError):
        _spec(algorithm="gradient-descent")
    with pytest.raises(ParameterError):
        _spec(oracle="magic")


def test_rank_k_dataset_reports_exact_cover():
    rng = np.random.default_rng(1)
    X = low_rank_plus_noise(30, 6, 2, noise=0.0, rng=rng)
    report = run_experiment(_spec(input=X, t=3))
    assert report.exact_cover
    assert report.final_err_root == pytest.approx(0.0, abs=1e-7)


def test_selected_repetition_is_argmin():
    report = run_experiment(_spec())
    assert report.rep_errors[report.selected_repetition] == min(report.rep_errors)
    assert report.final_err == min(report.rep_errors)


def test_pass_counts_by_algorithm():
    report = run_experiment(_spec())
    assert (report.selection_passes, report.evaluation_passes) == (1, 1)
    report = run_experiment(_spec(algorithm="exact-adaptive", l=2))
    assert (report.selection_passes, report.evaluation_passes) == (2, 1)
    report = run_experiment(_spec(algorithm="squared-length"))
    assert (report.selection_passes, report.evaluation_passes) == (1, 1)


def test_reports_are_deterministic_modulo_timings():
    a = run_experiment(_spec()).to_dict()
    b = run_experiment(_spec()).to_dict()
    a.pop("timings"), b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _pool_deep_shaped(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((300, 3)) @ rng.standard_normal((3, 64))
    X += 0.3 * rng.standard_normal((300, 64))
    return X * rng.lognormal(sigma=0.5, size=(300, 1))


# recorded when the pool's banks began merging a store-full of rows at a
# time, which draws the uniform bank's slots right after the weighted
# bank's, with no skip-limit variate between them
@pytest.mark.parametrize("seed, members, rep_errors", [
    (0, [94, 20, 46, 96, 60, 177, 86, 97, 79, 48, 101, 200, 24, 191, 141, 72, 212, 220, 259,
         225, 266, 166, 98, 110, 39, 139, 88, 142, 187, 6, 56, 77, 83, 89, 14, 249, 5, 241,
         274, 9, 40, 179],
     [1731.3791627547575, 1471.2957030082446]),
    (1, [209, 34, 40, 90, 267, 145, 67, 290, 237, 138, 162, 60, 177, 276, 201, 122, 69, 258,
         230, 289, 106, 222, 129, 125, 165, 206, 54, 42, 295, 135, 204, 155, 218, 72, 36, 296,
         21, 150, 101, 195, 175],
     [2102.6247684484906, 1764.7856196100588]),
    (2, [255, 229, 241, 49, 208, 143, 293, 87, 9, 63, 179, 113, 7, 251, 210, 121, 34, 47, 125,
         52, 207, 56, 165, 75, 23, 215, 231, 80, 201, 111, 180, 104, 252, 129, 132, 203, 206,
         96, 126, 21],
     [1597.5620034269964, 2450.96771005238]),
])
def test_pool_deep_shaped_run_fixed_seed_recording(seed, members, rep_errors):
    # the benchmark's pool-deep run scaled down: lognormal row norms,
    # p = 3, t * l = 48 < d = 64
    report = run_experiment(ExperimentSpec(input=_pool_deep_shaped(seed), k=3, p=3.0, t=16,
                                           l=3, m=20, repetitions=2, seed=seed))
    assert report.selected_members == members
    assert report.rep_errors == rep_errors


@pytest.mark.parametrize("oracle, n", [("none", 2500), ("svd", 2500), ("bruteforce", 12)])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_reports_agree_whether_rows_are_held_or_streamed(tmp_path, algorithm, oracle, n):
    # An array input is scored in place; a file is copied into the
    # evaluation buffer, or scored in place from exact-adaptive's kept rows.
    # The chunks are the same, so every field but the timings is too.
    X = np.random.default_rng(18).standard_normal((n, 3))
    path = tmp_path / "points.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X),
                    encoding="utf-8")
    reports = [run_experiment(_spec(input=data, algorithm=algorithm, oracle=oracle, k=1))
               .to_dict() for data in (X, str(path))]
    for report in reports:
        report.pop("timings")
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


@pytest.mark.parametrize("pull", [100, 1500], ids=["pull_divides_no_chunk", "pull_above_a_chunk"])
def test_streamed_chunks_fill_for_any_pull_size(tmp_path, monkeypatch, pull):
    # the evaluation buffer fills each chunk exactly even when pulls of
    # `pull` rows do not divide CHUNK_ROWS, so the report is unchanged
    X = np.random.default_rng(18).standard_normal((2500, 3))
    path = tmp_path / "points.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X),
                    encoding="utf-8")
    want = run_experiment(_spec(input=X, algorithm="squared-length", oracle="svd", k=1)).to_dict()
    monkeypatch.setattr(experiment, "_BLOCK_ROWS", pull)
    got = run_experiment(_spec(input=str(path), algorithm="squared-length", oracle="svd",
                               k=1)).to_dict()
    for report in (want, got):
        report.pop("timings")
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_svd_oracle_sees_every_row_beyond_one_chunk():
    # more rows than one evaluation chunk, so the oracle's buffer fills in parts
    X = np.random.default_rng(13).standard_normal((2500, 4))
    report = run_experiment(_spec(input=X, algorithm="squared-length", oracle="svd"))
    assert report.oracle_err == svd_optimal_err2(PointSet(X), 2)
    assert report.empty_err == pytest.approx(float((X ** 2).sum()), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0])
def test_empty_err_is_the_chunked_norm_sum(p):
    # at p != 2 the empty span is scored in the candidates' loop, one chunk
    # at a time, so the sum is exact; at p = 2 it is scored from R's rows
    X = np.random.default_rng(17).standard_normal((2500, 4))
    report = run_experiment(_spec(input=X, algorithm="squared-length", p=p))
    if p == 2.0:
        R = np.linalg.qr(X, mode="r")
        assert report.empty_err == pytest.approx(float(np.sum(R * R)), rel=1e-12)
        return
    want = 0.0
    for start in range(0, len(X), CHUNK_ROWS):
        want += float(np.sum(np.linalg.norm(X[start:start + CHUNK_ROWS], axis=1) ** p))
    assert report.empty_err == want


@pytest.mark.parametrize("shape", [(5, 8), (300, 6)], ids=["n_below_d", "n_below_chunk"])
def test_svd_oracle_from_r_factor_matches_direct_svd(shape):
    X = np.random.default_rng(14).standard_normal(shape)
    report = run_experiment(_spec(input=X, algorithm="squared-length", oracle="svd"))
    assert report.oracle_err == pytest.approx(svd_optimal_err2(PointSet(X), 2), rel=1e-12)


@pytest.mark.parametrize("n", [300, 2500])
def test_svd_oracle_rank_deficient_is_zero(n):
    # rank-2 data at k = 2: the optimum is 0 up to rounding, over one chunk and several
    X = low_rank_plus_noise(n, 6, 2, noise=0.0, rng=np.random.default_rng(15)).points
    report = run_experiment(_spec(input=X, algorithm="squared-length", oracle="svd"))
    tol = 1e-12 * float((X ** 2).sum())
    assert report.oracle_err == pytest.approx(svd_optimal_err2(PointSet(X), 2), abs=tol)
    assert report.oracle_err == pytest.approx(0.0, abs=tol)


def test_bruteforce_oracle_sees_every_row():
    X = np.random.default_rng(16).standard_normal((12, 3))
    report = run_experiment(_spec(input=X, k=1, oracle="bruteforce"))
    assert report.oracle_err == brute_force_candidate_err(PointSet(X), 1, 2.0)


def test_additive_inequality_with_svd_oracle():
    rng = np.random.default_rng(12345)
    X = low_rank_plus_noise(40, 8, 2, noise=0.05, rng=rng)
    report = run_experiment(_spec(input=X, k=2, t=20, oracle="svd"))
    bound = report.oracle_err_root + report.delta_term_root
    assert report.final_err_root <= bound


def test_bruteforce_oracle_guard_propagates():
    from lpsubsel import GuardError
    rng = np.random.default_rng(2)
    X = PointSet(rng.standard_normal((20, 3)))
    source = as_source(X)
    with pytest.raises(GuardError):
        run_experiment(_spec(input=source, oracle="bruteforce"))
    # the guard fires before the selection pass, not after both passes
    assert source.selection_passes == source.evaluation_passes == 0


def test_k_above_d_is_an_input_error_before_any_pass(tmp_path, capsys):
    X = np.random.default_rng(21).standard_normal((10, 3))
    source = as_source(X)
    with pytest.raises(InputError, match="^k=4 exceeds ambient dimension d=3$"):
        run_experiment(_spec(input=source, k=4))
    assert source.selection_passes == source.evaluation_passes == 0
    assert main(["--input", _write_csv(tmp_path, X), "--k", "4", "--t", "2"]) == 2
    assert capsys.readouterr().err == "error: k=4 exceeds ambient dimension d=3\n"


def test_evaluation_pass_records():
    X = PointSet(np.eye(3))
    bases = [basis_from(X, members) for members in ([0, 1], [], [0, 1, 2])]
    ev = experiment._evaluation_pass(as_source(X), bases, 2.0, "svd")
    sums, empty_sum = ev.sums, ev.empty_sum
    assert ev.evaluator == "r-factor"
    assert sums[0] ** 0.5 == pytest.approx(1.0)
    assert svd_optimal_err2(PointSet(ev.r_factor), 2) ** 0.5 == pytest.approx(1.0)
    assert bases[0].rank == 2
    assert (sums[1] / empty_sum) ** 0.5 == pytest.approx(1.0)
    assert sums[2] ** 0.5 == pytest.approx(0.0, abs=1e-12)
    ev = experiment._evaluation_pass(as_source(X), [basis_from(X, [0])], 1.0, "none")
    assert ev.evaluator == "distances"
    assert ev.sums[0] == pytest.approx(2.0)
    assert ev.r_factor is None


def _chunked_distance_sums(X, spans, p):
    """What the "distances" evaluator sums: each CHUNK_ROWS chunk's d^p to
    every span, added chunk by chunk."""
    sums = np.zeros(len(spans))
    for start in range(0, len(X), CHUNK_ROWS):
        for i, b in enumerate(spans):
            sums[i] += float(np.sum(b.distances(X[start:start + CHUNK_ROWS]) ** p))
    return sums


def _captured_bases(monkeypatch):
    """A list that receives the candidate bases of every run from now on."""
    captured = []

    def capture(sample):
        def wrapped(*args, **kwargs):
            out = sample(*args, **kwargs)
            captured[:] = out if isinstance(out, list) else [out]
            return out
        return wrapped

    for name in ("one_pass_adaptive_sample", "exact_adaptive_sample", "squared_length_sample"):
        monkeypatch.setattr(experiment, name, capture(getattr(experiment, name)))
    return captured


# (rows, columns, rank or None for full, scale, k, t): the shapes R scoring
# must agree on with the chunked distance sums
AGREEMENT_CASES = {
    "n_below_d": (5, 8, None, 1.0, 2, 2),
    "n1023": (1023, 6, None, 1.0, 2, 3),
    "n1024": (1024, 6, None, 1.0, 2, 3),
    "n1025": (1025, 6, None, 1.0, 2, 3),
    "n2500": (2500, 6, None, 1.0, 2, 3),
    "rank_deficient": (1500, 6, 3, 1.0, 1, 2),
    "exact_cover": (1500, 6, 2, 1.0, 2, 4),
    "scale_1e100": (1500, 6, None, 1e100, 2, 3),
    "scale_1e-100": (1500, 6, None, 1e-100, 2, 3),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("from_file", [False, True], ids=["array", "file"])
@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_r_factor_scores_agree_with_chunked_distance_sums(tmp_path, monkeypatch, case,
                                                          from_file, algorithm):
    n, d, rank, scale, k, t = AGREEMENT_CASES[case]
    rng = np.random.default_rng(20)
    if rank is None:
        X = rng.standard_normal((n, d))
    else:
        X = low_rank_plus_noise(n, d, rank, noise=0.0, rng=rng).points
    X = scale * X
    data = X
    if from_file:
        data = tmp_path / "points.csv"
        data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X),
                        encoding="utf-8")
        data = str(data)
    bases = _captured_bases(monkeypatch)
    report = run_experiment(_spec(input=data, algorithm=algorithm, k=k, t=t, oracle="svd"))
    assert report.evaluator == "r-factor" and report.evaluation_passes == 1
    want = _chunked_distance_sums(X, [SubsetBasis.empty(d), *bases], 2.0)
    tol = 1e-12 * want[0]
    assert report.empty_err == pytest.approx(want[0], abs=tol)
    assert report.rep_errors == pytest.approx(list(want[1:]), abs=tol)
    if case == "exact_cover":
        assert report.exact_cover


@pytest.mark.parametrize("p, evaluator", [(2.0, "r-factor"), (3.0, "distances")])
def test_reports_name_their_evaluator(tmp_path, p, evaluator):
    path = _write_csv(tmp_path, np.random.default_rng(19).standard_normal((40, 3)))
    reports = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        assert main(["--input", path, "--k", "1", "--t", "2", "--p", f"{p:g}",
                     "--report", fmt, "--out", str(out)]) == 0
        reports[fmt] = out.read_text(encoding="utf-8")
    report = json.loads(reports["json"])
    header, row = reports["csv"].strip().splitlines()
    flat = dict(zip(header.split(","), row.split(",")))
    assert report["evaluator"] == flat["evaluator"] == evaluator
    if p == 2.0:
        assert report["k_in_span_err"] >= report["final_err"]
        assert float(flat["k_in_span_err"]) == report["k_in_span_err"]
    else:
        assert report["k_in_span_err"] is None and report["k_in_span_err_root"] is None
        assert flat["k_in_span_err"] == flat["k_in_span_err_root"] == "None"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_k_in_span_err_is_the_best_k_subspace_of_the_selected_span(algorithm):
    # low rank plus noise with t * l = 6 < d = 16: the span is wider than k
    # and narrower than the data, so both gaps are real
    X = low_rank_plus_noise(2500, 16, 3, noise=0.3, rng=np.random.default_rng(21)).points
    k = 3
    report = run_experiment(_spec(input=X, algorithm=algorithm, k=k, t=2, l=3, oracle="svd"))
    assert report.selected_rank > k
    Q = basis_from(PointSet(X), report.selected_members).basis
    XQ = X @ Q.T
    s = np.linalg.svd(XQ, compute_uv=False)
    want = float(np.sum((X - XQ @ Q) ** 2)) + float(np.sum(s[k:] ** 2))
    assert report.k_in_span_err == pytest.approx(want, rel=1e-10)
    assert report.k_in_span_err_root == report.k_in_span_err ** 0.5
    assert report.final_err <= report.k_in_span_err
    assert report.oracle_err <= report.k_in_span_err
    # best-of-R still picks by the whole span's error
    assert report.selected_repetition == int(np.argmin(report.rep_errors))


def test_k_in_span_err_is_the_span_error_when_the_span_has_at_most_k_dimensions():
    X = np.random.default_rng(22).standard_normal((60, 5))
    report = run_experiment(_spec(input=X, k=2, t=1, l=1))
    assert report.selected_rank <= 2
    assert report.k_in_span_err == report.final_err


def test_k_larger_than_dimension_rejected():
    with pytest.raises(InputError):
        run_experiment(_spec(k=9))


# ------------------------------------------------------------------- CLI

def _write_csv(tmp_path, rows, name="points.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n",
                    encoding="utf-8")
    return str(path)


def test_cli_json_report(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = _write_csv(tmp_path, rng.standard_normal((20, 3)))
    out = str(tmp_path / "report.json")
    code = main(["--input", path, "--k", "2", "--t", "3", "--seed", "5",
                 "--out", out])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["algorithm"] == "mcmc-one-pass"
    assert report["config"]["seed"] == 5
    assert report["selection_passes"] == 1


def test_cli_csv_report_to_stdout(tmp_path, capsys):
    path = _write_csv(tmp_path, np.eye(3))
    code = main(["--input", path, "--k", "1", "--t", "2", "--report", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # a header, a row, and no blank line after them
    header = lines[0].split(",")
    assert "final_err_root" in header


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_report_on_stdout_is_the_out_file(tmp_path, capsys, monkeypatch, fmt):
    # one report for both calls: two runs would differ in their timings
    path = _write_csv(tmp_path, np.random.default_rng(6).standard_normal((15, 3)))
    report = run_experiment(ExperimentSpec(input=path, k=1, t=2, seed=3))
    monkeypatch.setattr(cli, "run_experiment", lambda spec: report)
    out = tmp_path / f"report.{fmt}"
    argv = ["--input", path, "--k", "1", "--t", "2", "--report", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    written = out.read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == written
    assert written.endswith(b"\n") and not written.endswith(b"\n\n")


def test_cli_env_seed_and_flag_precedence(tmp_path, capsys, monkeypatch):
    path = _write_csv(tmp_path, np.random.default_rng(4).standard_normal((12, 2)))
    monkeypatch.setenv("SUBSEL_SEED", "77")
    assert main(["--input", path, "--k", "1", "--t", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 77
    assert main(["--input", path, "--k", "1", "--t", "2", "--seed", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 8


def test_cli_bad_env_seed(tmp_path, capsys, monkeypatch):
    path = _write_csv(tmp_path, np.eye(2))
    monkeypatch.setenv("SUBSEL_SEED", "not-a-number")
    assert main(["--input", path, "--k", "1", "--t", "1"]) == 2


def test_cli_input_errors_exit_2(tmp_path, capsys):
    assert main(["--input", str(tmp_path / "missing.csv"), "--k", "1"]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    assert main(["--input", str(ragged), "--k", "1"]) == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["mcmc-one-pass", "exact-adaptive"])
@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_cli_non_finite_cell_exits_2(tmp_path, capsys, cell, algo):
    rows = [[str(v) for v in row]
            for row in np.random.default_rng(8).standard_normal((6, 3))]
    rows[3][1] = cell
    path = _write_csv(tmp_path, rows)
    assert main(["--input", path, "--algo", algo, "--k", "1", "--t", "2"]) == 2
    assert "row 4" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_late_malformed_row_exits_2_without_a_report(tmp_path, capsys, algo):
    # open_csv parses only the first row; the first pass finds this one
    line = 2 * _BLOCK_ROWS + 5
    rows = [[str(v) for v in row]
            for row in np.random.default_rng(12).standard_normal((line + 10, 3))]
    rows[line - 1][2] = "x"
    path = _write_csv(tmp_path, rows)
    out = tmp_path / "report.json"
    code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2",
                 "--out", str(out)])
    assert code == 2
    assert f"error: row {line}: non-numeric cell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["mcmc-one-pass", "exact-adaptive"])
def test_cli_non_utf8_file_exits_2(tmp_path, capsys, algo):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1,2\n\xff\xfe,3\n")
    assert main(["--input", str(path), "--algo", algo, "--k", "1", "--t", "2"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "not valid UTF-8" in err


@pytest.mark.parametrize("algo", ["mcmc-one-pass", "exact-adaptive"])
@pytest.mark.parametrize("rows_after", [10, 14])
def test_cli_file_changed_after_open_exits_2(tmp_path, capsys, monkeypatch, algo, rows_after):
    rng = np.random.default_rng(10)
    path = _write_csv(tmp_path, rng.standard_normal((12, 3)))
    real_open_csv = experiment.open_csv

    def open_then_rewrite(*args, **kwargs):
        source = real_open_csv(*args, **kwargs)
        _write_csv(tmp_path, rng.standard_normal((rows_after, 3)))
        return source

    monkeypatch.setattr(experiment, "open_csv", open_then_rewrite)
    code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2",
                 "--oracle", "svd"])
    assert code == 2
    assert f"{path} changed since it was opened: lines 1-12 are not what it read" \
        in capsys.readouterr().err


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_same_count_rewrite_after_open_exits_2(tmp_path, capsys, monkeypatch, algo):
    # the first pass reads the byte ranges opening recorded, so it catches
    # a rewrite that keeps the file's length and row count
    X = np.random.default_rng(21).standard_normal((2 * _BLOCK_ROWS + 40, 3))
    path = _write_csv(tmp_path, X)
    real_open_csv = experiment.open_csv

    def open_then_rewrite(*args, **kwargs):
        source = real_open_csv(*args, **kwargs)
        X[_BLOCK_ROWS + 4] = X[_BLOCK_ROWS + 4, ::-1]
        _write_csv(tmp_path, X)
        return source

    monkeypatch.setattr(experiment, "open_csv", open_then_rewrite)
    code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"{path} changed since it was opened: lines {_BLOCK_ROWS + 1}-{2 * _BLOCK_ROWS} " \
        "are not what it read" in err


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_file_removed_after_open_exits_2(tmp_path, capsys, monkeypatch, algo):
    # the first pass cannot reopen the file: a read failure mid-run is an
    # input error with a message, not a traceback, and writes no report
    X = np.random.default_rng(22).standard_normal((40, 3))
    path = _write_csv(tmp_path, X)
    out = tmp_path / "report.json"
    real_open_csv = experiment.open_csv

    def open_then_remove(*args, **kwargs):
        source = real_open_csv(*args, **kwargs)
        os.remove(path)
        return source

    monkeypatch.setattr(experiment, "open_csv", open_then_remove)
    code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error: I/O failure while streaming ") and path in err
    assert not out.exists()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_same_count_rewrite_after_the_first_pass_exits_2(tmp_path, capsys, monkeypatch,
                                                            algo):
    # exact-adaptive's second round, or the evaluation pass, reads the rewrite
    X = np.random.default_rng(19).standard_normal((2 * _BLOCK_ROWS + 40, 3))
    path = _write_csv(tmp_path, X)
    real_iterate_once = DatasetSource.iterate_once
    rewritten = []

    def rewrite_after_first_pass(self, purpose):
        yield from real_iterate_once(self, purpose)
        if not rewritten:
            X[_BLOCK_ROWS + 4, 1] += 1.0
            rewritten.append(_write_csv(tmp_path, X))

    monkeypatch.setattr(DatasetSource, "iterate_once", rewrite_after_first_pass)
    code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2", "--l", "2"])
    err = capsys.readouterr().err
    assert code == 2 and rewritten
    assert path in err and f"lines {_BLOCK_ROWS + 1}-{2 * _BLOCK_ROWS} are not" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_header_rewritten_after_the_first_pass_exits_2(tmp_path, capsys, monkeypatch,
                                                          algo):
    path = tmp_path / "points.csv"
    body = "".join(f"{i},{i % 7},1\n" for i in range(40))
    path.write_text("a,b,c\n" + body, encoding="utf-8")
    real_iterate_once = DatasetSource.iterate_once
    rewritten = []

    def rewrite_after_first_pass(self, purpose):
        yield from real_iterate_once(self, purpose)
        if not rewritten:
            path.write_text("x,y,z\n" + body, encoding="utf-8")
            rewritten.append(True)

    monkeypatch.setattr(DatasetSource, "iterate_once", rewrite_after_first_pass)
    code = main(["--input", str(path), "--header", "--algo", algo, "--k", "1", "--t", "2",
                 "--l", "2"])
    err = capsys.readouterr().err
    assert code == 2 and rewritten
    assert "line 1 is not what it read" in err and "Traceback" not in err


def test_cli_guard_violation_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = _write_csv(tmp_path, rng.standard_normal((20, 3)))
    code = main(["--input", path, "--k", "2", "--t", "2",
                 "--oracle", "bruteforce"])
    assert code == 3


def test_cli_unknown_report_format_exits_2(tmp_path, capsys):
    path = _write_csv(tmp_path, np.eye(2))
    with pytest.raises(SystemExit) as exc:
        main(["--input", path, "--k", "1", "--report", "xml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("flags, named", [
    (["--p", "60"], "t=2.82e55"),                       # the recipe's t and m
    (["--p", "2", "--delta", "1e-9"], "t=1.41e30"),
    (["--t", "1000000000000"], "t=1.00e12"),            # an override too large for memory
    (["--p", "1e308"], "p=1e+308"),                     # 2^(p+1) overflows a float
    (["--t", "1" + "0" * 400], "t=1.00e400"),           # an override no float can hold
    (["--l", "1" + "0" * 400], "l=1.00e400"),
], ids=["p60", "tiny_delta", "huge_t", "p1e308", "huge_t_digits", "huge_l_digits"])
def test_cli_oversized_recipe_exits_3(tmp_path, capsys, algo, flags, named):
    path = _write_csv(tmp_path, np.random.default_rng(18).standard_normal((50, 4)))
    code = main(["--input", path, "--algo", algo, "--k", "1", *flags])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("flags, named", [
    (["--l", "-1"], "need l >= 0, got l=-1"),
    (["--l", "-1" + "0" * 400], "need l >= 0, got l=-1.00e400"),  # was exit 3
    (["--m", "-1" + "0" * 60], "m=-1.00e60,"),                  # was all 61 digits
    (["--reps", "-1" + "0" * 60], "repetitions=-1.00e60"),
    (["--seed", "-1" + "0" * 60], "got -1.00e60"),
    (["--k", "-1" + "0" * 60], "got -1.00e60"),
], ids=["l_minus_one", "l_digits", "m_digits", "reps_digits", "seed_digits", "k_digits"])
def test_cli_negative_count_of_any_length_exits_2(tmp_path, capsys, algo, flags, named):
    # a count below its range is a parameter fault, checked before its
    # magnitude, and the message gives a long count to three digits
    path = _write_csv(tmp_path, np.random.default_rng(18).standard_normal((50, 4)))
    code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "0" * 13 not in err and "Traceback" not in err


_HUGE = -10 ** 40


@pytest.mark.parametrize("call, named", [
    (lambda rng: exact_adaptive_sample(np.eye(2), 2.0, _HUGE, 1, rng), "t=-1.00e40,"),
    (lambda rng: exact_adaptive_sample(np.eye(2), 2.0, 1, _HUGE, rng), "l=-1.00e40"),
    (lambda rng: squared_length_sample(np.eye(2), 2.0, _HUGE, rng), "got -1.00e40"),
    (lambda rng: draw_mixture_pool(iter(np.eye(2)), 2.0, _HUGE, rng), "got -1.00e40"),
    (lambda rng: SubsetBasis.empty(_HUGE), "got -1.00e40"),
], ids=["exact_t", "exact_l", "squared_length_count", "pool_size", "basis_dimension"])
def test_library_range_messages_give_a_long_count_to_three_digits(call, named):
    with pytest.raises(InputError) as exc:
        call(np.random.default_rng(0))
    assert named in str(exc.value) and "0" * 13 not in str(exc.value)


# each case's flags, given a scratch directory and a pipe's path, and
# what its message names
_BAD_FLAGS = {
    "t_zero": (lambda tmp_path, pipe: ["--t", "0"], "need t >= 1"),
    "t_negative": (lambda tmp_path, pipe: ["--t", "-1"], "need t >= 1"),
    "out_in_a_missing_directory": (
        lambda tmp_path, pipe: ["--out", str(tmp_path / "missing" / "report.json")],
        "cannot write"),
    "out_at_a_directory": (lambda tmp_path, pipe: ["--out", str(tmp_path)], "cannot write"),
    "input_a_pipe": (lambda tmp_path, pipe: ["--input", pipe], "read more than once"),
}


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("case", list(_BAD_FLAGS))
def test_cli_bad_flags_exit_with_a_message(tmp_path, capsys, algo, case):
    path = _write_csv(tmp_path, np.random.default_rng(22).standard_normal((20, 3)))
    out = tmp_path / "report.json"
    flags, named = _BAD_FLAGS[case]
    # a pipe holding a small CSV, which can be read only once
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(b"1,2\n3,4\n5,7\n")
    try:
        code = main(["--input", path, "--algo", algo, "--k", "1", "--t", "2",
                     "--out", str(out), *flags(tmp_path, f"/dev/fd/{read_end}")])
    finally:
        os.close(read_end)
    err = capsys.readouterr().err
    assert code in (2, 3) and err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "missing").exists()


def test_cli_exact_adaptive_buffer_beyond_memory_exits_3(tmp_path, capsys, monkeypatch):
    # a 50 x 4 file takes a 1,600-byte row buffer; the machine reports one byte less
    path = _write_csv(tmp_path, np.random.default_rng(18).standard_normal((50, 4)))
    real_open_csv = experiment.open_csv
    opened = []

    def open_and_keep(*args, **kwargs):
        opened.append(real_open_csv(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(experiment, "open_csv", open_and_keep)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: 8 * 50 * 4 - 1)
    code = main(["--input", path, "--algo", "exact-adaptive", "--k", "1", "--t", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n=50 by d=4" in err
    assert opened[0].selection_passes == 0


@pytest.mark.parametrize("algorithm", ["mcmc-one-pass", "squared-length"])
def test_one_pass_memory_guard_counts_the_row_store_floor(monkeypatch, algorithm):
    # a small recipe's row store has room for its draws plus 8 blocks of
    # rows, each d floats with a position and a weight: its arrays reach
    # the room, and the 50 rows of the input are counted once more. Each
    # draw takes _SLOT_BYTES, a block of the pass 64 bytes a coordinate and
    # 256 a row, and an evaluation chunk 24 bytes a coordinate
    config = experiment.theorem_params(1, 2.0, 0.5, t_override=2, seed=0, l_override=1,
                                       m_override=3, repetitions_override=1)
    draws = config.pool_size if algorithm == "mcmc-one-pass" else config.t * config.l
    assert draws < 8 * _BLOCK_ROWS
    source = as_source(np.random.default_rng(18).standard_normal((50, 4)))
    count = (experiment._SLOT_BYTES * draws + 8 * (4 + 2) * (draws + 8 * _BLOCK_ROWS + 50)
             + _BLOCK_ROWS * (64 * 4 + 256) + 24 * 50 * 4)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: count)
    experiment._memory_guard(algorithm, config, source)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: count - 1)
    with pytest.raises(experiment.GuardError, match=f"keeps {draws} draws"):
        experiment._memory_guard(algorithm, config, source)


@pytest.mark.parametrize("algorithm", ["mcmc-one-pass", "squared-length"])
def test_one_pass_memory_guard_counts_the_rows_a_long_input_reaches(monkeypatch, algorithm):
    # 5,000 rows and a pool of 8: the store's arrays reach its room of
    # 8 + 8 blocks, not 2n, and the rows they last grew from are counted
    config = experiment.theorem_params(1, 3.0, 0.5, t_override=2, seed=0, l_override=1,
                                       m_override=3, repetitions_override=1)
    draws = config.pool_size if algorithm == "mcmc-one-pass" else config.t * config.l
    source = as_source(np.random.default_rng(19).standard_normal((5000, 3)))
    reach = draws + 8 * _BLOCK_ROWS
    count = (experiment._SLOT_BYTES * draws + 8 * (3 + 2) * 2 * reach
             + _BLOCK_ROWS * (64 * 3 + 256) + 24 * CHUNK_ROWS * 3)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: count)
    experiment._memory_guard(algorithm, config, source)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: count - 1)
    with pytest.raises(experiment.GuardError):
        experiment._memory_guard(algorithm, config, source)


@pytest.mark.parametrize("n, d, kwargs", [
    (2000, 64, dict(algorithm="mcmc-one-pass", k=3, p=3.0, t=16, l=3, m=400,
                    repetitions=2)),  # pool-deep's shape: 38,496 slots
    (2000, 10, dict(algorithm="mcmc-one-pass", k=2, p=2.0, t=50, l=2, m=60,
                    repetitions=5)),  # criterion 9's: 30,500 slots
    (500, 8, dict(algorithm="mcmc-one-pass", k=1, p=2.0, t=2000, l=1, m=50,
                  repetitions=1)),  # one round walks the whole pool
    (6000, 32, dict(algorithm="mcmc-one-pass", k=2, p=2.0, t=10, l=2, m=100,
                    repetitions=3)),  # the store's arrays double past n
    (2000, 10, dict(algorithm="squared-length", k=1, p=2.0, t=50000, l=1)),
    (5000, 256, dict(algorithm="squared-length", k=1, p=3.0, t=2, l=1)),
    (130, 1, dict(algorithm="mcmc-one-pass", k=1, p=2.0, t=2, l=3, m=3, repetitions=4)),
], ids=["pool-deep", "criterion-9", "one-round", "long", "squared-length", "wide", "narrow"])
def test_one_pass_memory_guard_counts_at_least_the_traced_peak(monkeypatch, n, d, kwargs):
    guarded = []
    real_guard = experiment._memory_guard
    monkeypatch.setattr(experiment, "_memory_guard", lambda *args: guarded.extend(args))
    X = np.random.default_rng(n + d).standard_normal((n, d))
    peak = peak_traced_bytes(lambda: run_experiment(_spec(input=X, **kwargs)))
    # the guard's count is at least the peak: it refuses a byte less
    monkeypatch.setattr(experiment, "_physical_memory", lambda: peak - 1)
    with pytest.raises(experiment.GuardError):
        real_guard(*guarded)


def test_the_paper_recipe_on_a_6_mb_input_passes_the_memory_guard(monkeypatch):
    # theorem_params(2, 2, 0.5) pools about 4 million slots; a 3,000 x 256
    # array keeps at most 3,000 rows of them, which fit in 8.4 GB
    config = experiment.theorem_params(2, 2.0, 0.5)
    assert config.pool_size == 4_048_938
    monkeypatch.setattr(experiment, "_physical_memory", lambda: 8_408_645_632)
    experiment._memory_guard("mcmc-one-pass", config, as_source(np.ones((3000, 256))))


def _large_csv(tmp_path, n=10000, d=8, seed=42):
    """A CSV over which a pass forks a parse helper."""
    path = str(tmp_path / "large.csv")
    np.savetxt(path, np.random.default_rng(seed).standard_normal((n, d)), fmt="%.17g",
               delimiter=",")
    assert os.path.getsize(path) >= stream._HELPER_MIN_BYTES
    return path


def _guard_count(monkeypatch, algorithm, config, source):
    """The bytes `_memory_guard` counts: the least memory it accepts. The
    source's `allow_helper` is left as it was."""
    allow, lo, hi = source.allow_helper, 0, 1 << 40
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(experiment, "_physical_memory", lambda: mid)
        try:
            experiment._memory_guard(algorithm, config, source)
            hi = mid
        except experiment.GuardError:
            lo = mid + 1
    source.allow_helper = allow
    return lo


_GUARD_CONFIG = dict(t_override=2, seed=0, l_override=1, m_override=3,
                     repetitions_override=1)
needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc")),
                                reason="needs os.fork and /proc")


@needs_fork
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_memory_guard_charges_a_helper_pass_a_second_copy(tmp_path, monkeypatch,
                                                              algorithm):
    # a pass that would fork a parse helper is charged the run's own count
    # twice, plus the helper's bytes; when only that does not fit, the
    # guard keeps the helper off rather than refuse the run
    source = open_csv(_large_csv(tmp_path))
    config = experiment.theorem_params(1, 2.0, 0.5, **_GUARD_CONFIG)
    assert source.helper_bytes() > _parse_helper._HELPER_COPIED_BYTES
    need = _guard_count(monkeypatch, algorithm, config, source)
    with monkeypatch.context() as m:
        m.setattr(stream, "_HELPER_MIN_BYTES", math.inf)
        assert _guard_count(m, algorithm, config, source) == need
    full = 2 * need + source.helper_bytes()
    for memory, allowed in ((full, True), (full - 1, False), (need, False)):
        source.allow_helper = True
        monkeypatch.setattr(experiment, "_physical_memory", lambda: memory)
        experiment._memory_guard(algorithm, config, source)
        assert source.allow_helper is allowed


def _private_bytes(pid):
    """A process's private pages, clean and dirty, from /proc."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1]) * 1024
    return total


@needs_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="reads /proc/<pid>/smaps_rollup")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_memory_guard_charges_what_a_helper_uses(tmp_path, monkeypatch, algorithm):
    # each helper's private pages, read while it parses and just before it
    # is killed, with the parent's ring and read-ahead bytes, stay within
    # what the guard charges a helper pass beyond a serial one
    path = _large_csv(tmp_path)
    monkeypatch.setattr(_parse_helper, "_idle_cpu", lambda: True)
    peaks = {}
    take, stop = _parse_helper._ParseHelper.take, _parse_helper._ParseHelper.stop

    def sample(helper):
        used = _private_bytes(helper.pid) + len(helper.ring)
        peaks[helper.pid] = max(peaks.get(helper.pid, 0), used)

    def sampling_take(self, *args):
        sample(self)
        return take(self, *args)

    def sampling_stop(self):
        sample(self)
        stop(self)

    monkeypatch.setattr(_parse_helper._ParseHelper, "take", sampling_take)
    monkeypatch.setattr(_parse_helper._ParseHelper, "stop", sampling_stop)
    guarded, guard = [], experiment._memory_guard
    monkeypatch.setattr(experiment, "_memory_guard",
                        lambda *args: guarded.append(args) or guard(*args))
    run_experiment(_spec(input=path, algorithm=algorithm, k=2, t=4, l=2, m=5, repetitions=3))
    monkeypatch.setattr(experiment, "_memory_guard", guard)
    assert peaks  # the run forked helpers
    [(_, config, _)] = guarded
    source = open_csv(path)
    need = _guard_count(monkeypatch, algorithm, config, source)
    largest = max(size for _, size, _, _ in source._blocks)
    read_ahead = _parse_helper._HELPER_SLOTS * largest
    assert max(peaks.values()) + read_ahead <= need + source.helper_bytes()


def test_the_evaluation_buffer_holds_at_most_n_rows(tmp_path):
    # a file source's rows are pulled into one buffer, of min(n, CHUNK_ROWS)
    # rows: a 130 x 300 input's is 0.31 MB, not a CHUNK_ROWS buffer's 2.46
    # MB; the pass's peak, a parse block's bytes and rows included, stays
    # under the larger buffer alone
    X = np.random.default_rng(43).standard_normal((130, 300))
    path = _write_csv(tmp_path, X)
    source = open_csv(path)
    basis = SubsetBasis.empty(300).extended(0, X[0])
    ev = []
    peak = peak_traced_bytes(
        lambda: ev.append(experiment._evaluation_pass(source, [basis], 3.0, "none")))
    assert peak < CHUNK_ROWS * 300 * 8
    held = experiment._evaluation_pass(as_source(np.loadtxt(path, delimiter=",")), [basis],
                                       3.0, "none")
    assert (ev[0].sums.tolist(), ev[0].empty_sum) == (held.sums.tolist(), held.empty_sum)


# The CLI, with every pass's helper forked whatever the host's load, and
# each helper's pid written to the file named by its first argument. `cli`
# loads first, so that it sets numpy's BLAS threads as the shipped CLI does.
_FORKING_CLI = """
import os, sys
from lpsubsel import cli, _parse_helper
_parse_helper._idle_cpu = lambda: True
fork = os.fork
def recording_fork():
    pid = fork()
    if pid:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{pid}\\n")
    return pid
os.fork = recording_fork
sys.exit(cli.main(sys.argv[2:]))
"""


@needs_fork
@pytest.mark.parametrize("fault", [None, "non_numeric"])
def test_the_cli_on_a_large_csv_leaves_no_helper(tmp_path, monkeypatch, fault):
    # the CLI in a process of its own, on a CSV whose passes fork a parse
    # helper; a malformed row in a block the helper parses gives the serial
    # loop's message, and the helper is gone when the CLI exits
    path = _large_csv(tmp_path)
    if fault:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[_BLOCK_ROWS + 40] = "1,x" + ",0" * 6 + "\n"  # a line of the second block
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    monkeypatch.setattr(stream, "_HELPER_MIN_BYTES", math.inf)
    try:
        list(open_csv(path).iterate_once("selection"))
        expected = ""
    except FormatError as exc:
        expected = f"error: {exc}\n"
    assert bool(expected) == bool(fault)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREADS}
    env["PYTHONPATH"] = src
    forked = tmp_path / "forked"
    # a session of its own, so that any process the CLI leaves is found by group
    proc = subprocess.Popen([sys.executable, "-c", _FORKING_CLI, str(forked), "--input", path,
                             "--k", "1", "--t", "2", "--l", "1", "--m", "3", "--reps", "2"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == (2 if fault else 0)
    assert err == expected
    if not fault:
        assert json.loads(out)["n"] == 10000
    # a helper for each pass: the selection pass, and the evaluation pass
    assert len(forked.read_text().split()) == (1 if fault else 2)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_cli_exact_adaptive_and_header(tmp_path, capsys):
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((15, 3))
    path = tmp_path / "with_header.csv"
    path.write_text("x,y,z\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n",
                    encoding="utf-8")
    code = main(["--input", str(path), "--header", "--algo", "exact-adaptive",
                 "--k", "2", "--t", "2", "--l", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection_passes"] == 2


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_all_zero_data_exits_2(tmp_path, capsys, algo):
    # the selection pass finds no positive weight; exact-adaptive stops its
    # rounds instead, and the evaluation pass finds every point at zero
    path = _write_csv(tmp_path, np.zeros((4, 3)))
    assert main(["--input", path, "--algo", algo, "--k", "1", "--t", "2"]) == 2
    cause = "all points are zero" if algo == "exact-adaptive" else "all distance weights are zero"
    assert f"error: {cause}" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("text, p, row", [
    ("1e200,1\n1,2\n2,1\n", 2, 1),  # ||x||^2 overflows inside the norm
    ("1,2\n1e103,0\n2,1\n", 3, 2),  # a finite norm whose cube overflows
    ("1e154,0\n1e154,0\n", 2, 2),   # finite weights whose total overflows
], ids=["inf_norm", "inf_power", "total_overflows"])
def test_cli_overflowing_weight_exits_2(tmp_path, capsys, algo, text, p, row):
    path = tmp_path / "huge.csv"
    path.write_text(text, encoding="utf-8")
    code = main(["--input", str(path), "--algo", algo, "--k", "1", "--t", "2",
                 "--p", str(p)])
    assert code == 2
    assert f"error: data row {row}: " in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["mcmc-one-pass", "exact-adaptive"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cli_overflowing_error_with_no_round_exits_2(tmp_path, capsys, algo, p):
    # with no round, no selection pass weighs the rows, and the evaluation
    # pass is the first to find that their errors overflow
    path = tmp_path / "huge.csv"
    path.write_text("0\n" * 32 + "1.3407807929942597e+154\n", encoding="utf-8")
    code = main(["--input", str(path), "--algo", algo, "--k", "1", "--t", "1", "--l", "0",
                 "--p", str(p)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the data's errors overflow to inf; rescale the data or lower p\n")


# each takes the caller's array; the first two hand back the view they hold
_TAKES_AN_ARRAY = {
    "PointSet": lambda X: PointSet(X).points,
    "as_source": lambda X: as_source(X).rows,
    "run_experiment": lambda X: run_experiment(_spec(input=X)),
    "exact_adaptive_sample": lambda X: exact_adaptive_sample(
        X, 2.0, t=2, l=2, rng=np.random.default_rng(1)),
    "squared_length_sample": lambda X: squared_length_sample(
        X, 2.0, 4, np.random.default_rng(1)),
}


@pytest.mark.parametrize("name", list(_TAKES_AN_ARRAY))
def test_the_callers_array_stays_writeable(name):
    X = np.random.default_rng(20).standard_normal((30, 3))
    held = _TAKES_AN_ARRAY[name](X)
    assert X.flags.writeable
    if isinstance(held, np.ndarray):
        assert np.shares_memory(held, X) and not held.flags.writeable
    X[0] = 1.0


# The CLI never shows a traceback: on any small CSV and any flags it exits
# 0, 2 or 3. t, l, m and the repetitions are capped so that each run is
# quick. Three runs in four get valid flags only, with k <= d, so that most
# reach the passes; p reaches 300 and cells 1e308, so that weights and their
# totals overflow. Half the files parse, and most of those hold modest or
# tiny numbers, so that many runs exit 0 and their reports are checked; the
# square of a tiny cell is subnormal.
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-3, 3).map(str),
                     st.sampled_from(["1e-300", "1e300", "1e160", "-2e155", "1e103", "-0.0",
                                      " 2.5 "]))
_MODEST = st.one_of(st.floats(-100, 100).map(repr), st.integers(-3, 3).map(str),
                    st.sampled_from(["3e-160", "1e-300", "-0.0"]))
_TINY = st.sampled_from(["3e-160", "-2e-158", "1e-155", "1e-150", "0"])
_CELLS = st.one_of(_NUMBERS, st.sampled_from(["nan", "inf", "-inf", "1e400", "", " ", "x",
                                              "\x1c1.5", "2.5\x1c", "\x1c"]))
_FLAGS = {  # flag: (valid values, invalid ones)
    "--algo": (ALGORITHMS, []),
    "--k": (["1", "2", "3"], ["0", "-1", "7"]),
    "--p": (["1", "1.5", "2", "3", "4", "40", "300"], ["0.5", "nan", "inf"]),
    "--delta": (["0.5", "0.9", "0.1"], ["0", "1.5"]),
    "--t": (["1", "2", "3", "6"], ["0", "-1"]),
    "--l": (["0", "1", "2", "3"], ["-1"]),
    "--m": (["1", "2", "8"], ["0", "-1"]),
    "--reps": (["1", "2", "3"], ["0"]),
    "--oracle": (experiment.ORACLES, []),
    "--report": (cli.REPORT_FORMATS, []),
}


@st.composite
def _cli_runs(draw):
    """(file bytes, argv without --input and --out) of one CLI run."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    parses = draw(st.booleans())  # numbers only, one width, a BOM only before a header
    cells = draw(st.sampled_from([_MODEST, _TINY, _NUMBERS] if parses else [_NUMBERS, _CELLS]))
    ragged = not parses and draw(st.integers(0, 4)) == 0
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.booleans())
    lines = [",".join("abcdef"[:d])] if header else []
    for _ in range(n):
        width = draw(st.integers(1, 6)) if ragged else d
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    bom = draw(st.booleans()) and (header or not parses)
    text = ("\ufeff" if bom else "") + end.join(lines) + end
    valid = draw(st.integers(0, 3)) > 0
    argv = ["--seed", str(draw(st.integers(0, 2**32)))] + (["--header"] if header else [])
    for flag, (good, bad) in _FLAGS.items():
        good = good[:d] if valid and flag == "--k" else good
        argv += [flag, draw(st.sampled_from(list(good) + ([] if valid else bad)))]
    return text.encode("utf-8"), argv


def _parsed_csv(data, header):
    """The rows of a CSV the CLI read through, parsed with float() as its
    reference parser does: LF, CRLF and CR end lines, blank lines are
    skipped, and a header is the first line."""
    lines = re.split(r"\r\n|\r|\n", data.decode("utf-8"))[int(header):]
    return np.array([[float(c) for c in line.strip().split(",")]
                     for line in lines if line.strip()])


def _span_basis(X, members):
    """(X scaled by its largest magnitude, so no square overflows; the
    scale; an orthonormal basis Q of the scaled members' span). The members
    grow Q in turn by Gram-Schmidt, twice over; as in `extended_many`, a
    residual adds a direction only if it is above 1e-10 of its row's norm
    and its squared norm, at X's own scale, is a normal float."""
    scale = np.abs(X).max()
    X = X / scale
    Q = np.zeros((0, X.shape[1]))
    for v in X[members]:
        r = v - (v @ Q.T) @ Q
        r -= (r @ Q.T) @ Q
        norm_r = np.linalg.norm(r)
        if norm_r > 1e-10 * np.linalg.norm(v) and norm_r >= math.sqrt(np.finfo(float).tiny) / scale:
            Q = np.vstack([Q, r / norm_r])
    return X, scale, Q


def _span_err_root(X, members, p):
    """(sum_x d(x, span X[members])^p)^(1/p), the distances scaled by the
    largest, so no power overflows."""
    X, scale, Q = _span_basis(X, members)
    dist = np.linalg.norm(X - (X @ Q.T) @ Q, axis=1)
    top = dist.max()
    return 0.0 if top == 0 else scale * top * float(np.sum((dist / top) ** p)) ** (1 / p)


def _k_in_span_err_root(X, members, k):
    """err_2 root of the best k-dimensional subspace inside span X[members]:
    the residuals off the span, and the singular values of the rows'
    coordinates in it beyond the top k."""
    X, scale, Q = _span_basis(X, members)
    coords = X @ Q.T
    beyond = np.linalg.svd(coords, compute_uv=False)[k:] if Q.size else np.zeros(0)
    return scale * math.hypot(np.linalg.norm(X - coords @ Q), np.linalg.norm(beyond))


def _report_fields(text, form):
    """A report's fields by name. A CSV report's numbers are parsed back
    and its members split; the other fields are left out."""
    if form == "json":
        return json.loads(text)
    fields = dict(zip(*(line.split(",") for line in text.splitlines())))
    report = {k: None if v == "None" else float(v) for k, v in fields.items()
              if k in ("n", "d") or k.endswith(("_err", "_err_root", "_passes"))}
    report["selected_members"] = [int(i) for i in fields["selected_members"].split(";") if i]
    return report


def _check_report(report, data, argv):
    """The promises a report makes, checked against a numpy recomputation."""
    valued = [a for a in argv if a != "--header"]
    flags = dict(zip(valued[::2], valued[1::2]))
    algo, p, l = flags["--algo"], float(flags["--p"]), int(flags["--l"])
    X = _parsed_csv(data, "--header" in argv)
    n = report["n"]
    assert X.shape == (n, report["d"])
    members = report["selected_members"]
    assert all(0 <= i < n for i in members)
    if algo != "squared-length":  # squared-length keeps duplicate draws
        assert len(set(members)) == len(members)
    if algo == "exact-adaptive":
        assert report["selection_passes"] <= l
    else:
        assert report["selection_passes"] == (int(l > 0) if algo == "mcmc-one-pass" else 1)
    assert report["evaluation_passes"] == 1
    assert report["final_err"] <= report["empty_err"]
    if p == 2:
        assert report["k_in_span_err"] >= report["final_err"]
        if flags["--oracle"] == "svd":  # equal where the span holds the optimum
            assert report["k_in_span_err"] >= report["oracle_err"] - 1e-12 * report["empty_err"]
    recomputed = _span_err_root(X, members, p)
    assert abs(report["final_err_root"] - recomputed) <= _slack(report, X, p)
    k = int(flags["--k"])
    if flags["--oracle"] == "svd":  # the singular values beyond k
        scale = np.abs(X).max()
        s = np.linalg.svd(X / scale, compute_uv=False)
        recomputed = scale * float(np.linalg.norm(s[k:]))
        assert abs(report["oracle_err_root"] - recomputed) <= _slack(report, X, 2)
    elif flags["--oracle"] == "bruteforce":  # the best span of k rows, or of all
        recomputed = min(_span_err_root(X, list(subset), p)
                         for subset in itertools.combinations(range(len(X)), min(k, len(X))))
        assert abs(report["oracle_err_root"] - recomputed) <= _slack(report, X, p)


def _check_exit_2(message, data, argv):
    """What an exit-2 message says of the input is true of it: a file said
    to hold no rows parses to none, and where every point or distance
    weight is called zero, the rows' empty-span error root at p is 0
    within `_slack`, which allows for norms whose p-th powers underflow."""
    if "n >= 1" in message or "are zero" in message:
        X = _parsed_csv(data, "--header" in argv)
        if "n >= 1" in message:
            assert len(X) == 0
        elif X.any():
            p = float(argv[argv.index("--p") + 1])
            assert _span_err_root(X, [], p) <= _slack({"empty_err_root": 0.0}, X, p)


def _slack(report, X, p):
    """How far a reported error root at p may be from its recomputation:
    1e-6 of the empty span's, plus `lost`. Below the least normal float, a
    square or a p-th power is rounded to a multiple of the least subnormal
    one, `sub`, or to 0: that moves each distance by at most sqrt(d * sub)
    and the sum by (n + d) * d * sub, so the root by at most `lost`
    (ROADMAP item 5)."""
    (n, d), sub = X.shape, np.finfo(float).smallest_subnormal
    lost = ((n + d) * d * sub) ** (1 / p) + n ** (1 / p) * math.sqrt(d * sub)
    return 1e-6 * report["empty_err_root"] + lost


@settings(max_examples=250, deadline=None)
@given(_cli_runs())
def test_the_cli_never_shows_a_traceback(tmp_path_factory, run):
    # and on exit 0 the report keeps its promises, on exit 2 its message
    data, argv = run
    base = tmp_path_factory.getbasetemp()
    path, out = base / "fuzzed.csv", base / "fuzzed-report"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["--input", str(path), "--out", str(out)] + argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    assert out.exists() == (code == 0)
    if code == 0:
        form = argv[argv.index("--report") + 1]
        _check_report(_report_fields(out.read_text(encoding="utf-8"), form), data, argv)
    elif code == 2:
        _check_exit_2(stderr.getvalue(), data, argv)


@st.composite
def _evaluated_runs(draw):
    """(file bytes, argv) of a CLI run that reaches the evaluation pass's R
    fold: valid cells and flags only, p = 2, the SVD oracle, and a first
    cell that keeps the points and their weights from being all zero."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    cells = st.one_of(_MODEST, _TINY)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.booleans())
    rows = [draw(st.lists(cells, min_size=d, max_size=d)) for _ in range(n)]
    rows[0][0] = draw(st.one_of(st.floats(0.5, 100), st.floats(-100, -0.5)).map(repr))
    lines = ([",".join("abcdef"[:d])] if header else []) + [",".join(row) for row in rows]
    text = ("\ufeff" if header and draw(st.booleans()) else "") + end.join(lines) + end
    argv = ["--seed", str(draw(st.integers(0, 2**32)))] + (["--header"] if header else [])
    for flag, (good, _) in _FLAGS.items():
        good = {"--k": good[:d], "--p": ["2"], "--oracle": ["svd"]}.get(flag, good)
        argv += [flag, draw(st.sampled_from(list(good)))]
    return text.encode("utf-8"), argv


@settings(max_examples=200, deadline=None)
@given(_evaluated_runs())
def test_every_valid_p2_run_reports_errors_numpy_agrees_with(tmp_path_factory, run):
    # every example exits 0 through the R fold, so a fault there shows
    # whatever the Hypothesis seed: final_err, oracle_err and
    # k_in_span_err against numpy, within the fuzz test's slack
    data, argv = run
    base = tmp_path_factory.getbasetemp()
    path, out = base / "evaluated.csv", base / "evaluated-report"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["--input", str(path), "--out", str(out)] + argv)
    assert code == 0, stderr.getvalue()
    report = _report_fields(out.read_text(encoding="utf-8"), argv[argv.index("--report") + 1])
    _check_report(report, data, argv)
    X = _parsed_csv(data, "--header" in argv)
    k = int(argv[argv.index("--k") + 1])
    recomputed = _k_in_span_err_root(X, report["selected_members"], k)
    assert abs(report["k_in_span_err_root"] - recomputed) <= _slack(report, X, 2)
