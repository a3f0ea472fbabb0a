import json
import os

import numpy as np
import pytest

from lpsubsel import (DatasetSource, ExperimentSpec, InputError, ParameterError,
                      PointSet, SubsetBasis, as_source, brute_force_candidate_err, cli,
                      draw_mixture_pool, exact_adaptive_sample, experiment, run_experiment,
                      squared_length_sample, svd_optimal_err2)
from lpsubsel.cli import main
from lpsubsel.geometry import CHUNK_ROWS
from lpsubsel.stream import _BLOCK_ROWS

from helpers import basis_from, low_rank_plus_noise

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
    assert ev.held is None
    ev = experiment._evaluation_pass(as_source(X), [basis_from(X, [0])], 1.0, "none")
    assert ev.evaluator == "distances"
    assert ev.sums[0] == pytest.approx(2.0)
    assert ev.r_factor is None and ev.held is None


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
    # rows, each d floats with a position and a weight
    config = experiment.theorem_params(1, 2.0, 0.5, t_override=2, seed=0, l_override=1,
                                       m_override=3, repetitions_override=1)
    draws = config.pool_size if algorithm == "mcmc-one-pass" else config.t * config.l
    assert draws < 8 * _BLOCK_ROWS
    source = as_source(np.random.default_rng(18).standard_normal((50, 4)))
    store = 8 * (4 + 2) * (draws + 8 * _BLOCK_ROWS)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: store)
    experiment._memory_guard(algorithm, config, source)
    monkeypatch.setattr(experiment, "_physical_memory", lambda: store - 1)
    with pytest.raises(experiment.GuardError, match=f"keeps {draws} draws"):
        experiment._memory_guard(algorithm, config, source)


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
