import json

import numpy as np
import pytest

from lpsubsel import (ExperimentSpec, InputError, ParameterError, PointSet,
                      as_source, brute_force_candidate_err, experiment,
                      run_experiment, svd_optimal_err2)
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


def test_svd_oracle_sees_every_row_beyond_one_chunk():
    # more rows than one evaluation chunk, so the oracle's buffer fills in parts
    X = np.random.default_rng(13).standard_normal((2500, 4))
    report = run_experiment(_spec(input=X, algorithm="squared-length", oracle="svd"))
    assert report.oracle_err == svd_optimal_err2(PointSet(X), 2)
    assert report.empty_err == pytest.approx(float((X ** 2).sum()), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0])
def test_empty_err_is_the_chunked_norm_sum(p):
    # the empty span is scored in the candidates' loop, one chunk at a time
    X = np.random.default_rng(17).standard_normal((2500, 4))
    report = run_experiment(_spec(input=X, algorithm="squared-length", p=p))
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
    assert source.auditor.selection_passes == source.auditor.evaluation_passes == 0


def test_evaluation_pass_records():
    X = PointSet(np.eye(3))
    bases = [basis_from(X, members) for members in ([0, 1], [], [0, 1, 2])]
    sums, empty_sum, R = experiment._evaluation_pass(as_source(X), bases, 2.0, "svd")
    assert sums[0] ** 0.5 == pytest.approx(1.0)
    assert svd_optimal_err2(R, 2) ** 0.5 == pytest.approx(1.0)
    assert bases[0].rank == 2
    assert (sums[1] / empty_sum) ** 0.5 == pytest.approx(1.0)
    assert sums[2] ** 0.5 == pytest.approx(0.0, abs=1e-12)
    sums_p1, _, none = experiment._evaluation_pass(as_source(X), [basis_from(X, [0])],
                                                   1.0, "none")
    assert sums_p1[0] == pytest.approx(2.0)
    assert none is None


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
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "final_err_root" in header


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
    assert f"12 rows then, {rows_after} now" in capsys.readouterr().err


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
    assert opened[0].auditor.selection_passes == 0


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
