import numpy as np
import pytest

from lpsubsel import (FormatError, InputError, ParameterError, PassAuditor,
                      SourceChangedError, StreamError, as_source, iterate_once,
                      open_csv, one_pass_adaptive_sample, theorem_params)
from lpsubsel.stream import _BLOCK_ROWS


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_open_csv_basic(tmp_path):
    src = open_csv(_write(tmp_path, "1,0\n0,2\n"))
    assert (src.n, src.d) == (2, 2)
    rows = list(iterate_once(src, "selection"))
    np.testing.assert_allclose(np.vstack(rows), [[1.0, 0.0], [0.0, 2.0]])


def test_open_csv_ragged_row_reports_row_number(tmp_path):
    with pytest.raises(FormatError, match="row 2"):
        open_csv(_write(tmp_path, "1,0\n0,2,3\n"))


def test_open_csv_non_numeric_cell(tmp_path):
    with pytest.raises(FormatError, match="non-numeric"):
        open_csv(_write(tmp_path, "1,0\nx,2\n"))


def test_open_csv_empty_file(tmp_path):
    with pytest.raises(InputError, match="n >= 1"):
        open_csv(_write(tmp_path, ""))


def test_open_csv_header_and_crlf(tmp_path):
    src = open_csv(_write(tmp_path, "a,b\r\n1,0\r\n0,2\r\n"), header=True)
    assert (src.n, src.d) == (2, 2)
    rows = np.vstack(list(iterate_once(src, "evaluation")))
    np.testing.assert_allclose(rows, [[1.0, 0.0], [0.0, 2.0]])
    assert src.auditor.evaluation_passes == 1


def _rows_text(count, d=3):
    return "".join(",".join(f"{i}.5" for _ in range(d)) + "\n" for i in range(count))


@pytest.mark.parametrize("bad, message", [
    ("1,2", "expected 3 values, got 2"),
    ("1,x,2", "non-numeric cell"),
    ("1,nan,2", "non-finite cell"),
    ("1,-inf,2", "non-finite cell"),
    ("1e999,0,0", "non-finite cell"),
])
@pytest.mark.parametrize("line", [_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
def test_fault_reports_its_line_across_blocks(tmp_path, bad, message, line):
    # the second value of `line` puts the fault on the last line of the file
    lines = _rows_text(line - 1).splitlines(keepends=True) + [bad + "\n"]
    path = _write(tmp_path, "".join(lines))
    with pytest.raises(FormatError, match=f"^row {line}: {message}$"):
        open_csv(path)


def test_first_fault_of_a_block_wins(tmp_path):
    lines = _rows_text(12).splitlines(keepends=True)
    lines[4] = "1,nan,2\n"
    lines[9] = "1,2\n"
    with pytest.raises(FormatError, match="^row 5: non-finite cell$"):
        open_csv(_write(tmp_path, "".join(lines)))
    lines[4] = "1,2,3\n"
    with pytest.raises(FormatError, match="^row 10: expected 3 values, got 2$"):
        open_csv(_write(tmp_path, "".join(lines)))


def test_header_crlf_and_blank_lines_across_a_block_boundary(tmp_path):
    values = np.arange(3.0 * (_BLOCK_ROWS + 4)).reshape(-1, 3)
    lines = [",".join(map(repr, row)) + "\r\n" for row in values.tolist()]
    # blank, whitespace-only and CR-only lines on both sides of line _BLOCK_ROWS
    for at, filler in ((_BLOCK_ROWS - 2, "\r\n"), (_BLOCK_ROWS - 1, "  \t \r\n"),
                       (_BLOCK_ROWS, "\r"), (_BLOCK_ROWS + 1, " \n")):
        lines.insert(at, filler)
    # the trailing blank lines fill the last block on their own
    path = _write(tmp_path, "a,b,c\r\n" + "".join(lines) + "\n \n" + "\n" * _BLOCK_ROWS)
    src = open_csv(path, header=True)
    assert (src.n, src.d) == values.shape
    np.testing.assert_array_equal(np.vstack(list(iterate_once(src, "selection"))), values)
    # without the header flag the header is a non-numeric first row
    with pytest.raises(FormatError, match="^row 1: non-numeric cell$"):
        open_csv(path)
    # the header counts as line 1 in messages
    bad = _write(tmp_path, "a,b\n" + "1,2\n" * (_BLOCK_ROWS - 1) + "1,x\n", "bad.csv")
    with pytest.raises(FormatError, match=f"^row {_BLOCK_ROWS + 1}: non-numeric cell$"):
        open_csv(bad, header=True)


def test_cells_float_accepts_but_the_loader_does_not(tmp_path):
    src = open_csv(_write(tmp_path, "1_0, 2\n\u0661,3.5\n"))
    np.testing.assert_array_equal(np.vstack(list(iterate_once(src, "selection"))),
                                  [[10.0, 2.0], [1.0, 3.5]])


def test_separator_characters_stay_non_numeric(tmp_path):
    # numpy's loader strips \x1c-\x1f around a cell; float() does not
    with pytest.raises(FormatError, match="^row 2: non-numeric cell$"):
        open_csv(_write(tmp_path, "1,2\n3\x1c,4\n"))


def test_single_column_file(tmp_path):
    src = open_csv(_write(tmp_path, "1.5\n\n-2\n3e2\n"))
    assert (src.n, src.d) == (3, 1)
    rows = list(iterate_once(src, "selection"))
    assert [r.shape for r in rows] == [(1,)] * 3
    np.testing.assert_array_equal(np.vstack(rows), [[1.5], [-2.0], [300.0]])


def test_parse_is_bit_identical_to_float(tmp_path):
    X = np.random.default_rng(21).standard_normal((3000, 32)) * np.logspace(-5, 5, 32)
    path = str(tmp_path / "big.csv")
    np.savetxt(path, X, fmt="%.8g", delimiter=",")
    with open(path, encoding="utf-8") as fh:
        expected = np.array([[float(c) for c in line.split(",")] for line in fh])
    src = open_csv(path)
    assert (src.n, src.d) == (3000, 32)
    got = np.vstack(list(iterate_once(src, "evaluation")))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [5, 3 * _BLOCK_ROWS + 3])
def test_pass_over_a_changed_file_names_both_counts(tmp_path, rows):
    path = _write(tmp_path, _rows_text(_BLOCK_ROWS))
    src = open_csv(path)
    _write(tmp_path, _rows_text(rows))
    with pytest.raises(SourceChangedError,
                       match=f"{_BLOCK_ROWS} rows then, {rows} now"):
        list(iterate_once(src, "selection"))
    assert src.auditor.selection_passes == 0


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        open_csv(str(tmp_path / "nope.csv"))


def test_pass_counters():
    src = as_source(np.array([[1.0, 0.0], [0.0, 2.0]]))
    list(iterate_once(src, "selection"))
    list(iterate_once(src, "selection"))
    assert (src.auditor.selection_passes, src.auditor.evaluation_passes) == (2, 0)
    list(iterate_once(src, "evaluation"))
    assert (src.auditor.selection_passes, src.auditor.evaluation_passes) == (2, 1)


def test_abandoned_pass_not_counted():
    src = as_source(np.arange(10.0).reshape(5, 2))
    it = iterate_once(src, "selection")
    next(it)
    it.close()
    assert src.auditor.selection_passes == 0
    list(iterate_once(src, "selection"))
    assert src.auditor.selection_passes == 1


def test_one_active_stream_at_a_time():
    src = as_source(np.arange(10.0).reshape(5, 2))
    it = iterate_once(src, "selection")
    next(it)
    with pytest.raises(StreamError):
        next(iterate_once(src, "evaluation"))
    it.close()


def test_replay_determinism():
    rng = np.random.default_rng(5)
    src = as_source(rng.standard_normal((7, 3)))
    a = np.vstack(list(iterate_once(src, "selection")))
    b = np.vstack(list(iterate_once(src, "selection")))
    np.testing.assert_array_equal(a, b)


def test_unknown_purpose_rejected():
    src = as_source(np.array([[1.0]]))
    with pytest.raises(ParameterError):
        next(iterate_once(src, "sampling"))
    with pytest.raises(ParameterError):
        PassAuditor().record("other")


def test_materialize_counts_an_evaluation_pass():
    src = as_source(np.array([[1.0, 2.0], [3.0, 4.0]]))
    X = src.materialize()
    assert X.n == 2 and src.auditor.evaluation_passes == 1


def test_one_pass_sampler_consumes_one_selection_pass():
    # derived from the sampler itself: the one-pass claim as a counter fact
    rng = np.random.default_rng(11)
    src = as_source(rng.standard_normal((25, 3)))
    cfg = theorem_params(k=2, p=1.5, delta=0.5, t_override=3, seed=4)
    one_pass_adaptive_sample(src, cfg)
    assert src.auditor.selection_passes == 1
    assert src.auditor.evaluation_passes == 0
