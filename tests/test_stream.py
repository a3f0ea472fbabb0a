import contextlib
import errno
import io
import math
import mmap
import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsubsel import (DatasetSource, FormatError, InputError, ParameterError,
                      SourceChangedError, StreamError, as_source, open_csv, one_pass_adaptive_sample,
                      theorem_params)
from lpsubsel import _parse_helper, stream
from lpsubsel.stream import _BLOCK_ROWS

from helpers import loadtxt_calls


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def _disk_reads():
    """Within the block, each file that `stream` opens appends one entry
    to the yielded list: [opened in binary mode, bytes read from disk]."""
    reads = []

    class CountingFileIO(io.FileIO):
        def readinto(self, buffer):
            got = super().readinto(buffer)
            reads[-1][1] += got or 0
            return got

    def counting_open(path, mode="r", encoding=None, newline=None):
        reads.append(["b" in mode, 0])
        fh = io.BufferedReader(CountingFileIO(path))
        return fh if "b" in mode else io.TextIOWrapper(fh, encoding=encoding, newline=newline)

    with mock.patch.object(stream, "open", counting_open, create=True):
        yield reads


def test_open_csv_basic(tmp_path):
    src = open_csv(_write(tmp_path, "1,0\n0,2\n"))
    assert (src.n, src.d) == (2, 2)
    rows = list(src.iterate_once("selection"))
    np.testing.assert_allclose(np.vstack(rows), [[1.0, 0.0], [0.0, 2.0]])


def _first_pass_raises(path, match, header=False):
    # open_csv parses only the first data row; a later fault is raised by
    # the first pass, which then does not count
    src = open_csv(path, header=header)
    with pytest.raises(FormatError, match=match):
        list(src.iterate_once("selection"))
    assert src.selection_passes == 0


def test_open_csv_ragged_row_reports_row_number(tmp_path):
    _first_pass_raises(_write(tmp_path, "1,0\n0,2,3\n"), "row 2")


def test_open_csv_non_numeric_cell(tmp_path):
    _first_pass_raises(_write(tmp_path, "1,0\nx,2\n"), "non-numeric")


def test_open_csv_empty_file(tmp_path):
    with pytest.raises(InputError, match="n >= 1"):
        open_csv(_write(tmp_path, ""))


def test_open_csv_header_and_crlf(tmp_path):
    src = open_csv(_write(tmp_path, "a,b\r\n1,0\r\n0,2\r\n"), header=True)
    assert (src.n, src.d) == (2, 2)
    rows = np.vstack(list(src.iterate_once("evaluation")))
    np.testing.assert_allclose(rows, [[1.0, 0.0], [0.0, 2.0]])
    assert src.evaluation_passes == 1


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
    _first_pass_raises(path, f"^row {line}: {message}$")


def test_first_fault_of_a_block_wins(tmp_path):
    lines = _rows_text(12).splitlines(keepends=True)
    lines[4] = "1,nan,2\n"
    lines[9] = "1,2\n"
    _first_pass_raises(_write(tmp_path, "".join(lines)), "^row 5: non-finite cell$")
    lines[4] = "1,2,3\n"
    _first_pass_raises(_write(tmp_path, "".join(lines)),
                       "^row 10: expected 3 values, got 2$")


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
    np.testing.assert_array_equal(np.vstack(list(src.iterate_once("selection"))), values)
    # without the header flag the header is a non-numeric first row, which
    # open_csv parses for d and so rejects itself
    with pytest.raises(FormatError, match="^row 1: non-numeric cell$"):
        open_csv(path)
    # the header counts as line 1 in messages
    bad = _write(tmp_path, "a,b\n" + "1,2\n" * (_BLOCK_ROWS - 1) + "1,x\n", "bad.csv")
    _first_pass_raises(bad, f"^row {_BLOCK_ROWS + 1}: non-numeric cell$", header=True)


def test_malformed_first_data_row_raises_at_open(tmp_path):
    # the first data row gives d, so it is parsed when the file is opened
    with pytest.raises(FormatError, match="^row 3: non-finite cell$"):
        open_csv(_write(tmp_path, "\n \t\n1,nan\n2,3\n"))


def test_open_csv_never_calls_the_loader(tmp_path, monkeypatch):
    path = _write(tmp_path, _rows_text(1000))
    calls = loadtxt_calls(monkeypatch)
    src = open_csv(path)
    assert (src.n, src.d, len(calls)) == (1000, 3, 0)
    list(src.iterate_once("selection"))
    assert len(calls) == -(-1000 // _BLOCK_ROWS)


# whitespace to str.strip(); numpy's loader strips only some of it, and
# float() strips \x1c-\x1f only at the ends of a line, not of a cell
_BLANKS = ["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"]
_CELL_PADDING = ["", "", "", " ", "\t", "\x85", "\xa0"]
# a whole line put in place of one of the file's lines, or None for no fault
_FAULTS = [None, None, None, "1e999", "nan", "x", "1,2,3,4", "\x1c1", "1\x1c,2"]


@st.composite
def _csv_files(draw):
    d = draw(st.integers(1, 3))
    number = st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
    padding = st.sampled_from(_CELL_PADDING)
    cells = st.lists(st.tuples(padding, number, padding).map("".join), min_size=d, max_size=d)
    blank = st.lists(st.sampled_from(_BLANKS), max_size=3).map("".join)
    row = st.tuples(blank, cells.map(",".join), blank).map("".join)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    body = draw(st.lists(st.tuples(st.one_of(row, row, blank), ends), max_size=40))
    fault = draw(st.sampled_from(_FAULTS))
    if fault is not None and body:
        at = draw(st.integers(0, len(body) - 1))
        body[at] = (fault, body[at][1])
    header = draw(st.booleans())
    text = ("a,b\n" if header else "") + "".join(a + b for a, b in body)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text, header


def _reference_rows(path, header):
    """The rows float() reads from the non-blank lines, or None on a fault."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()[int(header):]
    try:
        rows = [[float(c) for c in line.strip().split(",")] for line in lines if line.strip()]
    except ValueError:
        return None
    if any(len(r) != len(rows[0]) or not all(map(math.isfinite, r)) for r in rows):
        return None
    return rows


@settings(max_examples=300, deadline=None)
@given(_csv_files(), st.sampled_from([2, 3, _BLOCK_ROWS]))
def test_line_count_agrees_with_the_parse(tmp_path_factory, case, block_rows):
    # a count that disagreed with the pass's parse would raise a false
    # SourceChangedError on an unchanged file; and every pass, kept or
    # not, reads the byte ranges opening recorded, once, and gives the
    # first pass's rows
    text, header = case
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _reference_rows(path, header)
    with mock.patch.object(stream, "_BLOCK_ROWS", block_rows):
        try:
            src = open_csv(str(path), header=header)
        except FormatError:
            assert expected is None
            return
        except InputError as exc:
            assert expected == [] and "empty dataset" in str(exc)
            return
        try:
            rows = list(src.iterate_once("selection"))
        except FormatError:
            assert expected is None and src.selection_passes == 0
            return
        kept = open_csv(str(path), header=header)
        kept.keep_rows()
        with _disk_reads() as reads:
            later = [list(src.iterate_once("evaluation")),
                     list(kept.iterate_once("selection")),
                     list(kept.iterate_once("evaluation"))]
    assert expected is not None and src.n == len(rows) == len(expected)
    first = np.vstack(rows).tobytes()
    assert first == np.array(expected).tobytes()
    assert [np.vstack(got).tobytes() for got in later] == [first] * 3
    assert reads == [[True, len(text.encode("utf-8"))]] * 3


def test_cells_float_accepts_but_the_loader_does_not(tmp_path):
    src = open_csv(_write(tmp_path, "1_0, 2\n\u0661,3.5\n"))
    np.testing.assert_array_equal(np.vstack(list(src.iterate_once("selection"))),
                                  [[10.0, 2.0], [1.0, 3.5]])


def test_separator_characters_stay_non_numeric(tmp_path):
    # numpy's loader strips \x1c-\x1f around a cell; float() does not
    _first_pass_raises(_write(tmp_path, "1,2\n3\x1c,4\n"), "^row 2: non-numeric cell$")


def test_single_column_file(tmp_path):
    src = open_csv(_write(tmp_path, "1.5\n\n-2\n3e2\n"))
    assert (src.n, src.d) == (3, 1)
    rows = list(src.iterate_once("selection"))
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
    got = np.vstack(list(src.iterate_once("evaluation")))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [5, 3 * _BLOCK_ROWS + 3])
def test_pass_over_a_changed_file_names_the_changed_range(tmp_path, rows):
    path = _write(tmp_path, _rows_text(_BLOCK_ROWS))
    src = open_csv(path)
    _write(tmp_path, _rows_text(rows))
    named = (f"lines 1-{_BLOCK_ROWS} are not what it read" if rows < _BLOCK_ROWS
             else f"it has bytes after line {_BLOCK_ROWS}, where it ended then")
    with pytest.raises(SourceChangedError, match=f"changed since it was opened: {named}$"):
        list(src.iterate_once("selection"))
    assert src.selection_passes == 0


def test_a_block_whose_rows_are_not_its_record_raises(tmp_path):
    # the bytes match their fingerprint, but the block table records one
    # row more than they hold, as a fingerprint collision would
    path = _write(tmp_path, _rows_text(2 * _BLOCK_ROWS))
    src = open_csv(path)
    last, size, fingerprint, end = src._blocks[-1]
    src._blocks[-1] = (last, size, fingerprint, end + 1)
    with pytest.raises(SourceChangedError,
                       match=f"lines {_BLOCK_ROWS + 1}-{2 * _BLOCK_ROWS} are not what it read$"):
        list(src.iterate_once("selection"))
    assert src.selection_passes == 0


def _rewrite_line(path, line_number, text):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[line_number - 1] = text
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("keep", [False, True])
def test_same_count_rewrite_after_the_first_pass_names_its_block(tmp_path, keep):
    path = _write(tmp_path, _rows_text(3 * _BLOCK_ROWS))
    src = open_csv(path)
    if keep:
        src.keep_rows()
    list(src.iterate_once("selection"))
    _rewrite_line(path, _BLOCK_ROWS + 5, "7,7,7\n")
    with pytest.raises(SourceChangedError,
                       match=f"lines {_BLOCK_ROWS + 1}-{2 * _BLOCK_ROWS} are not"):
        list(src.iterate_once("evaluation"))
    assert src.evaluation_passes == 0


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("new_header", ["x,y,z\n", "alpha,beta,gamma\n"])
def test_a_rewritten_header_names_line_1(tmp_path, keep, new_header):
    # the first new header keeps the byte length, so only its fingerprint
    # tells it apart; the second shifts every block after it
    path = _write(tmp_path, "a,b,c\n" + _rows_text(2 * _BLOCK_ROWS))
    src = open_csv(path, header=True)
    if keep:
        src.keep_rows()
    list(src.iterate_once("selection"))
    _rewrite_line(path, 1, new_header)
    with pytest.raises(SourceChangedError, match="line 1 is not what it read$"):
        list(src.iterate_once("evaluation"))
    assert src.evaluation_passes == 0


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("tail", ["1,2,3\n", "\n", "7"])
def test_a_file_that_grows_after_the_first_pass_raises(tmp_path, keep, tail):
    # a blank line adds no row, and "7" completes the unended last line
    path = _write(tmp_path, _rows_text(2 * _BLOCK_ROWS).rstrip("\n"))
    src = open_csv(path)
    if keep:
        src.keep_rows()
    first = list(src.iterate_once("selection"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(tail)
    with pytest.raises(SourceChangedError,
                       match=f"it has bytes after line {2 * _BLOCK_ROWS}, where"):
        list(src.iterate_once("evaluation"))
    assert src.evaluation_passes == 0 and len(first) == 2 * _BLOCK_ROWS


@pytest.mark.parametrize("keep", [False, True])
def test_a_file_truncated_mid_block_names_that_block(tmp_path, keep):
    text = _rows_text(3 * _BLOCK_ROWS)
    path = _write(tmp_path, text)
    src = open_csv(path)
    if keep:
        src.keep_rows()
    list(src.iterate_once("selection"))
    lines = text.splitlines(keepends=True)
    os.truncate(path, len("".join(lines[:_BLOCK_ROWS + 5])) + 2)
    with pytest.raises(SourceChangedError,
                       match=f"lines {_BLOCK_ROWS + 1}-{2 * _BLOCK_ROWS} are not"):
        list(src.iterate_once("evaluation"))
    assert src.evaluation_passes == 0


@pytest.mark.parametrize("header", [False, True])
def test_every_pass_reads_the_file_once(tmp_path, header):
    # what lpbench's bytes_read_ratio counts: opening and each complete
    # pass, first or later, kept or not, read every byte once
    lines = _rows_text(3 * _BLOCK_ROWS + 5).splitlines(keepends=True)
    lines[7] = "\r\n"
    lines[_BLOCK_ROWS] = lines[_BLOCK_ROWS].replace("\n", "\r")
    path = _write(tmp_path, ("a,b,c\r\n" if header else "") + "".join(lines))
    size = os.path.getsize(path)
    with _disk_reads() as reads:
        for keep in (False, True):
            src = open_csv(path, header=header)
            if keep:
                src.keep_rows()
            for purpose in ("selection", "selection", "evaluation"):
                assert len(list(src.iterate_once(purpose))) == src.n == 3 * _BLOCK_ROWS + 4
    # open, then three passes in binary mode
    assert reads == [[False, size], [True, size], [True, size], [True, size]] * 2


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_the_loader_path_never_splits_a_block_into_lines(tmp_path, monkeypatch, end):
    # numpy's loader takes each block's bytes; only a block it rejects is
    # split into lines for the per-cell parse
    text = _rows_text(3 * _BLOCK_ROWS).replace("\n", end)
    path = str(tmp_path / "data.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    src = open_csv(path)

    def not_called(*args):
        raise AssertionError("a block the loader accepts was split into lines")

    monkeypatch.setattr(stream, "_byte_lines", not_called)
    monkeypatch.setattr(stream, "_parse_block", not_called)
    rows = np.vstack(list(src.iterate_once("selection")))
    assert rows.shape == (3 * _BLOCK_ROWS, 3) and src.selection_passes == 1


@pytest.mark.parametrize("blank", ["\n", "\r\n", "\r", " \t\n"], ids=["lf", "crlf", "cr", "space"])
def test_a_block_of_blank_lines_reaches_no_parser(tmp_path, monkeypatch, blank):
    # opening counts no row in the middle block, so a pass skips its bytes;
    # numpy's loader would warn that they hold no data, which the test
    # configuration makes an error
    path = _write(tmp_path, _rows_text(_BLOCK_ROWS) + blank * _BLOCK_ROWS + _rows_text(3))
    calls = loadtxt_calls(monkeypatch)
    src = open_csv(path)
    assert len(list(src.iterate_once("selection"))) == src.n == _BLOCK_ROWS + 3
    assert len(calls) == 2


def test_only_the_block_the_loader_rejects_is_split(tmp_path, monkeypatch):
    bad = 2 * _BLOCK_ROWS + 5
    path = _write(tmp_path, _rows_text(3 * _BLOCK_ROWS))
    _rewrite_line(path, bad, "1,x,2\n")
    src = open_csv(path)
    splits = []
    byte_lines = stream._byte_lines

    def counting_byte_lines(data):
        splits.append(1)
        return byte_lines(data)

    monkeypatch.setattr(stream, "_byte_lines", counting_byte_lines)
    with pytest.raises(FormatError, match=f"^row {bad}: non-numeric cell$"):
        list(src.iterate_once("selection"))
    assert len(splits) == 1


def test_a_kept_replay_neither_parses_nor_decodes(tmp_path, monkeypatch):
    path = _write(tmp_path, "a,b,c\n" + _rows_text(2 * _BLOCK_ROWS + 3))
    src = open_csv(path, header=True)
    src.keep_rows()
    first = np.vstack(list(src.iterate_once("selection")))

    def not_called(*args):
        raise AssertionError("a kept replay parsed or decoded a block")

    monkeypatch.setattr(stream, "_csv_block", not_called)
    monkeypatch.setattr(stream, "_byte_lines", not_called)
    with _disk_reads() as reads:
        replayed = np.vstack(list(src.iterate_once("evaluation")))
    assert replayed.tobytes() == first.tobytes()
    assert reads == [[True, os.path.getsize(path)]]


def test_kept_rows_are_the_parsed_rows_and_later_passes_replay_them(tmp_path, monkeypatch):
    X = np.random.default_rng(4).standard_normal((3 * _BLOCK_ROWS + 7, 5))
    path = str(tmp_path / "x.csv")
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    parsed = np.vstack(list(open_csv(path).iterate_once("selection")))
    src = open_csv(path)
    src.keep_rows()
    assert src.rows is None
    first = np.vstack(list(src.iterate_once("selection")))
    calls = loadtxt_calls(monkeypatch)
    replayed = np.vstack(list(src.iterate_once("evaluation")))
    assert first.tobytes() == parsed.tobytes() == src.rows.tobytes() == replayed.tobytes()
    assert not src.rows.flags.writeable and len(calls) == 0
    assert (src.selection_passes, src.evaluation_passes) == (1, 1)


def test_rows_asked_for_after_the_first_pass_are_kept_by_the_next(tmp_path, monkeypatch):
    path = _write(tmp_path, _rows_text(2 * _BLOCK_ROWS + 3))
    src = open_csv(path)
    first = np.vstack(list(src.iterate_once("selection")))
    src.keep_rows()
    assert src.rows is None
    second = np.vstack(list(src.iterate_once("selection")))
    monkeypatch.setattr(stream, "_csv_block", None)  # the third pass replays
    third = np.vstack(list(src.iterate_once("evaluation")))
    assert first.tobytes() == second.tobytes() == src.rows.tobytes() == third.tobytes()


@pytest.mark.parametrize("how", ["abandoned", "format_error"])
def test_a_first_pass_that_does_not_complete_keeps_nothing(tmp_path, monkeypatch, how):
    rows = 2 * _BLOCK_ROWS + 3
    path = _write(tmp_path, _rows_text(rows))
    if how == "format_error":
        _rewrite_line(path, _BLOCK_ROWS + 2, "x,1,2\n")
    src = open_csv(path)
    src.keep_rows()
    it = src.iterate_once("selection")
    if how == "abandoned":
        for _ in range(_BLOCK_ROWS + 1):
            next(it)
        it.close()
    else:
        with pytest.raises(FormatError, match=f"^row {_BLOCK_ROWS + 2}: non-numeric cell$"):
            list(it)
    assert src.rows is None and src.selection_passes == 0
    if how == "format_error":
        # the fault is in the bytes opening read, so the next pass meets it
        # again; a repaired line is a change since opening
        with pytest.raises(FormatError, match=f"^row {_BLOCK_ROWS + 2}: non-numeric cell$"):
            list(src.iterate_once("selection"))
        _rewrite_line(path, _BLOCK_ROWS + 2, f"{_BLOCK_ROWS + 1}.5,9,9\n")
        with pytest.raises(SourceChangedError,
                           match=f"lines {_BLOCK_ROWS + 1}-{2 * _BLOCK_ROWS} are not"):
            list(src.iterate_once("selection"))
        assert src.rows is None and src.selection_passes == 0
        return
    calls = loadtxt_calls(monkeypatch)
    got = np.vstack(list(src.iterate_once("selection")))
    assert len(calls) == 3
    np.testing.assert_array_equal(got, np.vstack(list(open_csv(path).iterate_once("selection"))))
    assert src.rows.tobytes() == got.tobytes()


def test_an_array_source_keeps_its_own_rows():
    X = np.arange(12.0).reshape(4, 3)
    src = as_source(X)
    src.keep_rows()
    assert np.shares_memory(src.rows, X) and not src.rows.flags.writeable
    assert np.vstack(list(src.iterate_once("selection"))).tobytes() == X.tobytes()


def test_a_source_built_from_rows_takes_n_and_d_from_them():
    # in-memory rows pass PointSet's check when the source is built, so a
    # NaN row is refused before any pass could start
    src = DatasetSource(rows=np.arange(6.0).reshape(2, 3))
    assert (src.n, src.d) == (2, 3) and not src.rows.flags.writeable
    assert np.vstack(list(src.iterate_once("selection"))).tolist() == [[0, 1, 2], [3, 4, 5]]
    X = np.ones((5, 2))
    X[3, 1] = np.nan
    with pytest.raises(InputError, match="^point 4 has a NaN or infinite coordinate$"):
        DatasetSource(rows=X)


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        open_csv(str(tmp_path / "nope.csv"))


def test_pass_counters():
    src = as_source(np.array([[1.0, 0.0], [0.0, 2.0]]))
    list(src.iterate_once("selection"))
    list(src.iterate_once("selection"))
    assert (src.selection_passes, src.evaluation_passes) == (2, 0)
    list(src.iterate_once("evaluation"))
    assert (src.selection_passes, src.evaluation_passes) == (2, 1)


def test_abandoned_pass_not_counted():
    src = as_source(np.arange(10.0).reshape(5, 2))
    it = src.iterate_once("selection")
    next(it)
    it.close()
    assert src.selection_passes == 0
    list(src.iterate_once("selection"))
    assert src.selection_passes == 1


def test_one_active_stream_at_a_time():
    src = as_source(np.arange(10.0).reshape(5, 2))
    it = src.iterate_once("selection")
    next(it)
    with pytest.raises(StreamError):
        next(src.iterate_once("evaluation"))
    it.close()


def test_replay_determinism():
    rng = np.random.default_rng(5)
    src = as_source(rng.standard_normal((7, 3)))
    a = np.vstack(list(src.iterate_once("selection")))
    b = np.vstack(list(src.iterate_once("selection")))
    np.testing.assert_array_equal(a, b)


def test_unknown_purpose_rejected():
    src = as_source(np.array([[1.0]]))
    with pytest.raises(ParameterError):
        next(src.iterate_once("sampling"))


def test_one_pass_sampler_consumes_one_selection_pass():
    # derived from the sampler itself: the one-pass claim as a counter fact
    rng = np.random.default_rng(11)
    src = as_source(rng.standard_normal((25, 3)))
    cfg = theorem_params(k=2, p=1.5, delta=0.5, t_override=3, seed=4)
    one_pass_adaptive_sample(src, cfg)
    assert src.selection_passes == 1
    assert src.evaluation_passes == 0


# The parse helper: a pass over at least _HELPER_MIN_BYTES of blocks forks
# one, and it must change nothing a pass yields or raises.

_HAS_PROC = os.path.isdir("/proc/self/fd")
needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and _HAS_PROC),
                                reason="needs os.fork and /proc")


@pytest.fixture
def helpers(monkeypatch):
    """With every file pass forking a parse helper, the pids forked."""
    monkeypatch.setattr(stream, "_HELPER_MIN_BYTES", 0)
    monkeypatch.setattr(_parse_helper, "_idle_cpu", lambda: True)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _resources():
    """This process's open descriptors and shared anonymous mappings."""
    with open("/proc/self/maps", encoding="ascii") as fh:
        mappings = sum("/dev/zero" in line for line in fh)
    return len(os.listdir("/proc/self/fd")), mappings


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _outcome(src):
    """The bytes of every row a selection pass yields, and the type and
    message of what it raises, if it does."""
    rows = []
    try:
        for row in src.iterate_once("selection"):
            rows.append(row.tobytes())
    except (FormatError, SourceChangedError) as exc:
        return b"".join(rows), type(exc), str(exc)
    return b"".join(rows), None, None


def _serial_outcome(monkeypatch, src):
    with monkeypatch.context() as m:
        m.setattr(stream, "_HELPER_MIN_BYTES", math.inf)
        return _outcome(src)


_HELPER_BLOCKS = 12  # blocks of the helper tests' files


def _helper_text(d=4, end="\n", header=False):
    X = np.random.default_rng(40).standard_normal((_HELPER_BLOCKS * _BLOCK_ROWS, d))
    lines = [",".join(f"{v:.17g}" for v in row) + end for row in X.tolist()]
    return ("a,b,c,d" + end if header else "") + "".join(lines)


@needs_fork
@pytest.mark.parametrize("variant", ["lf", "crlf", "cr", "blank", "header", "x1c", "keep"])
def test_a_helper_pass_yields_the_serial_rows(tmp_path, monkeypatch, helpers, variant):
    end = {"crlf": "\r\n", "cr": "\r"}.get(variant, "\n")
    text = _helper_text(end=end, header=variant == "header")
    lines = text.splitlines(keepends=True)
    if variant == "blank":
        for at in (3, _BLOCK_ROWS, 3 * _BLOCK_ROWS + 1, 5 * _BLOCK_ROWS - 1):
            lines.insert(at, " \n")
        lines[6 * _BLOCK_ROWS:6 * _BLOCK_ROWS] = ["\n"] * _BLOCK_ROWS  # a block of none
    if variant == "x1c":
        # numpy's loader would strip \x1c around a cell, so these blocks
        # take the per-cell parse, which strips it only around a line
        for at in range(2, len(lines), 97):
            lines[at] = "\x1c" + lines[at]
    path = _write(tmp_path, "".join(lines))
    src = open_csv(path, header=variant == "header")
    expected = _serial_outcome(monkeypatch, src)
    if variant == "keep":
        src.keep_rows()
    assert _outcome(src) == expected and expected[1] is None
    assert len(helpers) == 1 and src.selection_passes == 2
    if variant == "keep":
        assert src.rows.tobytes() == expected[0]
    _assert_reaped(helpers)


@needs_fork
def test_the_helper_parses_blocks_a_slow_consumer_has_not_reached(tmp_path, monkeypatch,
                                                                   helpers):
    # the helper is offered every block the parent reads ahead and parses
    # the newest first, so its rows are back for most blocks by the time a
    # consumer this slow reaches them: the parent parses fewer than half
    src = open_csv(_write(tmp_path, _helper_text()))
    expected = _serial_outcome(monkeypatch, src)[0]
    calls = loadtxt_calls(monkeypatch)
    rows = []
    for i, row in enumerate(src.iterate_once("selection")):
        if i % _BLOCK_ROWS == 0:
            time.sleep(0.01)
        rows.append(row.tobytes())
    assert b"".join(rows) == expected
    assert len(calls) < _HELPER_BLOCKS // 2


@needs_fork
def test_a_helper_that_stops_answering_is_offered_at_most_its_slots(tmp_path, monkeypatch,
                                                                    helpers):
    # only an answer frees a slot, so once the helper is stopped at most
    # _HELPER_SLOTS more blocks find one, and the parent parses the rest
    slots = _parse_helper._HELPER_SLOTS
    X = np.random.default_rng(44).standard_normal((6 * slots * _BLOCK_ROWS, 4))
    path = _write(tmp_path, "".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
    src = open_csv(path)
    expected = _serial_outcome(monkeypatch, src)[0]
    sent, send = [], _parse_helper._ParseHelper.send  # the slots given, or None

    def recording_send(self, *args):
        sent.append(send(self, *args))
        return sent[-1]

    monkeypatch.setattr(_parse_helper._ParseHelper, "send", recording_send)
    it = src.iterate_once("selection")
    first = next(it).tobytes()
    os.kill(helpers[0], signal.SIGSTOP)
    at_stop = len(sent)
    rest = b"".join(row.tobytes() for row in it)
    assert first + rest == expected
    after = sent[at_stop:]
    assert len(sent) == 6 * slots and len(after) == 5 * slots
    assert sum(slot is not None for slot in after) <= slots
    assert len(helpers) == 1
    _assert_reaped(helpers)


def _fault_line(block):
    return block * _BLOCK_ROWS + 37


@needs_fork
@pytest.mark.parametrize("block", [4, 5], ids=["parent_block", "helper_block"])
@pytest.mark.parametrize("fault", ["non_numeric", "ragged", "rewrite", "grown", "forged"])
def test_a_helper_pass_raises_what_the_serial_loop_raises(tmp_path, monkeypatch, helpers,
                                                          fault, block):
    # the parent parses block 4, on which the helper stalls, and the helper
    # block 5, whose answer the parent waits for before it takes it (a pass
    # never waits); with the fault in block 5 the helper stalls on block 4
    # only once it has parsed block 5, whichever of the two it reached
    # first. A rewrite is found by the parent's fingerprint check, in its
    # turn, and the block is never handed to the helper
    path = _write(tmp_path, _helper_text())
    line = _fault_line(block)
    if fault == "non_numeric":
        _rewrite_line(path, line, "1,x,2,3\n")
    elif fault == "ragged":
        _rewrite_line(path, line, "1,2,3\n")
    src = open_csv(path)
    if fault == "rewrite":
        _rewrite_line(path, line, "1,2,3,4\n")
    elif fault == "grown":
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("1,2,3,4\n")
    elif fault == "forged":
        # bytes that match their fingerprint but hold a row fewer than recorded
        src._blocks[block:] = [(last, size, fingerprint, end + 1)
                               for last, size, fingerprint, end in src._blocks[block:]]
    expected = _serial_outcome(monkeypatch, src)
    assert expected[1] is not None
    first = block * _BLOCK_ROWS + 1  # the faulty block's first line
    parent, csv_block = os.getpid(), _parse_helper._csv_block

    parsed = set()  # first lines the helper has started, in the helper

    def stalling_on_block_4(data, first_line, d):
        if os.getpid() != parent:
            if first_line == 4 * _BLOCK_ROWS + 1 and (block == 4 or first in parsed):
                time.sleep(60)  # until the pass kills it
            parsed.add(first_line)
        return csv_block(data, first_line, d)

    answers = {}  # first line -> the helper's answer when the parent took it
    take = _parse_helper._ParseHelper.take

    def recording_take(self, slot, first_line):
        deadline = time.monotonic() + 10
        while (block == 5 and first_line == first and slot not in self._answers
               and time.monotonic() < deadline):
            self._collect()
            time.sleep(0.001)
        self._collect()
        answers[first_line] = self._answers.get(slot)
        return take(self, slot, first_line)

    monkeypatch.setattr(_parse_helper, "_csv_block", stalling_on_block_4)
    monkeypatch.setattr(_parse_helper._ParseHelper, "take", recording_take)
    assert _outcome(src) == expected
    if fault == "rewrite":
        assert first not in answers
    elif block == 4:
        assert answers[first] is None  # not back: the parent parsed it
    else:
        assert answers[first] == (-1 if fault in ("non_numeric", "ragged") else _BLOCK_ROWS)
    assert len(helpers) == 1 and src.selection_passes == 0
    _assert_reaped(helpers)


@needs_fork
def test_the_helper_skips_a_block_the_parent_claimed(tmp_path, monkeypatch, helpers):
    # held in its first block, the helper is sent four more; the parent
    # claims the first two of them, and the helper, once let go, answers
    # those unparsed and parses the others newest first
    log, gate = tmp_path / "parsed", tmp_path / "gate"
    parent, csv_block = os.getpid(), _parse_helper._csv_block

    def logging_csv_block(data, first_line, d):
        if os.getpid() != parent:
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{first_line}\n")
            deadline = time.monotonic() + 10
            while first_line == 1 and not gate.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        return csv_block(data, first_line, d)

    def parsed():
        return [int(v) for v in log.read_text(encoding="ascii").split()] if log.exists() else []

    def until(condition):
        deadline = time.monotonic() + 10
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.001)

    monkeypatch.setattr(_parse_helper, "_csv_block", logging_csv_block)
    lines = _helper_text().splitlines(keepends=True)
    firsts = [1 + i * _BLOCK_ROWS for i in range(5)]
    blocks = ["".join(lines[f - 1:f - 1 + _BLOCK_ROWS]).encode() for f in firsts]
    helper = _parse_helper._ParseHelper(4, max(map(len, blocks)))
    try:
        slots = [helper.send(blocks[0], firsts[0])]
        until(lambda: parsed() == [1])
        slots += [helper.send(data, f) for data, f in zip(blocks[1:], firsts[1:])]
        claimed = [helper.take(slots[i], firsts[i]) for i in (1, 2)]
        gate.touch()

        def all_answered():
            helper._collect()
            return not helper._orphans and all(
                slots[i] in helper._answers for i in (0, 3, 4))

        until(all_answered)
        rows = claimed + [helper.take(slots[i], firsts[i]) for i in (0, 3, 4)]
    finally:
        helper.stop()
    assert parsed() == [firsts[0], firsts[4], firsts[3]]
    for got, i in zip(rows, (1, 2, 0, 3, 4)):
        assert got.tobytes() == stream._csv_block(blocks[i], firsts[i], 4).tobytes()
    _assert_reaped(helpers)


@needs_fork
@pytest.mark.parametrize("how", ["end", "error", "close", "drop", "sigstop", "sigkill"])
def test_no_helper_outlives_its_pass(tmp_path, monkeypatch, helpers, how):
    path = _write(tmp_path, _helper_text())
    if how == "error":
        _rewrite_line(path, _fault_line(9), "1,x,2,3\n")
    src = open_csv(path)
    expected = _serial_outcome(monkeypatch, src)
    before = _resources()
    if how in ("end", "error"):
        assert _outcome(src) == expected
    else:
        it = src.iterate_once("selection")
        first = next(it).tobytes()
        if how == "close":
            it.close()
        elif how == "drop":
            del it
        else:
            # the pass goes on without the helper's answers, and never waits
            os.kill(helpers[0], signal.SIGSTOP if how == "sigstop" else signal.SIGKILL)
            rest = b"".join(row.tobytes() for row in it)
            assert first + rest == expected[0]
    assert len(helpers) == 1 and _resources() == before
    _assert_reaped(helpers)


@needs_fork
@pytest.mark.parametrize("fails", ["first_pipe", "second_pipe", "fork", "ring"])
def test_a_helper_that_cannot_start_leaves_the_pass_serial(tmp_path, monkeypatch, helpers,
                                                           fails):
    # the pipes and the ring made before the failure are closed, and the
    # pass runs the serial loop
    src = open_csv(_write(tmp_path, _helper_text()))
    expected = _serial_outcome(monkeypatch, src)
    before = _resources()
    error = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    pipe, pipes = os.pipe, []

    def counted_pipe():
        pipes.append(None)
        if len(pipes) == {"first_pipe": 1, "second_pipe": 2}.get(fails):
            raise error
        return pipe()

    monkeypatch.setattr(os, "pipe", counted_pipe)
    if fails == "fork":
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=error))
    elif fails == "ring":
        monkeypatch.setattr(mmap, "mmap", mock.Mock(side_effect=error))
    assert _outcome(src) == expected and expected[1] is None
    assert helpers == [] and _resources() == before
    assert len(pipes) == {"first_pipe": 1, "second_pipe": 2, "fork": 2, "ring": 0}[fails]


@needs_fork
@pytest.mark.parametrize("forks", [True, False], ids=["helper", "serial"])
def test_kept_rows_are_mapped_fresh_only_by_a_pass_that_forked(tmp_path, monkeypatch,
                                                               helpers, forks):
    # a page the parent fills after a fork copies nothing only if the fork
    # did not share it; a pass that forks no helper keeps np.empty's array,
    # whose pages the heap may reuse
    if not forks:
        monkeypatch.setattr(_parse_helper, "_idle_cpu", lambda: False)
    src = open_csv(_write(tmp_path, _helper_text()))
    expected = _serial_outcome(monkeypatch, src)[0]
    mapped, fresh_rows = [], stream._fresh_rows
    monkeypatch.setattr(stream, "_fresh_rows",
                        lambda n, d: mapped.append((n, d)) or fresh_rows(n, d))
    src.keep_rows()
    list(src.iterate_once("selection"))
    assert src.rows.tobytes() == expected and not src.rows.flags.writeable
    assert len(helpers) == forks
    assert mapped == ([(src.n, src.d)] if forks else [])
    _assert_reaped(helpers)


@needs_fork
def test_kept_rows_fall_back_to_the_heap_when_no_pages_can_be_mapped(tmp_path, monkeypatch,
                                                                      helpers):
    # a mapping that fails is no I/O failure of the file: the pass keeps
    # np.empty's array instead
    src = open_csv(_write(tmp_path, _helper_text()))
    expected = _serial_outcome(monkeypatch, src)[0]
    real = mmap.mmap

    def no_private_pages(fileno, length, *args, flags=mmap.MAP_SHARED, **kwargs):
        if flags == mmap.MAP_PRIVATE:
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))
        return real(fileno, length, *args, flags=flags, **kwargs)

    monkeypatch.setattr(mmap, "mmap", no_private_pages)
    src.keep_rows()
    list(src.iterate_once("selection"))
    assert src.rows.tobytes() == expected and len(helpers) == 1
    _assert_reaped(helpers)


def test_a_helper_needs_a_large_pass_of_a_file_to_parse(tmp_path, monkeypatch):
    X = np.random.default_rng(41).standard_normal((10000, 8))
    path = str(tmp_path / "large.csv")
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    assert os.path.getsize(path) >= stream._HELPER_MIN_BYTES
    src = open_csv(path)
    largest = max(size for _, size, _, _ in src._blocks)
    expected = (_parse_helper._HELPER_SLOTS * (largest + 8 * _BLOCK_ROWS * 8 + 1)
                + _parse_helper._HELPER_SLOTS * largest + _parse_helper._HELPER_COPIED_BYTES)
    assert src.helper_bytes() == (expected if hasattr(os, "fork") else 0)
    with monkeypatch.context() as m:
        m.delattr(os, "fork", raising=False)
        assert src.helper_bytes() == 0
    src.allow_helper = False
    assert src.helper_bytes() == 0
    src.allow_helper = True
    src.keep_rows()
    list(src.iterate_once("selection"))
    assert src.helper_bytes() == 0  # later passes replay the kept rows
    assert as_source(X).helper_bytes() == 0
    small = open_csv(_write(tmp_path, _rows_text(3 * _BLOCK_ROWS)))
    assert small.helper_bytes() == 0


def _fake_proc(monkeypatch, files, threads=1):
    """Let `_parse_helper` open `files` ({path: text}) and no other file, and see
    `threads` threads in /proc/self/task (None: this process's own)."""
    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(_parse_helper, "open", fake_open, raising=False)
    if threads is not None:
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: [str(i) for i in range(threads)]
                            if path == "/proc/self/task" else listdir(path))


def _loadavg(runnable):
    # the fourth field counts the runnable tasks, this one included
    return {"/proc/loadavg": f"0.52 0.58 0.59 {runnable}/123 4567\n"}


@pytest.mark.parametrize("runnable, cpus, idle", [(1, 2, True), (3, 4, True), (2, 2, False),
                                                   (1, 1, False)])
def test_an_idle_cpu_is_one_no_runnable_task_wants(monkeypatch, runnable, cpus, idle):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    _fake_proc(monkeypatch, _loadavg(runnable))
    assert _parse_helper._idle_cpu() is idle


_V2 = "0::/box/run\n"
_V1 = "4:memory:/box\n2:cpu,cpuacct:/box/run\n"


@pytest.mark.parametrize("cgroup, quotas, cpus", [
    (_V2, {"/sys/fs/cgroup/box/run/cpu.max": "max 100000\n"}, math.inf),
    (_V2, {"/sys/fs/cgroup/box/run/cpu.max": "100000 100000\n"}, 1.0),
    (_V2, {"/sys/fs/cgroup/box/run/cpu.max": "300000 100000\n",
           "/sys/fs/cgroup/box/cpu.max": "150000 100000\n"}, 1.5),  # a parent's quota
    (_V2, {"/sys/fs/cgroup/cpu.max": "200000 100000\n"}, 2.0),  # a container's own root
    (_V2, {"/sys/fs/cgroup/unified/box/cpu.max": "50000 100000\n"}, 0.5),  # hybrid
    ("2:cpu,cpuacct:/box/run\n", {"/sys/fs/cgroup/cpu/box/run/cpu.cfs_quota_us": "-1\n",
                                  "/sys/fs/cgroup/cpu/box/run/cpu.cfs_period_us": "100000\n"},
     math.inf),
    (_V1, {"/sys/fs/cgroup/cpu/box/cpu.cfs_quota_us": "100000\n",
           "/sys/fs/cgroup/cpu/box/cpu.cfs_period_us": "100000\n",
           "/sys/fs/cgroup/memory/box/cpu.cfs_quota_us": "1\n"}, 1.0),
    (_V2, {"/sys/fs/cgroup/box/run/cpu.max": "garbage\n"}, math.inf),
    (None, {}, math.inf),
])
def test_a_cgroup_cpu_quota_caps_the_cpus(monkeypatch, cgroup, quotas, cpus):
    files = dict(quotas, **({"/proc/self/cgroup": cgroup} if cgroup else {}))
    _fake_proc(monkeypatch, files)
    assert _parse_helper._cgroup_cpus() == cpus


@pytest.mark.parametrize("quota, idle", [(None, True), ("200000 100000", True),
                                         ("150000 100000", False), ("100000 100000", False)])
def test_no_idle_cpu_under_a_quota_of_less_than_two(monkeypatch, quota, idle):
    # a container limited to one CPU sees every host CPU in its affinity
    # mask, and the host's spare ones in /proc/loadavg
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    files = dict(_loadavg(1), **{"/proc/self/cgroup": _V2})
    if quota:
        files["/sys/fs/cgroup/box/run/cpu.max"] = quota + "\n"
    _fake_proc(monkeypatch, files)
    assert _parse_helper._idle_cpu() is idle


@needs_fork
def test_no_helper_without_an_idle_cpu(tmp_path, monkeypatch, helpers):
    # a helper with no CPU of its own would only cost the parent its fork
    monkeypatch.setattr(_parse_helper, "_idle_cpu", lambda: False)
    src = open_csv(_write(tmp_path, _helper_text()))
    assert len(list(src.iterate_once("selection"))) == src.n and helpers == []


@pytest.mark.skipif(not _HAS_PROC, reason="counts threads in /proc")
def test_no_helper_in_a_process_with_more_than_one_thread(monkeypatch):
    # another thread, numpy's BLAS threads included, may want the idle CPU
    # or hold a lock the helper would inherit held
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _fake_proc(monkeypatch, _loadavg(1), threads=None)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(os.listdir("/proc/self/task")) > 1 and not _parse_helper._idle_cpu()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    _fake_proc(monkeypatch, _loadavg(1), threads=1)
    assert _parse_helper._idle_cpu()
