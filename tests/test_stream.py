import contextlib
import io
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsubsel import (FormatError, InputError, ParameterError, SourceChangedError,
                      StreamError, as_source, open_csv, one_pass_adaptive_sample,
                      theorem_params)
from lpsubsel import stream
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
