"""Single-pass data access with pass auditing.

Every full sequential read of a dataset is a "pass" and is charged to
either selection (sampling) or evaluation (error measurement), so the
one-pass claim of the sampler is a tested contract, not a convention.
A pass counts only when the stream is consumed to exhaustion.

CSV files have one parser, `_csv_blocks`, which every pass runs: numpy's
loader parses blocks of lines, and a block it rejects falls back to
float() per cell, so what is accepted, and the row an error names, are
those of the per-cell parse. `open_csv` parses no more than the first
data row: it reads the lines only to count the non-blank ones, so a
malformed later row is reported by the first pass over the file.
"""

import itertools
import math

import numpy as np

from .errors import (FormatError, InputError, ParameterError, SourceChangedError,
                     StreamError)
from .geometry import PointSet

_PURPOSES = ("selection", "evaluation")

# Lines parsed per loader call. Larger blocks parse no faster and leave
# more per-line strings alive at once, which raised peak RSS.
_BLOCK_ROWS = 128

# Characters numpy's loader strips around a cell but float() rejects.
_LOADER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class PassAuditor:
    """Counts completed full passes, split by what consumed them."""

    __slots__ = ("selection_passes", "evaluation_passes")

    def __init__(self):
        self.selection_passes = 0
        self.evaluation_passes = 0

    def record(self, purpose):
        if purpose == "selection":
            self.selection_passes += 1
        elif purpose == "evaluation":
            self.evaluation_passes += 1
        else:
            raise ParameterError(f"unknown pass purpose {purpose!r}")

    def __repr__(self):
        return (f"PassAuditor(selection={self.selection_passes}, "
                f"evaluation={self.evaluation_passes})")


def _parse_row(line, row_number, expected_d):
    cells = line.split(",")
    if expected_d is not None and len(cells) != expected_d:
        raise FormatError(
            f"row {row_number}: expected {expected_d} values, got {len(cells)}")
    try:
        return [float(c) for c in cells]
    except ValueError:
        raise FormatError(f"row {row_number}: non-numeric cell") from None


def _parse_block(lines, first_line, d):
    """Parse lines one row at a time with float(), raising the first fault.

    The reference semantics of the file format: blank lines are skipped,
    and the first ragged, non-numeric or non-finite row, in file order,
    is reported with its 1-based line number.
    """
    rows = []
    for row_number, raw in enumerate(lines, first_line):
        line = raw.strip()
        if not line:
            continue
        values = _parse_row(line, row_number, d)
        if not all(map(math.isfinite, values)):
            raise FormatError(f"row {row_number}: non-finite cell")
        d = len(values)
        rows.append(values)
    return np.array(rows)


def _read_lines(fh, count, path):
    """Up to `count` more lines of a text file opened as UTF-8."""
    try:
        return list(itertools.islice(fh, count))
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not valid UTF-8") from None


def _line_blocks(path, header):
    """Yield (line number of the first, lines) for the lines after the header.

    Opens the file as UTF-8 with line ends kept, and reads up to
    `_BLOCK_ROWS` lines at a time. Line numbers are 1-based and count the
    header. Bytes that are not UTF-8 raise FormatError; OSError is left to
    the caller.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        line_number = 1
        if header:
            _read_lines(fh, 1, path)
            line_number = 2
        while lines := _read_lines(fh, _BLOCK_ROWS, path):
            yield line_number, lines
            line_number += len(lines)


def _csv_blocks(path, header, d):
    """Yield the rows of a CSV file as (rows, d) float arrays, in file order.

    Parses each block of `_line_blocks` with numpy's loader. A block the
    loader rejects, whose width is not d, or that holds a non-finite cell
    is parsed again by `_parse_block`, which either accepts it or raises
    the first fault; the loader accepts a subset of what float() does and
    parses it to the same doubles.
    """
    for line_number, lines in _line_blocks(path, header):
        text = "".join(lines)
        if text.isspace():
            continue
        block = None
        if not any(ch in text for ch in _LOADER_ONLY_SPACE):
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        if block is None or block.shape[1] != d or not np.isfinite(block).all():
            block = _parse_block(lines, line_number, d)
        yield block


class DatasetSource:
    """A replayable stream of points of fixed dimension d.

    Backed either by an in-memory array or a CSV file. Hands out one
    active stream at a time; a given pass always yields points in the
    same fixed order. For a file, n and d are fixed when it is opened and
    its rows are parsed only by passes (see `open_csv`).
    """

    def __init__(self, rows=None, path=None, d=None, n=None, header=False,
                 auditor=None):
        self._rows = rows
        self._path = path
        self._header = header
        self.d = d
        self.n = n
        self.auditor = auditor if auditor is not None else PassAuditor()
        self._active = False

    @classmethod
    def from_points(cls, points, auditor=None):
        ps = points if isinstance(points, PointSet) else PointSet(points)
        return cls(rows=ps.points, d=ps.d, n=ps.n, auditor=auditor)

    def iterate_once(self, purpose):
        """Yield each point exactly once in source order.

        The matching auditor counter is incremented only when the stream
        completes; abandoning the iterator mid-way does not count.
        """
        if purpose not in _PURPOSES:
            raise ParameterError(f"purpose must be one of {_PURPOSES}, got {purpose!r}")
        if self._active:
            raise StreamError("a pass over this source is already in progress")
        self._active = True
        try:
            if self._rows is not None:
                yield from self._rows
            else:
                yield from self._iterate_file()
        finally:
            self._active = False
        self.auditor.record(purpose)

    def _iterate_file(self):
        rows = 0
        try:
            blocks = _csv_blocks(self._path, self._header, self.d)
            for block in blocks:
                rows += len(block)
                if rows > self.n:
                    rows += sum(map(len, blocks))
                    break
                yield from block
        except OSError as exc:
            raise StreamError(f"I/O failure while streaming {self._path}: {exc}") from exc
        if rows != self.n:
            raise SourceChangedError(
                f"{self._path} changed since it was opened: "
                f"{self.n} rows then, {rows} now")


def open_csv(path, header=False, auditor=None):
    """Open a CSV of points: one point per line, comma-separated numbers.

    A cell is anything float() accepts, surrounding whitespace included;
    blank lines are skipped, and header=True skips the first line. Opening
    reads the file's lines to count the non-blank ones, which gives n, and
    parses only the first data row, which gives d. Every other row is
    parsed by each pass: the first ragged, non-numeric or non-finite (NaN,
    infinite) row raises FormatError naming its 1-based line, and a pass
    whose row count is no longer n raises SourceChangedError. Opening is
    not an audited pass.
    """
    d = None
    n = 0
    try:
        for line_number, lines in _line_blocks(path, header):
            for row_number, line in enumerate(lines, line_number):
                if line.strip():
                    if d is None:
                        d = _parse_block([line], row_number, None).shape[1]
                    n += 1
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if n == 0:
        raise InputError(f"{path}: empty dataset (n >= 1 required)")
    return DatasetSource(path=path, d=d, n=n, header=header, auditor=auditor)


def as_source(data, auditor=None):
    """Coerce a PointSet, array, or DatasetSource into a DatasetSource."""
    if isinstance(data, DatasetSource):
        return data
    return DatasetSource.from_points(data, auditor=auditor)
