"""Single-pass data access with pass auditing.

Every full sequential read of a dataset is a "pass" and is charged to
either selection (sampling) or evaluation (error measurement), so the
one-pass claim of the sampler is a tested contract, not a convention.
A pass counts only when the stream is consumed to exhaustion.

CSV files have one parser, `_csv_block`, which file passes run: numpy's
loader parses blocks of lines, and a block it rejects falls back to
float() per cell, so what is accepted, and the row an error names, are
those of the per-cell parse. `open_csv` parses no more than the first
data row: it reads the lines only to count the non-blank ones, so a
malformed later row is reported by the first pass over the file.

Every file pass reads every line, and each pass after the first complete
one checks the fingerprint of each block of lines against that pass's,
so a file that changes between passes raises SourceChangedError. A
caller that holds all n rows anyway asks for them with
`DatasetSource.keep_rows`: then the file is parsed once, and later
passes read and fingerprint it but yield the kept rows.
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


def _csv_block(lines, text, first_line, d):
    """The rows of one `_line_blocks` block as a (rows, d) float array.

    `text` is the block's lines joined. numpy's loader parses the block;
    a block it rejects, whose width is not d, or that holds a non-finite
    cell is parsed again by `_parse_block`, which either accepts it or
    raises the first fault. The loader accepts a subset of what float()
    does and parses it to the same doubles.
    """
    if text.isspace():
        return np.empty((0, d))
    block = None
    if not any(ch in text for ch in _LOADER_ONLY_SPACE):
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if block is None or block.shape[1] != d or not np.isfinite(block).all():
        block = _parse_block(lines, first_line, d)
    return block


class DatasetSource:
    """A replayable stream of points of fixed dimension d.

    Backed either by an in-memory array or a CSV file. Hands out one
    active stream at a time; a given pass always yields points in the
    same fixed order. For a file, n and d are fixed when it is opened and
    its rows are parsed only by passes (see `open_csv`).

    Every pass over a file reads all of its lines. The first complete
    pass records a fingerprint (the built-in `hash` of the joined text)
    of each block of `_BLOCK_ROWS` lines, and every later pass checks its
    blocks against them, so a file rewritten between passes raises
    SourceChangedError even when its row count is unchanged.

    `rows` is the source's rows as one read-only (n, d) float64 array, or
    None: an in-memory source's own array, or the rows a file pass kept
    after `keep_rows`. A later pass over a file with kept rows yields the
    kept rows of each block whose fingerprint matches instead of parsing
    it again.
    """

    def __init__(self, rows=None, path=None, d=None, n=None, header=False,
                 auditor=None):
        self.rows = rows
        self._path = path
        self._header = header
        self.d = d
        self.n = n
        self.auditor = auditor if auditor is not None else PassAuditor()
        self._active = False
        self._keep = False
        # (fingerprint, rows up to the block's end) per block of the first
        # complete file pass
        self._blocks = None

    @classmethod
    def from_points(cls, points, auditor=None):
        ps = points if isinstance(points, PointSet) else PointSet(points)
        return cls(rows=ps.points, d=ps.d, n=ps.n, auditor=auditor)

    def keep_rows(self):
        """Keep the rows of this source's next complete pass in `rows`.

        For a caller that holds all n rows anyway. A file pass fills one
        (n, d) array a block at a time as it parses, and keeps it only if
        it completes: a pass that is abandoned or raises keeps nothing. An
        in-memory source already holds its rows and copies nothing.
        """
        self._keep = True

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
            if self._path is None:
                yield from self.rows
            else:
                yield from self._iterate_file()
        finally:
            self._active = False
        self.auditor.record(purpose)

    def _iterate_file(self):
        known, kept = self._blocks, self.rows
        keep = np.empty((self.n, self.d)) if self._keep and kept is None else None
        blocks = []
        rows = 0
        try:
            line_blocks = _line_blocks(self._path, self._header)
            for i, (line_number, lines) in enumerate(line_blocks):
                text = "".join(lines)
                fingerprint = hash(text)
                if known is not None and (i == len(known) or known[i][0] != fingerprint):
                    raise SourceChangedError(
                        f"{self._path} changed since its first pass: lines "
                        f"{line_number}-{line_number + len(lines) - 1} are not "
                        f"what it read")
                if kept is not None:
                    block = kept[rows:known[i][1]]
                else:
                    block = _csv_block(lines, text, line_number, self.d)
                    if rows + len(block) > self.n:
                        rows += len(block) + sum(len(_csv_block(ls, "".join(ls), ln, self.d))
                                                 for ln, ls in line_blocks)
                        break
                    if keep is not None:
                        keep[rows:rows + len(block)] = block
                rows += len(block)
                blocks.append((fingerprint, rows))
                yield from block
        except OSError as exc:
            raise StreamError(f"I/O failure while streaming {self._path}: {exc}") from exc
        if rows != self.n:
            raise SourceChangedError(
                f"{self._path} changed since it was opened: "
                f"{self.n} rows then, {rows} now")
        if known is None:
            self._blocks = blocks
        if keep is not None:
            keep.setflags(write=False)
            self.rows = keep


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
