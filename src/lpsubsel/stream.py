"""Single-pass data access with pass counting.

Every full sequential read of a dataset is a "pass", and the source
counts it as either selection (sampling) or evaluation (error
measurement), so the one-pass claim of the sampler is a tested contract,
not a convention. A pass counts only when the stream is consumed to
exhaustion.

CSV files have one parser, `_csv_block`, which file passes run: numpy's
loader parses blocks of lines, and a block it rejects falls back to
float() per cell, so what is accepted, and the row an error names, are
those of the per-cell parse. `open_csv` parses no more than the first
data row: it reads the lines to count the non-blank ones and to record
the passes' byte ranges, so a malformed later row is reported by the
first pass over the file.

Every file pass, the first included, has one reader, `_read_ranges`.
Opening records each block's byte size, a fingerprint of its bytes and
the rows up to its end; each pass reads exactly those byte ranges in
binary mode and checks their fingerprints, so a file that changes after
it was opened raises SourceChangedError. A caller that holds all n rows
anyway asks for them with `DatasetSource.keep_rows`: then the file is
parsed once, and later passes read and fingerprint its bytes but yield
the kept rows without decoding them.
"""

import itertools
import math
import os
import stat

import numpy as np

from .errors import (FormatError, InputError, ParameterError, SourceChangedError,
                     StreamError)
from .geometry import PointSet

_PURPOSES = ("selection", "evaluation")

# Lines parsed per loader call, and rows the pool and evaluation passes
# pull from a pass at a time. Larger blocks parse no faster and leave
# more per-line strings alive at once, which raised peak RSS.
_BLOCK_ROWS = 128

# Characters numpy's loader strips around a cell but float() rejects.
_LOADER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


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
        cells = line.split(",")
        if d is not None and len(cells) != d:
            raise FormatError(f"row {row_number}: expected {d} values, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise FormatError(f"row {row_number}: non-numeric cell") from None
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


def _byte_lines(data):
    r"""The lines of a block's bytes, split as `open_csv` splits them, and
    their text.

    A newline="" reader splits at \n, \r and \r\n only, and so does
    bytes.splitlines; str.splitlines would also split at \v, \f,
    \x1c-\x1e, \x85, \u2028 and \u2029. No UTF-8 character holds either
    byte, so each line decodes on its own.
    """
    return list(map(bytes.decode, data.splitlines(keepends=True))), data.decode("utf-8")


def _csv_block(lines, text, first_line, d):
    """The rows of one block of lines as a (rows, d) float array.

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


def _changed_block(path, line, last):
    """The error for the block of lines line + 1..last, which is not what
    opening read."""
    named = f"line {last} is" if last == line + 1 else f"lines {line + 1}-{last} are"
    return SourceChangedError(f"{path} changed since it was opened: {named} not what it read")


class DatasetSource:
    """A replayable stream of points of fixed dimension d.

    Backed either by an in-memory array or a CSV file. Hands out one
    active stream at a time; a given pass always yields points in the
    same fixed order. For a file, n and d are fixed when it is opened and
    its rows are parsed only by passes (see `open_csv`).

    `selection_passes` and `evaluation_passes` count the passes that
    completed, split by the purpose `iterate_once` was given.

    A file source holds the block table opening recorded: for the header
    line and each block of `_BLOCK_ROWS` lines after it, the block's last
    line, byte size, a fingerprint of its bytes (the built-in `hash`) and
    the rows up to its end. Every pass, the first included, reads exactly
    those byte ranges in binary mode and checks each fingerprint, so a
    file rewritten after it was opened raises SourceChangedError even
    when its row count is unchanged, and so does one with bytes past the
    last range.

    `rows` is the source's rows as one read-only (n, d) float64 array, or
    None: an in-memory source's own array, or the rows a file pass kept
    after `keep_rows`. A later pass over a file with kept rows yields the
    kept rows of each verified block without decoding its bytes; without
    them it decodes and parses the verified bytes.
    """

    def __init__(self, rows=None, path=None, d=None, n=None, blocks=None):
        self.rows = rows
        self._path = path
        self._blocks = blocks
        self.d = d
        self.n = n
        self.selection_passes = 0
        self.evaluation_passes = 0
        self._active = False
        self._keep = False

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

        `purpose` is "selection" or "evaluation", checked before anything
        is yielded. The source's counter for it grows only when the stream
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
                # one generator level per row: the file readers yield blocks
                for block in self._iterate_file():
                    yield from block
        finally:
            self._active = False
        if purpose == "selection":
            self.selection_passes += 1
        else:
            self.evaluation_passes += 1

    def _iterate_file(self):
        """Yield a file pass's blocks of rows, each once its bytes are
        read and verified."""
        keep = np.empty((self.n, self.d)) if self._keep and self.rows is None else None
        try:
            yield from self._read_ranges(keep)
        except OSError as exc:
            raise StreamError(f"I/O failure while streaming {self._path}: {exc}") from exc
        if keep is not None:
            keep.setflags(write=False)
            self.rows = keep

    def _read_ranges(self, keep):
        """Read the byte ranges of the block table and check their
        fingerprints, yielding the kept rows of each block as one array
        or, without them, parsing its bytes."""
        line = rows = 0
        with open(self._path, "rb") as fh:
            for last, size, fingerprint, end in self._blocks:
                data = fh.read(size)
                if len(data) != size or hash(data) != fingerprint:
                    raise _changed_block(self._path, line, last)
                if end > rows:
                    if self.rows is not None:
                        yield self.rows[rows:end]
                    else:
                        lines, text = _byte_lines(data)
                        block = _csv_block(lines, text, line + 1, self.d)
                        if len(block) != end - rows:
                            raise _changed_block(self._path, line, last)
                        if keep is not None:
                            keep[rows:end] = block
                        yield block
                line, rows = last, end
            if fh.read(1):
                raise SourceChangedError(
                    f"{self._path} changed since it was opened: it has bytes "
                    f"after line {line}, where it ended then")


def open_csv(path, header=False):
    """Open a CSV of points: one point per line, comma-separated numbers.

    A cell is anything float() accepts, surrounding whitespace included;
    blank lines are skipped, and header=True skips the first line. The
    path must name a regular file, since every pass reads it again.
    Opening reads the file's lines in blocks of `_BLOCK_ROWS`, counts the
    non-blank ones, which gives n, and parses only the first data row,
    which gives d; it records each block's byte range and fingerprint for
    the passes (see `DatasetSource`). Every other row is parsed by each
    pass: the first ragged, non-numeric or non-finite (NaN, infinite) row
    raises FormatError naming its 1-based line. Opening is not a counted
    pass.
    """
    header = bool(header)
    d = None
    n = 0
    blocks = []
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise InputError(f"{path} is not a regular file; the input must be a "
                             f"file that can be read more than once")
        with open(path, encoding="utf-8", newline="") as fh:
            if header:
                data = "".join(_read_lines(fh, 1, path)).encode("utf-8")
                blocks.append((1, len(data), hash(data), 0))
            last = int(header)
            while lines := _read_lines(fh, _BLOCK_ROWS, path):
                for row_number, line in enumerate(lines, last + 1):
                    if line.strip():
                        if d is None:
                            d = _parse_block([line], row_number, None).shape[1]
                        n += 1
                last += len(lines)
                # the reader translates no line end and valid UTF-8
                # round-trips, so these are the file's bytes
                data = "".join(lines).encode("utf-8")
                blocks.append((last, len(data), hash(data), n))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if n == 0:
        raise InputError(f"{path}: empty dataset (n >= 1 required)")
    return DatasetSource(path=path, d=d, n=n, blocks=blocks)


def as_source(data):
    """Coerce a PointSet, array, or DatasetSource into a DatasetSource."""
    if isinstance(data, DatasetSource):
        return data
    ps = data if isinstance(data, PointSet) else PointSet(data)
    return DatasetSource(rows=ps.points, d=ps.d, n=ps.n)
