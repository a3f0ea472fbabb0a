"""Single-pass data access with pass counting.

Every full sequential read of a dataset is a "pass", and the source
counts it as either selection (sampling) or evaluation (error
measurement), so the one-pass claim of the sampler is a tested contract,
not a convention. A pass counts only when the stream is consumed to
exhaustion.

CSV files have one parser, `_csv_block`, which file passes run: numpy's
loader parses each block's bytes, and only a block it rejects is split
into lines and parsed again with float() per cell, so what is accepted,
and the row an error names, are those of the per-cell parse. `open_csv`
parses no more than the first data row: it reads the lines to count the
non-blank ones and to record the passes' byte ranges, so a malformed
later row is reported by the first pass over the file.

Every file pass, the first included, has one reader, `_read_ranges`.
Opening records each block's byte size, a fingerprint of its bytes and
the rows up to its end; each pass reads exactly those byte ranges in
binary mode and checks their fingerprints, so a file that changes after
it was opened raises SourceChangedError. A caller that holds all n rows
anyway asks for them with `DatasetSource.keep_rows`: then the file is
parsed once, and later passes read and fingerprint its bytes but yield
the kept rows without parsing them.

A pass that parses at least `_HELPER_MIN_BYTES` (1.5 MiB) of blocks may
fork a parse helper, a process on an idle CPU that parses the blocks it
reaches before the pass does (`_parse_helper`); the pass yields the same
rows and raises the same errors as without it.
"""

import io
import itertools
import math
import mmap
import os
import stat

import numpy as np

from .errors import (FormatError, InputError, ParameterError, SourceChangedError,
                     StreamError)
from .geometry import PointSet

_PURPOSES = ("selection", "evaluation")

# Lines parsed per loader call, and rows the pool and evaluation passes
# pull from a pass at a time. Larger blocks parse no faster: a loader
# call's own cost is about 5 us, under 2 ms a pass over 40,000 lines.
_BLOCK_ROWS = 128

# A pass over at least this many bytes of blocks may fork a parse helper.
# A fork costs the parent about 5 ms, most of it in the minor faults it
# takes after the fork write-protects its pages (about 1,000 over a CLI
# run's pass and what follows it), and the helper saves at most half of
# about 8.5 ms of parsing a MB. Paired CLI runs of 32-column CSVs on a
# 2-vCPU host, helper against none: x1.07 at 1 MiB, x1.07-1.10 at 1.25
# MiB, x0.96-0.975 at 1.5 MiB, x0.92-0.96 at 2 MiB, x0.84-0.89 at 4 MiB.
_HELPER_MIN_BYTES = 3 << 19

# Bytes numpy's loader strips around a cell but float() rejects.
_LOADER_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


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
    r"""The lines of a block's bytes, split as `open_csv` splits them, as
    text.

    A newline="" reader splits at \n, \r and \r\n only, and so does
    bytes.splitlines; str.splitlines would also split at \v, \f,
    \x1c-\x1e, \x85, \u2028 and \u2029. No UTF-8 character holds either
    byte, so each line decodes on its own.
    """
    return list(map(bytes.decode, data.splitlines(keepends=True)))


def _csv_block(data, first_line, d):
    r"""The rows of one block's bytes, which hold at least one row, as a
    (rows, d) float array.

    numpy's loader parses the bytes, with each bare \r made a \n: on a
    byte stream it splits lines at \n only, and it skips the empty line
    this makes of a \r\n. A block it rejects, whose width is not d, or
    that holds a non-finite cell is split into lines (`_byte_lines`) and
    parsed again by `_parse_block`, which either accepts it or raises the
    first fault. The loader accepts a subset of what float() does and
    parses it to the same doubles; it reads the bytes as Latin-1, so a
    non-ASCII character, which float() may accept, is one it rejects.
    Passes skip a block with no row, whose bytes the loader would warn
    hold no data.
    """
    block = None
    if not any(byte in data for byte in _LOADER_ONLY_SPACE):
        try:
            block = np.loadtxt(io.BytesIO(data.replace(b"\r", b"\n")), delimiter=",",
                               comments=None, ndmin=2)
        except ValueError:
            pass
    if block is None or block.shape[1] != d or not np.isfinite(block).all():
        block = _parse_block(_byte_lines(data), first_line, d)
    return block


def _changed_block(path, line, last):
    """The error for the block of lines line + 1..last, which is not what
    opening read."""
    named = f"line {last} is" if last == line + 1 else f"lines {line + 1}-{last} are"
    return SourceChangedError(f"{path} changed since it was opened: {named} not what it read")


def _parsed(verified, d):
    """The serial loop: (block, rows) of each verified block in turn, each
    parsed by `_csv_block` once its bytes are verified."""
    for block, data in verified:
        yield block, _csv_block(data, block[0] + 1, d)


def _fresh_rows(n, d):
    """An (n, d) float64 array in pages mapped now, which no process forked
    before shares, so a write to them copies no page. It asks for huge
    pages, as numpy does for an array this large. Where no pages can be
    mapped it is `np.empty`'s, which raises MemoryError if it cannot be
    had either."""
    try:
        pages = mmap.mmap(-1, 8 * n * d, flags=mmap.MAP_PRIVATE)
    except OSError:
        return np.empty((n, d))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, np.float64).reshape(n, d)


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

    `allow_helper` is whether a large pass may fork a parse helper (see
    `_read_ranges`); `experiment._memory_guard` clears it when the
    helper's memory would not fit.

    `rows` is the source's rows as one read-only (n, d) float64 array, or
    None: an in-memory source's own array, or the rows a file pass kept
    after `keep_rows`. A later pass over a file with kept rows yields the
    kept rows of each verified block without parsing its bytes; without
    them it parses the verified bytes.
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
        self.allow_helper = True

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
                # one generator level per row: the file reader yields blocks
                for block in self._read_ranges():
                    yield from block
        finally:
            self._active = False
        if purpose == "selection":
            self.selection_passes += 1
        else:
            self.evaluation_passes += 1

    def _read_ranges(self):
        """Yield a file pass's blocks of rows, each once its bytes are read
        and verified.

        Reads the byte ranges of the block table, in file order, and checks
        their fingerprints. A block is the kept rows' slice when there are
        kept rows, and `_csv_block`'s parse of its bytes otherwise; a pass
        asked to keep its rows fills them as it parses, and keeps them
        only if it completes.

        A pass that parses over at least `_HELPER_MIN_BYTES` (1.5 MiB) of
        blocks, and starts in a one-thread process while a CPU is idle,
        forks a parse helper and offers it each block with a row it reads
        ahead (`_parse_helper.parsed_with_helper`). The parent never waits
        on it: a block whose rows are not back in its turn, or that the
        helper could not parse, the parent parses itself. So the pass
        yields the same rows, and raises the same errors after the same
        rows, as the serial loop. The helper is stopped before the pass
        ends, however it ends. A pass that forked a helper maps the kept
        rows after the fork, in fresh pages (`_fresh_rows`): pages the
        parent wrote before the fork and rewrote after it would each be
        copied, the helper holding the old copy.
        """
        keep = None
        try:
            with open(self._path, "rb") as fh:
                verified = self._verified_blocks(fh)
                if self.rows is not None:
                    for (_, _, rows, end), _ in verified:
                        yield self.rows[rows:end]
                    return
                helper = None
                if self.helper_bytes():
                    from ._parse_helper import parsed_with_helper, start_helper
                    helper = start_helper(self.d, max(size for _, size, _, _ in self._blocks))
                if helper is None:
                    parsed = _parsed(verified, self.d)
                else:
                    parsed = parsed_with_helper(verified, self.d, helper)
                try:
                    if self._keep:
                        keep = (np.empty((self.n, self.d)) if helper is None
                                else _fresh_rows(self.n, self.d))
                    for (line, last, rows, end), block in parsed:
                        if len(block) != end - rows:
                            raise _changed_block(self._path, line, last)
                        if keep is not None:
                            keep[rows:end] = block
                        yield block
                finally:
                    parsed.close()
                    if helper is not None:  # however the pass ends
                        helper.stop()
        except OSError as exc:
            raise StreamError(f"I/O failure while streaming {self._path}: {exc}") from exc
        if keep is not None:
            keep.setflags(write=False)
            self.rows = keep

    def _verified_blocks(self, fh):
        """((line before, last line, rows before, rows at end), bytes) of
        each block with a row, in file order, once its bytes are read from
        `fh` and match their fingerprint; raises SourceChangedError at the
        first block that does not, and for bytes past the last block."""
        line = rows = 0
        for last, size, fingerprint, end in self._blocks:
            data = fh.read(size)
            if len(data) != size or hash(data) != fingerprint:
                raise _changed_block(self._path, line, last)
            if end > rows:
                yield (line, last, rows, end), data
            line, rows = last, end
        if fh.read(1):
            raise SourceChangedError(
                f"{self._path} changed since it was opened: it has bytes "
                f"after line {line}, where it ended then")

    def helper_bytes(self):
        """Bytes a parse helper forked by the next pass adds beyond a copy
        of the run's own memory (`_parse_helper.helper_bytes`). 0 when the
        pass runs the serial loop: an in-memory source, kept rows to
        replay, under `_HELPER_MIN_BYTES` of blocks, no os.fork, or
        `allow_helper` cleared."""
        if self._path is None or self.rows is not None or not self.allow_helper:
            return 0
        sizes = [size for _, size, _, _ in self._blocks]
        if sum(sizes) < _HELPER_MIN_BYTES or not hasattr(os, "fork"):
            return 0
        from ._parse_helper import helper_bytes
        return helper_bytes(self.d, max(sizes))


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
