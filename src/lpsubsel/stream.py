"""Single-pass data access with pass auditing.

Every full sequential read of a dataset is a "pass" and is charged to
either selection (sampling) or evaluation (error measurement), so the
one-pass claim of the sampler is a tested contract, not a convention.
A pass counts only when the stream is consumed to exhaustion.
"""

import math

import numpy as np

from .errors import FormatError, InputError, ParameterError, StreamError
from .geometry import PointSet

_PURPOSES = ("selection", "evaluation")


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


class DatasetSource:
    """A replayable stream of points of fixed dimension d.

    Backed either by an in-memory array or a CSV file. Hands out one
    active stream at a time; a given pass always yields points in the
    same fixed order.
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
        try:
            with open(self._path, encoding="utf-8", newline="") as fh:
                row_number = 0
                for raw in fh:
                    row_number += 1
                    line = raw.strip()
                    if row_number == 1 and self._header:
                        continue
                    if not line:
                        continue
                    yield np.array(_parse_row(line, row_number, self.d))
        except OSError as exc:
            raise StreamError(f"I/O failure while streaming {self._path}: {exc}") from exc

    def materialize(self, purpose="evaluation"):
        """Load the full dataset into a PointSet, consuming one audited pass."""
        rows = list(self.iterate_once(purpose))
        return PointSet(np.vstack(rows))


def iterate_once(source, purpose):
    """Module-level alias for DatasetSource.iterate_once."""
    return source.iterate_once(purpose)


def open_csv(path, header=False, auditor=None):
    """Open a CSV of points (one point per line, comma-separated decimals).

    The dimension d comes from the first data row. The file is scanned
    once up front to establish n and fail fast on ragged, non-numeric or
    non-finite rows; that scan is ingestion metadata, not an audited pass.
    """
    d = None
    n = 0
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            row_number = 0
            for raw in fh:
                row_number += 1
                line = raw.strip()
                if row_number == 1 and header:
                    continue
                if not line:
                    continue
                values = _parse_row(line, row_number, d)
                # a finite sum proves every cell finite; an overflowing one
                # falls back to the exact per-cell check
                if not (math.isfinite(sum(values))
                        or all(map(math.isfinite, values))):
                    raise FormatError(f"row {row_number}: non-finite cell")
                if d is None:
                    d = len(values)
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
