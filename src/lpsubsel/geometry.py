"""Exact numeric kernel: point sets, incrementally grown orthonormal bases,
and the l_p error functional sum_x d(x, span)^p.

Each primitive has one path. A span grows by `SubsetBasis.extended_many`,
whose one-row case is `extended`; distances to it, of one row (1-d) or
many, come from `SubsetBasis.distances`; `err_p` sums their p-th powers.

All arithmetic is float64; p-th powers of distances amplify rounding error,
so 32-bit storage is not supported. Summations use numpy reductions
(pairwise summation), which are deterministic for a fixed operand order.
"""

import math

import numpy as np

from .errors import InputError, ParameterError, readable

# Relative residual below which a point adds no new basis direction.
# Double-precision Gram-Schmidt noise floor with one re-orthogonalization.
RANK_TOLERANCE = 1e-10

# Rows scored at a time by `SubsetBasis.distances` and the evaluation pass:
# the temporaries of one chunk stay a fixed size however many rows come in.
CHUNK_ROWS = 1024

# The least normal float: a residual's squared norm below it is subnormal.
_TINY = np.finfo(np.float64).tiny


def check_p(p):
    """Raise ParameterError unless the exponent p is a finite real >= 1."""
    if not (np.isfinite(p) and p >= 1.0):
        raise ParameterError(f"p must be a finite real >= 1, got {p}")


def row_norms(rows):
    """Each row's Euclidean norm, inf on overflow, summed as `np.linalg.norm`
    sums it, whatever the other rows: the one rank-0 norm, shared by
    `SubsetBasis.distances` and the pool pass."""
    return np.sqrt(np.add.reduce(np.multiply(rows, rows, order="C"), axis=-1))


def _as_matrix(points):
    """The one array check: InputError names the first non-finite point."""
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"points are not an array of numbers: {exc}") from None
    if arr.ndim != 2:
        raise InputError(f"expected a 2-d array of points, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        point = int(np.argmin(np.isfinite(arr).all(axis=1))) + 1
        raise InputError(f"point {point} has a NaN or infinite coordinate")
    return arr


class PointSet:
    """Dense dataset of n points in R^d, one point per row.

    `points` is a read-only view of the backing array, which is the
    caller's own when it is already a C-contiguous float64 array: no copy
    is made, and the caller's array stays writeable. Every coordinate
    must be finite.
    """

    __slots__ = ("points", "n", "d")

    def __init__(self, points):
        arr = np.ascontiguousarray(_as_matrix(points)).view()
        arr.setflags(write=False)
        self.points = arr
        self.n, self.d = arr.shape

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return self.points[i]

    def __repr__(self):
        return f"PointSet(n={self.n}, d={self.d})"


class SubsetBasis:
    """A selected subset of point indices plus an orthonormal basis of its span.

    Immutable: `extended` and `extended_many` return a new value, so a
    basis can be shared freely between concurrent readers. The span of the
    empty subset is {0}, making distance-to-span equal to the plain
    Euclidean norm.
    """

    __slots__ = ("member_indices", "basis", "d")

    def __init__(self, member_indices, basis, d):
        q = np.ascontiguousarray(np.asarray(basis, dtype=np.float64).reshape(-1, d))
        q.setflags(write=False)
        self.member_indices = tuple(int(i) for i in member_indices)
        self.basis = q
        self.d = int(d)

    @classmethod
    def empty(cls, d):
        if d < 1:
            raise InputError(f"ambient dimension must be >= 1, got {readable(d)}")
        return cls((), np.empty((0, d)), d)

    @property
    def rank(self):
        return self.basis.shape[0]

    def __len__(self):
        return len(self.member_indices)

    def distances(self, rows):
        """Euclidean distances from each row, of width d, to span(basis).

        Works for an empty basis too: the projection is zero and the
        distance is the row norm. More than CHUNK_ROWS rows are scored
        CHUNK_ROWS at a time into one n-vector, so the temporaries
        (projection, residual, squares) take CHUNK_ROWS rows, not n. BLAS
        picks its kernel by shape, so a row's distance may differ in the
        last bits from the one a single whole-array product gives.

        A chunk's distances are `np.linalg.norm(rows - (rows @ Q.T) @ Q,
        axis=-1)` bit for bit, in the projection's one buffer.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1:] != (self.d,):
            raise InputError(f"expected rows of dimension {self.d}, got shape {rows.shape}")
        if rows.ndim == 1 or len(rows) <= CHUNK_ROWS:
            return self._residual_norms(rows)
        out = np.empty(len(rows))
        for start in range(0, len(rows), CHUNK_ROWS):
            out[start:start + CHUNK_ROWS] = self._residual_norms(rows[start:start + CHUNK_ROWS])
        return out

    def _residual_norms(self, rows):
        q = self.basis
        if not len(q):
            return row_norms(rows)
        sq = (rows @ q.T) @ q
        np.subtract(rows, sq, out=sq)
        sq *= sq
        return np.sqrt(np.add.reduce(sq, axis=-1))

    def extended(self, index, point):
        """New basis with `point` appended to the member list: one row of
        `extended_many`."""
        return self.extended_many((index,), [point])

    def extended_many(self, indices, points):
        """New basis with `points` appended to the member list, in order.

        Each row in turn gains the basis its normalized residual direction
        only if the residual (after one re-orthogonalization pass of
        modified Gram-Schmidt) exceeds RANK_TOLERANCE relative to the row
        norm, and its squared norm is a normal float: a subnormal one has
        lost the digits that would make the direction unit length. The
        rows share one buffer allocated up front, and every product is the
        one a chain of single-row extensions takes, so the result is the
        same bit for bit, norms included: `np.linalg.norm` of a vector is
        the root of its contiguous copy's dot with itself.
        Every row is checked to be finite before any is added.

        Once the rank reaches d the loop stops: a later row's residual
        against an orthonormal basis of R^d is at rounding level, far below
        RANK_TOLERANCE, so it would add no direction. Its index is still
        appended and the basis is the same, bit for bit.
        """
        rows = np.asarray(points, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.d or len(rows) != len(indices):
            raise InputError(f"expected {len(indices)} vectors of dimension {self.d}, "
                             f"got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise InputError("vector contains NaN or Inf coordinates")
        rank = self.rank
        grown = np.empty((min(rank + len(rows), self.d), self.d))
        grown[:rank] = self.basis
        for v in rows:
            if rank == self.d:
                break
            q = grown[:rank]
            resid = v - q.T @ (q @ v)
            resid = resid - q.T @ (q @ resid)
            flat = v.ravel()  # a strided row's own dot rounds otherwise
            norm_v = math.sqrt(flat.dot(flat))
            square_r = resid.dot(resid)
            norm_r = math.sqrt(square_r)
            if norm_r > RANK_TOLERANCE * norm_v and square_r >= _TINY:
                grown[rank] = resid / norm_r
                rank += 1
        members = self.member_indices + tuple(int(i) for i in indices)
        return SubsetBasis(members, grown[:rank], self.d)

    def __repr__(self):
        return f"SubsetBasis(members={len(self.member_indices)}, rank={self.rank}, d={self.d})"


def err_p(X, basis, p):
    """Sum over the dataset of the p-th power of distance to span(basis)."""
    check_p(p)
    return float(np.sum(basis.distances(X.points) ** p))
