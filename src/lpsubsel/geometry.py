"""Exact numeric kernel: point sets, incrementally grown orthonormal bases,
and the l_p error functional sum_x d(x, span)^p.

All arithmetic is float64; p-th powers of distances amplify rounding error,
so 32-bit storage is not supported. Summations use numpy reductions
(pairwise summation), which are deterministic for a fixed operand order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

# Relative residual below which a point adds no new basis direction.
# Double-precision Gram-Schmidt noise floor with one re-orthogonalization.
RANK_TOLERANCE = 1e-10

# Rows scored at a time by `SubsetBasis.distances` and the evaluation pass:
# the temporaries of one chunk stay a fixed size however many rows come in.
CHUNK_ROWS = 1024


def check_p(p):
    """Raise ParameterError unless the exponent p is a finite real >= 1."""
    if not (np.isfinite(p) and p >= 1.0):
        raise ParameterError(f"p must be a finite real >= 1, got {p}")


def _as_matrix(points):
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-d array of points, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"need n >= 1 and d >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("points contain NaN or Inf coordinates")
    return arr


def _as_vector(x, d):
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (d,):
        raise InputError(f"expected a vector of dimension {d}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InputError("vector contains NaN or Inf coordinates")
    return v


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

    Immutable: `extended` returns a new value, so a basis can be shared
    freely between concurrent readers. The span of the empty subset is {0},
    making distance-to-span equal to the plain Euclidean norm.
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
            raise InputError(f"ambient dimension must be >= 1, got {d}")
        return cls((), np.empty((0, d)), d)

    @property
    def rank(self):
        return self.basis.shape[0]

    def __len__(self):
        return len(self.member_indices)

    def distances(self, rows):
        """Euclidean distances from each row to span(basis).

        Works for an empty basis too: the projection is zero and the
        distance is the row norm. More than CHUNK_ROWS rows are scored
        CHUNK_ROWS at a time into one n-vector, so the temporaries
        (projection, residual, squares) take CHUNK_ROWS rows, not n. BLAS
        picks its kernel by shape, so a row's distance may differ in the
        last bits from the one a single whole-array product gives.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1 or len(rows) <= CHUNK_ROWS:
            return self._residual_norms(rows)
        out = np.empty(len(rows))
        for start in range(0, len(rows), CHUNK_ROWS):
            out[start:start + CHUNK_ROWS] = self._residual_norms(rows[start:start + CHUNK_ROWS])
        return out

    def _residual_norms(self, rows):
        coeffs = rows @ self.basis.T
        resid = rows - coeffs @ self.basis
        return np.linalg.norm(resid, axis=-1)

    def distance(self, x):
        return float(self.distances(_as_vector(x, self.d)))

    def extended(self, index, point):
        """New basis with `point` appended to the member list.

        The basis gains the point's normalized residual direction only if
        the residual (after one re-orthogonalization pass of modified
        Gram-Schmidt) exceeds RANK_TOLERANCE relative to the point norm.
        """
        v = _as_vector(point, self.d)
        q = self.basis
        resid = v - q.T @ (q @ v)
        resid = resid - q.T @ (q @ resid)
        norm_v = np.linalg.norm(v)
        norm_r = np.linalg.norm(resid)
        members = self.member_indices + (int(index),)
        if norm_r > RANK_TOLERANCE * norm_v and norm_v > 0.0:
            new_q = np.vstack([q, resid / norm_r])
        else:
            new_q = q
        return SubsetBasis(members, new_q, self.d)

    def __repr__(self):
        return f"SubsetBasis(members={len(self.member_indices)}, rank={self.rank}, d={self.d})"


@dataclass(frozen=True)
class ErrParams:
    """Exponent p >= 1 and target subspace dimension k for the error functional."""

    p: float
    k: int

    def __post_init__(self):
        check_p(self.p)
        if self.k < 1:
            raise InputError(f"k must be a positive integer, got {self.k}")

    def check_dimension(self, d):
        if self.k > d:
            raise InputError(f"k={self.k} exceeds ambient dimension d={d}")


def extend_basis(basis, point_index, X):
    """Append X[point_index] to the subset, growing the basis if independent."""
    if not (0 <= point_index < X.n):
        raise InputError(f"point index {point_index} out of range for n={X.n}")
    return basis.extended(point_index, X.points[point_index])


def err_p(X, basis, p):
    """Sum over the dataset of the p-th power of distance to span(basis)."""
    check_p(p)
    return float(np.sum(basis.distances(X.points) ** p))
