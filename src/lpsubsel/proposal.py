"""One-pass construction of i.i.d. draws from the mixture proposal
distribution q(x) = 0.5 * d(x, span pivot)^p / err_p(X, pivot) + 0.5/n.

Each pool slot flips a fair coin before the pass that assigns it to one
of two banks of single-slot weighted reservoirs, one keyed by the
distance weight and one uniform; both banks run over one shared pass.
A bank replaces each slot with probability w/W as row weights w arrive,
W being the running weight total (sequential with-replacement sampling,
Chao 1982). It does so in skip-ahead form: after each write it draws the
total up to which no row writes anything, so a row costs one add and one
compare until a row crosses that limit, and only that row draws random
numbers (see `_kernels`). q is bounded below by 1/(2n), the floor the
walk's mixing analysis relies on.

A slot holds a position in a row store rather than a row, and the pass
ends by dropping the rows no slot holds, so the finished pool keeps each
drawn row once: at most min(n, pool size) rows, however many slots draw
the same row.

Squared-length (norm-power) sampling is the same pass with no uniform
slots: `_draw_banks` serves both.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ParameterError

# Sum tolerance for an explicit probability vector over the dataset.
_MASS_TOL = 1e-12


def open_unit(rng, size=None):
    """Uniform variates on the open interval (0,1), never exactly 0 or 1."""
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


@dataclass(frozen=True)
class MixtureWeights:
    """The proposal distribution q over a dataset, for a fixed pivot subset.

    pivot=None means the empty pivot, the form the shipped algorithm uses:
    the distance weight degenerates to the plain norm ||x||^p.
    """

    p: float
    pivot: object = None  # SubsetBasis or None

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise InputError(f"p must be a finite real >= 1, got {self.p}")

    def raw_weight(self, x):
        """The unnormalized distance weight d(x, span pivot)^p; inf if it overflows."""
        if self.pivot is None:
            # np.linalg.norm's own formula for a 1-D real vector, without its overhead
            distance = math.sqrt(float(x.dot(x)))
        else:
            distance = self.pivot.distance(x)
        try:
            return distance ** self.p
        except OverflowError:  # float ** raises where numpy gives inf
            return math.inf

    def masses(self, X):
        """Exact q as a vector over X; requires the pivot not to span X.

        Raises InputError naming the row at which the weight total overflows.
        """
        with np.errstate(over="ignore"):  # an overflowing weight is raised below
            if self.pivot is None:
                w = np.linalg.norm(X.points, axis=1) ** self.p
            else:
                w = self.pivot.distances(X.points) ** self.p
        total = _weight_total(w)
        if total <= 0.0:
            raise InputError("pivot spans the dataset; the mixture is undefined")
        q = 0.5 * w / total + 0.5 / X.n
        if not abs(q.sum() - 1.0) <= 100 * _MASS_TOL * X.n:
            raise InputError(f"masses sum to {q.sum()!r}, not 1")
        return q

    @staticmethod
    def floor(n):
        """Guaranteed lower bound on q(x): the uniform component alone."""
        return 0.5 / n


@dataclass(frozen=True)
class ProposalPool:
    """Finalized i.i.d. draws from q, in slot order, holding each drawn row once.

    `rows` holds every row some slot drew, once each, so at most
    min(n, size) of them; slot j drew `rows[row_of[j]]`. Each slot also
    records its row's position in the stream and its q-mass (computed at
    pass end from the accumulated weight total and n).
    """

    rows: np.ndarray            # (distinct, d), each drawn row once
    row_of: np.ndarray          # (size,) position in rows
    indices: np.ndarray         # (size,) stream positions
    qmass: np.ndarray           # (size,)
    stream_length: int

    def __post_init__(self):
        lo = MixtureWeights.floor(self.stream_length)
        if self.qmass.size and not ((self.qmass >= lo - _MASS_TOL) & (self.qmass <= 1.0 + _MASS_TOL)).all():
            raise InputError("recorded q-mass outside [1/(2n), 1]")

    @property
    def points(self):
        """The drawn point of every slot, (size, d): a gathered copy."""
        return self.rows[self.row_of]

    @property
    def size(self):
        return len(self.qmass)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        return self.rows[self.row_of[i]], int(self.indices[i]), float(self.qmass[i])


class _ReservoirBank:
    """A bank of independent single-slot weighted reservoirs.

    Every streamed row goes through `_kernels.update_bank`, which keeps
    the running weight total W and replaces each slot independently with
    probability w/W (Chao 1982). After the pass each slot holds a row
    drawn with probability proportional to its weight, independently of
    the other slots: i.i.d. draws with replacement from one shared pass.
    The first row of positive weight fills every slot. A slot records
    the row's position in a `_RowStore`, not the row itself.

    The kernel skips ahead: after a write at total W it sets the skip
    limit L = W * U^(-1/s) for s slots and U uniform on (0, 1], and rows
    write nothing while the total stays <= L. Under thinning, rows after
    that write leave all s slots alone up to total W' with probability
    (W/W')^s = P(L >= W'), so the limit has the thinning law exactly.
    A bank with no slots never crosses its limit but still keeps W.
    """

    __slots__ = ("total", "limit", "win", "rng", "uniforms")

    def __init__(self, slots, rng):
        self.total = 0.0  # running weight total W
        self.limit = 0.0 if slots else math.inf  # skip limit L
        self.win = np.full(slots, -1, dtype=np.intp)
        self.rng = rng
        self.uniforms = []  # unused variates on (0, 1], drawn in blocks


class _RowStore:
    """The rows some reservoir slot holds, with stream positions and weights.

    A replacement then writes one integer rather than a row. The store
    holds up to twice the slots of the banks that share it; when it fills,
    rows no slot holds any more are dropped and the slots renumbered, and
    `finish` does the same once more at the end of the pass.
    """

    def __init__(self, slots):
        self.size = 0
        self.rows = None
        self.index = np.empty(2 * slots, dtype=np.intp)
        self.weight = np.empty(2 * slots)

    def keep(self, index, point, weight, banks):
        if self.rows is None:
            self.rows = np.empty((len(self.index), point.shape[0]))
        self.rows[self.size] = point
        self.index[self.size] = index
        self.weight[self.size] = weight
        self.size += 1
        if self.size == len(self.index):
            live = self._compact(banks)
            self.rows[:self.size] = self.rows[live]
            self.index[:self.size] = self.index[live]
            self.weight[:self.size] = self.weight[live]

    def finish(self, banks):
        """(rows, stream positions, weights) of the rows the slots hold, once each.

        The slots of `banks` are renumbered into the returned arrays.
        """
        live = self._compact(banks)
        return self.rows[live], self.index[live], self.weight[live]

    def _compact(self, banks):
        """Renumber the slots of `banks` over the rows they hold; returns those rows' positions."""
        # a bank that has seen no positive weight holds no row yet
        filled = [bank for bank in banks if bank.total > 0.0]
        held = np.zeros(self.size, dtype=bool)
        for bank in filled:
            held[bank.win] = True
        renumber = np.cumsum(held) - 1
        for bank in filled:
            bank.win = renumber[bank.win]
        live = np.flatnonzero(held)
        self.size = len(live)
        return live


def _overflow(index, weight):
    """InputError for the row whose weight makes the running total infinite.

    `index` is the row's 0-based stream position; the message names it
    1-based among the data rows.
    """
    if weight == math.inf:
        cause = "its weight overflows to inf"
    else:
        cause = f"its weight {weight:.6g} makes the running weight total overflow"
    return InputError(f"data row {index + 1}: {cause}; rescale the data or lower p")


def _weight_total(weights):
    """The sum of a weight vector, one weight per data row.

    Raises the `_overflow` InputError naming the first row at which the
    running total overflows.
    """
    with np.errstate(over="ignore"):
        total = float(weights.sum())
        if total == math.inf:
            running = np.cumsum(weights)
            # the pairwise sum can overflow where the running one just does not
            row = int(np.argmax(running == math.inf)) if running[-1] == math.inf else len(weights) - 1
            raise _overflow(row, float(weights[row]))
    return total


def _draw_banks(stream, weight_fn, weighted_slots, uniform_slots, rng):
    """One pass feeding every row to a weighted and a uniform reservoir bank.

    The weighted bank's slots become i.i.d. draws with P(x) proportional
    to weight_fn(x), the uniform bank's i.i.d. uniform draws; both share
    one row store. Returns (rows, stream positions, weights, weighted,
    uniform): each row some slot drew once, with its position and weight,
    and the two banks, whose `win` index into rows and whose totals are
    the weight total and n (each row adds 1.0 to the uniform bank). A bank
    with no slots never writes or draws a variate. Raises InputError for
    an empty stream, when no row has positive weight, and naming the row
    at which the weight total overflows.
    """
    weighted = _ReservoirBank(weighted_slots, rng)
    uniform = _ReservoirBank(uniform_slots, rng)
    banks = (weighted, uniform)
    store = _RowStore(weighted_slots + uniform_slots)
    with np.errstate(over="ignore"):  # an overflowing weight is raised below
        for index, point in enumerate(stream):
            point = np.ascontiguousarray(point, dtype=np.float64)
            w = float(weight_fn(point))
            if weighted.total + w == math.inf:
                raise _overflow(index, w)
            # both banks see the row; it is kept if either takes a slot
            taken = _kernels.update_bank(weighted, w, store.size)
            taken += _kernels.update_bank(uniform, 1.0, store.size)
            if taken:
                store.keep(index, point, w, banks)
    if uniform.total == 0.0:
        raise InputError("empty stream")
    if weighted.total <= 0.0:
        raise InputError("all distance weights are zero; nothing can be drawn")
    return (*store.finish(banks), weighted, uniform)


def draw_mixture_pool(stream, p, pool_size, rng):
    """Build a ProposalPool of `pool_size` i.i.d. draws from q in one pass.

    Each slot first flips a fair coin that assigns it to the distance-weight
    bank or to the uniform bank; both banks then run over the same stream,
    so between them they hold `pool_size` slots. q-masses are attached
    after the pass from the distance-weight total and n. The pool keeps
    each drawn row once (see `ProposalPool`). Raises InputError naming the
    row at which the distance-weight total overflows.
    """
    weight_fn = MixtureWeights(p=p).raw_weight
    if pool_size < 1:
        raise ParameterError(f"pool_size must be >= 1, got {pool_size}")
    take_weighted = rng.random(pool_size) < 0.5
    slots = int(np.count_nonzero(take_weighted))
    rows, row_index, row_w, weighted, uniform = _draw_banks(
        stream, weight_fn, slots, pool_size - slots, rng)
    row_of = np.empty(pool_size, dtype=np.intp)
    row_of[take_weighted] = weighted.win
    row_of[~take_weighted] = uniform.win
    n = int(uniform.total)
    # the store keeps each row's distance weight, whichever bank drew it
    qmass = (0.5 * row_w / weighted.total + 0.5 / n)[row_of]
    return ProposalPool(rows=rows, row_of=row_of, indices=row_index[row_of],
                        qmass=qmass, stream_length=n)
