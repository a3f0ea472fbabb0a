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

The pass draws from q with the empty pivot, whose distance weight is the
plain norm power ||x||^p. It takes the stream `_BLOCK_ROWS` rows at a
time, stacked into one array, and weighs each block in one
`_norm_weights` call. The store has room for twice the slots, and until
it fills the banks defer: every row is kept, a block's rows by slice
copies, and only adds to the totals. When the store fills, at the row
where it does, or the pass ends first, each bank settles its prefix in
one draw, its slots i.i.d. over the kept rows in proportion to their
weights, and then draws its skip limit. After rows 1..r, thinning leaves
the slots i.i.d. with P(row i) = w_i / W_r, and whether a later row
writes depends only on W_r and the slot count, so the settled bank has
the thinning law exactly. After the settle the store keeps only the rows
a bank writes, one at a time. A pass over no more rows than twice the
slots crosses no limit.

Squared-length (norm-power) sampling is the same pass with no uniform
slots: `_draw_banks` serves both. `MixtureWeights` gives the exact q, for
any pivot, that the oracles check the pass against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ParameterError
from .geometry import SubsetBasis, check_p
from .stream import _BLOCK_ROWS

# Sum tolerance for an explicit probability vector over the dataset.
_MASS_TOL = 1e-12


def open_unit(rng, size=None):
    """Uniform variates on the open interval (0,1), never exactly 0 or 1."""
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


@dataclass(frozen=True)
class MixtureWeights:
    """The exact proposal distribution q over a dataset, for a fixed pivot subset.

    pivot=None means the empty pivot, the form the shipped algorithm uses:
    the distance weight degenerates to the plain norm ||x||^p. The pass
    itself weighs rows with `_norm_weights`; this class gives the exact q
    that the oracles check it against, and the floor `ProposalPool`
    checks recorded masses with.
    """

    p: float
    pivot: object = None  # SubsetBasis or None

    def __post_init__(self):
        check_p(self.p)

    def masses(self, X):
        """Exact q as a vector over X; requires the pivot not to span X.

        Raises InputError naming the row at which the weight total overflows.
        """
        pivot = SubsetBasis.empty(X.d) if self.pivot is None else self.pivot
        w, total = _distance_weights(pivot, X.points, self.p)
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
    def size(self):
        return len(self.qmass)


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

    `_draw_banks` defers its banks: their limit is inf, so rows only add
    to W, until the row store settles them (see `_RowStore.settle`).
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
    holds up to twice the slots of the banks that share it. While it is
    `deferred` it keeps every row, a block at a time by `keep_block`, and
    the banks' limits are inf; when it fills, or at `finish` if it never
    does, it settles the banks over the rows it kept. After that `keep`
    keeps the rows a bank writes, one at a time, and when the store
    fills, rows no slot holds any more are dropped and the slots
    renumbered; `finish` does the same once more at the end of the pass.
    """

    def __init__(self, slots):
        self.size = 0
        self.rows = None
        self.index = np.empty(2 * slots, dtype=np.intp)
        self.weight = np.empty(2 * slots)
        self.deferred = slots > 0

    @property
    def room(self):
        return len(self.index) - self.size

    def keep_block(self, first, block, weights, banks):
        """Keep the rows of `block`, at stream positions from `first`, while deferred.

        The block must fit in the `room` left; the banks settle when it
        fills the store.
        """
        if self.rows is None:
            self.rows = np.empty((len(self.index), block.shape[1]))
        end = self.size + len(block)
        self.rows[self.size:end] = block
        self.index[self.size:end] = np.arange(first, first + len(block))
        self.weight[self.size:end] = weights
        self.size = end
        if not self.room:
            self.settle(*banks)
            self._drop_unheld(banks)

    def keep(self, index, point, weight, banks):
        """Keep one row a settled bank wrote."""
        self.rows[self.size] = point
        self.index[self.size] = index
        self.weight[self.size] = weight
        self.size += 1
        if not self.room:
            self._drop_unheld(banks)

    def _drop_unheld(self, banks):
        live = self._compact(banks)
        self.rows[:self.size] = self.rows[live]
        self.index[:self.size] = self.index[live]
        self.weight[:self.size] = self.weight[live]

    def finish(self, banks):
        """(rows, stream positions, weights) of the rows the slots hold, once each.

        The slots of `banks` are renumbered into the returned arrays.
        """
        if self.deferred:
            self.settle(*banks)
        live = self._compact(banks)
        return self.rows[live], self.index[live], self.weight[live]

    def settle(self, weighted, uniform):
        """Draw the deferred banks' slots over every row kept so far, then their limits.

        The weighted bank's slots are i.i.d. in proportion to the kept
        positive weights, drawn as multinomial counts in a random order;
        the uniform bank's are i.i.d. uniform over the kept rows. A bank
        whose total is still 0 holds no row and keeps limit 0, so its
        first positive row fills every slot.
        """
        self.deferred = False
        for bank in (weighted, uniform):
            slots = len(bank.win)
            if not slots:
                continue  # limit inf: the bank never writes
            if bank.total <= 0.0:
                bank.limit = 0.0
                continue
            rng = bank.rng
            if bank is uniform:
                bank.win = rng.integers(self.size, size=slots, dtype=np.intp)
            else:
                # NaN and weights <= 0 added nothing to the total: never drawn
                w = self.weight[:self.size]
                w = np.where(w > 0.0, w, 0.0)
                w /= w.max()  # a sum of weights near the float range stays finite
                counts = rng.multinomial(slots, w / w.sum())
                bank.win = np.repeat(np.arange(self.size, dtype=np.intp), counts)
                rng.shuffle(bank.win)
            bank.limit = bank.total * (1.0 - rng.random()) ** (-1.0 / slots)

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


def _distance_weights(basis, rows, p):
    """(weights, total): d(x, span basis)^p for each row, as one vector, and its sum.

    The power is taken in place. Raises the `_overflow` InputError naming
    the row at which the total overflows.
    """
    with np.errstate(over="ignore"):  # an overflowing weight is raised below
        weights = basis.distances(rows)
        weights **= p
    return weights, _weight_total(weights)


def _norm_weights(block, p):
    """||x||^p of each row of a (b, d) float64 block, as floats; inf if it overflows.

    Bit for bit `float(np.linalg.norm(x)) ** p`: the stacked matmul takes
    each row's squared norm with the same dot product as `x.dot(x)`,
    where einsum and a sum of squares round differently, and the root and
    the power are taken per row in Python floats, where numpy's vectorised
    ones differ in the last bit.
    """
    with np.errstate(over="ignore"):  # as x.dot(x), an overflow gives inf
        squares = np.matmul(block[:, None, :], block[:, :, None]).ravel().tolist()
    weights = []
    for s in squares:
        try:
            weights.append(math.sqrt(s) ** p)
        except OverflowError:  # float ** raises where numpy gives inf
            weights.append(math.inf)
    return weights


def _draw_banks(stream, block_weights, weighted_slots, uniform_slots, rng):
    """One pass feeding every row to a weighted and a uniform reservoir bank.

    The weighted bank's slots become i.i.d. draws with P(x) proportional
    to x's weight, the uniform bank's i.i.d. uniform draws; both share one
    row store. `block_weights` maps a (b, d) float64 block of rows to one
    weight per row: the pool and squared-length pass `_norm_weights`,
    and the tests pass others to check the reservoir law. Returns (rows, stream positions, weights, weighted,
    uniform): each row some slot drew once, with its position and weight,
    and the two banks, whose `win` index into rows and whose totals are
    the weight total and n (each row adds 1.0 to the uniform bank). A bank
    with no slots never writes or draws a variate. Raises InputError for
    an empty stream, when no row has positive weight, naming the row
    at which the weight total overflows, and naming the block whose rows
    do not all have the first row's length (ValueError when the rows of
    one block differ among themselves).

    The pass pulls `_BLOCK_ROWS` rows at a time and weighs them in one
    call, but every row still goes through `_kernels.update_bank` once per
    bank, in stream order, after its overflow check. The banks start
    deferred, with limit inf: the store keeps every row, a block's rows
    in one slice copy, until it fills or the pass ends, then settles both
    banks over those rows in one draw (see `_RowStore.settle`); rows after
    that are thinned one at a time, and only the rows a bank writes are
    kept.
    """
    weighted = _ReservoirBank(weighted_slots, rng)
    uniform = _ReservoirBank(uniform_slots, rng)
    banks = (weighted, uniform)
    store = _RowStore(weighted_slots + uniform_slots)
    weighted.limit = uniform.limit = math.inf  # deferred until the store settles them
    index = 0  # stream position of the block's first row
    width = None  # the first row's length, which every row must have
    with np.errstate(over="ignore"):  # an overflowing weight is raised below
        while rows := list(itertools.islice(stream, _BLOCK_ROWS)):
            block = np.array(rows, dtype=np.float64)  # ragged rows raise ValueError
            width = block.shape[-1] if width is None else width
            if block.shape != (len(rows), width):
                raise InputError(f"data rows {index + 1}-{index + len(rows)}: a row "
                                 f"does not have the first row's {width} values")
            weights = np.asarray(block_weights(block), dtype=np.float64)
            listed = weights.tolist()
            # the deferred head: the banks only add to their totals, and
            # the store keeps every row, settling if these rows fill it
            head = min(len(rows), store.room) if store.deferred else 0
            for j in range(head):
                w = listed[j]
                if weighted.total + w == math.inf:
                    raise _overflow(index + j, w)
                _kernels.update_bank(weighted, w, store.size + j)
                _kernels.update_bank(uniform, 1.0, store.size + j)
            if head:
                store.keep_block(index, block[:head], weights[:head], banks)
            for j in range(head, len(rows)):
                w = listed[j]
                if weighted.total + w == math.inf:
                    raise _overflow(index + j, w)
                # both banks see the row; it is kept if either takes a slot
                taken = _kernels.update_bank(weighted, w, store.size)
                taken += _kernels.update_bank(uniform, 1.0, store.size)
                if taken:
                    store.keep(index + j, block[j], w, banks)
            index += len(rows)
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
    check_p(p)
    if pool_size < 1:
        raise ParameterError(f"pool_size must be >= 1, got {pool_size}")
    take_weighted = rng.random(pool_size) < 0.5
    slots = int(np.count_nonzero(take_weighted))
    rows, row_index, row_w, weighted, uniform = _draw_banks(
        stream, lambda block: _norm_weights(block, p), slots, pool_size - slots, rng)
    row_of = np.empty(pool_size, dtype=np.intp)
    # by position: assigning through a random boolean mask is several times slower
    row_of[np.flatnonzero(take_weighted)] = weighted.win
    row_of[np.flatnonzero(~take_weighted)] = uniform.win
    n = int(uniform.total)
    # the store keeps each row's distance weight, whichever bank drew it
    qmass = (0.5 * row_w / weighted.total + 0.5 / n)[row_of]
    return ProposalPool(rows=rows, row_of=row_of, indices=row_index[row_of],
                        qmass=qmass, stream_length=n)
