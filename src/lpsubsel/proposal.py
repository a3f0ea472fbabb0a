"""One-pass construction of i.i.d. draws from the mixture proposal
distribution q(x) = 0.5 * d(x, span pivot)^p / err_p(X, pivot) + 0.5/n.

Each pool slot flips a fair coin before the pass that assigns it to one
of two banks of single-slot weighted reservoirs, one keyed by the
distance weight and one uniform; both banks run over one shared pass.
Sequential with-replacement sampling (Chao 1982) replaces each slot with
probability w/W as row weights w arrive, W being the running weight
total. The banks reach that law a store-full of rows at a time, by one
merge rule (`_RowStore._merge`), between blocks. q is bounded below by
1/(2n), the floor the walk's mixing analysis relies on.

A slot holds a position in a row store rather than a row. The store
keeps every row, a block at a time, in arrays that grow by doubling up
to its room; before a block that would not fit in the room, and once
more when the pass ends, the banks merge the rows kept since their last
merge and the store drops the rows no slot holds. So the finished pool
keeps each drawn row once, with its stream position and q-mass: at most
min(n, pool size) rows, however many slots draw the same row. Per slot
it keeps only the row's position among them, `ProposalPool.row_of`, the
one path to a slot's row, stream position and q-mass.

The pass draws from q with the empty pivot, whose distance weight is the
plain norm power ||x||^p. It takes a source's checked rows (`as_source`)
`_BLOCK_ROWS` at a time, stacked into one array, and weighs each block
in one `_norm_weights` call, the exact q's weights bit for bit.

Squared-length (norm-power) sampling is the same pass with no uniform
slots: `_draw_banks` serves both. `MixtureWeights` gives the exact q, for
any pivot, that the oracles check the pass against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, ParameterError, readable
from .geometry import SubsetBasis, check_p, row_norms
from .stream import _BLOCK_ROWS, as_source

# Slack on the range [1/(2n), 1] a pool checks its recorded q-masses against.
_MASS_TOL = 1e-12


def open_unit(rng, size=None):
    """Uniform variates on the open interval (0,1), never exactly 0 or 1."""
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


@dataclass(frozen=True)
class MixtureWeights:
    """The exact proposal distribution q over a dataset, for a fixed pivot subset.

    pivot=None means the empty pivot, the form the shipped algorithm uses:
    the distance weight degenerates to the plain norm ||x||^p, the weight
    the pass gives each row bit for bit (`_norm_weights`). This class gives
    the exact q that the oracles check the pass against.
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
        return 0.5 * w / total + 0.5 / X.n


@dataclass(frozen=True)
class ProposalPool:
    """Finalized i.i.d. draws from q, in slot order, holding each drawn row once.

    `rows` holds every row some slot drew, once each, so at most
    min(n, size) of them, with each row's position in the stream
    (`row_index`) and its q-mass (`row_qmass`, computed at pass end from
    the accumulated weight total and n); slot j drew `rows[row_of[j]]`,
    and every per-slot value is read through `row_of` the same way.
    Every q-mass must lie in [1/(2n), 1]: q's uniform component alone is
    1/(2n).
    """

    rows: np.ndarray            # (held, d), each drawn row once
    row_of: np.ndarray          # (size,) position in rows
    row_index: np.ndarray       # (held,) stream positions
    row_qmass: np.ndarray       # (held,)
    stream_length: int

    def __post_init__(self):
        # every slot's q-mass is one of the held rows'
        lo = 0.5 / self.stream_length
        q = self.row_qmass
        if q.size and not ((q >= lo - _MASS_TOL) & (q <= 1.0 + _MASS_TOL)).all():
            raise InputError("recorded q-mass outside [1/(2n), 1]")

    @property
    def size(self):
        return len(self.row_of)


class _ReservoirBank:
    """A bank of independent single-slot weighted reservoirs.

    `_kernels.update_bank` adds each row's positive weight to the running
    total W, and `_RowStore._merge` draws the slots. After the pass each
    slot holds a row drawn with probability proportional to its weight,
    independently of the other slots: i.i.d. draws with replacement from
    one shared pass. A slot records the row's position in the
    `_RowStore`, not the row itself. A bank with no slots still keeps W.
    """

    __slots__ = ("total", "merged", "win")

    def __init__(self, slots):
        self.total = 0.0  # running weight total W
        self.merged = 0.0  # W at the last merge
        self.win = np.full(slots, -1, dtype=np.intp)


def _store_rows(slots):
    """Rows a row store for `slots` slots has room for: besides the rows
    the slots hold, at least 8 blocks. A merge leaves at most `slots` rows,
    so a block always fits after one, and the banks merge at most once
    every 8 * `_BLOCK_ROWS` rows however few slots they have. The room
    decides when the banks merge; the store's arrays grow up to it as
    rows arrive (`_RowStore`)."""
    return slots + max(slots, 8 * _BLOCK_ROWS)


# Rows a row store first allocates, unless its room is smaller.
_FIRST_ROWS = 16 * _BLOCK_ROWS


class _RowStore:
    """Every row since the banks' last merge, and the rows their slots hold,
    with stream positions and weights.

    It has room for `_store_rows` rows. Before a block that would not fit
    in the room, and at `finish`, the banks merge the rows kept since
    their last merge (`_merge`), and the rows no slot holds are dropped and
    the slots renumbered. Its arrays start at `_FIRST_ROWS` rows, or the
    room if that is smaller, and double, up to the room, when a block fits
    in the room but not in them.
    """

    def __init__(self, weighted, uniform, rng):
        self.banks = (weighted, uniform)
        self.rng = rng
        self.size = 0
        self.unmerged = 0  # store position of the first row kept since the last merge
        self.room = _store_rows(len(weighted.win) + len(uniform.win))
        self.rows = None
        rows = min(self.room, _FIRST_ROWS)
        self.index = np.empty(rows, dtype=np.intp)
        self.weight = np.empty(rows)

    def keep_block(self, first, block, weights):
        """Keep the rows of `block`, at stream positions from `first`; when
        they would not fit in the room, the banks merge first, and when
        they fit in the room but not in the arrays, the arrays grow."""
        if self.rows is None:
            self.rows = np.empty((len(self.index), block.shape[1]))
        if self.size + len(block) > self.room:
            live = self._merge()
            self.rows[:self.size] = self.rows[live]
            self.index[:self.size] = self.index[live]
            self.weight[:self.size] = self.weight[live]
        end = self.size + len(block)
        if end > len(self.index):
            # a block has at most _BLOCK_ROWS rows, so doubling makes room
            rows = min(self.room, 2 * len(self.index))
            grown = np.empty((rows, block.shape[1])), np.empty(rows, dtype=np.intp), np.empty(rows)
            for new, old in zip(grown, (self.rows, self.index, self.weight)):
                new[:self.size] = old[:self.size]
            self.rows, self.index, self.weight = grown
        self.rows[self.size:end] = block
        self.index[self.size:end] = np.arange(first, first + len(block))
        self.weight[self.size:end] = weights
        self.size = end

    def finish(self):
        """(rows, stream positions, weights) of the rows the slots hold, once each,
        after the last merge.

        The banks' slots are renumbered into the returned arrays.
        """
        live = self._merge()
        return self.rows[live], self.index[live], self.weight[live]

    def _merge(self):
        """Merge the rows kept since the banks' last merge into their slots,
        and renumber the slots over the rows they hold; returns those rows'
        store positions.

        Let W_a be a bank's total at its last merge and W_b its total now.
        Each slot is replaced independently, with probability
        (W_b - W_a) / W_b, by a row drawn from the rows kept since the
        last merge: in proportion to their weights for the weighted bank,
        uniformly for the uniform bank. This is thinning over rows
        a+1..b in one step: thinning leaves a slot alone over them with
        probability prod W_{i-1} / W_i = W_a / W_b, and row j is the
        slot's last write with probability (w_j / W_j)(W_j / W_b) =
        w_j / W_b. So the slots stay i.i.d. with P(row j) = w_j / W_b over
        every row so far, however the pass splits into merges.

        At the first merge W_a = 0: every slot is replaced, and no mask
        variate is drawn. The weighted bank draws multinomial counts in a
        random order, the uniform bank `integers`. A bank whose total has
        not grown keeps its slots, so one whose total is still 0 holds no
        row.
        """
        rng, new, uniform = self.rng, slice(self.unmerged, self.size), self.banks[1]
        for bank in self.banks:
            slots = len(bank.win)
            gained = bank.total - bank.merged
            if gained <= 0.0:
                continue
            if bank.merged:
                replaced = np.flatnonzero(rng.random(slots) < gained / bank.total)
                count = len(replaced)
            else:
                replaced, count = slice(None), slots
            bank.merged = bank.total
            if not count:
                continue
            if bank is uniform:
                drawn = rng.integers(new.start, new.stop, size=count, dtype=np.intp)
            else:
                # NaN and weights <= 0 added nothing to the total: never drawn
                w = self.weight[new]
                w = np.where(w > 0.0, w, 0.0)
                w /= w.max()  # a sum of weights near the float range stays finite
                counts = rng.multinomial(count, w / w.sum())
                drawn = np.repeat(np.arange(new.start, new.stop, dtype=np.intp), counts)
                rng.shuffle(drawn)
            bank.win[replaced] = drawn
        # a bank that has seen no positive weight holds no row yet
        filled = [bank for bank in self.banks if bank.total > 0.0]
        held = np.zeros(self.size, dtype=bool)
        for bank in filled:
            held[bank.win] = True
        renumber = np.cumsum(held) - 1
        for bank in filled:
            bank.win = renumber[bank.win]
        live = np.flatnonzero(held)
        self.size = self.unmerged = len(live)
        return live


def _running_total(total, weights, first=0):
    """`total` plus `weights` as a bank adds them, in order, NaN and weights
    <= 0 adding nothing: the one weight total, and its one overflow rule.

    Raises InputError naming the row (the first at 0-based stream position
    `first`) whose weight takes the total to inf. The running sum takes one
    transient copy of `weights`.
    """
    running = np.fmax(weights, 0.0)  # NaN and weights <= 0 add nothing
    with np.errstate(over="ignore"):
        running[0] += total  # the bank's first addition, then its others in order
        np.cumsum(running, out=running)
    if running[-1] == math.inf:
        row = int(np.argmax(running == math.inf))
        w = float(weights[row])
        cause = ("its weight overflows to inf" if w == math.inf
                 else f"its weight {w:.6g} makes the running weight total overflow")
        raise InputError(f"data row {first + row + 1}: {cause}; rescale the data or lower p")
    return float(running[-1])


def _distance_weights(basis, rows, p):
    """(weights, total): d(x, span basis)^p for each row, as one vector, and
    their `_running_total`.

    The power is taken in place. The total adds the weights in order, as
    the pass's banks do, so a pool's q-masses equal the exact q's bit for
    bit. Raises the `_running_total` InputError naming the row at which
    the total overflows.
    """
    with np.errstate(over="ignore"):  # an overflowing weight is raised below
        weights = basis.distances(rows)
        weights **= p
    return weights, _running_total(0.0, weights)


def _norm_weights(block, p):
    """||x||^p of each row of a (b, d) float64 block; inf where it overflows.

    Bit for bit `_distance_weights` with the empty basis, as the exact q
    weighs the whole array. It calls `row_norms`, not `SubsetBasis.distances`,
    whose calls the benchmark's tracer counts as walk and evaluation work.
    """
    with np.errstate(over="ignore"):  # an overflowing weight is raised by the pass
        weights = row_norms(block)
        weights **= p
    return weights


def _draw_banks(stream, block_weights, weighted_slots, uniform_slots, rng):
    """One pass feeding every row to a weighted and a uniform reservoir bank.

    The weighted bank's slots become i.i.d. draws with P(x) proportional
    to x's weight, the uniform bank's i.i.d. uniform draws; both share one
    row store. `stream` yields a source's checked rows; `block_weights`
    maps a (b, d) float64 block of them to one weight per row: the pool
    and squared-length pass `_norm_weights`, and the tests pass others to
    check the reservoir law. Returns (rows, stream positions, weights,
    weighted, uniform): each row some slot drew once, with its position
    and weight, and the two banks, whose `win` index into rows and whose
    totals are the weight total and n. A bank with no slots never draws a
    variate. Raises InputError when no row has positive weight, or naming
    the row at which the weight total overflows (`_running_total`, the
    exact q's rule). A NaN weight adds nothing.

    The pass weighs `_BLOCK_ROWS` rows at a time, in one call each, and
    the store keeps a block's rows in one slice copy; then every row of
    the block goes through `_kernels.update_bank` once per bank, in
    stream order. So when the store merges before a block, the banks'
    totals count exactly the rows it kept.
    """
    weighted = _ReservoirBank(weighted_slots)
    uniform = _ReservoirBank(uniform_slots)
    store = _RowStore(weighted, uniform, rng)
    index = 0  # stream position of the block's first row
    while rows := list(itertools.islice(stream, _BLOCK_ROWS)):
        block = np.array(rows, dtype=np.float64)
        weights = np.asarray(block_weights(block), dtype=np.float64)
        _running_total(weighted.total, weights, index)
        store.keep_block(index, block, weights)
        for w in weights.tolist():
            _kernels.update_bank(weighted, w)
            _kernels.update_bank(uniform, 1.0)
        index += len(rows)
    if weighted.total <= 0.0:
        raise InputError("all distance weights are zero; nothing can be drawn")
    return (*store.finish(), weighted, uniform)


def draw_mixture_pool(data, p, pool_size, rng):
    """Build a ProposalPool of `pool_size` i.i.d. draws from q in one pass
    over `data` (`as_source`).

    Each slot first flips a fair coin that assigns it to the distance-weight
    bank or to the uniform bank; both banks then run over the same stream,
    so between them they hold `pool_size` slots. q-masses are attached
    after the pass from the distance-weight total and n. The pool keeps
    each drawn row once (see `ProposalPool`). Raises InputError for a
    malformed array, before any pass, or naming the row at which the
    distance-weight total overflows.
    """
    check_p(p)
    if pool_size < 1:
        raise ParameterError(f"pool_size must be >= 1, got {readable(pool_size)}")
    take_weighted = rng.random(pool_size) < 0.5
    slots = int(np.count_nonzero(take_weighted))
    rows, row_index, row_w, weighted, uniform = _draw_banks(
        as_source(data).iterate_once("selection"), lambda block: _norm_weights(block, p),
        slots, pool_size - slots, rng)
    row_of = np.empty(pool_size, dtype=np.intp)
    # by position: assigning through a random boolean mask is several times slower
    row_of[np.flatnonzero(take_weighted)] = weighted.win
    row_of[np.flatnonzero(~take_weighted)] = uniform.win
    n = int(uniform.total)
    # the store keeps each row's distance weight, whichever bank drew it
    row_qmass = 0.5 * row_w / weighted.total + 0.5 / n
    return ProposalPool(rows=rows, row_of=row_of, row_index=row_index,
                        row_qmass=row_qmass, stream_length=n)
