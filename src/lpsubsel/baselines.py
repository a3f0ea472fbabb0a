"""Multi-pass and one-shot baselines the one-pass sampler is compared against."""

from collections import deque

import numpy as np

from .errors import ParameterError
from .geometry import RANK_TOLERANCE, SubsetBasis, check_p
from .proposal import _distance_weights, _draw_banks, _norm_weights
from .stream import as_source


def _span_of_rows(indices, rows, row_of, d):
    """SubsetBasis over all the given draws, duplicates kept in order.

    Draw j is the row `rows[row_of[j]]` at stream position `indices[j]`.
    Equivalent to extending one draw at a time, but the span is grown by
    scanning for the first draw outside it (rank grows at most d times),
    and each scan scores every distinct row once, so large with-replacement
    subsets stay cheap to assemble.
    """
    tracker = SubsetBasis.empty(d)
    norms = np.maximum(np.linalg.norm(rows, axis=1), 1e-300)
    blocked = np.zeros(len(row_of), dtype=bool)
    while tracker.rank < d:
        outside = ~blocked & (tracker.distances(rows) > RANK_TOLERANCE * norms)[row_of]
        candidates = np.flatnonzero(outside)
        if candidates.size == 0:
            break
        j = int(candidates[0])
        grown = tracker.extended(int(indices[j]), rows[row_of[j]])
        if grown.rank == tracker.rank:
            blocked[j] = True  # borderline residual, dependent after re-orthogonalization
            continue
        tracker = grown
    return SubsetBasis(indices, tracker.basis, d)


def _round_weights(basis, rows, p):
    """A round's draw probabilities d(x, span S)^p / total, in one n-vector.

    The power and the normalisation are taken in place, or None once the
    total is zero, where the distribution is undefined. Raises InputError
    naming the row at which the total overflows.
    """
    weights, total = _distance_weights(basis, rows, p)
    if total <= 0.0:
        return None
    weights /= total
    return weights


def _selection_pass(src):
    deque(src.iterate_once("selection"), maxlen=0)


def exact_adaptive_sample(data, p, t, l, rng, auditor=None):
    """Ground-truth adaptive sampling: l rounds, one full pass per round.

    Each round streams the data to compute the exact distribution
    proportional to d(x, span S)^p, then draws t i.i.d. indices from it
    and extends S (duplicates collapse). Terminates early once the error
    hits zero, where the distribution is undefined. Its defining cost is
    l selection passes on the auditor. It scores the source's `rows`: an
    array input in place, a file's as its first pass keeps them (see
    `DatasetSource.keep_rows`), so the file is parsed once and later
    passes check its bytes and replay the kept rows. Besides those rows
    it holds one n-vector of weights and `rng.choice`'s cumulative sum
    of them; `SubsetBasis.distances` keeps its temporaries to CHUNK_ROWS
    rows. Raises InputError naming the row at which a round's weight
    total overflows.
    """
    src = as_source(data, auditor=auditor)
    if t < 1 or l < 0:
        raise ParameterError(f"need t >= 1 and l >= 0, got t={t}, l={l}")
    check_p(p)
    src.keep_rows()
    basis = SubsetBasis.empty(src.d)
    members = set()
    for round_ in range(l):
        if not round_:
            _selection_pass(src)
        # a later round's weights come from the kept rows before its pass,
        # so a run whose error is zero ends without one
        weights = _round_weights(basis, src.rows, p)
        if weights is None:
            break
        if round_:
            _selection_pass(src)
        for i in rng.choice(src.n, size=t, p=weights):
            idx = int(i)
            if idx not in members:
                members.add(idx)
                basis = basis.extended(idx, src.rows[idx])
    return basis


def squared_length_sample(data, p, count, rng, auditor=None):
    """One-shot norm-power sampling: count i.i.d. draws with P(x) ~ ||x||^p.

    p=2 is classical squared-length sampling. One selection pass; the
    returned subset keeps all count draws in order, duplicates included
    (with-replacement semantics), so its rank is at most the number of
    distinct picks. It is the mixture pool's pass with no uniform slots.
    """
    src = as_source(data, auditor=auditor)
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    check_p(p)
    rows, row_index, _, bank, _ = _draw_banks(
        src.iterate_once("selection"), lambda block: _norm_weights(block, p), count, 0, rng)
    return _span_of_rows(row_index[bank.win], rows, bank.win, src.d)
