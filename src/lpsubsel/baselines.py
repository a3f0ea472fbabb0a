"""Multi-pass and one-shot baselines the one-pass sampler is compared against."""

from collections import deque

import numpy as np

from .errors import ParameterError, readable
from .geometry import RANK_TOLERANCE, SubsetBasis, check_p
from .proposal import _draw_banks, _norm_weights, _running_total
from .stream import as_source


# Draws deduplicated at a time: np.unique's sort takes about 30 bytes a draw
# beside the draws, more than the memory guard charges a draw.
_DEDUP_DRAWS = 1 << 16


def _selection_pass(src):
    deque(src.iterate_once("selection"), maxlen=0)


def _first_draws(draws, member):
    """The rows of `draws` that `member` (a bool flag a row) does not flag,
    each once, in the order of its first draw; flags them. The one
    first-draw rule: it sorts `_DEDUP_DRAWS` draws at a time."""
    picks = []
    for start in range(0, len(draws), _DEDUP_DRAWS):
        chunk = draws[start:start + _DEDUP_DRAWS]
        new = chunk[np.sort(np.unique(chunk, return_index=True)[1])]
        new = new[~member[new]]
        member[new] = True
        picks += new.tolist()
    return picks


def exact_adaptive_sample(data, p, t, l, rng):
    """Ground-truth adaptive sampling: l rounds, one full pass per round.

    Each round streams the data to compute the exact distribution
    proportional to d(x, span S)^p, then draws t i.i.d. indices from it
    and extends S (duplicates collapse). Terminates early once the error
    hits zero, where the distribution is undefined, or once no row can
    grow the span: every row's distance is at most half RANK_TOLERANCE
    times its norm, so `extended_many` would add no direction for it
    (this covers a span that is all of R^d, and data of rank below d).
    Its defining cost is up to l selection passes, counted by the
    source. It scores the source's `rows`: an array input in place, a
    file's as its first pass keeps them (see `DatasetSource.keep_rows`),
    so the file is parsed once and later passes check its bytes and
    replay the kept rows. Besides those rows it holds two n-vectors, the
    weights and the rows' span floor, a member flag a row, and
    `rng.choice`'s cumulative sum of the weights; `SubsetBasis.distances` keeps its temporaries to
    CHUNK_ROWS rows. Raises InputError naming the row at which a round's
    weight total overflows. A round's new picks join S in the order of
    their first draw, in one `extended_many` call.
    """
    src = as_source(data)
    if t < 1 or l < 0:
        raise ParameterError(f"need t >= 1 and l >= 0, got t={readable(t)}, l={readable(l)}")
    check_p(p)
    src.keep_rows()
    basis = SubsetBasis.empty(src.d)
    member = np.zeros(src.n, dtype=bool)
    for round_ in range(l):
        if not round_:
            _selection_pass(src)
        # a later round's weights come from the kept rows before its pass,
        # so a run that can no longer grow its span ends without one
        with np.errstate(over="ignore"):  # an overflowing weight is raised below
            weights = basis.distances(src.rows)
            if not round_:
                floor = weights * (0.5 * RANK_TOLERANCE)  # round 0's are the norms
            elif not (weights > floor).any():
                break
            weights **= p
        total = _running_total(0.0, weights)
        if total <= 0.0:
            break
        weights /= total
        if round_:
            _selection_pass(src)
        picks = _first_draws(rng.choice(src.n, size=t, p=weights), member)
        basis = basis.extended_many(picks, src.rows[picks])
    return basis


def squared_length_sample(data, p, count, rng):
    """One-shot norm-power sampling: count i.i.d. draws with P(x) ~ ||x||^p.

    p=2 is classical squared-length sampling. One selection pass; the
    returned subset keeps all count draws in order, duplicates included
    (with-replacement semantics), so its rank is at most the number of
    distinct picks. It is the mixture pool's pass with no uniform slots.
    The span grows in one `extended_many` call over each drawn row once,
    in the order of its first draw (`_first_draws`, exact-adaptive's
    rule): the basis a chain over every draw gives, since a repeated row
    adds no direction.
    """
    src = as_source(data)
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {readable(count)}")
    check_p(p)
    rows, row_index, _, bank, _ = _draw_banks(
        src.iterate_once("selection"), lambda block: _norm_weights(block, p), count, 0, rng)
    distinct = _first_draws(bank.win, np.zeros(len(rows), dtype=bool))
    grown = SubsetBasis.empty(src.d).extended_many(row_index[distinct], rows[distinct])
    return SubsetBasis(row_index[bank.win], grown.basis, src.d)
